"""The trace playback engine (Section 4.1).

"In order to realistically stress test TranSend, we created a high
performance trace playback engine.  The engine can generate requests at a
constant (and dynamically tunable) rate, or it can faithfully play back a
trace according to the timestamps in the trace file."

The engine is a simulation component: it submits each request to a
*service adapter* — any callable ``submit(record) -> Event`` whose event
fires with a response object — and records per-request outcomes for the
analysis layer.  The paper's two jobs are three entry points:

* :meth:`PlaybackEngine.play` — faithful timestamps, anchored so the
  first record plays at ``time_offset``; any iterable of records works,
  so a streaming source (a generator, or
  :func:`~repro.workload.trace.iter_trace`) never materializes the trace;
* :meth:`PlaybackEngine.play_scheduled` — faithful timestamps against an
  absolute clock, the time-shard and million-request replay form;
* :meth:`PlaybackEngine.ramp` — Poisson arrivals at piecewise-constant
  rates; one step is the constant-rate mode, several sweep offered load
  within a run (Figure 8, Table 2), and a rate of 0 pauses load.

Each mode is only a source of ``(wait, record)`` steps.  One arrival
pump walks any source on the kernel heap with
:meth:`~repro.sim.kernel.Environment.schedule_call`, with no player
process, and one request lifecycle settles every request.
Playback starts at the call; the returned event fires when the source
runs out.

For million-request replays, construct the engine with
``record_outcomes=False``: per-request :class:`RequestOutcome` objects
are skipped and only the O(1) :class:`PlaybackStats` aggregate is kept,
so memory stays bounded regardless of trace length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.sim.kernel import Environment, Event
from repro.sim.rng import Stream
from repro.workload.trace import TraceRecord

SubmitFn = Callable[[TraceRecord], Event]

#: default capacity of the completion-timestamp ring buffer kept by
#: :class:`PlaybackStats` for windowed-throughput queries.
THROUGHPUT_RING = 1024


@dataclass
class PlaybackStats:
    """O(1) streaming aggregate over all playback requests.

    Always maintained, whether or not per-request outcomes are recorded
    — it is the only record-keeping that survives a bounded-memory
    million-request replay.  ``recent_completions`` is a small ring of
    the latest completion timestamps, kept so
    :meth:`PlaybackEngine.throughput` answers in *both* modes instead
    of silently reading an empty outcome list.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    latency_sum: float = 0.0
    latency_min: float = float("inf")
    latency_max: float = 0.0
    recent_completions: deque = field(
        default_factory=lambda: deque(maxlen=THROUGHPUT_RING))

    def observe_success(self, latency: float,
                        completed_at: Optional[float] = None) -> None:
        self.completed += 1
        self.latency_sum += latency
        if latency < self.latency_min:
            self.latency_min = latency
        if latency > self.latency_max:
            self.latency_max = latency
        if completed_at is not None:
            self.recent_completions.append(completed_at)

    def observe_failure(self) -> None:
        self.failed += 1

    @property
    def mean_latency(self) -> Optional[float]:
        if not self.completed:
            return None
        return self.latency_sum / self.completed

    def merge(self, other: "PlaybackStats") -> None:
        """Fold another aggregate into this one (time-sharded replay
        merge).  Counters and latency aggregates combine exactly; the
        completion-timestamp ring is a live-engine trailing view in the
        source engine's own clock and is deliberately not merged —
        shards run on separate clocks."""
        self.submitted += other.submitted
        self.completed += other.completed
        self.failed += other.failed
        self.latency_sum += other.latency_sum
        if other.latency_min < self.latency_min:
            self.latency_min = other.latency_min
        if other.latency_max > self.latency_max:
            self.latency_max = other.latency_max


@dataclass
class RequestOutcome:
    """One completed (or failed) playback request."""

    record: TraceRecord
    submitted_at: float
    completed_at: Optional[float]
    ok: bool
    response: Any = None
    error: Optional[str] = None
    #: id of this request's span tree when it was sampled for tracing.
    trace_id: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class PlaybackEngine:
    """Drives a service adapter from a trace or a rate process."""

    def __init__(self, env: Environment, submit: SubmitFn,
                 rng: Optional[Stream] = None,
                 timeout_s: Optional[float] = None,
                 record_outcomes: bool = True,
                 on_success: Optional[Callable[[Any, float], None]]
                 = None,
                 throughput_ring: int = THROUGHPUT_RING) -> None:
        self.env = env
        self.submit = submit
        self.rng = rng
        self.timeout_s = timeout_s
        #: False = bounded-memory mode: keep only :attr:`stats`, never
        #: append to :attr:`outcomes` (which stays empty).
        self.record_outcomes = record_outcomes
        #: optional streaming observer called with (response, latency_s)
        #: for every completed request — how a million-request replay
        #: feeds exact-percentile accumulators (LatencyStats) without
        #: per-request outcome objects.
        self.on_success = on_success
        self.outcomes: List[RequestOutcome] = []
        self.stats = PlaybackStats(
            recent_completions=deque(maxlen=max(0, throughput_ring)))
        self.in_flight = 0
        self.max_in_flight = 0

    # -- modes ----------------------------------------------------------------

    def play(self, records: Iterable[TraceRecord],
             time_offset: float = 0.0) -> Event:
        """Faithful playback by trace timestamps.

        ``records`` may be any iterable — a list, a generator, or a
        streaming file reader — and is consumed one record at a time;
        the first record's timestamp anchors the trace's time origin,
        which plays at simulated time ``time_offset``.
        """
        return self._pump(self._trace_steps(records, time_offset, None))

    def play_scheduled(self, records: Iterable[TraceRecord],
                       clock_origin: float = 0.0) -> Event:
        """Playback against an absolute clock.

        A record with timestamp ``ts`` is submitted at simulated time
        ``ts - clock_origin`` — no anchoring to the first record.  This
        is what a time shard of a longer trace needs: every window of
        the same trace replays on the same global timeline, so a
        warm-up lead-in and its counted window pace each other exactly
        as the unsharded run would (see :mod:`repro.fanout.timeshard`).
        Records whose due time is already past submit immediately.
        """
        return self._pump(self._trace_steps(records, 0.0, clock_origin))

    def ramp(self, schedule: Sequence[Tuple[float, float]],
             records: Sequence[TraceRecord]) -> Event:
        """Poisson arrivals cycling over ``records``, with rate steps
        given as (duration_s, rate_rps).

        ``[(duration_s, rate_rps)]`` is the constant-rate mode.  A rate
        of 0 pauses offered load for that step.
        """
        if self.rng is None:
            raise ValueError("ramp mode requires an RNG stream")
        return self._pump(self._rate_steps(schedule, records))

    # -- step sources: (wait, record or None) ------------------------------------

    def _trace_steps(self, records: Iterable[TraceRecord],
                     time_offset: float, origin: Optional[float]
                     ) -> Iterator[Tuple[float, TraceRecord]]:
        """Trace timestamps as waits: a record is due at
        ``time_offset + (ts - origin)``, where a None ``origin`` is
        taken from the first record (anchored playback).  The wait is
        measured from the clock when the step is drawn."""
        env = self.env
        for record in records:
            if origin is None:
                origin = record.timestamp
            yield time_offset + (record.timestamp - origin) - env._now, \
                record

    def _rate_steps(self, schedule: Sequence[Tuple[float, float]],
                    records: Sequence[TraceRecord]
                    ) -> Iterator[Tuple[float, Optional[TraceRecord]]]:
        """Exponential gaps per rate step, then a record-less wait to
        the step's end.  The source keeps its own clock with
        ``now += wait`` — the same addition the kernel applies to heap
        times — and yields relative waits, so every arrival lands on
        exactly the float a sleeping player process would reach."""
        rng = self.rng
        now = self.env._now
        index = 0
        for duration_s, rate_rps in schedule:
            if rate_rps <= 0:
                yield duration_s, None
                now += duration_s
                continue
            end = now + duration_s
            while True:
                gap = rng.exponential(1.0 / rate_rps)
                if now + gap >= end:
                    remaining = end - now
                    if remaining > 0:
                        yield remaining, None
                        now += remaining
                    break
                yield gap, records[index % len(records)]
                now += gap
                index += 1

    def _pump(self, steps: Iterator[Tuple[float, Optional[TraceRecord]]]
              ) -> Event:
        """The arrival pump: submit each step's record after its wait.

        Each call first walks the steps up to the next positive wait
        and re-arms itself on the kernel heap for it, carrying that
        step's record, and only then submits the records already due —
        the order a player process had, whose requests started one
        event after the player went back to sleep.  A None record only
        advances the clock.  Returns an event that fires once the steps
        run out.
        """
        launch = self._launch
        schedule_call = self.env.schedule_call
        done = self.env.event()

        def pump(event: Optional[Event] = None) -> None:
            due = []
            if event is not None and event._value is not None:
                due.append(event._value)
            for wait, record in steps:
                if wait > 0.0:
                    schedule_call(wait, pump, record)
                    break
                if record is not None:
                    due.append(record)
            else:
                done.succeed()
            for record in due:
                launch(record)

        pump()
        return done

    # -- request lifecycle ---------------------------------------------------------

    def _launch(self, record: TraceRecord) -> None:
        env = self.env
        self.stats.submitted += 1
        in_flight = self.in_flight + 1
        self.in_flight = in_flight
        if in_flight > self.max_in_flight:
            self.max_in_flight = in_flight
        started = env._now
        tracer = env.tracer
        root = None
        if tracer is not None:
            # client-side root span: covers the whole request including
            # queueing/network the service never sees.  The hand-off
            # rides the synchronous submit() chain into the front end.
            root = tracer.open_trace("request", category="other")
            if root is not None:
                url = getattr(record, "url", None)
                if url is not None:
                    root.annotate(url=url)
            tracer.hand_off(root)
        settle = self._settle
        try:
            reply = self.submit(record)
        except Exception as error:  # adapter-level failure
            settle(record, started, root, False, error)
            return
        if tracer is not None:
            # the chain either consumed the hand-off synchronously or
            # never will (no instrumented ingress): clear it so it
            # cannot leak into an unrelated request
            tracer.drop_pending()
        callbacks = reply.callbacks
        if callbacks is None:
            # already processed: settle synchronously
            settle(record, started, root, reply._ok, reply._value)
        elif self.timeout_s is None:
            callbacks.append(lambda event: settle(
                record, started, root, event._ok, event._value))
        else:
            # one callback on both the reply and the client timer: the
            # first one processed settles the request, the other finds
            # its rival already processed and does nothing
            def race(event: Event) -> None:
                if event is timer:
                    if reply.callbacks is not None:
                        settle(record, started, root, False, None)
                elif timer.callbacks is not None:
                    settle(record, started, root, event._ok, event._value)
            callbacks.append(race)
            timer = env.schedule_call(self.timeout_s, race)

    def _settle(self, record: TraceRecord, started: float,
                root: Any, ok: bool, value: Any) -> None:
        """Account one request: ``value`` is the response when ``ok``,
        else the exception that failed it (None for a client timeout)."""
        now = self.env._now
        error = None
        if ok:
            latency = now - started
            if root is not None:
                root.annotate(outcome=getattr(value, "status", "ok"))
            self.stats.observe_success(latency, now)
            if self.on_success is not None:
                self.on_success(value, latency)
        else:
            if value is None:
                error = "timeout"
            else:
                error = f"{type(value).__name__}: {value}"
            if root is not None:
                root.annotate(outcome="timeout" if value is None else
                              f"error:{type(value).__name__}")
            self.stats.observe_failure()
        if self.record_outcomes:
            self.outcomes.append(RequestOutcome(
                record=record, submitted_at=started,
                completed_at=now if ok else None, ok=ok,
                response=value if ok else None, error=error,
                trace_id=root.trace_id if root is not None else None))
        if root is not None:
            root.finish()
        self.in_flight -= 1

    # -- summary -------------------------------------------------------------------

    def completed(self) -> List[RequestOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    def failed(self) -> List[RequestOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def latencies(self) -> List[float]:
        return [outcome.latency for outcome in self.completed()
                if outcome.latency is not None]

    def throughput(self, window_s: float) -> float:
        """Completed requests/second over the trailing window.

        Works in both modes: with ``record_outcomes=True`` it scans the
        outcome list; in bounded-memory mode it reads the completion
        ring in :attr:`PlaybackStats.recent_completions`.  If the ring
        has wrapped past the window's horizon the count would silently
        undercount, so that case raises instead — resize with the
        ``throughput_ring`` constructor argument.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        horizon = self.env.now - window_s
        if self.record_outcomes:
            recent = [
                outcome for outcome in self.outcomes
                if outcome.ok and outcome.completed_at is not None
                and outcome.completed_at >= horizon
            ]
            return len(recent) / window_s
        ring = self.stats.recent_completions
        if self.stats.completed and ring.maxlen == 0:
            raise ValueError(
                "throughput() needs the completion ring in bounded-"
                "memory mode, but this engine was built with "
                "throughput_ring=0")
        if len(ring) == ring.maxlen and ring and ring[0] >= horizon:
            raise ValueError(
                f"throughput window {window_s:g}s reaches past the "
                f"completion ring's {ring.maxlen} retained "
                f"completions; construct PlaybackEngine with a larger "
                f"throughput_ring to widen coverage")
        count = 0
        for completed_at in reversed(ring):
            if completed_at < horizon:
                break
            count += 1
        return count / window_s
