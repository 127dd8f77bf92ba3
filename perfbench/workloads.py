"""The benchmark's three workloads, each one deterministic *unit* of work.

A unit builds its deployment from the workload seed, plays an open-loop
load through the program's public entry points, drains, and checks the
outcome.  Everything simulated is a pure function of the seed, so a
unit repeated in a fresh process must produce the same outcome digest;
only host-clock figures may differ between repeats.

Imports of ``repro`` happen inside the unit functions: the import cost
is part of the set-up a workload pays, and each workload pays only for
the packages it uses.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

#: jpeg-wide: fixed distiller pool, offered rate and requests per unit.
JPEG_WORKERS = 128
JPEG_RATE_RPS = 800.0
JPEG_REQUESTS = 6_000

#: transend-trace: one deployment per derived seed, each playing windows
#: of its synthetic trace back to back.  The windows lie half an hour
#: apart on the generator's timeline, so each draws the cascade's
#: slowest (1800 s) burst level afresh, and each derived seed brings its
#: own document universe: pooling them keeps one seed's draw of either
#: from setting the unit's whole latency tail.
TRANSEND_USERS = 2000
TRANSEND_RATE_RPS = 30.0
TRANSEND_SEEDS = 3
TRANSEND_WINDOWS = 2
TRANSEND_WINDOW_S = 60.0
TRANSEND_WINDOW_SPACING_S = 1800.0
TRANSEND_CACHE_BYTES = 2 * 1024 * 1024

#: chaos-mix: campaigns run for each derived seed, and how many seeds.
#: ``flash-crowd`` is left out: its brownout controller misses the
#: campaign's own yield >= 0.99 invariant at some seeds (benchmark
#: seeds 19 and 39 among 0-39), and a benchmark run must pass at every
#: seed.  See README.md, "Known defects".
CHAOS_CAMPAIGNS = ("gray-failures", "brick-failures",
                   "partition-failures")
CHAOS_SEEDS = 2

#: simulated seconds to let in-flight requests finish after the last
#: submit before the run counts them as hanging.
DRAIN_LIMIT_S = 120.0

#: allowed gap between a record's due time and its submit time; the
#: arrival pump reschedules by ``due - now``, which can round by an ulp.
LATENESS_EPS_S = 1e-9


class CheckFailed(Exception):
    """An output check failed; the run must not report numbers."""


class Session:
    """Host-clock bookkeeping for one unit: set-up versus timed phase.

    ``t0`` is the monotonic time the process was spawned.  Set-up runs
    from there to the first submit of the first deployment, plus, for
    workloads that build several deployments, each later deployment's
    build-to-first-submit time.  The timed phase of a deployment runs
    from its first submit to the end of its drain.
    """

    def __init__(self, t0: float, tracer: Any = None) -> None:
        self.tracer = tracer
        self.setup_s = 0.0
        self.timed_s = 0.0
        self.build_s = 0.0
        self._mark = t0
        self._timed_from: Optional[float] = None
        #: simulated-clock bookkeeping, summed over deployments
        self.requests = 0
        self.events = 0
        self.idle_events = 0
        self.idle_sim_s = 0.0
        self.sim_s = 0.0
        self._env: Any = None
        self._seq0 = 0

    def deployment(self) -> None:
        """A later deployment starts building: its set-up counts."""
        self._mark = time.monotonic()

    def begin(self, env: Any) -> None:
        """The first request of this deployment is being submitted."""
        now = time.monotonic()
        self.setup_s += now - self._mark
        self._env = env
        self._seq0 = env._seq
        self.idle_events += env._seq
        self.idle_sim_s += env.now
        if self.tracer is not None:
            self.tracer.begin()
        self._timed_from = time.perf_counter()

    def end(self, requests: int) -> None:
        self.timed_s += time.perf_counter() - self._timed_from
        if self.tracer is not None:
            self.tracer.end()
        self._timed_from = None
        env = self._env
        self.requests += requests
        self.events += env._seq - self._seq0
        self.sim_s += env.now


class Outcome:
    """Client-side view of every request: resolution, latency, status.

    Latencies go into the program's own ``LatencyStats`` (answered and
    error replies alike; a client timeout has no latency).  The digest
    covers the counters and every latency sample in completion order,
    so any change to a simulated outcome changes it.
    """

    def __init__(self, latency: Any) -> None:
        self.latency = latency
        self.submitted = 0
        self.statuses: Dict[str, int] = {}
        #: requests that got no reply at all (client-side failures)
        self.no_reply = 0
        self.max_lateness_s = 0.0
        self._resolutions = bytearray()
        self.counters: Dict[str, Any] = {}

    # -- callback-path clients (jpeg-wide, transend-trace) ---------------

    def client(self, target: Callable[[Any], Any], env: Any,
               clock_origin: float, tracer: Any = None
               ) -> Callable[[Any], Any]:
        """Submit adapter for one arrival pump: checks each record is
        submitted at its due time and audits its reply event."""
        resolutions = self._resolutions

        def resolve(_event: Any, rid: int) -> None:
            resolutions[rid] += 1

        def submit(record: Any):
            rid = self.submitted
            self.submitted = rid + 1
            resolutions.append(0)
            lateness = abs(env._now - (record.timestamp - clock_origin))
            if lateness > self.max_lateness_s:
                self.max_lateness_s = lateness
            if tracer is not None:
                tracer.pending_rid = rid
            event = target(record)
            if tracer is not None:
                tracer.pending_rid = None
            callbacks = event.callbacks
            if callbacks is None:
                resolve(event, rid)
            else:
                callbacks.append(lambda e, rid=rid: resolve(e, rid))
            return event

        return submit

    def on_reply(self, response: Any, latency_s: float) -> None:
        self.latency.add(latency_s)
        status = getattr(response, "status", "ok")
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def check_engines(self, engines: List[Any], before: int = 0) -> None:
        """Conservation over ``engines``, which submitted every request
        since the first ``before`` ones."""
        submitted = sum(engine.stats.submitted for engine in engines)
        completed = sum(engine.stats.completed for engine in engines)
        failed = sum(engine.stats.failed for engine in engines)
        in_flight = sum(engine.in_flight for engine in engines)
        if submitted != self.submitted - before:
            raise CheckFailed(f"engines saw {submitted} submits, the "
                              f"client {self.submitted - before}")
        if submitted != completed + failed:
            raise CheckFailed(f"conservation: {submitted} submitted != "
                              f"{completed} completed + {failed} failed")
        if in_flight:
            raise CheckFailed(f"{in_flight} requests in flight after "
                              "the drain")
        bad = [rid for rid in range(before, self.submitted)
               if self._resolutions[rid] != 1]
        if bad:
            raise CheckFailed(
                f"{len(bad)} requests did not resolve exactly once "
                f"(first: request {bad[0]} resolved "
                f"{self._resolutions[bad[0]]} times)")
        if self.max_lateness_s > LATENESS_EPS_S:
            raise CheckFailed(f"a request was submitted "
                              f"{self.max_lateness_s:.3g}s after its "
                              "due time")
        self.no_reply += failed
        if self.submitted - self.no_reply != sum(self.statuses.values()):
            raise CheckFailed("reply count differs from completions")

    # -- results -----------------------------------------------------------

    @property
    def unanswered(self) -> int:
        """No reply, or an error reply (paper §2.3.1 yield)."""
        return self.no_reply + self.statuses.get("error", 0)

    @property
    def answered(self) -> int:
        return self.submitted - self.unanswered

    def digest(self) -> str:
        body = json.dumps({
            "submitted": self.submitted,
            "no_reply": self.no_reply,
            "statuses": self.statuses,
            "counters": self.counters,
        }, sort_keys=True).encode()
        samples = array("d", self.latency._samples).tobytes()
        return hashlib.sha256(body + samples).hexdigest()

    def sim_metrics(self) -> Dict[str, float]:
        latency = self.latency
        if not latency.count or not self.submitted:
            raise CheckFailed("no request completed")
        answered = self.answered
        return {
            "sim_p50_ms": latency.p50 * 1000.0,
            "sim_p99_ms": latency.percentile(0.99) * 1000.0,
            "sim_yield": answered / self.submitted,
            "sim_harvest": (self.statuses.get("ok", 0) / answered
                            if answered else 0.0),
        }


def _drain(cluster: Any, all_due: Callable[[], bool],
           in_flight: Callable[[], int]) -> None:
    """Advance the clock one simulated second at a time: first until
    every record has been submitted, then until no request is in
    flight, giving up ``DRAIN_LIMIT_S`` later (the conservation check
    then reports what is left)."""
    env = cluster.env
    while not all_due():
        cluster.run(until=env.now + 1.0)
    limit = env.now + DRAIN_LIMIT_S
    while in_flight() and env.now < limit:
        cluster.run(until=env.now + 1.0)


def _timed_records(records: Any, tracer: Any) -> Any:
    """The trace iterator, with each pull a workload span when traced."""
    if tracer is None:
        return records
    return tracer.timed_iterator(records, "workload.record")


# -- jpeg-wide ---------------------------------------------------------------

def jpeg_wide(seed: int, session: Session, scale: float = 1.0) -> Outcome:
    """Wide fixed JPEG pool behind the bench fabric (lottery routing)."""
    from repro.analysis.metrics import LatencyStats
    from repro.core.config import SNSConfig
    from repro.experiments._harness import build_bench_fabric
    from repro.workload.playback import PlaybackEngine
    from repro.workload.tracegen import iter_fixed_jpeg_trace

    tracer = session.tracer
    n_requests = max(1, int(JPEG_REQUESTS * scale))
    config = SNSConfig(
        spawn_threshold=1e9,  # fixed pool: spawning disabled
        frontend_threads=2000,
        frontend_connection_overhead_s=0.001,
    )
    fabric = build_bench_fabric(n_nodes=JPEG_WORKERS + 4, seed=seed,
                                config=config)
    fabric.boot(n_frontends=2,
                initial_workers={"jpeg-distiller": JPEG_WORKERS})
    cluster = fabric.cluster
    env = cluster.env
    cluster.run(until=2.0)

    outcome = Outcome(LatencyStats())
    started = time.perf_counter()
    records = iter_fixed_jpeg_trace(JPEG_RATE_RPS, n_requests, seed=seed)
    session.build_s += time.perf_counter() - started
    origin = -env.now
    engine = PlaybackEngine(
        env, outcome.client(fabric.submit, env, origin, tracer),
        record_outcomes=False, on_success=outcome.on_reply)
    session.begin(env)
    engine.play_scheduled(_timed_records(records, tracer),
                          clock_origin=origin)
    _drain(cluster, lambda: engine.stats.submitted >= n_requests,
           lambda: engine.in_flight)
    session.end(engine.stats.submitted)

    if engine.stats.submitted != n_requests:
        raise CheckFailed(f"{engine.stats.submitted} of {n_requests} "
                          "records were submitted")
    outcome.check_engines([engine])
    stubs = [frontend.stub for frontend in fabric.frontends.values()]
    outcome.counters = {
        "served": {name: stub.served
                   for name, stub in sorted(fabric.workers.items())},
        "retries": sum(stub.retries for stub in stubs),
        "timeouts": sum(stub.timeouts for stub in stubs),
        "sim_end_s": env.now,
    }
    return outcome


# -- transend-trace ----------------------------------------------------------

def transend_trace(seed: int, session: Session,
                   scale: float = 1.0) -> Outcome:
    """Full TranSend: Harvest caches, profile store, origin, distillers."""
    from repro.analysis.metrics import LatencyStats

    outcome = Outcome(LatencyStats())
    counters = []
    for index, deployment_seed in enumerate(
            derived_seeds(seed, "transend-trace", TRANSEND_SEEDS)):
        if index:
            session.deployment()
        counters.append(_transend_deployment(deployment_seed, session,
                                             outcome, scale))
    outcome.counters = {"deployments": counters}
    return outcome


def _transend_deployment(seed: int, session: Session, outcome: Outcome,
                         scale: float) -> Dict[str, Any]:
    from repro.transend.service import TranSend
    from repro.workload.playback import PlaybackEngine
    from repro.workload.tracegen import TraceGenerator

    tracer = session.tracer
    window_s = TRANSEND_WINDOW_S * scale
    transend = TranSend(n_nodes=10, n_cache_nodes=4,
                        cache_capacity_bytes=TRANSEND_CACHE_BYTES,
                        seed=seed)
    transend.start(n_frontends=2)
    cluster = transend.cluster
    env = cluster.env

    started = time.perf_counter()
    generator = TraceGenerator(seed=seed, n_users=TRANSEND_USERS,
                               mean_rate_rps=TRANSEND_RATE_RPS,
                               with_daily_cycle=False)
    session.build_s += time.perf_counter() - started
    base = env.now
    engines = []
    submitted_before = outcome.submitted
    session.begin(env)
    for index in range(TRANSEND_WINDOWS):
        start_s = index * TRANSEND_WINDOW_SPACING_S
        # window ``index`` plays during [base + index*window_s, ...)
        origin = start_s - (base + index * window_s)
        engine = PlaybackEngine(
            env, outcome.client(transend.submit, env, origin, tracer),
            record_outcomes=False, on_success=outcome.on_reply)
        engine.play_scheduled(
            _timed_records(generator.iter_generate(window_s, start_s),
                           tracer),
            clock_origin=origin)
        engines.append(engine)
    end = base + TRANSEND_WINDOWS * window_s
    _drain(cluster, lambda: env.now >= end,
           lambda: sum(engine.in_flight for engine in engines))
    session.end(sum(engine.stats.submitted for engine in engines))

    outcome.check_engines(engines, submitted_before)
    cachesys = transend.cachesys
    return {
        "paths": dict(sorted(transend.logic.paths.items())),
        "cache_hits": cachesys.hits,
        "cache_misses": cachesys.misses,
        "evictions": sum(node.store.evictions
                         for node in cachesys.nodes.values()),
        "origin_fetches": transend.origin.fetches,
        "spawns": (transend.fabric.manager.spawns
                   if transend.fabric.manager else 0),
        "sim_end_s": env.now,
    }


# -- chaos-mix ---------------------------------------------------------------

def derived_seeds(seed: int, workload: str, count: int) -> List[int]:
    """The seeds of a workload's deployments, derived from its seed."""
    from repro.sim.rng import derive_seed
    return [derive_seed(seed, f"{workload}:{index}") % (2 ** 31)
            for index in range(count)]


def chaos_mix(seed: int, session: Session, scale: float = 1.0) -> Outcome:
    """Fault campaigns under live load, for each derived seed."""
    # ``repro.chaos`` cannot be imported first in a fresh interpreter:
    # chaos.batch -> chaos.campaign -> experiments/__init__ ->
    # experiments.flash_crowd -> chaos.batch is a cycle.  Importing
    # ``repro.experiments`` first (as the CLI does) resolves it.
    import repro.experiments  # noqa: F401  (import-order workaround)
    from dataclasses import replace

    from repro.analysis.metrics import LatencyStats
    from repro.chaos.campaign import CampaignRunner, get_campaign

    tracer = session.tracer
    pooled = LatencyStats()
    outcome = Outcome(pooled)
    reports = []
    first = True
    for campaign_seed in derived_seeds(seed, "chaos-mix", CHAOS_SEEDS):
        for name in CHAOS_CAMPAIGNS:
            if not first:
                session.deployment()
            first = False
            started = time.perf_counter()
            campaign = get_campaign(name)
            if name == "partition-failures":
                # the Paxos-replicated control plane, so consensus runs
                campaign = replace(campaign, manager_backend="consensus")
            if scale != 1.0:
                campaign = _scaled_campaign(campaign, scale)
            session.build_s += time.perf_counter() - started
            runner = CampaignRunner(campaign, seed=campaign_seed)
            engine = runner.engine
            env = runner.env
            checked_submit = engine.submit

            def first_submit(record, _env=env, _submit=checked_submit,
                             _engine=engine):
                _engine.submit = _submit
                session.begin(_env)
                return _submit(record)

            engine.submit = first_submit
            report = runner.run()
            session.end(engine.stats.submitted)
            _check_campaign(name, campaign_seed, runner, report, outcome)
            reports.append(report)
    outcome.counters = {"reports": [hashlib.sha256(
        report.render().encode()).hexdigest() for report in reports]}
    return outcome


def _scaled_campaign(campaign: Any, scale: float) -> Any:
    """A shorter copy of ``campaign`` for the benchmark's own tests:
    every fault time and the load schedule shrink by ``scale``."""
    from dataclasses import fields, replace
    actions = []
    for action in campaign.actions:
        changes = {f.name: getattr(action, f.name) * scale
                   for f in fields(action)
                   if f.name in ("at", "duration_s", "restart_after")
                   and getattr(action, f.name) is not None}
        actions.append(replace(action, **changes))
    schedule = campaign.arrival_schedule
    if schedule is not None:
        schedule = [(duration * scale, rate) for duration, rate in schedule]
    return replace(campaign, actions=actions, arrival_schedule=schedule,
                   duration_s=campaign.duration_s * scale)


def _check_campaign(name: str, seed: int, runner: Any, report: Any,
                    outcome: Outcome) -> None:
    engine = runner.engine
    stats = engine.stats
    where = f"{name} (seed {seed})"
    if report.violations:
        raise CheckFailed(
            f"{where}: {len(report.violations)} invariant violation(s): "
            + "; ".join(repr(v) for v in report.violations[:3]))
    if stats.submitted != stats.completed + stats.failed:
        raise CheckFailed(f"{where}: conservation: {stats.submitted} "
                          f"submitted != {stats.completed} + "
                          f"{stats.failed}")
    if engine.in_flight:
        raise CheckFailed(f"{where}: {engine.in_flight} in flight at end")
    if len(engine.outcomes) != stats.submitted:
        raise CheckFailed(f"{where}: {len(engine.outcomes)} outcomes for "
                          f"{stats.submitted} requests")
    outcome.submitted += stats.submitted
    for result in engine.outcomes:
        if not result.ok:
            outcome.no_reply += 1
            continue
        status = getattr(result.response, "status", "ok")
        outcome.statuses[status] = outcome.statuses.get(status, 0) + 1
    if report.latency_stats is not None:
        outcome.latency.merge(report.latency_stats)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "jpeg-wide": jpeg_wide,
    "transend-trace": transend_trace,
    "chaos-mix": chaos_mix,
}
