"""Tests for the playback engine against a mock service."""

import pytest

from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine
from repro.workload.trace import TraceRecord


def records_at(times):
    return [
        TraceRecord(t, f"c{i}", f"http://x/{i}.gif", "image/gif", 1000)
        for i, t in enumerate(times)
    ]


class MockService:
    """Responds after a fixed service time; can be told to fail."""

    def __init__(self, env, service_time=0.1, fail_urls=()):
        self.env = env
        self.service_time = service_time
        self.fail_urls = set(fail_urls)
        self.received = []

    def submit(self, record):
        self.received.append((self.env.now, record))
        event = self.env.event()
        if record.url in self.fail_urls:
            raise RuntimeError("service refused")
        self.env.process(self._respond(event, record))
        return event

    def _respond(self, event, record):
        yield self.env.timeout(self.service_time)
        event.succeed({"url": record.url})


def test_faithful_playback_preserves_spacing():
    env = Environment()
    service = MockService(env)
    engine = PlaybackEngine(env, service.submit)
    trace = records_at([100.0, 100.5, 102.0])
    engine.play(trace)
    env.run()
    submit_times = [t for t, _ in service.received]
    assert submit_times == pytest.approx([0.0, 0.5, 2.0])
    assert len(engine.completed()) == 3
    assert engine.latencies() == pytest.approx([0.1, 0.1, 0.1])


def test_playback_with_offset():
    env = Environment()
    service = MockService(env)
    engine = PlaybackEngine(env, service.submit)
    engine.play(records_at([0.0, 1.0]), time_offset=10.0)
    env.run()
    assert [t for t, _ in service.received] == pytest.approx([10.0, 11.0])


def test_constant_rate_mode_hits_requested_rate():
    env = Environment()
    service = MockService(env, service_time=0.01)
    rng = RandomStreams(5).stream("playback")
    engine = PlaybackEngine(env, service.submit, rng=rng)
    pool = records_at([0.0])
    engine.ramp([(60.0, 50.0)], pool)
    env.run()
    assert len(service.received) / 60.0 == pytest.approx(50.0, rel=0.15)


def test_constant_rate_requires_rng():
    env = Environment()
    engine = PlaybackEngine(env, MockService(env).submit)
    with pytest.raises(ValueError):
        engine.ramp([(1.0, 10.0)], records_at([0.0]))


def test_ramp_mode_changes_rate_per_step():
    env = Environment()
    service = MockService(env, service_time=0.01)
    rng = RandomStreams(5).stream("playback")
    engine = PlaybackEngine(env, service.submit, rng=rng)
    pool = records_at([0.0])
    engine.ramp([(30.0, 5.0), (30.0, 40.0)], pool)
    env.run()
    first_half = sum(1 for t, _ in service.received if t < 30.0)
    second_half = sum(1 for t, _ in service.received if t >= 30.0)
    assert second_half > 4 * first_half


def test_ramp_zero_rate_pauses():
    env = Environment()
    service = MockService(env)
    rng = RandomStreams(5).stream("playback")
    engine = PlaybackEngine(env, service.submit, rng=rng)
    engine.ramp([(10.0, 0.0), (10.0, 10.0)], records_at([0.0]))
    env.run()
    assert all(t >= 10.0 for t, _ in service.received)


def test_adapter_exception_recorded_as_failure():
    env = Environment()
    service = MockService(env, fail_urls={"http://x/0.gif"})
    engine = PlaybackEngine(env, service.submit)
    engine.play(records_at([0.0, 1.0]))
    env.run()
    assert len(engine.failed()) == 1
    assert "service refused" in engine.failed()[0].error
    assert len(engine.completed()) == 1


def test_timeout_marks_request_failed():
    env = Environment()
    service = MockService(env, service_time=10.0)
    engine = PlaybackEngine(env, service.submit, timeout_s=1.0)
    engine.play(records_at([0.0]))
    env.run()
    assert len(engine.failed()) == 1
    assert engine.failed()[0].error == "timeout"


def test_in_flight_tracking():
    env = Environment()
    service = MockService(env, service_time=5.0)
    engine = PlaybackEngine(env, service.submit)
    engine.play(records_at([0.0, 0.1, 0.2]))
    env.run()
    assert engine.max_in_flight == 3
    assert engine.in_flight == 0


def test_throughput_window():
    env = Environment()
    service = MockService(env, service_time=0.0)
    engine = PlaybackEngine(env, service.submit)
    engine.play(records_at([0.0, 1.0, 2.0, 3.0]))
    env.run(until=100.0)
    # all 4 completed by t=3; window of last 50 s covers them
    assert engine.throughput(100.0) == pytest.approx(4 / 100.0)
    with pytest.raises(ValueError):
        engine.throughput(0.0)


def test_playback_event_fires_when_the_source_runs_out():
    env = Environment()
    service = MockService(env, service_time=5.0)
    engine = PlaybackEngine(env, service.submit)
    env.run(until=engine.play(records_at([100.0, 101.0, 102.5])))
    assert env.now == 2.5
    assert engine.stats.submitted == 3
    assert engine.in_flight == 3
    # a rate schedule ends at its last step's end, arrival or not
    engine.rng = RandomStreams(5).stream("playback")
    env.run(until=engine.ramp([(1.0, 2.0), (3.0, 0.0)],
                              records_at([0.0])))
    assert env.now == 2.5 + 1.0 + 3.0


def test_play_scheduled_past_due_records_submit_immediately():
    env = Environment()
    service = MockService(env, service_time=0.0)
    engine = PlaybackEngine(env, service.submit)
    # both records are already due at t=0 on this clock
    engine.play_scheduled(records_at([3.0, 4.0]), clock_origin=5.0)
    env.run()
    assert [t for t, _ in service.received] == [0.0, 0.0]
    assert engine.stats.submitted == 2


def test_throughput_modes_agree():
    """Bounded-memory mode must answer the same windowed-throughput
    query as the outcome-scanning mode, for every window that the
    completion ring covers."""
    times = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0]
    results = {}
    for record_outcomes in (True, False):
        env = Environment()
        service = MockService(env, service_time=0.0)
        engine = PlaybackEngine(env, service.submit,
                                record_outcomes=record_outcomes)
        engine.play(records_at(times))
        env.run(until=12.0)
        results[record_outcomes] = [engine.throughput(w)
                                    for w in (1.5, 5.0, 12.0)]
    assert results[True] == pytest.approx(results[False])
    # the trailing 1.5 s window sees only the completion at t=11
    assert results[False][0] == pytest.approx(1 / 1.5)


def test_throughput_ring_wrap_raises_instead_of_undercounting():
    env = Environment()
    service = MockService(env, service_time=0.0)
    engine = PlaybackEngine(env, service.submit,
                            record_outcomes=False, throughput_ring=2)
    engine.play(records_at([0.0, 1.0, 2.0, 3.0]))
    env.run(until=4.0)
    # ring holds completions at t=2 and t=3 only; a 1.5 s window
    # (horizon 2.5) is fully covered...
    assert engine.throughput(1.5) == pytest.approx(1 / 1.5)
    # ...but a 3 s window (horizon 1.0) reaches past the evicted
    # completions at t=0 and t=1 and must refuse rather than lie
    with pytest.raises(ValueError, match="larger"):
        engine.throughput(3.0)


def test_throughput_zero_ring_raises_in_bounded_mode():
    env = Environment()
    service = MockService(env, service_time=0.0)
    engine = PlaybackEngine(env, service.submit,
                            record_outcomes=False, throughput_ring=0)
    engine.play(records_at([0.0]))
    env.run(until=1.0)
    with pytest.raises(ValueError, match="throughput_ring=0"):
        engine.throughput(1.0)


def test_bounded_mode_stats_match_recorded_mode():
    times = [0.0, 0.5, 1.0]
    stats = {}
    for record_outcomes in (True, False):
        env = Environment()
        service = MockService(env, service_time=0.1,
                              fail_urls={"http://x/1.gif"})
        engine = PlaybackEngine(env, service.submit,
                                record_outcomes=record_outcomes)
        engine.play(records_at(times))
        env.run()
        stats[record_outcomes] = engine.stats
    for mode in (True, False):
        assert stats[mode].submitted == 3
        assert stats[mode].completed == 2
        assert stats[mode].failed == 1
        assert stats[mode].mean_latency == pytest.approx(0.1)
    # only the recorded mode keeps per-request outcomes
    env = Environment()
    engine = PlaybackEngine(env, MockService(env).submit,
                            record_outcomes=False)
    engine.play(records_at([0.0]))
    env.run()
    assert engine.outcomes == []


# -- trajectory pins ------------------------------------------------------------
#
# Every arrival mode and every request-lifecycle branch (timeout on/off,
# outcome recording on/off, span tracing, a raising adapter, a failing
# reply) reduced to one sha256 over simulated values.  The expected
# digests were recorded before the engine was rebuilt on its callback
# pump; they must never change without an intended behaviour change.

PIN_TIMES = [100.0, 100.5, 102.0, 102.0, 103.7, 104.1, 104.15, 106.0]
PIN_SERVICE_TIMES = [0.1, 2.5, 0.3, 0.0, 1.2]
PIN_RAISE = "http://x/2.gif"
PIN_FAIL_REPLY = "http://x/5.gif"


class PinService:
    """Per-record service times; one URL raises at submit, one URL's
    reply event fails after its service time."""

    def __init__(self, env):
        self.env = env
        self.received = []

    def submit(self, record):
        index = len(self.received)
        self.received.append((self.env.now, record.url))
        if record.url == PIN_RAISE:
            raise RuntimeError("service refused")
        event = self.env.event()
        delay = PIN_SERVICE_TIMES[index % len(PIN_SERVICE_TIMES)]
        self.env.process(self._respond(event, record, delay))
        return event

    def _respond(self, event, record, delay):
        yield self.env.timeout(delay)
        if record.url == PIN_FAIL_REPLY:
            event.fail(ConnectionError("reply lost"))
        else:
            event.succeed(f"ok:{record.url}")


def _start(engine, mode):
    trace = records_at(PIN_TIMES)
    if mode == "play":
        engine.play(trace)
    elif mode == "play-offset":
        engine.play(trace, time_offset=10.0)
    elif mode == "play-scheduled":
        engine.play_scheduled(trace, clock_origin=101.0)
    elif mode == "constant-rate":
        engine.ramp([(4.0, 3.0)], trace)
    elif mode == "ramp":
        engine.ramp([(1.5, 4.0), (1.0, 0.0), (2.0, 6.0)], trace)


def _pin_digest(mode, timeout_s, record_outcomes, traced=False):
    import hashlib

    from repro.obs import install_tracer

    env = Environment()
    tracer = install_tracer(env) if traced else None
    service = PinService(env)
    successes = []
    engine = PlaybackEngine(
        env, service.submit, rng=RandomStreams(11).stream("pin"),
        timeout_s=timeout_s, record_outcomes=record_outcomes,
        on_success=lambda response, latency:
            successes.append((response, latency)))
    _start(engine, mode)
    env.run()
    stats = engine.stats
    lines = [repr(service.received), repr(successes), repr((
        stats.submitted, stats.completed, stats.failed,
        stats.latency_sum, stats.latency_min, stats.latency_max,
        list(stats.recent_completions), engine.in_flight,
        engine.max_in_flight))]
    for outcome in engine.outcomes:
        lines.append(repr((
            outcome.record.url, outcome.submitted_at,
            outcome.completed_at, outcome.ok, outcome.response,
            outcome.error, outcome.trace_id)))
    if tracer is not None:
        for trace_id, spans in sorted(tracer.spans.items()):
            for span in spans:
                lines.append(repr((
                    trace_id, span.name, span.start, span.end,
                    sorted(span.annotations.items()))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


PIN_MODES = ("play", "play-offset", "play-scheduled", "constant-rate",
             "ramp")
PLAYBACK_PINS = {
    "play/timeout=None/outcomes=True/traced=False":
        "6dff5161a7c5d987",
    "play/timeout=None/outcomes=True/traced=True":
        "4729862614ab360a",
    "play/timeout=None/outcomes=False/traced=False":
        "d66fbee0e0fa66d9",
    "play/timeout=None/outcomes=False/traced=True":
        "f4b17665e45040a3",
    "play/timeout=1.0/outcomes=True/traced=False":
        "e5b6eec16ee5a7d1",
    "play/timeout=1.0/outcomes=True/traced=True":
        "7d30da348fa323ef",
    "play/timeout=1.0/outcomes=False/traced=False":
        "64ecbe9db025fb3d",
    "play/timeout=1.0/outcomes=False/traced=True":
        "ac97717f5e092184",
    "play-offset/timeout=None/outcomes=True/traced=False":
        "c9d987872e8d808a",
    "play-offset/timeout=None/outcomes=True/traced=True":
        "5c4763f00524101b",
    "play-offset/timeout=None/outcomes=False/traced=False":
        "60b0d68e2295d826",
    "play-offset/timeout=None/outcomes=False/traced=True":
        "8f413b968df9b124",
    "play-offset/timeout=1.0/outcomes=True/traced=False":
        "689945c5c598efe2",
    "play-offset/timeout=1.0/outcomes=True/traced=True":
        "6c8a7faa2d06603d",
    "play-offset/timeout=1.0/outcomes=False/traced=False":
        "43a2598e809edf15",
    "play-offset/timeout=1.0/outcomes=False/traced=True":
        "908f9847f8141051",
    "play-scheduled/timeout=None/outcomes=True/traced=False":
        "ad906493960675d0",
    "play-scheduled/timeout=None/outcomes=True/traced=True":
        "66827f3b358714ec",
    "play-scheduled/timeout=None/outcomes=False/traced=False":
        "74060c0c132eb64b",
    "play-scheduled/timeout=None/outcomes=False/traced=True":
        "62a0a82131652ec3",
    "play-scheduled/timeout=1.0/outcomes=True/traced=False":
        "56ff2de88b375533",
    "play-scheduled/timeout=1.0/outcomes=True/traced=True":
        "2d1c07ad2a6c1f35",
    "play-scheduled/timeout=1.0/outcomes=False/traced=False":
        "c7b965eb447341d1",
    "play-scheduled/timeout=1.0/outcomes=False/traced=True":
        "2cdc90610956332a",
    "constant-rate/timeout=None/outcomes=True/traced=False":
        "cb79a3dddd4f8980",
    "constant-rate/timeout=None/outcomes=True/traced=True":
        "4ee66161f25802d7",
    "constant-rate/timeout=None/outcomes=False/traced=False":
        "bcbc25e99182e307",
    "constant-rate/timeout=None/outcomes=False/traced=True":
        "d878ca101af0322f",
    "constant-rate/timeout=1.0/outcomes=True/traced=False":
        "d10716f0003c629c",
    "constant-rate/timeout=1.0/outcomes=True/traced=True":
        "812fbc421c67bcda",
    "constant-rate/timeout=1.0/outcomes=False/traced=False":
        "4328728c6000f470",
    "constant-rate/timeout=1.0/outcomes=False/traced=True":
        "6cc79799b9975898",
    "ramp/timeout=None/outcomes=True/traced=False":
        "24d887fcddbef5cb",
    "ramp/timeout=None/outcomes=True/traced=True":
        "c51a9381e440a6bb",
    "ramp/timeout=None/outcomes=False/traced=False":
        "ae70594f6ad91475",
    "ramp/timeout=None/outcomes=False/traced=True":
        "da4c702191fb6982",
    "ramp/timeout=1.0/outcomes=True/traced=False":
        "e09a04c3e80e2797",
    "ramp/timeout=1.0/outcomes=True/traced=True":
        "f03a14e02c917f55",
    "ramp/timeout=1.0/outcomes=False/traced=False":
        "6c46d356df8aecbe",
    "ramp/timeout=1.0/outcomes=False/traced=True":
        "6d04652ad71921ec",
}


@pytest.mark.parametrize("traced", (False, True))
@pytest.mark.parametrize("record_outcomes", (True, False))
@pytest.mark.parametrize("timeout_s", (None, 1.0))
@pytest.mark.parametrize("mode", PIN_MODES)
def test_playback_trajectory_pin(mode, timeout_s, record_outcomes,
                                 traced):
    key = f"{mode}/timeout={timeout_s}/outcomes={record_outcomes}" \
          f"/traced={traced}"
    assert _pin_digest(mode, timeout_s, record_outcomes, traced) \
        == PLAYBACK_PINS[key]
