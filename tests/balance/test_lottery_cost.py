"""Pick-cost gate for the lottery: Python frames per pick, not seconds.

``LotteryPolicy.select`` runs once per dispatch over every cached hint,
so its cost must grow only with the arithmetic per candidate, never
with a Python call per candidate.  Counting ``call`` profile events is
deterministic, so the gate holds on a loaded or single-core runner
where a wall-clock bound would not.
"""

import sys

from repro.balance import LotteryPolicy
from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert
from repro.sim.rng import RandomStreams


def refreshed_pool(size):
    pool = []
    for i in range(size):
        name = f"w{i}"
        state = AdvertState(WorkerAdvert(
            worker_name=name, worker_type="test-worker", node_name="node0",
            stub=None, queue_avg=float(i % 7), last_report_at=0.0), 0.0)
        state.refresh(WorkerAdvert(
            worker_name=name, worker_type="test-worker", node_name="node0",
            stub=None, queue_avg=float(i % 5), last_report_at=1.0), 1.0)
        state.sent_since_report = i % 3
        pool.append(state)
    return pool


def python_calls_in_select(size):
    """Python-level ``call`` events during one pick, the ``select``
    frame itself included."""
    policy = LotteryPolicy(SNSConfig(),
                           RandomStreams(7).stream("lottery:fe0"))
    candidates = refreshed_pool(size)
    assert candidates[0].slope is not None
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        policy.select(candidates, 1.5)
    finally:
        sys.setprofile(None)
    return calls


def test_lottery_pick_makes_constant_python_calls():
    small, large = python_calls_in_select(16), python_calls_in_select(128)
    assert small == large
    assert large <= 2
