"""Tests for the distributed-balancing alternative (Section 2.2.2).

"The decision to centralize rather than distribute load balancing is
intentional: if the load balancer can be made fault tolerant, and if we
can ensure it does not become a performance bottleneck, centralization
makes it easier to implement and reason about the behavior of the load
balancing policy."  The distributed variant works — and costs more
control traffic, which is the measurable half of the argument.
"""

import pytest

from repro.core.messages import BEACON_GROUP, WORKER_ANNOUNCE_GROUP
from repro.sim.rng import RandomStreams
from repro.workload.playback import PlaybackEngine

from tests.core.conftest import fast_config, make_fabric, make_record


def make_distributed(n_nodes=10, n_frontends=1, workers=2, seed=7):
    fabric = make_fabric(
        n_nodes=n_nodes, seed=seed,
        config=fast_config(balancing="distributed",
                           spawn_threshold=1e9,
                           reap_after_s=1e9))
    fabric.boot(n_frontends=n_frontends,
                initial_workers={"test-worker": workers})
    fabric.cluster.run(until=3.0)
    return fabric


def test_distributed_mode_serves_requests():
    fabric = make_distributed()
    reply = fabric.submit(make_record())
    response = fabric.cluster.env.run(until=reply)
    assert response.status == "ok"


def test_frontends_learn_workers_from_announcements():
    fabric = make_distributed(workers=3)
    frontend = next(iter(fabric.frontends.values()))
    assert len(frontend.stub.candidates("test-worker")) == 3
    announce = fabric.cluster.multicast.group(WORKER_ANNOUNCE_GROUP)
    assert announce.delivered > 0


def test_dead_worker_expires_from_caches_by_timeout():
    fabric = make_distributed(workers=2)
    frontend = next(iter(fabric.frontends.values()))
    victim = fabric.alive_workers()[0]
    victim.kill()
    fabric.cluster.run(until=fabric.cluster.env.now + 5.0)
    names = [state.advert.worker_name
             for state in frontend.stub.candidates("test-worker")]
    assert victim.name not in names
    # service continues on the survivor
    reply = fabric.submit(make_record())
    assert fabric.cluster.env.run(until=reply).status == "ok"


def test_distributed_balances_load_comparably():
    fabric = make_distributed(workers=3)
    engine = PlaybackEngine(fabric.cluster.env, fabric.submit,
                            rng=RandomStreams(2).stream("pb"),
                            timeout_s=30.0)
    pool = [make_record(i) for i in range(20)]
    engine.ramp([(20.0, 30.0)], pool)
    fabric.cluster.run(until=50.0)
    served = sorted(stub.served for stub in fabric.alive_workers())
    assert sum(served) == len(engine.completed())
    assert served[0] > sum(served) * 0.15


def control_traffic(n_frontends, balancing, duration=20.0, workers=4):
    fabric = make_fabric(
        n_nodes=14, seed=11,
        config=fast_config(balancing=balancing, spawn_threshold=1e9))
    fabric.boot(n_frontends=n_frontends,
                initial_workers={"test-worker": workers})
    fabric.cluster.run(until=2.0)
    announce = fabric.cluster.multicast.group(WORKER_ANNOUNCE_GROUP)
    beacons = fabric.cluster.multicast.group(BEACON_GROUP)
    start = (announce.delivered, beacons.delivered,
             fabric.manager.reports_received)
    fabric.cluster.run(until=2.0 + duration)
    announce_delta = announce.delivered - start[0]
    beacon_delta = beacons.delivered - start[1]
    reports_delta = fabric.manager.reports_received - start[2]
    # control messages delivered per second, balancing-related
    return (announce_delta + beacon_delta + reports_delta) / duration


def test_distributed_control_traffic_scales_with_frontends():
    """The measurable half of the paper's argument: distributed load
    announcements cost O(workers x frontends); centralized costs
    O(workers + frontends)."""
    centralized_1 = control_traffic(1, "centralized")
    centralized_4 = control_traffic(4, "centralized")
    distributed_1 = control_traffic(1, "distributed")
    distributed_4 = control_traffic(4, "distributed")
    # going 1 -> 4 front ends inflates distributed control traffic much
    # more than centralized
    centralized_growth = centralized_4 - centralized_1
    distributed_growth = distributed_4 - distributed_1
    assert distributed_growth > 2 * centralized_growth, (
        centralized_1, centralized_4, distributed_1, distributed_4)


def test_config_rejects_unknown_balancing():
    with pytest.raises(ValueError):
        fast_config(balancing="anarchic").validate()
