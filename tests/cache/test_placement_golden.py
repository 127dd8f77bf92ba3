"""Golden placement pins: every md5-derived placement, sha256-reduced.

Three codes place keys: the cache partitioners (mod-hash and the
consistent ring), DStore's partition -> replica-slot map, and the
bounded-load hash routing policy.  Each is driven over fixed inputs —
membership churn included — and reduced to one sha256.  A refactor of
placement that claims "no behaviour change" must leave every digest
alone.

Regenerate (only for an intended placement change) with::

    PYTHONPATH=src python tests/cache/test_placement_golden.py
"""

import hashlib
import random

import pytest

from repro.balance import BoundedLoadHashPolicy
from repro.cache.partition import ConsistentHashRing, ModHashPartitioner
from repro.core.config import SNSConfig
from repro.core.manager_stub import AdvertState
from repro.core.messages import WorkerAdvert
from repro.dstore import Partitioner

KEYS = [f"http://host{i % 37}/obj{i}.jpg" for i in range(600)]
USERS = [f"client{i}" for i in range(200)]
NODES = [f"cache{i}" for i in range(8)]

PARTITIONERS = {"mod-hash": ModHashPartitioner,
                "consistent": ConsistentHashRing}
SLOT_SHAPES = ((3, 2, 16), (5, 3, 32), (4, 1, 7))
POLICY_SIZES = (3, 16, 128)
POLICY_CONFIGS = (SNSConfig(),
                  SNSConfig(policy_hash_bound=1.0, policy_hash_replicas=3))


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def locate_digest(name):
    partitioner = PARTITIONERS[name](NODES)
    lines = [partitioner.locate(key) for key in KEYS]
    partitioner.remove_node("cache3")
    partitioner.add_node("cache8")
    lines += [partitioner.locate(key) for key in KEYS]
    return _sha(lines)


def slots_digest(n_bricks, replicas, n_partitions):
    partitioner = Partitioner(n_bricks, replicas, n_partitions)
    lines = [repr((user, partitioner.partition_of(user),
                   partitioner.replica_slots(user))) for user in USERS]
    lines += [repr((slot, partitioner.partitions_of_slot(slot)))
              for slot in range(n_bricks)]
    return _sha(lines)


def _state(name):
    return AdvertState(WorkerAdvert(
        worker_name=name, worker_type="test-worker", node_name="node0",
        stub=None, queue_avg=0.0, last_report_at=0.0), 0.0)


def policy_digest(n_workers, picks=400):
    """Seeded picks under random outstanding counts, ``None`` keys and
    membership churn (one worker leaves or joins every eight picks)."""
    lines = []
    for config in POLICY_CONFIGS:
        rng = random.Random(n_workers)
        policy = BoundedLoadHashPolicy(config, None)
        members = [_state(f"w.{index}") for index in range(n_workers)]
        spawned = n_workers
        hot = KEYS[:40]
        for step in range(picks):
            if step % 8 == 7:
                if len(members) > 1 and rng.random() < 0.5:
                    gone = members.pop(rng.randrange(len(members)))
                    policy.on_worker_removed(gone.advert.worker_name)
                else:
                    members.append(_state(f"w.{spawned}"))
                    spawned += 1
            for _ in range(rng.randrange(4)):
                name = rng.choice(members).advert.worker_name
                if rng.random() < 0.6:
                    policy.on_submit(name, 0.0)
                else:
                    policy.on_reply(name, 0.0, 0.01)
            key = None if rng.random() < 0.1 else rng.choice(hot)
            candidates = list(members)
            rng.shuffle(candidates)
            chosen = policy.select(candidates, 0.0, key=key)
            policy.on_submit(chosen.advert.worker_name, 0.0)
            lines.append(repr((step, key, chosen.advert.worker_name,
                               policy.overflow_hops)))
    return _sha(lines)


LOCATE_PINS = {
    "consistent":
        "23d5664b6ad884cfed39441b9dba426c1773095676dde57208933e6d557295d8",
    "mod-hash":
        "ac0a62b4f73bb4a1211eb21f0eaddf8a524aa50438e825679b7f717c944a8e2e",
}
SLOT_PINS = {
    (3, 2, 16):
        "06378543e34d7737f538d785704d0d8eefc9cfab16fa98979e7f4d7ba779f279",
    (5, 3, 32):
        "a7575d1768bc6f190c21ff0f2f2ad82defd73bd4dbd03299029f37e473e4bc4a",
    (4, 1, 7):
        "70be110911968b3943f7cde8f4926df36806cd936b4aad6a01da597b2402ec64",
}
POLICY_PINS = {
    3: "8bfb4eeca71027fcdd6eefef2caf8603eece2c8acb1d36b05e250a83c87a97a9",
    16: "a42c71b4872e0f9af6b11b7b8aaa726066716db19f3d851ee10698d764842f70",
    128: "ca326bb2e93f1b4719b14491add628e8419fef5edcf9c12a011bac5814d97b99",
}


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_locate_matches_golden(name):
    assert locate_digest(name) == LOCATE_PINS[name]


@pytest.mark.parametrize("shape", SLOT_SHAPES)
def test_replica_slots_match_golden(shape):
    assert slots_digest(*shape) == SLOT_PINS[shape]


@pytest.mark.parametrize("n_workers", POLICY_SIZES)
def test_bounded_load_picks_match_golden(n_workers):
    assert policy_digest(n_workers) == POLICY_PINS[n_workers]


if __name__ == "__main__":
    print("LOCATE_PINS = {")
    for name in sorted(PARTITIONERS):
        print(f"    {name!r}: {locate_digest(name)!r},")
    print("}\nSLOT_PINS = {")
    for shape in SLOT_SHAPES:
        print(f"    {shape!r}: {slots_digest(*shape)!r},")
    print("}\nPOLICY_PINS = {")
    for n_workers in POLICY_SIZES:
        print(f"    {n_workers}: {policy_digest(n_workers)!r},")
    print("}")
