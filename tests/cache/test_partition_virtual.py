"""Tests for the partitioners, the virtual cache's re-hash, and the
latency model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.latency import HarvestLatencyModel
from repro.cache.partition import (
    ConsistentHashRing,
    ModHashPartitioner,
    PartitionError,
    remap_fraction,
    stable_hash,
)
from repro.sim.cluster import Cluster
from repro.sim.rng import RandomStreams
from repro.tacc.content import MIME_JPEG, Content
from repro.transend.cachesys import CacheSubsystem


KEYS = [f"http://host{i}/path{i}.gif" for i in range(2000)]
NODES = [f"cache{i}" for i in range(8)]


# -- partitioners -------------------------------------------------------------

def test_stable_hash_is_deterministic():
    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash("abc") != stable_hash("abd")


@pytest.mark.parametrize("factory", [ModHashPartitioner, ConsistentHashRing])
def test_locate_is_deterministic_and_in_membership(factory):
    partitioner = factory(NODES)
    for key in KEYS[:100]:
        owner = partitioner.locate(key)
        assert owner in NODES
        assert partitioner.locate(key) == owner


@pytest.mark.parametrize("factory", [ModHashPartitioner, ConsistentHashRing])
def test_membership_errors(factory):
    with pytest.raises(PartitionError):
        factory(["a", "a"])
    partitioner = factory(["a"])
    with pytest.raises(PartitionError):
        partitioner.add_node("a")
    with pytest.raises(PartitionError):
        partitioner.remove_node("zzz")
    partitioner.remove_node("a")
    with pytest.raises(PartitionError):
        partitioner.locate("key")


@pytest.mark.parametrize("factory", [ModHashPartitioner, ConsistentHashRing])
def test_load_is_roughly_balanced(factory):
    partitioner = factory(NODES)
    counts = {node: 0 for node in NODES}
    for key in KEYS:
        counts[partitioner.locate(key)] += 1
    expected = len(KEYS) / len(NODES)
    for node, count in counts.items():
        assert count > expected * 0.4, f"{node} starved: {count}"
        assert count < expected * 1.9, f"{node} overloaded: {count}"


def test_consistent_hashing_moves_far_fewer_keys_than_mod_hash():
    """The ablation headline: removing one of 8 nodes remaps ~85 % of
    surviving keys under mod-hash but only a few percent under
    consistent hashing."""
    mod_moved = remap_fraction(ModHashPartitioner, KEYS, NODES, "cache3")
    ring_moved = remap_fraction(ConsistentHashRing, KEYS, NODES, "cache3")
    assert mod_moved > 0.7
    assert ring_moved < 0.15
    assert ring_moved < mod_moved / 4


# -- virtual cache ----------------------------------------------------------------

def test_virtual_cache_membership_change_loses_stranded_entries():
    """TranSend's virtual cache re-hashes by mod-hash when a cache node
    joins: most stored keys now route to a node that does not hold
    them."""
    cluster = Cluster(seed=4)
    cachesys = CacheSubsystem(cluster)
    for index in range(2):
        cachesys.add_node(cluster.add_node(f"c{index}"), 1_000_000)
    keys = KEYS[:200]
    for key in keys:
        cachesys.store(key, Content(key, MIME_JPEG, b"j" * 100))
    cluster.env.run(until=1.0)  # let the injections land

    def reachable():
        return sum(1 for key in keys
                   if cachesys.node_for(key).store.peek(key) is not None)

    assert reachable() == len(keys)
    cachesys.add_node(cluster.add_node("c2"), 1_000_000)
    assert reachable() < len(keys) * 0.7


# -- latency model ---------------------------------------------------------------

def test_hit_time_statistics_match_paper():
    """Mean hit ~27 ms, P95 < 100 ms (Section 4.4)."""
    model = HarvestLatencyModel(RandomStreams(7).stream("cache"))
    samples = sorted(model.hit_time() for _ in range(20000))
    mean = sum(samples) / len(samples)
    p95 = samples[int(0.95 * len(samples))]
    assert mean == pytest.approx(0.027, rel=0.1)
    assert p95 < 0.100
    assert min(samples) >= 0.015  # TCP overhead floor


def test_miss_penalty_spans_paper_range():
    """Miss penalties run 100 ms to 100 s, heavy-tailed."""
    model = HarvestLatencyModel(RandomStreams(7).stream("cache"))
    samples = [model.miss_penalty() for _ in range(20000)]
    assert min(samples) >= 0.100
    assert max(samples) <= 100.0
    assert max(samples) > 10.0       # the tail is real
    median = sorted(samples)[len(samples) // 2]
    assert median < 0.5              # most fetches are sub-second


def test_max_hit_service_rate_is_37_per_second():
    model = HarvestLatencyModel(RandomStreams(7).stream("cache"))
    assert model.max_hit_service_rate() == pytest.approx(37.0, abs=0.1)


def test_latency_model_validates_parameters():
    rng = RandomStreams(7).stream("cache")
    with pytest.raises(ValueError):
        HarvestLatencyModel(rng, mean_hit_s=0.010, tcp_overhead_s=0.015)
