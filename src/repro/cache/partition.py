"""Key placement: the one stable hash and the partitioners built on it.

The paper's manager stub "can manage a number of separate cache nodes as
a single virtual cache, hashing the key space across the separate caches
and automatically re-hashing when cache nodes are added or removed"
(Section 3.1.5).  Two partitioners are provided:

* :class:`ModHashPartitioner` — hash(key) mod N, the 1997 approach.
  Simple, but changing N remaps nearly every key (cold caches after a
  membership change).
* :class:`ConsistentHashRing` — the modern refinement; only ~1/N of keys
  move on a membership change.  Offered as an ablation: the benchmark
  suite compares post-rehash hit-rate dips under both.  Its
  :meth:`~ConsistentHashRing.walk` also serves the bounded-load routing
  policy (:class:`repro.balance.BoundedLoadHashPolicy`).

:func:`stable_hash` is the only hash placement uses anywhere: DStore's
:class:`repro.dstore.Partitioner` maps keys to partitions with it too.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterator, List, Sequence


def stable_hash(value: str) -> int:
    """Deterministic 64-bit hash (Python's builtin ``hash`` is salted
    per-process, which would break reproducibility)."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class PartitionError(Exception):
    """Membership errors (no nodes, duplicate add, unknown remove)."""


class _Membership:
    """An ordered set of node names, shared by both partitioners:
    adding a present node or removing an absent one raises
    :class:`PartitionError`."""

    def __init__(self, nodes: Sequence[str] = ()) -> None:
        self._nodes: List[str] = []
        for node in nodes:
            self.add_node(node)

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise PartitionError(f"node {node!r} already present")
        self._nodes.append(node)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise PartitionError(f"node {node!r} not present")
        self._nodes.remove(node)


class ModHashPartitioner(_Membership):
    """hash(key) mod N over an ordered node list."""

    def locate(self, key: str) -> str:
        if not self._nodes:
            raise PartitionError("no nodes in partition")
        return self._nodes[stable_hash(key) % len(self._nodes)]


class ConsistentHashRing(_Membership):
    """Consistent hashing with virtual nodes."""

    def __init__(self, nodes: Sequence[str] = (),
                 replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._ring: List[int] = []
        self._owners: dict = {}
        super().__init__(nodes)

    def add_node(self, node: str) -> None:
        super().add_node(node)
        for replica in range(self.replicas):
            point = stable_hash(f"{node}#{replica}")
            bisect.insort(self._ring, point)
            self._owners[point] = node

    def remove_node(self, node: str) -> None:
        super().remove_node(node)
        for replica in range(self.replicas):
            point = stable_hash(f"{node}#{replica}")
            index = bisect.bisect_left(self._ring, point)
            if index < len(self._ring) and self._ring[index] == point:
                self._ring.pop(index)
            self._owners.pop(point, None)

    def locate(self, key: str) -> str:
        if not self._ring:
            raise PartitionError("no nodes in partition")
        point = stable_hash(key)
        index = bisect.bisect(self._ring, point)
        if index == len(self._ring):
            index = 0
        return self._owners[self._ring[index]]

    def walk(self, key: str) -> Iterator[str]:
        """Every node once, in clockwise ring order from ``key``'s
        point; the first is the one :meth:`locate` returns."""
        if not self._ring:
            raise PartitionError("no nodes in partition")
        ring, owners = self._ring, self._owners
        start = bisect.bisect(ring, stable_hash(key))
        seen = set()
        for index in range(start, start + len(ring)):
            owner = owners[ring[index % len(ring)]]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == len(self._nodes):
                    return


def remap_fraction(partitioner_factory, keys: Sequence[str],
                   nodes: Sequence[str], removed: str) -> float:
    """Fraction of keys whose owner changes when ``removed`` leaves.

    The measurement behind the mod-hash vs consistent-hash ablation.
    """
    before = partitioner_factory(nodes)
    remaining = [n for n in nodes if n != removed]
    after = partitioner_factory(remaining)
    moved = 0
    for key in keys:
        old_owner = before.locate(key)
        new_owner = after.locate(key)
        if old_owner != removed and old_owner != new_owner:
            moved += 1
    survivors = [key for key in keys if before.locate(key) != removed]
    return moved / len(survivors) if survivors else 0.0
