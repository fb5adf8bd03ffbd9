"""Replica placement policies for the cluster router.

A placement policy answers one question: *which R of the N nodes hold a
replica of this partition?*  The answer is a preference-ordered tuple —
the router dispatches to the first reachable entry and fails over down
the list — and it must be **deterministic**: the same (payload key,
partition) always maps to the same replica set, so routing never depends
on thread interleaving and the cluster differential tests can pin
byte-identical results across worker counts.

Three policies, selectable by name through
:func:`make_placement` / :data:`PLACEMENTS`:

* ``consistent-hash`` — a sha256 hash ring with virtual nodes.  Keys
  spread uniformly, node membership changes move only ``1/N`` of the
  keyspace, and a repeated payload always lands on the same replicas
  (node-cache affinity).
* ``least-loaded`` — router-side greedy: the router tracks the work (in
  elements) it has assigned each node and sends the next partition to
  the currently lightest nodes, node id breaking ties.  Best balance
  under skewed payload sizes; no affinity.
* ``locality-aware`` — a payload-anchored block: partition ``p`` of a
  payload hashed to base ``h`` goes to nodes ``(h + p) ... (h + p + R-1)
  (mod N)``.  Consecutive partitions of one request land on consecutive
  nodes (one dispatch hop per node, merge-friendly fan-in) while
  distinct payloads anchor at distinct bases.
"""

from __future__ import annotations

import hashlib

import numpy as np


#: policy names accepted by :func:`make_placement` and the CLI
PLACEMENTS = ("consistent-hash", "least-loaded", "locality-aware")


def payload_key(data: np.ndarray) -> str:
    """The placement key of a payload: blake2b-16 over ``str(dtype)``,
    ``str(shape)`` and the bytes, as 32 hex characters.

    Frozen on purpose.  Every hashing policy derives replica sets from
    this key, so changing one bit of it moves every payload to other
    nodes: node caches go cold, and under a fault plan the failover and
    hedge counts of a replay change.  Node result caches key their
    entries off it too (see :mod:`repro.serve.cache`), so a cluster
    request is hashed once, here.
    """
    arr = np.ascontiguousarray(data)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(arr.dtype).encode())
    digest.update(str(arr.shape).encode())
    digest.update(arr)
    return digest.hexdigest()


def _hash64(text: str) -> int:
    """Stable 64-bit hash (sha256 prefix) — never Python's salted hash()."""
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


class PlacementPolicy:
    """Deterministic key -> preference-ordered replica set mapping."""

    name = "abstract"

    def __init__(self, *, nodes: int, replication: int, seed: int = 0) -> None:
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if not 1 <= replication <= nodes:
            raise ValueError(
                f"replication must be in [1, nodes={nodes}], got {replication}"
            )
        self.nodes = nodes
        self.replication = replication
        self.seed = seed

    def replica_set(self, key: str, partition: int) -> tuple[int, ...]:
        """The ``replication`` distinct nodes holding ``(key, partition)``,
        most-preferred first."""
        raise NotImplementedError

    def record(self, node: int, cost: float) -> None:
        """Feedback hook: the router assigned ``cost`` units to ``node``.

        Only ``least-loaded`` uses it; the stateless policies ignore it.
        """


class ConsistentHashPlacement(PlacementPolicy):
    """Sha256 ring with virtual nodes; walk clockwise collecting replicas."""

    name = "consistent-hash"

    def __init__(
        self, *, nodes: int, replication: int, seed: int = 0, vnodes: int = 64
    ) -> None:
        super().__init__(nodes=nodes, replication=replication, seed=seed)
        ring = []
        for node in range(nodes):
            for v in range(vnodes):
                ring.append((_hash64(f"{seed}/node={node}/vnode={v}"), node))
        ring.sort()
        self._ring = ring

    def replica_set(self, key: str, partition: int) -> tuple[int, ...]:
        point = _hash64(f"{self.seed}/{key}/p={partition}")
        # binary search for the first ring entry at or past the point
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        chosen: list[int] = []
        for i in range(len(self._ring)):
            node = self._ring[(lo + i) % len(self._ring)][1]
            if node not in chosen:
                chosen.append(node)
                if len(chosen) == self.replication:
                    break
        return tuple(chosen)


class LeastLoadedPlacement(PlacementPolicy):
    """Greedy on router-side assigned load; node id breaks ties."""

    name = "least-loaded"

    def __init__(self, *, nodes: int, replication: int, seed: int = 0) -> None:
        super().__init__(nodes=nodes, replication=replication, seed=seed)
        self.load = [0.0] * nodes

    def replica_set(self, key: str, partition: int) -> tuple[int, ...]:
        order = sorted(range(self.nodes), key=lambda i: (self.load[i], i))
        return tuple(order[: self.replication])

    def record(self, node: int, cost: float) -> None:
        self.load[node] += cost


class LocalityAwarePlacement(PlacementPolicy):
    """Payload-anchored block placement: partition ``p`` of payload base
    ``h`` lives on nodes ``(h + p + j) % N`` for ``j`` in ``0..R-1``."""

    name = "locality-aware"

    def replica_set(self, key: str, partition: int) -> tuple[int, ...]:
        base = _hash64(f"{self.seed}/{key}") % self.nodes
        return tuple(
            (base + partition + j) % self.nodes for j in range(self.replication)
        )


def make_placement(
    name: str, *, nodes: int, replication: int, seed: int = 0
) -> PlacementPolicy:
    """Build the named placement policy (see :data:`PLACEMENTS`)."""
    if name == "consistent-hash":
        return ConsistentHashPlacement(
            nodes=nodes, replication=replication, seed=seed
        )
    if name == "least-loaded":
        return LeastLoadedPlacement(nodes=nodes, replication=replication, seed=seed)
    if name == "locality-aware":
        return LocalityAwarePlacement(
            nodes=nodes, replication=replication, seed=seed
        )
    raise ValueError(f"placement must be one of {PLACEMENTS}, got {name!r}")
