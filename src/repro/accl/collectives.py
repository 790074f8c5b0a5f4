"""Collective communication schedules: ring and tree algorithms.

A *schedule* is a list of steps, each a list of concurrent
``(src, dst, nbytes)`` transfers, plus the bytes each step reduces.  It
is a pure function of ``(p, root, nbytes)``, where ``nbytes`` is the
caller's per-node payload, so a cluster can price one without buffers.
Each collective computes its *result* once from the inputs; where every
rank holds the same result, the ranks share one read-only array.
Sums are float64 in the schedule's addition order, bit-identical to
replaying the steps: the binomial tree adds virtual rank ``v + d`` into
``v`` at distance ``d = 1, 2, 4, ...`` (node ``(v + root) % p``); the
ring folds segment ``s`` as ``x_s + x_{s+1} + ... + x_{s+p-1}``.

Algorithms (the standard alpha-beta repertoire ACCL implements):

* broadcast — binomial tree (``log2 P`` full-message steps) or flat
  (root sends ``P-1`` messages, serialising on its port);
* reduce — binomial tree with per-step elementwise combination;
* scatter / gather — root-rooted flat schedules of ``n/P`` chunks;
* allgather — ring (``P-1`` steps of ``n/P``);
* allreduce — ring (reduce-scatter + allgather, ``2(P-1)`` steps of
  ``n/P``) or tree (reduce + broadcast, ``2 log2 P`` full-message
  steps).  The ring wins for large payloads, the tree for small — the
  crossover bench E10/E11 regenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CollectiveOutcome",
    "allgather_ring",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "allreduce_tree",
    "broadcast_flat",
    "broadcast_tree",
    "expected_steps_ring",
    "expected_steps_tree",
    "gather_flat",
    "recursive_doubling_schedule",
    "reduce_tree",
    "ring_allreduce_schedule",
    "scatter_flat",
    "tree_allreduce_schedule",
    "tree_broadcast_schedule",
]

Step = list[tuple[int, int, int]]
# Steps plus reduced bytes per step; an empty list means no reductions.
Schedule = tuple[list[Step], list[int]]


@dataclass
class CollectiveOutcome:
    """Result buffers plus schedule accounting.

    ``time_s`` is filled in by the cluster that prices the schedule;
    the schedule itself reports steps and wire traffic.
    """

    buffers: list[np.ndarray]
    steps: list[Step]
    reduction_bytes_per_step: list[int] = field(default_factory=list)
    time_s: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def bytes_on_wire(self) -> int:
        return sum(n for step in self.steps for _, _, n in step)


def _check(buffers: list[np.ndarray], root: int = 0) -> int:
    """Validate the node buffers and root; return elements per node."""
    if not buffers:
        raise ValueError("need at least one node buffer")
    length = buffers[0].size
    for b in buffers:
        if b.size != length:
            raise ValueError("all node buffers must have equal size")
    if not 0 <= root < len(buffers):
        raise IndexError(f"root {root} out of range for {len(buffers)} nodes")
    return length


def _chunk(buffers: list[np.ndarray], root: int = 0) -> int:
    """Elements per node chunk; ring and scatter need equal whole chunks."""
    length, p = _check(buffers, root), len(buffers)
    if length % p:
        raise ValueError(f"buffer size {length} not divisible by {p} nodes")
    return length // p


def _shared(result: np.ndarray, p: int) -> list[np.ndarray]:
    """One read-only ``result`` held by all ``p`` ranks."""
    result.flags.writeable = False
    return [result] * p


# -- schedules: pure functions of (p, root, nbytes) ---------------------------


def tree_broadcast_schedule(p: int, root: int, nbytes: int) -> Schedule:
    """Binomial tree: ``ceil(log2 P)`` steps of the full ``nbytes``."""
    # In round r, virtual ranks [0, 2^r) send to [2^r, 2^(r+1)).
    steps, distance = [], 1
    while distance < p:
        steps.append([
            ((v + root) % p, (v + distance + root) % p, nbytes)
            for v in range(min(distance, p - distance))
        ])
        distance *= 2
    return steps, []


def _tree_reduce(p: int, root: int, nbytes: int) -> Schedule:
    # At distance d, virtual rank v + d sends its partial to v (v % 2d == 0).
    steps, reductions, distance = [], [], 1
    while distance < p:
        steps.append([
            ((v + distance + root) % p, (v + root) % p, nbytes)
            for v in range(0, p - distance, 2 * distance)
        ])
        reductions.append(len(steps[-1]) * nbytes)
        distance *= 2
    return steps, reductions


def _flat(p: int, root: int, nbytes: int, to_root: bool = False) -> Schedule:
    step = [(node, root, nbytes) if to_root else (root, node, nbytes)
            for node in range(p) if node != root]
    return [step] if step else [], []


def _ring(p: int, nbytes: int, rounds: int) -> list[Step]:
    return [[(node, (node + 1) % p, nbytes) for node in range(p)]
            for _ in range(rounds)]


def ring_allreduce_schedule(p: int, nbytes: int) -> Schedule:
    """Reduce-scatter then allgather: ``2(P-1)`` steps of ``nbytes/P``."""
    if p == 1:
        return [], []
    if nbytes % p:
        raise ValueError(f"payload {nbytes} B not divisible by {p} nodes")
    return (_ring(p, nbytes // p, 2 * (p - 1)),
            [nbytes] * (p - 1) + [0] * (p - 1))


def tree_allreduce_schedule(p: int, nbytes: int) -> Schedule:
    """Binomial reduce to node 0, then binomial broadcast from it."""
    steps, reductions = _tree_reduce(p, 0, nbytes)
    spread, _ = tree_broadcast_schedule(p, 0, nbytes)
    return steps + spread, reductions + [0] * len(spread)


def recursive_doubling_schedule(p: int, nbytes: int) -> Schedule:
    """``log2 P`` steps of full exchanges at XOR distance ``2^k``."""
    if p & (p - 1):
        raise ValueError(
            f"recursive doubling needs a power-of-two node count, got {p}"
        )
    steps = [[(node, node ^ (1 << k), nbytes) for node in range(p)]
             for k in range(p.bit_length() - 1)]
    return steps, [p * nbytes] * len(steps)


# -- results: computed once, in the schedule's addition order -----------------


def _tree_sum(buffers: list[np.ndarray], root: int) -> np.ndarray:
    """The binomial-tree sum the root holds, as a new float64 array."""
    p = len(buffers)
    partial = [buffers[(v + root) % p] for v in range(p)]
    if p == 1:
        return partial[0].astype(np.float64)
    # The first level allocates every left operand that is ever added
    # into; later levels add in place.
    for v in range(0, p - 1, 2):
        partial[v] = np.add(partial[v], partial[v + 1], dtype=np.float64)
    distance = 2
    while distance < p:
        for v in range(0, p - distance, 2 * distance):
            partial[v] += partial[v + distance]
        distance *= 2
    return partial[0]


def broadcast_tree(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Binomial-tree broadcast of the root's buffer to every node."""
    _check(buffers, root)
    p = len(buffers)
    schedule = tree_broadcast_schedule(p, root, buffers[0].nbytes)
    return CollectiveOutcome(_shared(buffers[root].copy(), p), *schedule)


def broadcast_flat(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Flat broadcast: the root sends to every other node in one "step".

    All ``P-1`` messages leave the same port, so the fabric serialises
    them — the schedule that makes tree broadcast worth having.
    """
    _check(buffers, root)
    p = len(buffers)
    return CollectiveOutcome(_shared(buffers[root].copy(), p),
                             *_flat(p, root, buffers[0].nbytes))


def reduce_tree(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Binomial-tree sum-reduction into the root's buffer.

    Every output is float64: the root holds the sum, every other node
    its own input.
    """
    _check(buffers, root)
    out = [b.astype(np.float64) if node != root else _tree_sum(buffers, root)
           for node, b in enumerate(buffers)]
    return CollectiveOutcome(
        out, *_tree_reduce(len(buffers), root, buffers[0].nbytes)
    )


def scatter_flat(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Root scatters equal chunks of its buffer to all nodes.

    Node ``i`` ends with chunk ``i``; buffer sizes must divide evenly.
    """
    chunk, p = _chunk(buffers, root), len(buffers)
    source = buffers[root].copy()
    return CollectiveOutcome(
        [source[node * chunk:(node + 1) * chunk] for node in range(p)],
        *_flat(p, root, buffers[0].nbytes // p),
    )


def gather_flat(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Root gathers every node's buffer, concatenated in rank order.

    Non-root nodes keep their own (unchanged) buffers.
    """
    _check(buffers, root)
    out = list(buffers)
    out[root] = np.concatenate(buffers)
    return CollectiveOutcome(
        out, *_flat(len(buffers), root, buffers[0].nbytes, to_root=True)
    )


def allgather_ring(buffers: list[np.ndarray]) -> CollectiveOutcome:
    """Ring allgather: every node ends with all buffers concatenated."""
    _check(buffers)
    p = len(buffers)
    return CollectiveOutcome(_shared(np.concatenate(buffers), p),
                             _ring(p, buffers[0].nbytes, p - 1))


def allreduce_ring(buffers: list[np.ndarray]) -> CollectiveOutcome:
    """Ring allreduce: reduce-scatter then allgather, 2(P-1) steps.

    Each step moves ``n/P`` bytes per node; the bandwidth-optimal
    schedule for large payloads.
    """
    chunk, p = _chunk(buffers), len(buffers)
    result = np.empty(buffers[0].size, np.float64)
    for s in range(p):
        segment = slice(s * chunk, (s + 1) * chunk)
        result[segment] = buffers[s][segment]
        for k in range(1, p):
            result[segment] += buffers[(s + k) % p][segment]
    return CollectiveOutcome(
        _shared(result, p), *ring_allreduce_schedule(p, buffers[0].nbytes)
    )


def allreduce_recursive_doubling(
    buffers: list[np.ndarray],
) -> CollectiveOutcome:
    """Recursive-doubling allreduce: ``log2 P`` full-exchange steps.

    In step ``k`` every node exchanges its full partial sum with the
    partner at XOR distance ``2^k`` and adds — the latency-optimal
    schedule (half the tree's step count).  Requires a power-of-two
    node count.  Partners add the same two halves, so every node ends
    with the bits of the tree sum rooted at node 0.
    """
    _check(buffers)
    schedule = recursive_doubling_schedule(len(buffers), buffers[0].nbytes)
    return CollectiveOutcome(
        _shared(_tree_sum(buffers, 0), len(buffers)), *schedule
    )


def allreduce_tree(buffers: list[np.ndarray]) -> CollectiveOutcome:
    """Tree allreduce: binomial reduce to node 0, then tree broadcast.

    ``2 log2 P`` steps of the *full* message; latency-optimal for small
    payloads.
    """
    _check(buffers)
    schedule = tree_allreduce_schedule(len(buffers), buffers[0].nbytes)
    return CollectiveOutcome(
        _shared(_tree_sum(buffers, 0), len(buffers)), *schedule
    )


def expected_steps_ring(p: int) -> int:
    """Step count of ring allreduce (for tests/benches)."""
    return 0 if p <= 1 else 2 * (p - 1)


def expected_steps_tree(p: int) -> int:
    """Step count of tree allreduce (for tests/benches)."""
    return 0 if p <= 1 else 2 * math.ceil(math.log2(p))
