"""The collectives against the step-by-step implementations they replaced.

Each ``_reference_*`` function below moves real buffers through every
step of its schedule, copying payloads per node per step.  The library
builds the same schedule from sizes and computes the result once; the
two must agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.accl.cluster import FpgaCluster, HostStagedCluster
from repro.accl.collectives import (
    CollectiveOutcome,
    allgather_ring,
    allreduce_recursive_doubling,
    allreduce_ring,
    allreduce_tree,
    broadcast_flat,
    broadcast_tree,
    gather_flat,
    reduce_tree,
    scatter_flat,
)
from repro.exec.experiments.accl import (
    _E10_NODES,
    _E10_SIZES,
    _E11_CROSSOVER_P,
    _E11_CROSSOVER_SIZES,
    _E11_LARGE_FLOATS,
    _E11_NODES,
    _E11_SMALL_FLOATS,
    _e10_message_bytes,
    _e11_spec,
    e10_cell,
    e11_cell,
)

def _reference_check_root(root: int, p: int) -> None:
    if not 0 <= root < p:
        raise IndexError(f"root {root} out of range for {p} nodes")


def _reference_check_buffers(buffers: list[np.ndarray]) -> int:
    if not buffers:
        raise ValueError("need at least one node buffer")
    length = buffers[0].size
    for b in buffers:
        if b.size != length:
            raise ValueError("all node buffers must have equal size")
    return length


def _reference_broadcast_tree(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Binomial-tree broadcast of the root's buffer to every node."""
    p = len(buffers)
    _reference_check_buffers(buffers)
    _reference_check_root(root, p)
    out = [b.copy() for b in buffers]
    nbytes = out[root].nbytes
    steps: list[list[tuple[int, int, int]]] = []
    # Virtual ranks rotate the root to 0 so the recursion doubles cleanly:
    # in round r, virtual ranks [0, 2^r) send to [2^r, 2^(r+1)).
    distance = 1
    while distance < p:
        step: list[tuple[int, int, int]] = []
        for virtual_src in range(distance):
            virtual_dst = virtual_src + distance
            if virtual_dst >= p:
                continue
            src = (virtual_src + root) % p
            dst = (virtual_dst + root) % p
            step.append((src, dst, nbytes))
            out[dst] = out[src].copy()
        steps.append(step)
        distance *= 2
    return CollectiveOutcome(buffers=out, steps=steps)


def _reference_broadcast_flat(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Flat broadcast: the root sends to every other node in one "step".

    All ``P-1`` messages leave the same port, so the fabric serialises
    them — the schedule that makes tree broadcast worth having.
    """
    p = len(buffers)
    _reference_check_buffers(buffers)
    _reference_check_root(root, p)
    out = [b.copy() for b in buffers]
    nbytes = out[root].nbytes
    step = []
    for dst in range(p):
        if dst == root:
            continue
        step.append((root, dst, nbytes))
        out[dst] = out[root].copy()
    return CollectiveOutcome(buffers=out, steps=[step] if step else [])


def _reference_reduce_tree(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Binomial-tree sum-reduction into the root's buffer."""
    p = len(buffers)
    _reference_check_buffers(buffers)
    _reference_check_root(root, p)
    partial = [b.astype(np.float64) for b in buffers]
    nbytes = buffers[root].nbytes
    steps: list[list[tuple[int, int, int]]] = []
    reduction_bytes: list[int] = []
    distance = 1
    while distance < p:
        step = []
        combined = 0
        for virtual_dst in range(0, p, 2 * distance):
            virtual_src = virtual_dst + distance
            if virtual_src >= p:
                continue
            src = (virtual_src + root) % p
            dst = (virtual_dst + root) % p
            step.append((src, dst, nbytes))
            partial[dst] = partial[dst] + partial[src]
            combined += nbytes
        steps.append(step)
        reduction_bytes.append(combined)
        distance *= 2
    out = [b.copy().astype(np.float64) for b in buffers]
    out[root] = partial[root]
    return CollectiveOutcome(
        buffers=out, steps=steps, reduction_bytes_per_step=reduction_bytes
    )


def _reference_scatter_flat(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Root scatters equal chunks of its buffer to all nodes.

    Node ``i`` ends with chunk ``i``; buffer sizes must divide evenly.
    """
    p = len(buffers)
    length = _reference_check_buffers(buffers)
    _reference_check_root(root, p)
    if length % p:
        raise ValueError(f"buffer size {length} not divisible by {p} nodes")
    chunk = length // p
    source = buffers[root]
    out: list[np.ndarray] = []
    step = []
    chunk_bytes = source[:chunk].nbytes
    for node in range(p):
        piece = source[node * chunk:(node + 1) * chunk].copy()
        out.append(piece)
        if node != root:
            step.append((root, node, chunk_bytes))
    return CollectiveOutcome(buffers=out, steps=[step] if step else [])


def _reference_gather_flat(buffers: list[np.ndarray], root: int = 0) -> CollectiveOutcome:
    """Root gathers every node's buffer, concatenated in rank order."""
    p = len(buffers)
    _reference_check_buffers(buffers)
    _reference_check_root(root, p)
    step = [
        (node, root, buffers[node].nbytes)
        for node in range(p)
        if node != root
    ]
    gathered = np.concatenate([buffers[node] for node in range(p)])
    out = [b.copy() for b in buffers]
    out[root] = gathered
    return CollectiveOutcome(buffers=out, steps=[step] if step else [])


def _reference_allgather_ring(buffers: list[np.ndarray]) -> CollectiveOutcome:
    """Ring allgather: every node ends with all buffers concatenated."""
    p = len(buffers)
    _reference_check_buffers(buffers)
    pieces = [[None] * p for _ in range(p)]
    for node in range(p):
        pieces[node][node] = buffers[node].copy()
    chunk_bytes = buffers[0].nbytes
    steps = []
    for round_ in range(p - 1):
        step = []
        for node in range(p):
            send_idx = (node - round_) % p
            dst = (node + 1) % p
            step.append((node, dst, chunk_bytes))
            pieces[dst][send_idx] = pieces[node][send_idx].copy()
        steps.append(step)
    out = [np.concatenate(row) for row in pieces]
    return CollectiveOutcome(buffers=out, steps=steps)


def _reference_allreduce_ring(buffers: list[np.ndarray]) -> CollectiveOutcome:
    """Ring allreduce: reduce-scatter then allgather, 2(P-1) steps.

    Each step moves ``n/P`` bytes per node; the bandwidth-optimal
    schedule for large payloads.
    """
    p = len(buffers)
    length = _reference_check_buffers(buffers)
    if p == 1:
        return CollectiveOutcome(
            buffers=[buffers[0].astype(np.float64)], steps=[]
        )
    if length % p:
        raise ValueError(f"buffer size {length} not divisible by {p} nodes")
    chunk = length // p
    work = [b.astype(np.float64).copy() for b in buffers]
    chunk_bytes = work[0][:chunk].nbytes
    steps = []
    reduction_bytes = []

    def segment(node: int, idx: int) -> slice:
        return slice(idx * chunk, (idx + 1) * chunk)

    # Phase 1: reduce-scatter.
    for round_ in range(p - 1):
        step = []
        sends = []
        for node in range(p):
            idx = (node - round_) % p
            dst = (node + 1) % p
            sends.append((node, dst, idx, work[node][segment(node, idx)].copy()))
            step.append((node, dst, chunk_bytes))
        for node, dst, idx, payload in sends:
            work[dst][segment(dst, idx)] += payload
        steps.append(step)
        reduction_bytes.append(p * chunk_bytes)
    # Phase 2: allgather the reduced segments.
    for round_ in range(p - 1):
        step = []
        sends = []
        for node in range(p):
            idx = (node + 1 - round_) % p
            dst = (node + 1) % p
            sends.append((node, dst, idx, work[node][segment(node, idx)].copy()))
            step.append((node, dst, chunk_bytes))
        for node, dst, idx, payload in sends:
            work[dst][segment(dst, idx)] = payload
        steps.append(step)
        reduction_bytes.append(0)
    return CollectiveOutcome(
        buffers=work, steps=steps, reduction_bytes_per_step=reduction_bytes
    )


def _reference_allreduce_recursive_doubling(
    buffers: list[np.ndarray],
) -> CollectiveOutcome:
    """Recursive-doubling allreduce: ``log2 P`` full-exchange steps.

    In step ``k`` every node exchanges its full partial sum with the
    partner at XOR distance ``2^k`` and adds — the latency-optimal
    schedule (half the tree's step count).  Requires a power-of-two
    node count.
    """
    p = len(buffers)
    _reference_check_buffers(buffers)
    if p & (p - 1):
        raise ValueError(
            f"recursive doubling needs a power-of-two node count, got {p}"
        )
    work = [b.astype(np.float64).copy() for b in buffers]
    nbytes = buffers[0].nbytes
    steps: list[list[tuple[int, int, int]]] = []
    reduction_bytes: list[int] = []
    distance = 1
    while distance < p:
        step: list[tuple[int, int, int]] = []
        snapshots = [w.copy() for w in work]
        for node in range(p):
            partner = node ^ distance
            step.append((node, partner, nbytes))
        for node in range(p):
            work[node] = work[node] + snapshots[node ^ distance]
        steps.append(step)
        reduction_bytes.append(p * nbytes)
        distance *= 2
    return CollectiveOutcome(
        buffers=work, steps=steps, reduction_bytes_per_step=reduction_bytes
    )


def _reference_allreduce_tree(buffers: list[np.ndarray]) -> CollectiveOutcome:
    """Tree allreduce: binomial reduce to node 0, then tree broadcast.

    ``2 log2 P`` steps of the *full* message; latency-optimal for small
    payloads.
    """
    reduced = _reference_reduce_tree(buffers, root=0)
    spread = _reference_broadcast_tree(reduced.buffers, root=0)
    return CollectiveOutcome(
        buffers=spread.buffers,
        steps=reduced.steps + spread.steps,
        reduction_bytes_per_step=(
            reduced.reduction_bytes_per_step + [0] * len(spread.steps)
        ),
    )


_ROOTED = (
    (broadcast_tree, _reference_broadcast_tree),
    (broadcast_flat, _reference_broadcast_flat),
    (reduce_tree, _reference_reduce_tree),
    (scatter_flat, _reference_scatter_flat),
    (gather_flat, _reference_gather_flat),
)
_UNROOTED = (
    (allgather_ring, _reference_allgather_ring),
    (allreduce_ring, _reference_allreduce_ring),
    (allreduce_tree, _reference_allreduce_tree),
    (allreduce_recursive_doubling, _reference_allreduce_recursive_doubling),
)


def _buffers(p, n, dtype, seed):
    # Mixed signs and magnitudes, so any change of addition order shows.
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)).astype(dtype)
        for _ in range(p)
    ]


def _assert_matches(collective, reference, buffers, args, compare_steps):
    try:
        want = reference(buffers, *args)
    except ValueError:
        with pytest.raises(ValueError):
            collective(buffers, *args)
        return
    got = collective(buffers, *args)
    assert len(got.buffers) == len(want.buffers)
    for a, b in zip(got.buffers, want.buffers):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    if compare_steps:
        assert got.steps == want.steps
        assert got.reduction_bytes_per_step == want.reduction_bytes_per_step


@pytest.mark.parametrize("p", range(1, 34))
def test_collectives_match_references(p):
    # float32 steps are priced from the payload now, where the
    # references priced some phases from the float64 partials.
    for dtype in (np.float64, np.float32):
        for n in (2 * p, 2 * p + 1):  # the second is not divisible by p > 1
            buffers = _buffers(p, n, dtype, seed=p)
            compare_steps = dtype == np.float64
            for root in range(p):
                for collective, reference in _ROOTED:
                    _assert_matches(collective, reference, buffers, (root,),
                                    compare_steps)
            for collective, reference in _UNROOTED:
                _assert_matches(collective, reference, buffers, (),
                                compare_steps)


@pytest.mark.parametrize("cluster_type", [FpgaCluster, HostStagedCluster])
def test_size_only_price_matches_buffers_at_every_e11_point(cluster_type):
    points = [(p, n) for p in _E11_NODES
              for n in (_E11_SMALL_FLOATS, _E11_LARGE_FLOATS)]
    points += [(_E11_CROSSOVER_P, n) for n in _E11_CROSSOVER_SIZES]
    points += [(_E10_NODES, _e10_message_bytes(nbytes) // 8)
               for nbytes in _E10_SIZES]
    for p, n in points:
        cluster = cluster_type(p)
        buffers = [np.zeros(n)] * p
        for algorithm in ("ring", "tree"):
            priced = cluster.allreduce_time_s(buffers[0].nbytes, algorithm)
            assert priced == cluster.allreduce(buffers, algorithm).time_s
        assert (cluster.broadcast_time_s(buffers[0].nbytes)
                == cluster.broadcast(buffers).time_s)


@pytest.mark.parametrize(
    "n_floats", [n for n in _E11_CROSSOVER_SIZES if n <= 1 << 18]
)
def test_ring_and_tree_allreduce_agree_at_e11_crossover_sizes(n_floats):
    cluster = FpgaCluster(_E11_CROSSOVER_P)
    rng = np.random.default_rng(n_floats)
    buffers = [rng.random(n_floats) for _ in range(_E11_CROSSOVER_P)]
    ring = cluster.allreduce(buffers, algorithm="ring")
    tree = cluster.allreduce(buffers, algorithm="tree")
    assert np.allclose(ring.buffers[0], tree.buffers[0])
    assert np.allclose(ring.buffers[0], np.sum(buffers, axis=0))


def _peak_bytes(cell, config) -> int:
    tracemalloc.start()
    try:
        cell(None, config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_e10_and_e11_cells_draw_no_buffers():
    # Buffers for the largest points would take 64 MiB (e10) and
    # 256 MiB (e11); a price from sizes needs none.
    e10_cell(None, {"nbytes": _E10_SIZES[0]}, 0)  # imports the clusters
    for nbytes in _E10_SIZES:
        assert _peak_bytes(e10_cell, {"nbytes": nbytes}) < 1_000_000
    for config in _e11_spec().grid:
        assert _peak_bytes(e11_cell, config) < 1_000_000


@pytest.mark.parametrize(
    "algorithm", ["ring", "tree", "recursive-doubling"]
)
def test_float32_allreduce_priced_from_payload_bytes(algorithm):
    cluster = FpgaCluster(4)
    x = np.ones(8, np.float32)
    out = cluster.allreduce([x] * 4, algorithm)
    assert out.time_s == cluster.allreduce_time_s(x.nbytes, algorithm)
    assert out.buffers[0].dtype == np.float64


def test_float32_tree_broadcasts_the_payload_size():
    out = allreduce_tree([np.ones(4, np.float32)] * 3)
    assert out.steps == [[(1, 0, 16)], [(2, 0, 16)], [(0, 1, 16)],
                         [(0, 2, 16)]]


@pytest.mark.parametrize(
    "collective",
    [broadcast_tree, broadcast_flat, allgather_ring, allreduce_ring,
     allreduce_tree, allreduce_recursive_doubling],
)
def test_shared_results_are_read_only(collective):
    out = collective(_buffers(4, 8, np.float64, seed=1))
    assert all(b is out.buffers[0] for b in out.buffers)
    with pytest.raises(ValueError):
        out.buffers[1][0] = 1.0
