"""Corpus-batched kernels: one numpy dispatch per chunk, not per case.

One block's barrier dag is too small for a numpy kernel to pay its
dispatch overhead on a single matrix.  At corpus scale the same work
repeats across 100 independent cases, so these kernels take a whole
*chunk* of cases at once: the per-case bit-matrices are packed
into one padded 3-D uint64 tensor with a size map, the sweep runs in
lockstep across the case axis, and the results unpack exactly per case
-- the batched driver (:mod:`repro.core.batchrun`) is bit-identical to
the serial pipeline, so ``results_digest`` is unchanged.

Lockstep alignment: every per-case sweep here runs over topological
positions in *reverse*; cases are aligned on the distance from their own
last position (step ``t`` touches position ``n_c - 1 - t`` of every case
with ``n_c > t``), so data dependences stay within already-computed
steps regardless of per-case size.

Three batched kernels:

* :func:`reach_batch` -- descendant-bitset reachability closure over
  many graphs (the batched twin of the barrier dag's python sweep,
  general enough to also sweep the happens-before graph H);
* :func:`heights_batch` -- the min/max-height longest-path relaxation
  of :func:`repro.core.labeling.compute_heights` over many DAGs;
* :func:`first_candidates` -- one merge-verdict round for many
  schedules.

Plus the padded-tensor boundary helpers :func:`pack_bitmats` /
:func:`unpack_bitmats` that the kernels use to move between per-case
python-int rows and the tensors.
"""

from __future__ import annotations

from typing import Sequence

from repro.kernels import numpy as _numpy
from repro.obs import prof as obs_prof

__all__ = [
    "first_candidates",
    "heights_batch",
    "pack_bitmats",
    "reach_batch",
    "unpack_bitmats",
]

_WORD = 64


def _n_words(n_bits: int) -> int:
    return max(1, (n_bits + _WORD - 1) // _WORD)


def pack_bitmats(mats: Sequence[Sequence[int]], n_bits: Sequence[int]):
    """Pack per-case python-int bitset rows into one padded 3-D tensor.

    ``mats[c]`` is case ``c``'s list of bitsets, ``n_bits[c]`` its bit
    width.  Returns ``(tensor, sizes)``: a ``(C, max_rows, words)``
    uint64 tensor (padded with zero rows/words) and the per-case row
    counts.  ``words`` covers the widest case, so a 63/64/65-bit case
    mix shares one tensor without truncation.
    """
    np = _numpy()
    sizes = [len(rows) for rows in mats]
    max_rows = max(sizes, default=0)
    words = max((_n_words(b) for b in n_bits), default=1)
    tensor = np.zeros((len(mats), max_rows, words), dtype=np.uint64)
    obs_prof.add_bytes("batch.tensors", tensor.nbytes)
    nbytes = words * 8
    for c, rows in enumerate(mats):
        if rows:
            buf = b"".join(row.to_bytes(nbytes, "little") for row in rows)
            tensor[c, : sizes[c]] = np.frombuffer(buf, dtype="<u8").reshape(
                sizes[c], words
            )
    return tensor, np.asarray(sizes, dtype=np.int64)


def unpack_bitmats(tensor, sizes) -> list[list[int]]:
    """Invert :func:`pack_bitmats`: per-case python-int bitset rows."""
    out: list[list[int]] = []
    nbytes = tensor.shape[2] * 8
    for c in range(tensor.shape[0]):
        n = int(sizes[c])
        data = tensor[c, :n].astype("<u8", copy=False).tobytes()
        out.append(
            [
                int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little")
                for i in range(n)
            ]
        )
    return out


def reach_batch(
    succ_idx: Sequence[Sequence[Sequence[int]]],
    self_bits: Sequence[Sequence[int]],
    n_bits: Sequence[int],
) -> list[list[int]]:
    """Batched reachability closure over many graphs.

    For each case ``c`` with nodes in topological positions
    ``0..n_c-1``: ``desc[i] = OR over direct successors s of
    (desc[s] | self_bits[s])`` -- one reverse sweep, all cases in
    lockstep.  With ``self_bits[i] = 1 << i`` this is exactly the
    barrier dag's descendant bitsets per case; the happens-before sweep of
    :meth:`repro.core.schedule.Schedule.hb_barrier_descendants` uses
    barrier-indexed self bits (zero for instruction nodes) instead.

    Returns per-case bitset rows as python ints (strict reachability:
    a node's own self bit is not included in its row).
    """
    np = _numpy()
    n_cases = len(succ_idx)
    ns = [len(s) for s in succ_idx]
    contrib, _ = pack_bitmats(self_bits, n_bits)  # desc | self, rolling
    words = contrib.shape[2]
    desc = np.zeros((n_cases, max(ns, default=0), words), dtype=np.uint64)
    for t in range(max(ns, default=0)):
        gather_case: list[int] = []
        gather_pos: list[int] = []
        seg: list[int] = []
        tgt_case: list[int] = []
        tgt_pos: list[int] = []
        for c in range(n_cases):
            if ns[c] > t:
                p = ns[c] - 1 - t
                succs = succ_idx[c][p]
                if succs:
                    seg.append(len(gather_case))
                    gather_case.extend([c] * len(succs))
                    gather_pos.extend(succs)
                    tgt_case.append(c)
                    tgt_pos.append(p)
        if not tgt_case:
            continue  # leaves only this step: desc rows stay zero
        rows = contrib[np.asarray(gather_case), np.asarray(gather_pos)]
        acc = np.bitwise_or.reduceat(rows, np.asarray(seg), axis=0)
        tc = np.asarray(tgt_case)
        tp = np.asarray(tgt_pos)
        desc[tc, tp] = acc
        contrib[tc, tp] |= acc
    return unpack_bitmats(desc, np.asarray(ns, dtype=np.int64))


def heights_batch(
    succ_idx: Sequence[Sequence[Sequence[int]]],
    lat_lo: Sequence[Sequence[int]],
    lat_hi: Sequence[Sequence[int]],
) -> list[tuple[list[int], list[int]]]:
    """Batched min/max-height labeling over many DAGs.

    The longest-path relaxation of
    :func:`repro.core.labeling.compute_heights` --
    ``h(i) = t(i) + max over successors of h(s)``, componentwise on the
    ``[min, max]`` interval -- swept in lockstep across the case axis.
    ``succ_idx[c][p]`` holds the topological positions of position
    ``p``'s direct successors; ``lat_lo``/``lat_hi`` the per-position
    latency bounds.  Returns per-case ``(h_lo, h_hi)`` lists aligned
    with the positions.
    """
    np = _numpy()
    n_cases = len(succ_idx)
    ns = [len(s) for s in succ_idx]
    n_max = max(ns, default=0)
    lo = np.zeros((n_cases, n_max), dtype=np.int64)
    hi = np.zeros((n_cases, n_max), dtype=np.int64)
    tlo = np.zeros((n_cases, n_max), dtype=np.int64)
    thi = np.zeros((n_cases, n_max), dtype=np.int64)
    for c in range(n_cases):
        if ns[c]:
            tlo[c, : ns[c]] = lat_lo[c]
            thi[c, : ns[c]] = lat_hi[c]
    for t in range(n_max):
        gather_case: list[int] = []
        gather_pos: list[int] = []
        seg: list[int] = []
        tgt_case: list[int] = []
        tgt_pos: list[int] = []
        leaf_case: list[int] = []
        leaf_pos: list[int] = []
        for c in range(n_cases):
            if ns[c] > t:
                p = ns[c] - 1 - t
                succs = succ_idx[c][p]
                if succs:
                    seg.append(len(gather_case))
                    gather_case.extend([c] * len(succs))
                    gather_pos.extend(succs)
                    tgt_case.append(c)
                    tgt_pos.append(p)
                else:
                    leaf_case.append(c)
                    leaf_pos.append(p)
        if leaf_case:
            lc = np.asarray(leaf_case)
            lp = np.asarray(leaf_pos)
            lo[lc, lp] = tlo[lc, lp]
            hi[lc, lp] = thi[lc, lp]
        if tgt_case:
            gc = np.asarray(gather_case)
            gp = np.asarray(gather_pos)
            sg = np.asarray(seg)
            tc = np.asarray(tgt_case)
            tp = np.asarray(tgt_pos)
            lo[tc, tp] = np.maximum.reduceat(lo[gc, gp], sg) + tlo[tc, tp]
            hi[tc, tp] = np.maximum.reduceat(hi[gc, gp], sg) + thi[tc, tp]
    return [
        (lo[c, : ns[c]].tolist(), hi[c, : ns[c]].tolist())
        for c in range(n_cases)
    ]


def first_candidates(
    rounds: Sequence[
        tuple[Sequence[int], Sequence[int], Sequence[int], dict]
    ],
) -> list[tuple[int, int] | None]:
    """One merge-verdict round for many schedules at once.

    Each element of ``rounds`` is one schedule's ``(ids, lo, hi,
    desc)``: its barrier ids in scan order, their fire-window bounds and
    its happens-before barrier descendants
    (:meth:`repro.core.schedule.Schedule.hb_barrier_descendants`).  The
    round's orderedness and overlap tests run as one ``(C, n, n)``
    boolean tensor and each case's first candidate pair (row-major in
    the id-sorted upper triangle, exactly the python scan's order) is
    read off with a single ``argmax`` row.  Returns one
    ``(a_idx, b_idx)`` or ``None`` per case.
    """
    np = _numpy()
    n_cases = len(rounds)
    ns = [len(ids) for ids, _lo, _hi, _desc in rounds]
    n_max = max(ns, default=0)
    if n_max < 2:
        return [None] * n_cases
    ordered = np.zeros((n_cases, n_max, n_max), dtype=bool)
    # Padded windows sit at [+inf, -inf]: ``lo_a <= hi_pad`` is false
    # against every real window, so padding never overlaps anything.
    # (A merely inverted window like [1, 0] would not do -- the overlap
    # formula assumes lo <= hi and [1, 0] still meets [0, 5].)
    lo_m = np.full((n_cases, n_max), 1 << 62, dtype=np.int64)
    hi_m = np.full((n_cases, n_max), -(1 << 62), dtype=np.int64)
    for c, (ids, lo, hi, desc) in enumerate(rounds):
        n = ns[c]
        if not n:
            continue
        lo_m[c, :n] = lo
        hi_m[c, :n] = hi
        pos = {bid: k for k, bid in enumerate(ids)}
        for k, bid in enumerate(ids):
            ds = desc.get(bid)
            if ds:
                cols = [pos[x] for x in ds if x in pos]
                if cols:
                    ordered[c, k, cols] = True
    ordered |= ordered.transpose(0, 2, 1)

    overlap = (lo_m[:, :, None] <= hi_m[:, None, :]) & (
        lo_m[:, None, :] <= hi_m[:, :, None]
    )
    cand = overlap & ~ordered
    cand &= ~np.tri(n_max, dtype=bool)  # strict upper triangle, all cases
    flat = cand.reshape(n_cases, n_max * n_max)
    first = np.argmax(flat, axis=1)
    found = flat[np.arange(n_cases), first]
    out: list[tuple[int, int] | None] = []
    for c in range(n_cases):
        if found[c]:
            a_idx, b_idx = divmod(int(first[c]), n_max)
            out.append((a_idx, b_idx))
        else:
            out.append(None)
    return out
