"""Path analyses for the "optimal" barrier-insertion algorithm (section 4.4.2).

The conservative algorithm can insert a needless barrier when the longest
max-time path to the producer and the longest min-time path to the
consumer *overlap* (figure 13): the overlapping edges cannot
simultaneously take their maximum time on one path and their minimum on
the other.  The optimal algorithm therefore examines the k longest
max-paths to the producer in decreasing length order, and for each
recomputes the consumer's min-path with the overlapping edges forced to
their maximum time.

The walk almost always stops after a handful of paths -- as soon as one
path satisfies the plain timing condition, every shorter path does too --
so the ``psi^k_max`` sequence is produced *lazily* by
:func:`iter_longest_max_paths`, a best-first search that yields paths in
exact decreasing-length order without materializing (or sorting) the
full, potentially exponential path set.  :func:`k_longest_max_paths`
keeps the old materialized interface on top of it.

A hard cap (:data:`MAX_PATHS`) still bounds pathological walks that
genuinely visit many paths.  **Contract:** the generators yield up to
:data:`MAX_PATHS` paths normally and raise :class:`PathExplosionError`
*lazily, mid-iteration*, on the attempt to produce path
``MAX_PATHS + 1`` -- by then up to :data:`MAX_PATHS` paths have already
been yielded and consumed.  Callers that need the complete path set must
therefore treat any yielded prefix as void when the error arrives;
callers that decide early (the optimal check) simply stop iterating and
never trip the cap.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Iterator, Sequence

from repro.barriers.dag import BarrierDag
from repro.obs.spans import event

__all__ = [
    "MAX_PATHS",
    "PathExplosionError",
    "all_paths",
    "iter_longest_max_paths",
    "k_longest_max_paths",
    "longest_min_path_with_forced_max",
]

#: Maximum number of paths produced before giving up.
MAX_PATHS = 20_000


class PathExplosionError(RuntimeError):
    """Raised when a barrier dag has too many ``u -> v`` paths to walk.

    Raised *after* :data:`MAX_PATHS` paths have been yielded (see the
    module docstring for the mid-iteration contract).
    """


def all_paths(dag: BarrierDag, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """Yield every path from ``u`` to ``v`` as a tuple of barrier ids.

    ``u == v`` yields the trivial single-node path.  Paths in a dag are
    automatically simple.  Raises :class:`PathExplosionError` lazily on
    the attempt to yield path :data:`MAX_PATHS` ``+ 1`` -- i.e. *after*
    :data:`MAX_PATHS` paths were already yielded; consumers needing the
    complete set must discard the partial prefix on error.
    """
    if u == v:
        yield (u,)
        return
    if not dag.has_path(u, v):
        return

    produced = 0
    stack: list[int] = [u]

    def dfs(node: int) -> Iterator[tuple[int, ...]]:
        nonlocal produced
        if node == v:
            produced += 1
            if produced > MAX_PATHS:
                event("paths.explosion", u=u, v=v, produced=MAX_PATHS)
                raise PathExplosionError(
                    f"more than {MAX_PATHS} paths between barriers {u} and {v}"
                )
            yield tuple(stack)
            return
        for s in dag.succs(node):
            if s == v or dag.has_path(s, v):
                stack.append(s)
                yield from dfs(s)
                stack.pop()

    yield from dfs(u)


def _path_edges(path: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(zip(path, path[1:]))


def path_length(dag: BarrierDag, path: Sequence[int], use_max: bool) -> int:
    total = 0
    for u, v in _path_edges(path):
        w = dag.weight(u, v)
        total += w.hi if use_max else w.lo
    return total


def _completion_bounds(dag: BarrierDag, u: int, v: int) -> dict[int, int]:
    """Longest max-time path length from each node to ``v``, for every
    node on some ``u -> v`` path.  One reverse-topological sweep."""
    bound: dict[int, int] = {v: 0}
    order = dag.barrier_ids
    index = dag.order_index
    start, end = index[u], index[v]
    for bid in reversed(order[start:end]):
        if bid != u and not dag.has_path(u, bid):
            continue
        best = None
        for s in dag.succs(bid):
            tail = bound.get(s)
            if tail is None:
                continue
            cand = dag.weight(bid, s).hi + tail
            if best is None or cand > best:
                best = cand
        if best is not None:
            bound[bid] = best
    return bound


def iter_longest_max_paths(
    dag: BarrierDag, u: int, v: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Lazily yield every ``u -> v`` path as ``(max_length, path)`` in
    decreasing max-length order, ties broken by path contents.

    This realizes the sequence ``psi_max(u,v), psi^2_max(u,v), ...`` of
    section 4.4.2 without enumerating the whole path set first: a
    best-first search over path prefixes, ranked by the prefix length
    plus the *exact* longest completion to ``v`` (an admissible,
    consistent bound computed by one reverse-topological sweep), pops
    complete paths in exactly the order the old enumerate-and-sort
    produced -- ``sorted(key=(-length, path))`` -- so consumers that stop
    after the first decisive path do sublinear work in the path count.

    Raises :class:`PathExplosionError` under the same lazy
    :data:`MAX_PATHS` contract as :func:`all_paths`.
    """
    if u == v:
        yield 0, (u,)
        return
    if not dag.has_path(u, v):
        return

    bound = _completion_bounds(dag, u, v)
    produced = 0
    # Heap entries: (-(length_so_far + best_completion), path, length_so_far).
    # Equal-priority entries tie-break on the path tuple, matching the old
    # sort key; with the exact completion bound this yields total order
    # identical to sorting all complete paths.
    heap: list[tuple[int, tuple[int, ...], int]] = [(-bound[u], (u,), 0)]
    while heap:
        neg_f, path, length = heappop(heap)
        node = path[-1]
        if node == v:
            produced += 1
            if produced > MAX_PATHS:
                event("paths.explosion", u=u, v=v, produced=MAX_PATHS)
                raise PathExplosionError(
                    f"more than {MAX_PATHS} paths between barriers {u} and {v}"
                )
            yield length, path
            continue
        for s in dag.succs(node):
            tail = bound.get(s)
            if tail is None:
                continue
            step = length + dag.weight(node, s).hi
            heappush(heap, (-(step + tail), path + (s,), step))


def k_longest_max_paths(
    dag: BarrierDag, u: int, v: int
) -> list[tuple[int, tuple[int, ...]]]:
    """All ``u -> v`` paths as ``(max_length, path)`` sorted by length desc.

    Materialized convenience wrapper over :func:`iter_longest_max_paths`;
    ties are broken by path contents for determinism, as before.
    """
    return list(iter_longest_max_paths(dag, u, v))


def longest_min_path_with_forced_max(
    dag: BarrierDag,
    u: int,
    w: int,
    forced_edges: Iterable[tuple[int, int]],
) -> int | None:
    """``l(psi*_min(u, w))``: longest ``u -> w`` path assuming minimum
    region times, *except* that edges in ``forced_edges`` (those lying on
    the producer path currently under examination) take their maximum time.

    Returns ``None`` when no path exists.
    """
    if u == w:
        return 0
    if not dag.has_path(u, w):
        return None
    forced = set(forced_edges)
    order = dag.barrier_ids
    index = dag.order_index
    end = index[w]
    best: dict[int, int] = {u: 0}
    for bid in order[index[u]:end + 1]:
        if bid not in best:
            continue
        base = best[bid]
        for s in dag.succs(bid):
            if index[s] > end:
                continue
            weight = dag.weight(bid, s)
            length = weight.hi if (bid, s) in forced else weight.lo
            cand = base + length
            if cand > best.get(s, -1):
                best[s] = cand
    return best.get(w)
