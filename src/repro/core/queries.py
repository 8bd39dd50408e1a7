"""Query processing: multi-step k-NN and the Table-1 joins.

Every function here follows the paper's three-phase shape (the range
query's form of it, Algorithm 2, is the operator chain
:class:`~repro.core.ops.IndexProbe` → :class:`~repro.core.ops.Verify`):

1. **Preprocessing** — move the query and transformation into the frequency
   domain, truncate to the ``k`` indexed coefficients, build a search
   rectangle (Fig. 7's construction in the polar case).
2. **Search** — traverse the R-tree through a
   :class:`~repro.rtree.transformed.TransformedIndexView` (Algorithm 1),
   applying the safe transformation to every node on the way down.
3. **Post-processing** — fetch each candidate's full record and check its
   exact Euclidean distance (Eq. 12), guaranteeing no false positives;
   Lemma 1 guarantees the candidate set had no false dismissals.

The all-pairs functions implement the four strategies of the paper's
Table 1 (labelled ``a`` to ``d`` there) plus a tree-matching join.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core.features import FeatureSpace
from repro.core.similarity import batch_euclidean_within
from repro.core.transforms import Transformation
from repro.rtree.join import (
    index_nested_loop_join,
    index_nested_loop_join_pairs,
    tree_matching_join,
    tree_matching_join_pairs,
)
from repro.rtree.kernel import FrontierStats, cached_kernel
from repro.rtree.search import incremental_nearest
from repro.rtree.transformed import AffineMap, TransformedIndexView
from repro.storage.stats import IOStats

#: rows of candidate spectra gathered per verification step of the k-NN.
_VERIFY_BLOCK = 1024

#: A query answer: (record id, exact distance).
Match = tuple[int, float]


def _make_view(
    tree,
    space: FeatureSpace,
    transformation: Optional[Transformation],
) -> TransformedIndexView:
    """Transformed view with the tree's frozen columnar kernel attached.

    The kernel comes from the tree's cache (engines prewarm it at build;
    any insert/delete invalidates it).  Resolution goes through
    :func:`~repro.rtree.kernel.cached_kernel`, which defers the O(tree)
    refreeze of a stale cache — views over a freshly mutated tree simply
    run the recursive reference paths until a query-heavy phase makes
    refreezing worthwhile.
    """
    mapping = (
        AffineMap.identity(space.dim)
        if transformation is None
        else space.affine_map(transformation)
    )
    return TransformedIndexView(
        tree,
        mapping,
        circular_mask=space.circular_mask,
        kernel=cached_kernel(tree),
    )


def knn_query(
    tree,
    space: FeatureSpace,
    ground_spectra: np.ndarray,
    query_spectrum: np.ndarray,
    query_point: np.ndarray,
    k: int,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
    view: Optional[TransformedIndexView] = None,
    frontier_stats: Optional[FrontierStats] = None,
    budget=None,
) -> list[Match]:
    """Exact k-nearest-neighbours of one query: :func:`knn_query_fused`
    on a batch of one.

    Edge cases: ``k == 0`` and an empty relation return ``[]``; ``k``
    exceeding the relation returns every record.  Negative ``k`` raises.
    """
    return knn_query_fused(
        tree, space, ground_spectra,
        np.asarray(query_spectrum)[None, :],
        np.asarray(query_point, dtype=np.float64)[None, :],
        k, transformation=transformation, stats=stats, view=view,
        frontier_stats=frontier_stats, budget=budget,
    )[0]


def _knn_best_first(
    view: TransformedIndexView,
    space: FeatureSpace,
    ground_spectra: np.ndarray,
    query_spectrum: np.ndarray,
    query_point: np.ndarray,
    k: int,
    transformation: Optional[Transformation],
    stats: Optional[IOStats],
    budget,
) -> list[Match]:
    """Best-first k-NN reference for a view without a frozen kernel.

    Multi-step scheme: the *feature-space lower bound* (Lemma 1's
    partial-energy bound) of a record never exceeds its exact distance,
    so entries stream out of the index in non-decreasing bound order and
    the stream stops when the next bound exceeds the ``k``-th best exact
    distance.  The answer is the top ``k`` by ``(distance, id)``, so ties
    go to the lowest id as on the kernel path and in the scan.
    """
    # Max-heap of the best k by (distance, id): items are (-d, -id), so the
    # root is the worst kept match and an equal distance loses to a lower id.
    best: list[tuple[float, int]] = []
    examined = 0
    for bound, entry in incremental_nearest(
        view,
        query_point,
        rect_dist=space.rect_mindist,
        point_dist=space.point_dist,
        rect_dist_many=space.rect_mindist_many,
        point_dist_many=space.point_dist_many,
        budget=budget,
    ):
        if len(best) == k and bound > -best[0][0]:
            break
        if budget is not None and budget.exceeded(0) is not None:
            # k-NN truncates instead of raising: results so far are exact,
            # just possibly incomplete.  The stream also enforces the
            # budget inside its frontier loop (with the real heap size);
            # this outer check covers the per-candidate verify cost.
            budget.truncated = True
            break
        d = space.ground_distance(
            ground_spectra[entry.child], query_spectrum, transformation
        )
        examined += 1
        item = (-d, -entry.child)
        if len(best) < k:
            heapq.heappush(best, item)
        elif item > best[0]:
            heapq.heapreplace(best, item)
    if stats is not None:
        stats.candidate_count += examined
        stats.distance_computations += examined
        stats.verifications_completed += examined
    return sorted(((-nrid, -nd) for nd, nrid in best), key=lambda m: (m[1], m[0]))


def knn_query_fused(
    tree,
    space: FeatureSpace,
    ground_spectra: np.ndarray,
    query_spectra: np.ndarray,
    query_points: np.ndarray,
    k: int,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
    view: Optional[TransformedIndexView] = None,
    frontier_stats: Optional["FrontierStats"] = None,
    budget=None,
) -> list[list[Match]]:
    """Exact k-NN for a batch of queries at a certified seed radius.

    Multi-step k-NN as one range query (Seidl & Kriegel, SIGMOD'98).  Per
    query, one vectorised pass bounds every indexed point, and the
    ``4k + 16`` rows with the lowest bounds (the seed *pool*) are verified
    exactly.  Their ``k``-th distance plus 8 ulp is a radius ``r`` that
    holds ``k`` records; by Lemma 1 only the other rows with bound
    ``<= r`` can be closer, and they are verified at ``eps = r``.  The
    answer is the top ``k`` by ``(distance, id)`` over both sets, so ties
    go to the lowest id as in :func:`repro.scan.seqscan.scan_knn`.  The
    pool stays in that union: re-verifying it at ``r`` could lose the
    ``k``-th row to a last-ulp difference between matrix slices.

    Under a ``budget`` the pool and the pending candidates are charged,
    and the pending candidates are the frontier; when a limit fires the
    pool's exact top ``k`` is returned and ``budget.truncated`` set.  A
    view without a frozen kernel runs a best-first reference once per
    query (the degraded tier and the tests' reference).

    Args:
        query_spectra: ``(m, n)`` full query spectra (verification side).
        query_points: ``(m, dim)`` query feature points (index side).
        k: neighbours per query; ``0`` returns empty lists, and ``k``
            exceeding the relation returns every record.
        transformation: safe transformation applied to the data side.
        stats: counter bundle for candidate/distance accounting.
        view: prebuilt transformed view; built from ``transformation``
            when ``None``.
        frontier_stats: optional counters (rows bounded, pending peak).
        budget: optional :class:`~repro.storage.budget.ResourceBudget`.

    Returns:
        one ``(record id, exact distance)`` list per query, in order.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if view is None:
        view = _make_view(tree, space, transformation)
    q_points = np.asarray(query_points, dtype=np.float64)
    m = q_points.shape[0]
    if k == 0 or m == 0:
        return [[] for _ in range(m)]
    if view.kernel is None:
        return [
            _knn_best_first(
                view, space, ground_spectra, query_spectra[i], q_points[i], k,
                transformation, stats, budget,
            )
            for i in range(m)
        ]
    q_specs = np.asarray(query_spectra)
    lows, _, ids = view.kernel.leaf_entries()
    pts = lows * view.mapping.scale + view.mapping.offset
    n = int(ids.shape[0])
    if n == 0:
        return [[] for _ in range(m)]
    pool_size = min(4 * k + 16, n)
    kth = min(k, pool_size) - 1
    slack = 1.0 + 8 * np.finfo(np.float64).eps
    out: list[list[Match]] = []
    for i in range(m):
        lb = space.point_dist_many(pts, q_points[i])
        pool = np.argpartition(lb, pool_size - 1)[:pool_size]
        _, dists, _ = space.ground_distances_within_many(
            ground_spectra[ids[pool]], q_specs[i], np.inf, transformation
        )
        r = np.partition(dists, kth)[kth] * slack
        pending = lb <= r
        pending[pool] = False
        cand = np.flatnonzero(pending)
        if frontier_stats is not None:
            frontier_stats.entries_scanned += n
            frontier_stats.observe(int(cand.shape[0]))
        if budget is not None:
            budget.consume(pool_size)
            if budget.exceeded(int(cand.shape[0])) is not None:
                budget.truncated = True
                cand = cand[:0]
            budget.consume(int(cand.shape[0]))
        # Candidates in bound order, a block at a time: each block tightens
        # r for the next, and the gathered spectra stay one block in size.
        cand = cand[np.argsort(lb[cand], kind="stable")]
        rows = ids[pool]
        abandoned = 0
        for s in range(0, int(cand.shape[0]), _VERIFY_BLOCK):
            blk = cand[s : s + _VERIFY_BLOCK]
            blk = blk[lb[blk] <= r]
            if blk.shape[0] == 0:
                break
            kept, d_blk, dropped = space.ground_distances_within_many(
                ground_spectra[ids[blk]], q_specs[i], r, transformation
            )
            rows = np.concatenate((rows, ids[blk[kept]]))
            dists = np.concatenate((dists, d_blk))
            r = np.partition(dists, kth)[kth] * slack
            abandoned += dropped
        if stats is not None:
            # every verified row is either in ``dists`` or abandoned
            stats.candidate_count += dists.shape[0] + abandoned
            stats.distance_computations += dists.shape[0] + abandoned
            stats.verifications_completed += dists.shape[0]
            stats.verifications_abandoned += abandoned
        top = np.lexsort((rows, dists))[:k]
        out.append([(int(rows[j]), float(dists[j])) for j in top])
    return out


# ----------------------------------------------------------------------
# All-pairs (Table 1)
# ----------------------------------------------------------------------
def _transformed_spectra(
    ground_spectra: np.ndarray, transformation: Optional[Transformation]
) -> np.ndarray:
    """The whole relation's transformed spectra, computed once (O(m))."""
    if transformation is None:
        return ground_spectra
    return transformation.apply_spectrum(ground_spectra)


def _verify_pairs(
    tspec: np.ndarray,
    pair_iter: Iterator[tuple[int, int]],
    eps: float,
    block: int = 1024,
) -> tuple[list[tuple[int, int, float]], int]:
    """Exact-distance check of streamed candidate pairs, a block at a time.

    Consumes ``pair_iter`` in fixed-size chunks so a dense join never
    materialises its whole O(m²) candidate set.  Returns the surviving
    ``(i, j, distance)`` triples and the number of candidates seen.
    """
    out: list[tuple[int, int, float]] = []
    candidates = 0
    while True:
        chunk = list(itertools.islice(pair_iter, block))
        if not chunk:
            break
        candidates += len(chunk)
        ii = np.fromiter((p[0] for p in chunk), dtype=np.intp, count=len(chunk))
        jj = np.fromiter((p[1] for p in chunk), dtype=np.intp, count=len(chunk))
        out.extend(_verify_pair_block(tspec, ii, jj, eps))
    return out, candidates


def _verify_pair_block(
    tspec: np.ndarray, ii: np.ndarray, jj: np.ndarray, eps: float
) -> list[tuple[int, int, float]]:
    """Exact distances of one block of candidate pairs, filtered to eps."""
    diff = tspec[ii] - tspec[jj]
    d = np.sqrt(np.sum(diff.real**2 + diff.imag**2, axis=1))
    return [
        (int(ii[t]), int(jj[t]), float(d[t])) for t in np.nonzero(d <= eps)[0]
    ]


def _verify_pairs_arrays(
    tspec: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    eps: float,
    block: int = 8192,
) -> tuple[list[tuple[int, int, float]], int]:
    """Array form of :func:`_verify_pairs` for kernel-produced pair sets.

    The kernel's frontier-pair join materialises its candidate pairs as two
    id arrays; verification still proceeds block-by-block so a dense join
    never allocates an O(pairs × n) spectra matrix at once.
    """
    out: list[tuple[int, int, float]] = []
    for s in range(0, int(ii.shape[0]), block):
        out.extend(_verify_pair_block(tspec, ii[s : s + block], jj[s : s + block], eps))
    return out, int(ii.shape[0])

def all_pairs_scan(
    ground_spectra: np.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    early_abandon: bool = False,
    stats: Optional[IOStats] = None,
) -> list[tuple[int, int, float]]:
    """Table 1 methods *a* (``early_abandon=False``) and *b* (``True``).

    Scans the relation of Fourier coefficients sequentially, comparing
    every sequence to all sequences after it, applying the transformation
    to both sides during the comparison.  Method *b* stops each distance
    computation as soon as it exceeds ``eps`` — the paper measured this
    one optimisation alone to be worth a factor of 10.  Both methods share
    the same blocked distance loop so that the a-vs-b comparison isolates
    the early-abandon optimisation, exactly as in the paper.

    The transformation is applied to the whole relation once up front
    (O(m) applications, not the O(m²) of re-transforming the inner side on
    every comparison).  Each outer row is compared against all later rows
    in one blocked matrix computation — method *b* drops rows from the
    active set as their partial sums exceed ``eps²``, method *a* runs the
    same blocks to completion.
    """
    m = ground_spectra.shape[0]
    tspec = _transformed_spectra(ground_spectra, transformation)
    out: list[tuple[int, int, float]] = []
    computations = 0
    abandon_at = eps if early_abandon else float("inf")
    for i in range(m):
        rest = tspec[i + 1 :]
        computations += rest.shape[0]
        kept, dists, _ = batch_euclidean_within(rest, tspec[i], abandon_at)
        for j_off, d in zip(kept, dists):
            if d <= eps:
                out.append((i, i + 1 + int(j_off), float(d)))
    if stats is not None:
        stats.distance_computations += computations
    return out


def all_pairs_index(
    tree,
    space: FeatureSpace,
    ground_spectra: np.ndarray,
    points: np.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
    frontier_stats: Optional[FrontierStats] = None,
) -> list[tuple[int, int, float]]:
    """Table 1 methods *c* (no transformation) and *d* (with it).

    Scans the relation sequentially; for every sequence builds a search
    rectangle around its (transformed) feature point and poses it to the
    (transformed) index as a range query, then verifies candidates against
    full records.  Each unordered pair is reported once — the paper's
    method *d* reports both orientations, which is why its Table-1 answer
    counts are doubled; see EXPERIMENTS.md.

    The relation's spectra are transformed once up front and candidate
    pairs are verified in matrix blocks.  With a frozen kernel the whole
    outer relation descends the inner index as one frontier-pair
    traversal (:func:`repro.rtree.join.index_nested_loop_join_pairs`);
    without one, one recursive range query runs per outer record.
    Candidate pair sets are identical either way, and results are
    returned sorted by ``(outer, inner)``.
    """
    view = _make_view(tree, space, transformation)
    mapping = view.mapping
    tpoints = points * mapping.scale + mapping.offset
    tspec = _transformed_spectra(ground_spectra, transformation)

    if view.kernel is not None:
        m = tpoints.shape[0]
        qlows, qhighs = space.search_rect_many(tpoints, eps)
        out = []
        candidates = 0
        # The outer relation descends in chunks so a dense join (large eps)
        # never materialises its whole O(m²) candidate-pair set — the
        # frontier-pair arrays and the verification stay O(chunk × hits).
        chunk = 1024
        for s in range(0, m, chunk):
            e = min(s + chunk, m)
            outer_ids, inner_ids = index_nested_loop_join_pairs(
                view, qlows[s:e], qhighs[s:e],
                np.arange(s, e, dtype=np.int64),
                self_join=True, fstats=frontier_stats,
            )
            chunk_out, n = _verify_pairs_arrays(tspec, outer_ids, inner_ids, eps)
            out.extend(chunk_out)
            candidates += n
    else:

        def outer() -> Iterable[tuple[int, object]]:
            from repro.rtree.geometry import Rect

            for i in range(tpoints.shape[0]):
                yield i, Rect.from_point(tpoints[i])

        pair_iter = index_nested_loop_join(
            outer(),
            view,
            make_search_rect=lambda pr: space.search_rect(pr.lows, eps),
            self_join=True,
        )
        out, candidates = _verify_pairs(tspec, pair_iter, eps)
    if stats is not None:
        stats.candidate_count += candidates
        stats.distance_computations += candidates
        stats.verifications_completed += candidates
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def all_pairs_tree_join(
    tree,
    space: FeatureSpace,
    ground_spectra: np.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
) -> list[tuple[int, int, float]]:
    """Self-join by synchronized tree descent (not in the paper; ablation).

    With a frozen kernel the join runs as one
    frontier-pair traversal over the columnar arrays
    (:func:`repro.rtree.join.tree_matching_join_pairs`): the whole leaf
    relation is expanded by the join radius in one
    :meth:`~repro.core.features.FeatureSpace.expand_rect_many` pass and
    descends the kernel together, with candidates verified in matrix
    blocks.  Otherwise the recursive
    :func:`repro.rtree.join.tree_matching_join` reference runs with the
    space's per-rect ``eps`` expansion — the two produce the same
    verified answer set.
    """
    view = _make_view(tree, space, transformation)
    tspec = _transformed_spectra(ground_spectra, transformation)
    if view.kernel is not None:
        outer_ids, inner_ids = tree_matching_join_pairs(
            view,
            view,
            expand_many=lambda lo, hi: space.expand_rect_many(lo, hi, eps),
            self_join=True,
        )
        out, candidates = _verify_pairs_arrays(tspec, outer_ids, inner_ids, eps)
    else:
        pair_iter = tree_matching_join(
            view, view, expand=lambda r: space.expand_rect(r, eps), self_join=True
        )
        out, candidates = _verify_pairs(tspec, pair_iter, eps)
    if stats is not None:
        stats.candidate_count += candidates
        stats.distance_computations += candidates
        stats.verifications_completed += candidates
    out.sort(key=lambda t: (t[0], t[1]))
    return out
