"""Spatial joins over (transformed) R-tree views.

The paper's last experiment (Table 1) is a spatial self-join: find all
pairs of stock series whose 20-day moving averages are within ``eps``.  Two
index-based strategies are implemented:

* :func:`index_nested_loop_join` — the paper's method *c*/*d*: scan one
  relation, build a search rectangle per sequence and pose it to the
  (transformed) index as a range query.
* :func:`tree_matching_join` — synchronized traversal of both trees
  (Brinkmann-style R-tree join); not in the paper, provided as the
  classical faster alternative and used as an ablation.  Its hot-path
  form is :func:`tree_matching_join_pairs`: the same join over two
  frozen kernels as one frontier-pair traversal, with the recursive
  node-object descent kept as the parity reference.

Both return *candidate* pairs; the caller post-processes them against full
records, exactly like Algorithm 2's step 3.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.rtree.geometry import Rect
from repro.rtree.kernel import FrontierStats
from repro.rtree.transformed import TransformedIndexView

#: builds a search rectangle around a (transformed) point
SearchRectFn = Callable[[Rect], Rect]

#: stacked expansion: (m, d) lows, (m, d) highs -> expanded (lows, highs)
ExpandManyFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def tree_matching_join_pairs(
    view_a: TransformedIndexView,
    view_b: TransformedIndexView,
    expand_many: ExpandManyFn,
    self_join: bool = False,
    fstats: Optional[FrontierStats] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Tree-matching join reformulated over two frozen kernels.

    The recursive :func:`tree_matching_join` descends both node-object
    trees in lockstep; this form expresses the same join as one
    frontier-pair traversal: kernel A supplies the whole outer leaf
    relation as flat arrays (:meth:`~repro.rtree.kernel.FrozenRTree.leaf_entries`,
    mapped through A's affine view and grown by the join radius via
    ``expand_many``), and those boxes descend kernel B together through
    :meth:`~repro.rtree.kernel.FrozenRTree.join_pairs` — no node objects
    anywhere on the hot path.  Candidate pair sets match the recursive
    form, which stays in-tree as the parity reference.

    Args:
        view_a, view_b: transformed views whose trees carry frozen
            kernels (may wrap the same tree for a self-join).
        expand_many: grows stacked ``(m, dim)`` transformed leaf boxes by
            the join distance (the array form of the recursive join's
            ``expand`` callable).
        self_join: emit each unordered pair once (``inner > outer``).
        fstats: optional frontier counters for the B-side descent.

    Returns:
        ``(a ids, b ids)`` candidate-pair arrays, sorted by ``(a, b)``.
    """
    kernel_a = view_a.kernel
    kernel_b = view_b.kernel
    if kernel_a is None or kernel_b is None:
        raise ValueError("tree_matching_join_pairs requires frozen kernels")
    lows, highs, outer_ids = kernel_a.leaf_entries()
    mapping = view_a.mapping
    lo = lows * mapping.scale + mapping.offset
    hi = highs * mapping.scale + mapping.offset
    qlows, qhighs = expand_many(np.minimum(lo, hi), np.maximum(lo, hi))
    return kernel_b.join_pairs(
        np.asarray(qlows, dtype=np.float64),
        np.asarray(qhighs, dtype=np.float64),
        np.asarray(outer_ids, dtype=np.int64),
        view_b.mapping.scale,
        view_b.mapping.offset,
        circular_mask=view_b.circular_mask,
        self_join=self_join,
        fstats=fstats,
        io=view_b.tree.store.stats,
    )


def index_nested_loop_join_pairs(
    view: TransformedIndexView,
    qlows: np.ndarray,
    qhighs: np.ndarray,
    outer_ids: np.ndarray,
    self_join: bool = True,
    fstats: Optional[FrontierStats] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-backed index nested-loop join (the fused form of methods c/d).

    Instead of posing one recursive range query per outer record
    (:func:`index_nested_loop_join`), all outer search rectangles descend
    the inner index together as one ``(node, query)`` frontier-pair
    traversal (:meth:`repro.rtree.kernel.FrozenRTree.join_pairs`), with
    the self-join filter applied vectorized at the leaves.  Requires the
    view to carry a frozen kernel.

    Args:
        view: transformed view of the indexed (inner) relation.
        qlows, qhighs: stacked ``(m, dim)`` outer search rectangles.
        outer_ids: the outer record id behind each query row.
        self_join: emit each unordered pair once (``inner > outer``).
        fstats: optional frontier counters.

    Returns:
        ``(outer ids, inner ids)`` candidate-pair arrays, sorted by
        ``(outer, inner)`` — the same pair set as the generator form.
    """
    if view.kernel is None:
        raise ValueError("index_nested_loop_join_pairs requires a frozen kernel")
    return view.kernel.join_pairs(
        np.asarray(qlows, dtype=np.float64),
        np.asarray(qhighs, dtype=np.float64),
        np.asarray(outer_ids, dtype=np.int64),
        view.mapping.scale,
        view.mapping.offset,
        circular_mask=view.circular_mask,
        self_join=self_join,
        fstats=fstats,
        io=view.tree.store.stats,
    )


def index_nested_loop_join(
    outer: Iterable[tuple[int, Rect]],
    inner_view: TransformedIndexView,
    make_search_rect: SearchRectFn,
    self_join: bool = True,
) -> Iterator[tuple[int, int]]:
    """Join by posing one range query per outer point (paper methods c/d).

    Args:
        outer: ``(record_id, transformed point-rect)`` pairs to probe with.
        inner_view: transformed view of the indexed relation.
        make_search_rect: maps a transformed point to its search rectangle
            (the ``eps``-expansion appropriate for the coordinate system).
        self_join: when true, emit each unordered pair once (``a < b``) and
            skip the trivial ``(a, a)`` match.

    Yields:
        candidate ``(outer_id, inner_id)`` pairs.
    """
    for record_id, point_rect in outer:
        qrect = make_search_rect(point_rect)
        for entry in inner_view.search(qrect):
            if self_join:
                if entry.child <= record_id:
                    continue
                yield record_id, entry.child
            else:
                yield record_id, entry.child


def tree_matching_join(
    view_a: TransformedIndexView,
    view_b: TransformedIndexView,
    expand: Callable[[Rect], Rect],
    self_join: bool = False,
) -> Iterator[tuple[int, int]]:
    """Synchronized-descent join of two transformed views.

    ``expand`` grows a rectangle by the join distance so that plain
    intersection of ``expand(mbr_a)`` with ``mbr_b`` is a superset test for
    "some pair within eps".  Views must share dimensionality but may wrap
    different trees (or the same tree for a self-join).
    """

    def recurse(node_a, node_b) -> Iterator[tuple[int, int]]:
        if node_a.is_leaf and node_b.is_leaf:
            for ea in node_a.entries:
                grown = expand(ea.rect)
                for eb in node_b.entries:
                    if self_join and eb.child <= ea.child:
                        continue
                    if view_a._intersects(grown, eb.rect):
                        yield ea.child, eb.child
            return
        if not node_a.is_leaf and (node_b.is_leaf or node_a.level >= node_b.level):
            for ea in node_a.entries:
                grown = expand(ea.rect)
                if view_a._intersects(grown, node_b.mbr()):
                    yield from recurse(view_a.transformed_node(ea.child), node_b)
            return
        for eb in node_b.entries:
            if view_a._intersects(expand(node_a.mbr()), eb.rect):
                yield from recurse(node_a, view_b.transformed_node(eb.child))

    root_a = view_a.transformed_node(view_a.root_id)
    root_b = view_b.transformed_node(view_b.root_id)
    if not root_a.entries or not root_b.entries:
        return
    yield from recurse(root_a, root_b)
