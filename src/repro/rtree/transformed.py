"""Algorithm 1: a transformed R-tree view built on the fly.

Given an index ``I`` over a data set ``D`` and a *safe* transformation ``T``
(one that maps rectangles to rectangles preserving inside/outside —
Definition 1 of the paper), Algorithm 1 constructs an index ``I'`` for
``T(D)`` by mapping every node MBR through ``T``.  The paper's key
observation is that ``I'`` never needs to be materialised: the mapping can
be applied to each node *as it is read during search*, so one physical
index serves every safe transformation with no extra disk.

:class:`AffineMap` is the concrete form every safe transformation takes on
the feature space once Theorems 1-3 are applied: an independent real affine
map ``x -> c*x + d`` per dimension (``c`` may be negative — the paper
explicitly allows negative scales — in which case interval endpoints swap).

:class:`TransformedIndexView` wraps a tree and an affine map and exposes
read-only traversal (range search, iteration, node access) over the
transformed index.  The identity map specialises to the plain index, which
is how the paper's Figures 8 and 9 compare the two.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.rtree.base import RTreeBase
from repro.rtree.geometry import Rect, intersects_circular
from repro.rtree.kernel import FrontierStats, FrozenRTree, cached_kernel
from repro.rtree.node import Entry, Node, NodeStore


class AffineMap:
    """Per-dimension real affine map ``x -> scale * x + offset``.

    This is the normal form of every safe transformation on the index space
    (see the proofs of Theorems 1-3, which all end by exhibiting real
    vectors ``c`` and ``d``).
    """

    __slots__ = ("scale", "offset")

    def __init__(self, scale: Sequence[float], offset: Sequence[float]) -> None:
        self.scale = np.asarray(scale, dtype=np.float64).copy()
        self.offset = np.asarray(offset, dtype=np.float64).copy()
        if self.scale.shape != self.offset.shape or self.scale.ndim != 1:
            raise ValueError("scale and offset must be 1-D arrays of equal length")

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        """The identity map ``T_i = (1, 0)`` used in the paper's Figs 8-9."""
        return cls(np.ones(dim), np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.scale.shape[0]

    def is_identity(self, tol: float = 0.0) -> bool:
        """True when the map moves nothing (within ``tol``)."""
        return bool(
            np.all(np.abs(self.scale - 1.0) <= tol)
            and np.all(np.abs(self.offset) <= tol)
        )

    # ------------------------------------------------------------------
    def apply_point(self, point: Sequence[float]) -> np.ndarray:
        """Map one point."""
        p = np.asarray(point, dtype=np.float64)
        return self.scale * p + self.offset

    def apply_rect(self, rect: Rect) -> Rect:
        """Map a rectangle; negative scales flip the affected interval."""
        a = self.scale * rect.lows + self.offset
        b = self.scale * rect.highs + self.offset
        return Rect(np.minimum(a, b), np.maximum(a, b))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map ``x -> self(inner(x))``."""
        if inner.dim != self.dim:
            raise ValueError(f"dimension mismatch: {inner.dim} vs {self.dim}")
        return AffineMap(
            self.scale * inner.scale, self.scale * inner.offset + self.offset
        )

    def inverse(self) -> "AffineMap":
        """The inverse map; requires every scale to be nonzero."""
        if np.any(self.scale == 0.0):
            raise ValueError("affine map with a zero scale is not invertible")
        inv = 1.0 / self.scale
        return AffineMap(inv, -self.offset * inv)

    def __repr__(self) -> str:
        return f"AffineMap(scale={self.scale.tolist()}, offset={self.offset.tolist()})"


#: Signature of a rectangle-intersection predicate, so the polar space can
#: plug in wrap-aware tests without the view knowing about coordinates.
IntersectsFn = Callable[[Rect, Rect], bool]


class TransformedIndexView:
    """Read-only view of ``T(I)`` for a tree ``I`` and affine map ``T``.

    Every node is mapped through ``T`` *after* it is read from the store, so
    the view performs exactly the same node/page accesses as the plain tree
    would — the property the paper checks in Figures 8 and 9.
    """

    def __init__(
        self,
        tree: RTreeBase,
        mapping: Optional[AffineMap] = None,
        circular_mask: Optional[np.ndarray] = None,
        kernel: Optional[FrozenRTree] = None,
    ) -> None:
        self.tree = tree
        self.mapping = mapping if mapping is not None else AffineMap.identity(tree.dim)
        if self.mapping.dim != tree.dim:
            raise ValueError(
                f"map dim {self.mapping.dim} does not match tree dim {tree.dim}"
            )
        self.circular_mask = circular_mask
        self._kernel: Optional[tuple[int, FrozenRTree]] = (
            None
            if kernel is None
            else (getattr(tree, "_mutations", 0), kernel)
        )

    @property
    def kernel(self) -> Optional[FrozenRTree]:
        """The tree's frozen columnar image, or ``None`` on reference views.

        State is view-local and versioned against the tree's mutation
        counter, so a long-lived view never serves a stale pre-mutation
        snapshot: while the tree is unmutated the instance given at
        construction (or assignment) is served; after a mutation the view
        falls back to the recursive reference paths until
        :func:`~repro.rtree.kernel.cached_kernel` has refrozen (the O(N)
        rebuild is deferred, so interleaved mutate/query workloads stay on
        the O(nodes touched) reference path), then upgrades to the fresh
        image.  Assigning ``None`` pins this view to the reference paths;
        assigning an image affects only this view.
        """
        if self._kernel is None:
            return None
        mutations, instance = self._kernel
        if mutations == getattr(self.tree, "_mutations", 0):
            return instance
        fresh = cached_kernel(self.tree)
        if fresh is not None:
            self._kernel = (getattr(self.tree, "_mutations", 0), fresh)
        return fresh

    @kernel.setter
    def kernel(self, value: Optional[FrozenRTree]) -> None:
        self._kernel = (
            None
            if value is None
            else (getattr(self.tree, "_mutations", 0), value)
        )

    # ------------------------------------------------------------------
    def _intersects(self, a: Rect, b: Rect) -> bool:
        if self.circular_mask is None:
            return a.intersects(b)
        return intersects_circular(a, b, self.circular_mask)

    def transformed_node_arrays(
        self, node_id: int
    ) -> tuple[Node, np.ndarray, np.ndarray]:
        """Read a node and map its stacked MBRs through ``T`` in one step.

        Returns the *untransformed* node plus the transformed
        ``(fanout, dim)`` lows/highs stacks — the whole node's image under
        Algorithm 1 as two numpy operations, which is what the batch
        traversal paths consume.
        """
        node = self.tree.store.read(node_id)
        if not node.entries:
            empty = np.empty((0, self.tree.dim))
            return node, empty, empty
        lows, highs = node.stacked_rects()
        a = lows * self.mapping.scale + self.mapping.offset
        b = highs * self.mapping.scale + self.mapping.offset
        return node, np.minimum(a, b), np.maximum(a, b)

    def transformed_node(self, node_id: int) -> Node:
        """Read a node and return its image under ``T`` (Algorithm 1 step)."""
        node, t_lows, t_highs = self.transformed_node_arrays(node_id)
        return Node(
            node_id=node.node_id,
            level=node.level,
            entries=[
                Entry(Rect(t_lows[i], t_highs[i]), e.child)
                for i, e in enumerate(node.entries)
            ],
        )

    # ------------------------------------------------------------------
    def search(self, query: Rect) -> list[Entry]:
        """Range search over the transformed index (Algorithm 2, step 2).

        Returns transformed leaf entries (the entry rectangles are the
        transformed points) whose image intersects ``query``.  Each node's
        entries are mapped and tested in one vectorised step — the Python
        equivalent of the paper's "apply T to every entry of N".
        """
        out: list[Entry] = []
        self._search(self.tree.root_id, query, out)
        return out

    def _search(self, node_id: int, query: Rect, out: list[Entry]) -> None:
        node = self.tree.store.read(node_id)
        if len(node.entries) == 0:
            return
        lows, highs = node.stacked_rects()
        a = lows * self.mapping.scale + self.mapping.offset
        b = highs * self.mapping.scale + self.mapping.offset
        t_lows = np.minimum(a, b)
        t_highs = np.maximum(a, b)
        from repro.rtree.geometry import intersects_circular_many

        if self.circular_mask is None:
            hits = Rect.intersects_many(t_lows, t_highs, query.lows, query.highs)
        else:
            hits = intersects_circular_many(
                t_lows, t_highs, query.lows, query.highs, self.circular_mask
            )
        if node.is_leaf:
            for i in np.nonzero(hits)[0]:
                out.append(
                    Entry(Rect(t_lows[i], t_highs[i]), node.entries[i].child)
                )
            return
        for i in np.nonzero(hits)[0]:
            self._search(node.entries[i].child, query, out)

    def search_many(
        self,
        qlows: np.ndarray,
        qhighs: np.ndarray,
        fstats: Optional[FrontierStats] = None,
        budget=None,
    ) -> list[np.ndarray]:
        """Multi-query range search sharing a single tree descent.

        Where :meth:`search` walks the tree once per query, this walks it
        once per *batch* (a single query is a batch of one).  With a
        columnar kernel attached the batch runs through the fused
        ``(node, query)`` pair frontier
        (:meth:`repro.rtree.kernel.FrozenRTree.range_ids_many`); without
        one, the reference implementation reads every node at most once
        and tests its entries against all still-active query rectangles in
        one pairwise broadcast (a ``budget``'s deadline and frontier cap
        are checked per popped node).  Either way the per-query candidate
        sets are identical to ``m`` separate :meth:`search` calls, and
        kernel views bump the store's logical ``node_reads`` by the nodes
        expanded, so Figure 8/9-style access counting still works.

        Args:
            qlows, qhighs: stacked ``(m, dim)`` query-rectangle bounds.
            fstats: optional frontier counters (kernel path only).

        Returns:
            one ``int64`` array of matching record ids per query, in query
            order.
        """
        if self.kernel is not None:
            return self.kernel.range_ids_many(
                np.asarray(qlows, dtype=np.float64),
                np.asarray(qhighs, dtype=np.float64),
                self.mapping.scale, self.mapping.offset,
                circular_mask=self.circular_mask,
                fstats=fstats, io=self.tree.store.stats, budget=budget,
            )
        from repro.rtree.geometry import intersects_circular_pairwise

        m = qlows.shape[0]
        if m == 0:
            return []
        out: list[list[int]] = [[] for _ in range(m)]
        stack: list[tuple[int, np.ndarray]] = [(self.tree.root_id, np.arange(m))]
        while stack:
            if budget is not None:
                budget.check(len(stack), where="reference batch search")
            node_id, active = stack.pop()
            node, t_lows, t_highs = self.transformed_node_arrays(node_id)
            if not node.entries:
                continue
            hits = intersects_circular_pairwise(
                t_lows, t_highs, qlows[active], qhighs[active], self.circular_mask
            )
            if node.is_leaf:
                for fi, qi in zip(*np.nonzero(hits)):
                    out[int(active[qi])].append(node.entries[fi].child)
            else:
                for fi in range(len(node.entries)):
                    sub = active[np.nonzero(hits[fi])[0]]
                    if sub.size:
                        stack.append((node.entries[fi].child, sub))
        return [np.asarray(ids, dtype=np.int64) for ids in out]

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Entry]:
        """All transformed leaf entries."""
        for e in self.tree:
            yield Entry(self.mapping.apply_rect(e.rect), e.child)

    def root_mbr(self) -> Optional[Rect]:
        """Transformed MBR of the whole index."""
        mbr = self.tree.root_mbr()
        return None if mbr is None else self.mapping.apply_rect(mbr)

    @property
    def root_id(self) -> int:
        return self.tree.root_id

    @property
    def store(self) -> NodeStore:
        return self.tree.store
