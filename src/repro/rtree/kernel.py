"""Columnar R-tree kernel: frozen struct-of-arrays storage + frontier engine.

After an R-tree is built (Guttman insertion, R* insertion, or STR bulk
load — the *build-time* representation stays the recursive node-object
tree), it can be **frozen** into contiguous struct-of-arrays storage:

::

    nodes  (BFS order, root = 0)          entries (grouped by owning node)
    ┌────────────┬─────────────┬───────┐  ┌───────────┬────────────┬─────────────┐
    │ node_level │ entry_start │ entry │  │ entry_lows│ entry_highs│ entry_child │
    │   (N,)     │    (N,)     │ count │  │  (E, d)   │   (E, d)   │    (E,)     │
    └────────────┴─────────────┴───────┘  └───────────┴────────────┴─────────────┘

``entry_child`` holds a child *node id* for internal entries and an
opaque *id payload* for leaf entries — a record id for the engine's
point trees (whose leaf rectangles are degenerate points, so
``entry_lows`` doubles as the point matrix), or any other identifier for
box-leaf payloads such as the ST-index's sub-trail MBRs tagged with
sub-trail ids.  The range probes (:meth:`FrozenRTree.range_ids_many`,
:meth:`FrozenRTree.join_pairs`) test
full ``[lows, highs]`` intersection and therefore serve both payload
kinds; :meth:`FrozenRTree.nearest_stream` scores leaves through
``entry_lows`` and assumes point leaves, while
:meth:`FrozenRTree.knn_batch` also serves box leaves (``box_leaves``
scores them by rectangle MINDIST, and the ``verify_expand`` seam lets
one leaf id fan out into many verifiable items — e.g. a sub-trail into
its windows — with the per-query pruning radius handed to the callback).
Because every leaf sits at level 0, a traversal frontier is always
level-homogeneous, which is what makes level-at-a-time expansion a
handful of numpy calls.

On top of the frozen arrays one **iterative frontier engine** replaces the
per-algorithm recursive descents:

* :meth:`FrozenRTree.range_ids_many` / :meth:`FrozenRTree.join_pairs` —
  the fused multi-query frontier: a flat ``(node, query)`` pair frontier
  expanded level-at-a-time (gather, transform, intersect as three fused
  numpy steps per level; a single query is a batch of one), with the
  index nested-loop join expressed as the same traversal plus a
  vectorized pair filter at the leaves;
* :meth:`FrozenRTree.nearest_stream` — best-first incremental nearest
  that pops nodes and pushes *distance-sorted entry blocks* (one heap item
  per block, advanced by position) instead of one heap item per entry;
* :meth:`FrozenRTree.knn_batch` — the fused batched k-NN: all queries
  share one round-synchronous best-first loop with a *per-query pruning
  radius*; node expansion bounds and exact-distance verifications are
  evaluated once per round across the whole batch.

Safe transformations (Algorithm 1) are applied to the gathered MBR
matrices as two fused numpy ops per expansion — the kernel takes the
per-dimension affine ``scale``/``offset`` vectors directly so that it
never has to import the view layer.

Every traversal can record a :class:`FrontierStats` (``nodes_expanded``,
``entries_scanned``, ``frontier_peak``) which the physical operators
surface through ``EXPLAIN``, and bumps the store's logical ``node_reads``
counter so the paper's "node accesses with vs without transformation"
measurements stay meaningful on the kernel path.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.rtree.backend import xp

from repro.rtree.geometry import (
    Rect,
    intersects_circular_rows,
)
from repro.storage.budget import ResourceBudget
from repro.storage.manifest import CorruptIndexError
from repro.storage.stats import IOStats

#: batched rect lower bound: (m, d) lows, (m, d) highs, (d,) query -> (m,)
RectDistManyFn = Callable[[xp.ndarray, xp.ndarray, xp.ndarray], xp.ndarray]
#: batched point distance: (m, d) points, (d,) query -> (m,)
PointDistManyFn = Callable[[xp.ndarray, xp.ndarray], xp.ndarray]
#: row-aligned rect lower bound: (m, d) lows/highs, (m, d) queries -> (m,)
RectDistRowsFn = Callable[[xp.ndarray, xp.ndarray, xp.ndarray], xp.ndarray]
#: row-aligned point distance: (m, d) points, (m, d) queries -> (m,)
PointDistRowsFn = Callable[[xp.ndarray, xp.ndarray], xp.ndarray]
#: exact verification: (query indices, record ids) -> exact distances
VerifyManyFn = Callable[[xp.ndarray, xp.ndarray], xp.ndarray]
#: expanding verification: (query indices, leaf payload ids, per-row pruning
#: radii) -> (query indices, item keys, exact distances), any number of rows
#: per input pair — the box-leaf seam where one leaf id (e.g. a sub-trail)
#: fans out into many verifiable items (its windows).
ExpandVerifyFn = Callable[
    [xp.ndarray, xp.ndarray, xp.ndarray],
    tuple[xp.ndarray, xp.ndarray, xp.ndarray],
]

# Heap item kinds for the best-first traversals.
_NODE = 0  # payload: node id
_NODE_BLOCK = 1  # payload: (sorted bounds, child node ids); advanced by pos
_ENTRY_BLOCK = 2  # payload: (sorted bounds, record ids[, points]); by pos


@dataclass
class FrontierStats:
    """Per-traversal counters the frontier engine fills in.

    Attributes:
        nodes_expanded: frontier rows expanded (for fused multi-query
            traversals a node expanded for ``q`` distinct queries counts
            ``q`` times — it is the unit of traversal work).
        entries_scanned: entry slots gathered and tested/scored.
        frontier_peak: largest frontier (pair rows, or total heap items
            across active queries) observed at any expansion step.
    """

    nodes_expanded: int = 0
    entries_scanned: int = 0
    frontier_peak: int = 0

    def observe(self, frontier_size: int) -> None:
        if frontier_size > self.frontier_peak:
            self.frontier_peak = frontier_size

    def as_dict(self) -> dict:
        return {
            "nodes_expanded": self.nodes_expanded,
            "entries_scanned": self.entries_scanned,
            "frontier_peak": self.frontier_peak,
        }


class FrozenRTree:
    """A read-only columnar image of a built R-tree (see module docstring).

    Instances are produced by :meth:`freeze` (or :meth:`from_arrays` when
    reloading persisted arrays) and never mutated; the source tree remains
    the authority for inserts/deletes, and :func:`frozen_kernel` refreezes
    lazily when the tree has mutated.
    """

    def __init__(
        self,
        dim: int,
        size: int,
        node_level: xp.ndarray,
        entry_start: xp.ndarray,
        entry_count: xp.ndarray,
        entry_lows: xp.ndarray,
        entry_highs: xp.ndarray,
        entry_child: xp.ndarray,
    ) -> None:
        self.dim = int(dim)
        self.size = int(size)
        self.node_level = node_level
        self.entry_start = entry_start
        self.entry_count = entry_count
        self.entry_lows = entry_lows
        self.entry_highs = entry_highs
        self.entry_child = entry_child
        # Read-only: leaf_entries() hands out views, and a write through one
        # would silently corrupt every later traversal.
        for arr in (
            node_level, entry_start, entry_count, entry_lows, entry_highs, entry_child
        ):
            arr.flags.writeable = False
        self.root = 0

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def freeze(cls, tree) -> "FrozenRTree":
        """Snapshot a node-object tree into columnar arrays (BFS order)."""
        store = tree.store
        id_map: dict[int, int] = {}
        nodes = []
        queue = [tree.root_id]
        head = 0
        while head < len(queue):
            node_id = queue[head]
            head += 1
            if node_id in id_map:
                continue
            node = store.read(node_id)
            id_map[node_id] = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                queue.extend(e.child for e in node.entries)

        n = len(nodes)
        dim = tree.dim
        node_level = xp.empty(n, dtype=xp.int32)
        entry_count = xp.empty(n, dtype=xp.int64)
        for i, node in enumerate(nodes):  # repro: allow(REP001): construction walk in freeze, one iteration per tree node
            node_level[i] = node.level
            entry_count[i] = len(node.entries)
        entry_start = xp.concatenate(([0], xp.cumsum(entry_count)[:-1]))
        total = int(entry_count.sum())
        entry_lows = xp.empty((total, dim))
        entry_highs = xp.empty((total, dim))
        entry_child = xp.empty(total, dtype=xp.int64)
        pos = 0
        for node in nodes:
            for e in node.entries:
                entry_lows[pos] = e.rect.lows
                entry_highs[pos] = e.rect.highs
                entry_child[pos] = id_map[e.child] if not node.is_leaf else e.child
                pos += 1
        return cls(
            dim, tree.size, node_level, entry_start, entry_count,
            entry_lows, entry_highs, entry_child,
        )

    def to_arrays(self) -> dict:
        """The frozen image as plain arrays (``xp.savez``-ready)."""
        return {
            "meta": xp.array([self.dim, self.size], dtype=xp.int64),
            "node_level": self.node_level,
            "entry_start": self.entry_start,
            "entry_count": self.entry_count,
            "entry_lows": self.entry_lows,
            "entry_highs": self.entry_highs,
            "entry_child": self.entry_child,
        }

    @classmethod
    def from_arrays(cls, arrays, validate: bool = False) -> "FrozenRTree":
        """Rebuild a frozen tree from :meth:`to_arrays` output (or an npz).

        With ``validate=True`` the structural invariants are checked
        (:meth:`validate`) — the persistence layer always does this, so a
        corrupted image raises
        :class:`~repro.storage.manifest.CorruptIndexError` instead of
        producing garbage traversals.
        """
        try:
            meta = xp.asarray(arrays["meta"], dtype=xp.int64)
            if meta.shape != (2,):
                raise CorruptIndexError(
                    f"kernel meta must have shape (2,), got {meta.shape}"
                )
            tree = cls(
                int(meta[0]),
                int(meta[1]),
                xp.asarray(arrays["node_level"], dtype=xp.int32),
                xp.asarray(arrays["entry_start"], dtype=xp.int64),
                xp.asarray(arrays["entry_count"], dtype=xp.int64),
                xp.asarray(arrays["entry_lows"], dtype=xp.float64),
                xp.asarray(arrays["entry_highs"], dtype=xp.float64),
                xp.asarray(arrays["entry_child"], dtype=xp.int64),
            )
        except CorruptIndexError:
            raise
        except Exception as exc:
            raise CorruptIndexError(f"unreadable kernel arrays: {exc}") from exc
        if validate:
            tree.validate()
        return tree

    def validate(self, tol: float = 1e-9) -> None:
        """Check the structural invariants of the frozen image.

        Verifies — all vectorized, so this is cheap relative to a load —

        * array shapes are mutually consistent and ``entry_start`` is the
          exclusive cumulative sum of ``entry_count``;
        * no NaN/inf coordinates and ``lows <= highs`` everywhere;
        * internal entries point at in-range child nodes exactly one level
          down; leaf entries carry payload ids in ``[0, size)``;
        * every internal entry's MBR contains its child node's own MBR
          (parent ⊇ child, within ``tol``).

        Raises:
            CorruptIndexError: the first violated invariant.
        """

        def bad(msg: str) -> CorruptIndexError:
            return CorruptIndexError(f"frozen kernel invariant violated: {msg}")

        n = self.node_level.shape[0]
        if n == 0:
            raise bad("no nodes")
        if self.entry_start.shape != (n,) or self.entry_count.shape != (n,):
            raise bad("entry_start/entry_count shape mismatch with node_level")
        total = self.entry_child.shape[0]
        if (
            self.entry_lows.shape != (total, self.dim)
            or self.entry_highs.shape != (total, self.dim)
        ):
            raise bad("entry box arrays disagree with entry_child/dim")
        if xp.any(self.entry_count < 0):
            raise bad("negative entry_count")
        expected_start = xp.concatenate(
            ([0], xp.cumsum(self.entry_count)[:-1])
        )
        if not xp.array_equal(self.entry_start, expected_start):
            raise bad("entry_start is not the cumulative sum of entry_count")
        if int(self.entry_count.sum()) != total:
            raise bad("entry_count does not sum to the number of entries")
        if total and not xp.all(xp.isfinite(self.entry_lows)):
            raise bad("non-finite coordinates in entry_lows")
        if total and not xp.all(xp.isfinite(self.entry_highs)):
            raise bad("non-finite coordinates in entry_highs")
        if total and xp.any(self.entry_lows > self.entry_highs + tol):
            raise bad("entry has lows > highs")
        if xp.any(self.node_level < 0):
            raise bad("negative node level")

        owner_level = xp.repeat(self.node_level, self.entry_count)
        internal = owner_level > 0
        children = self.entry_child[internal]
        if children.size:
            if xp.any((children < 0) | (children >= n)):
                raise bad("internal entry child id out of node range")
            if xp.any(
                self.node_level[children] != owner_level[internal] - 1
            ):
                raise bad("child node level is not parent level - 1")
        leaf_ids = self.entry_child[~internal]
        if leaf_ids.size and xp.any((leaf_ids < 0) | (leaf_ids >= self.size)):
            raise bad("leaf entry id outside [0, size)")

        if children.size:
            # Per-node MBRs via reduceat over each node's entry range, then
            # containment of each child's MBR in its parent entry's box.
            nonempty = xp.nonzero(self.entry_count > 0)[0]
            node_low = xp.full((n, self.dim), xp.inf)
            node_high = xp.full((n, self.dim), -xp.inf)
            if nonempty.size:
                starts = self.entry_start[nonempty].astype(xp.intp)
                node_low[nonempty] = xp.minimum.reduceat(self.entry_lows, starts)
                node_high[nonempty] = xp.maximum.reduceat(
                    self.entry_highs, starts
                )
                # reduceat folds to the array end for the last start; nodes
                # with empty tails are already excluded via ``nonempty``.
            has_entries = self.entry_count[children] > 0
            kids = children[has_entries]
            plo = self.entry_lows[internal][has_entries]
            phi = self.entry_highs[internal][has_entries]
            if kids.size and (
                xp.any(node_low[kids] < plo - tol)
                or xp.any(node_high[kids] > phi + tol)
            ):
                raise bad("parent entry MBR does not contain its child's MBR")

    @property
    def height(self) -> int:
        return int(self.node_level[self.root]) + 1 if self.node_level.size else 1

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _gather(self, nodes: xp.ndarray) -> tuple[xp.ndarray, xp.ndarray]:
        """Entry indices of ``nodes`` as one flat index array.

        Returns ``(idx, counts)``: ``idx`` concatenates each node's entry
        range in node order (the vectorized equivalent of reading each
        node's entry list), ``counts`` the per-node fanouts.
        """
        counts = self.entry_count[nodes]
        total = int(counts.sum())
        if total == 0:
            return xp.empty(0, dtype=xp.int64), counts
        starts = self.entry_start[nodes]
        offsets = xp.cumsum(counts) - counts
        idx = xp.arange(total, dtype=xp.int64) + xp.repeat(starts - offsets, counts)
        return idx, counts

    def _transformed(
        self, idx: xp.ndarray, scale: Optional[xp.ndarray], offset: Optional[xp.ndarray]
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Gathered entry MBRs mapped through the affine transformation."""
        lows = self.entry_lows[idx]
        highs = self.entry_highs[idx]
        if scale is None:
            return lows, highs
        a = lows * scale + offset
        b = highs * scale + offset
        return xp.minimum(a, b), xp.maximum(a, b)

    @staticmethod
    def _affine(scale, offset) -> tuple[Optional[xp.ndarray], Optional[xp.ndarray]]:
        """Normalise the affine vectors; ``None`` scale marks the identity."""
        if scale is None:
            return None, None
        scale = xp.asarray(scale, dtype=xp.float64)
        offset = xp.asarray(offset, dtype=xp.float64)
        if xp.all(scale == 1.0) and xp.all(offset == 0.0):
            return None, None
        return scale, offset

    def leaf_entries(self) -> tuple[xp.ndarray, xp.ndarray, xp.ndarray]:
        """All leaf entry boxes and their id payloads, in BFS leaf order.

        BFS order puts every level-0 node last, so they are one contiguous
        tail of the entry arrays, returned as views: ``(lows, highs, ids)``
        — the outer side of a two-kernel join
        (:func:`repro.rtree.join.tree_matching_join_pairs`) and the points
        the seeded-radius k-NN bounds.
        """
        tail = int(self.entry_start[int(xp.argmax(self.node_level == 0))])
        return self.entry_lows[tail:], self.entry_highs[tail:], self.entry_child[tail:]

    # ------------------------------------------------------------------
    # fused multi-query range + frontier-pair join
    # ------------------------------------------------------------------
    def _pair_frontier(
        self,
        qlows: xp.ndarray,
        qhighs: xp.ndarray,
        scale: Optional[xp.ndarray],
        offset: Optional[xp.ndarray],
        circular_mask: Optional[xp.ndarray],
        fstats: Optional[FrontierStats],
        io: Optional[IOStats],
        budget: Optional[ResourceBudget] = None,
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Drive a ``(node, query)`` pair frontier down to the leaves.

        Returns the surviving ``(record ids, query indices)`` arrays — the
        flat candidate relation every fused traversal post-processes.  A
        ``budget`` is checked once per level and raises
        :class:`~repro.storage.budget.QueryBudgetExceeded` when the
        deadline passes or the frontier outgrows its cap.
        """
        m = qlows.shape[0]
        if m == 0 or self.entry_count[self.root] == 0:
            empty = xp.empty(0, dtype=xp.int64)
            return empty, empty
        scale, offset = self._affine(scale, offset)
        fnodes = xp.full(m, self.root, dtype=xp.int64)
        fquery = xp.arange(m, dtype=xp.int64)
        # One query needs no per-pair query column: its bounds broadcast
        # over the gathered entries, and every pair belongs to row 0.
        qlo, qhi = qlows[0], qhighs[0]
        level = int(self.node_level[self.root])
        while fnodes.size:
            if budget is not None:
                budget.check(int(fnodes.size), where="pair frontier")
            if fstats is not None:
                fstats.nodes_expanded += int(fnodes.size)
                fstats.observe(int(fnodes.size))
            if io is not None:
                io.node_reads += int(fnodes.size)
            idx, counts = self._gather(fnodes)
            if m > 1:
                equery = xp.repeat(fquery, counts)
                qlo, qhi = qlows[equery], qhighs[equery]
            t_lo, t_hi = self._transformed(idx, scale, offset)
            if circular_mask is None:
                hits = xp.all(t_lo <= qhi, axis=1) & xp.all(qlo <= t_hi, axis=1)
            else:
                hits = intersects_circular_rows(t_lo, t_hi, qlo, qhi, circular_mask)
            if fstats is not None:
                fstats.entries_scanned += int(idx.size)
            fnodes = self.entry_child[idx[hits]]
            if m > 1:
                fquery = equery[hits]
            if level == 0:
                return fnodes, (fquery if m > 1 else xp.zeros_like(fnodes))
            level -= 1
        empty = xp.empty(0, dtype=xp.int64)
        return empty, empty

    def range_ids_many(
        self,
        qlows: xp.ndarray,
        qhighs: xp.ndarray,
        scale: Optional[xp.ndarray] = None,
        offset: Optional[xp.ndarray] = None,
        circular_mask: Optional[xp.ndarray] = None,
        fstats: Optional[FrontierStats] = None,
        io: Optional[IOStats] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> list[xp.ndarray]:
        """Fused multi-query range search: one id array per query row.

        All queries descend together as a pair frontier; per-query results
        are regrouped at the end with one stable sort.  Each row's ids are
        the leaf entries whose transformed box intersects that row's
        ``[qlows, qhighs]``.
        """
        m = qlows.shape[0]
        recs, qidx = self._pair_frontier(
            qlows, qhighs, scale, offset, circular_mask, fstats, io, budget
        )
        if m == 1:
            return [recs]
        order = xp.argsort(qidx, kind="stable")
        recs = recs[order]
        bounds = xp.searchsorted(qidx[order], xp.arange(m + 1, dtype=xp.int64))
        return [recs[bounds[i]:bounds[i + 1]] for i in range(m)]

    def join_pairs(
        self,
        qlows: xp.ndarray,
        qhighs: xp.ndarray,
        outer_ids: xp.ndarray,
        scale: Optional[xp.ndarray] = None,
        offset: Optional[xp.ndarray] = None,
        circular_mask: Optional[xp.ndarray] = None,
        self_join: bool = True,
        fstats: Optional[FrontierStats] = None,
        io: Optional[IOStats] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Index nested-loop join as one frontier-pair traversal.

        Query row ``i`` is the search rectangle of outer record
        ``outer_ids[i]``; the traversal is :meth:`range_ids_many`'s pair
        frontier with the self-join pair filter (each unordered pair once,
        no ``(a, a)``) applied vectorized at the leaf level.

        Returns:
            ``(outer record ids, inner record ids)`` of candidate pairs,
            sorted by outer then inner id.
        """
        recs, qidx = self._pair_frontier(
            qlows, qhighs, scale, offset, circular_mask, fstats, io, budget
        )
        outer = xp.asarray(outer_ids, dtype=xp.int64)[qidx]
        if self_join:
            keep = recs > outer
            outer, recs = outer[keep], recs[keep]
        order = xp.lexsort((recs, outer))
        return outer[order], recs[order]

    # ------------------------------------------------------------------
    # best-first: incremental nearest (block-yield) and fused batched k-NN
    # ------------------------------------------------------------------
    def nearest_stream(
        self,
        query: xp.ndarray,
        scale: Optional[xp.ndarray] = None,
        offset: Optional[xp.ndarray] = None,
        rect_dist_many: Optional[RectDistManyFn] = None,
        point_dist_many: Optional[PointDistManyFn] = None,
        fstats: Optional[FrontierStats] = None,
        io: Optional[IOStats] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> Iterator[tuple[float, int, xp.ndarray]]:
        """Yield ``(distance, record id, transformed point)`` in order.

        Best-first over the columnar arrays: popping a node scores all its
        children in one vectorized call and pushes a single *sorted block*
        (advanced by position on each yield) instead of one heap item per
        entry, so the heap holds one item per visited node/block rather
        than one per entry.

        Under a ``budget`` the stream follows k-NN truncation semantics:
        when a limit fires the generator stops yielding and sets
        ``budget.truncated`` instead of raising (REP005).
        """
        q = xp.asarray(query, dtype=xp.float64)
        if self.entry_count[self.root] == 0:
            return
        scale, offset = self._affine(scale, offset)
        if rect_dist_many is None:
            rect_dist_many = Rect.mindist_many
        if point_dist_many is None:
            point_dist_many = lambda pts, qq: xp.linalg.norm(pts - qq, axis=1)
        counter = itertools.count()
        heap: list = [(0.0, next(counter), _NODE, self.root, 0)]
        while heap:
            if budget is not None and budget.exceeded(len(heap)) is not None:
                budget.truncated = True
                return
            if fstats is not None:
                fstats.observe(len(heap))
            bound, _, kind, payload, pos = heapq.heappop(heap)
            if kind == _ENTRY_BLOCK:
                bounds, rids, pts = payload
                yield float(bounds[pos]), int(rids[pos]), pts[pos]
                if pos + 1 < bounds.shape[0]:
                    heapq.heappush(
                        heap,
                        (float(bounds[pos + 1]), next(counter), _ENTRY_BLOCK,
                         payload, pos + 1),
                    )
                continue
            if kind == _NODE_BLOCK:
                bounds, children = payload
                node = int(children[pos])
                if pos + 1 < bounds.shape[0]:
                    heapq.heappush(
                        heap,
                        (float(bounds[pos + 1]), next(counter), _NODE_BLOCK,
                         payload, pos + 1),
                    )
            else:
                node = payload
            start = int(self.entry_start[node])
            count = int(self.entry_count[node])
            if count == 0:
                continue
            if fstats is not None:
                fstats.nodes_expanded += 1
                fstats.entries_scanned += count
            if io is not None:
                io.node_reads += 1
            idx = xp.arange(start, start + count, dtype=xp.int64)
            t_lo, t_hi = self._transformed(idx, scale, offset)
            children = self.entry_child[idx]
            if self.node_level[node] == 0:
                ds = point_dist_many(t_lo, q)
                order = xp.argsort(ds, kind="stable")
                block = (ds[order], children[order], t_lo[order])
                heapq.heappush(
                    heap, (float(block[0][0]), next(counter), _ENTRY_BLOCK, block, 0)
                )
            else:
                ds = rect_dist_many(t_lo, t_hi, q)
                order = xp.argsort(ds, kind="stable")
                block = (ds[order], children[order])
                heapq.heappush(
                    heap, (float(block[0][0]), next(counter), _NODE_BLOCK, block, 0)
                )

    def knn_batch(
        self,
        qpoints: xp.ndarray,
        k: int,
        verify_many: Optional[VerifyManyFn] = None,
        scale: Optional[xp.ndarray] = None,
        offset: Optional[xp.ndarray] = None,
        rect_dist_rows: Optional[RectDistRowsFn] = None,
        point_dist_rows: Optional[PointDistRowsFn] = None,
        box_leaves: bool = False,
        verify_expand: Optional[ExpandVerifyFn] = None,
        fstats: Optional[FrontierStats] = None,
        io: Optional[IOStats] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> list[list[tuple[int, float]]]:
        """Fused multi-step exact k-NN for a whole batch of queries.

        Every query runs best-first with its own pruning radius (the k-th
        best *exact* distance found so far), but the expensive steps are
        shared round-synchronously across the batch: each round pops one
        node per active query, scores all popped nodes' children with one
        row-aligned distance call, and verifies all due leaf entries with
        one ``verify_many`` call.  Leaf entries travel as distance-sorted
        blocks; a block is consumed in one step by cutting it at the
        current radius (entries beyond it can never enter the answer,
        because radii only shrink).

        Edge cases are defined here, in one place: ``k == 0``, an empty
        tree, or an empty batch return empty result lists; ``k`` larger
        than the relation returns every record, exactly verified.

        Args:
            qpoints: ``(m, dim)`` query feature points (index space).
            k: neighbours per query.
            verify_many: maps ``(query indices, record ids)`` to exact
                ground distances — the multi-step verification step.
            scale, offset: affine map of the transformed view.
            rect_dist_rows, point_dist_rows: row-aligned lower-bound
                metrics (Euclidean when omitted).
            box_leaves: score leaf entries as *rectangles* (MINDIST via
                ``rect_dist_rows``) instead of points — for trees whose
                leaf payloads are true boxes, e.g. sub-trail MBRs.
            verify_expand: box-leaf verification seam.  Maps ``(query
                indices, leaf payload ids, per-row pruning radii)`` to
                ``(query indices, item keys, exact distances)``, with any
                number of output rows per input pair — one leaf id may fan
                out into many verifiable items.  The per-query pruning
                radius (the k-th best exact distance so far, ``inf`` while
                the heap is short) is handed to the callback so it can
                abandon items early; radii only shrink, so dropping items
                beyond it is safe.  When set, results are ``(item key,
                distance)`` pairs with a deterministic smallest-key
                tie-break at the k-th position, and ``verify_many`` is
                unused.
            fstats, io: counters (see module docstring).
            budget: resource budget, checked once per round.  k-NN does
                not raise on exhaustion — it stops expanding, returns the
                best exact results found so far and sets
                ``budget.truncated`` (verified distances are exact, the
                lists are just possibly incomplete).

        Returns:
            per query, ``(record id, exact distance)`` — or ``(item key,
            exact distance)`` under ``verify_expand`` — sorted by
            ``(distance, id)``, the same contract as ``knn_query``.
        """
        qpoints = xp.asarray(qpoints, dtype=xp.float64)
        m = qpoints.shape[0]
        out: list[list[tuple[int, float]]] = [[] for _ in range(m)]
        if k <= 0 or m == 0 or self.size == 0 or self.entry_count[self.root] == 0:
            return out
        if verify_many is None and verify_expand is None:
            raise ValueError("knn_batch needs verify_many or verify_expand")
        scale, offset = self._affine(scale, offset)
        if rect_dist_rows is None:
            rect_dist_rows = _euclid_rect_rows
        if point_dist_rows is None:
            point_dist_rows = lambda pts, qs: xp.linalg.norm(pts - qs, axis=1)
        counter = itertools.count()
        heaps: list[list] = [
            [(0.0, next(counter), _NODE, self.root, 0)] for _ in range(m)
        ]
        # best[qi]: a size-<=k heap of (-d, rid) — or (-d, -key) under
        # verify_expand, so that among equal k-th distances the *largest*
        # key sits on top and is evicted first (deterministic ties).
        best: list[list[tuple[float, int]]] = [[] for _ in range(m)]
        active = list(range(m))
        while active:
            if budget is not None:
                frontier = (
                    sum(len(heaps[qi]) for qi in active)
                    if budget.max_frontier is not None
                    else 0
                )
                if budget.exceeded(frontier) is not None:
                    budget.truncated = True
                    break
            if fstats is not None:
                fstats.observe(sum(len(heaps[qi]) for qi in active))
            expand_q: list[int] = []
            expand_n: list[int] = []
            verify_q: list[int] = []
            verify_rad: list[float] = []
            verify_r: list[xp.ndarray] = []
            next_active: list[int] = []
            for qi in active:
                h = heaps[qi]
                b = best[qi]
                radius = -b[0][0] if len(b) == k else xp.inf
                node = -1
                while h:
                    bound = h[0][0]
                    if len(b) == k and bound > radius:
                        h.clear()
                        break
                    _, _, kind, payload, pos = heapq.heappop(h)
                    if kind == _NODE:
                        node = payload
                        break
                    if kind == _NODE_BLOCK:
                        bounds, children = payload
                        node = int(children[pos])
                        if pos + 1 < bounds.shape[0]:
                            heapq.heappush(
                                h,
                                (float(bounds[pos + 1]), next(counter),
                                 _NODE_BLOCK, payload, pos + 1),
                            )
                        break
                    # _ENTRY_BLOCK: verify every entry still inside the
                    # radius; the sorted tail beyond it is dead (radii only
                    # shrink, so those entries can never re-qualify).
                    bounds, rids = payload
                    hi = int(xp.searchsorted(bounds, radius, side="right"))
                    if hi > pos:
                        verify_q.append(qi)
                        verify_rad.append(radius)
                        verify_r.append(rids[pos:hi])
                if node >= 0:
                    expand_q.append(qi)
                    expand_n.append(node)
                    next_active.append(qi)
            if verify_r:
                seg_lens = [seg.shape[0] for seg in verify_r]
                rid_arr = xp.concatenate(verify_r)
                if budget is not None:
                    # Soft accounting: the cap is enforced at the next
                    # round boundary by truncating, never by raising.
                    budget.consume(int(rid_arr.shape[0]))
                qidx_arr = xp.repeat(
                    xp.asarray(verify_q, dtype=xp.int64), seg_lens
                )
                if verify_expand is not None:
                    rad_arr = xp.repeat(xp.asarray(verify_rad), seg_lens)
                    eq, keys, dists = verify_expand(qidx_arr, rid_arr, rad_arr)
                    for j in range(keys.shape[0]):  # repro: allow(REP001): k-bounded per-candidate heap update, no vectorized form
                        qi = int(eq[j])
                        item = (-float(dists[j]), -int(keys[j]))
                        b = best[qi]
                        if len(b) < k:
                            heapq.heappush(b, item)
                        elif item > b[0]:
                            # d < k-th distance, or a tie with a smaller key.
                            heapq.heapreplace(b, item)
                else:
                    dists = verify_many(qidx_arr, rid_arr)
                    for j in range(rid_arr.shape[0]):  # repro: allow(REP001): k-bounded per-candidate heap update, no vectorized form
                        qi = int(qidx_arr[j])
                        d = float(dists[j])
                        b = best[qi]
                        if len(b) < k:
                            heapq.heappush(b, (-d, int(rid_arr[j])))
                        elif d < -b[0][0]:
                            heapq.heapreplace(b, (-d, int(rid_arr[j])))
            if expand_n:
                nodes = xp.asarray(expand_n, dtype=xp.int64)
                qidx = xp.asarray(expand_q, dtype=xp.int64)
                idx, counts = self._gather(nodes)
                equery = xp.repeat(qidx, counts)
                t_lo, t_hi = self._transformed(idx, scale, offset)
                levels = self.node_level[nodes]
                leaf_rows = xp.repeat(levels == 0, counts)
                bounds = xp.empty(idx.shape[0])
                if box_leaves:
                    # Leaf entries are true boxes: MINDIST bounds for
                    # internal and leaf rows alike.
                    bounds[:] = rect_dist_rows(t_lo, t_hi, qpoints[equery])
                else:
                    if xp.any(~leaf_rows):
                        bounds[~leaf_rows] = rect_dist_rows(
                            t_lo[~leaf_rows], t_hi[~leaf_rows],
                            qpoints[equery[~leaf_rows]],
                        )
                    if xp.any(leaf_rows):
                        bounds[leaf_rows] = point_dist_rows(
                            t_lo[leaf_rows], qpoints[equery[leaf_rows]]
                        )
                children = self.entry_child[idx]
                offsets = xp.cumsum(counts) - counts
                if fstats is not None:
                    fstats.nodes_expanded += int(nodes.shape[0])
                    fstats.entries_scanned += int(idx.shape[0])
                if io is not None:
                    io.node_reads += int(nodes.shape[0])
                for i in range(nodes.shape[0]):  # repro: allow(REP001): one iteration per expanded node, pushing its sorted block
                    s, c = int(offsets[i]), int(counts[i])
                    if c == 0:
                        continue
                    seg = slice(s, s + c)
                    order = xp.argsort(bounds[seg], kind="stable")
                    blk = (bounds[seg][order], children[seg][order])
                    kind = _ENTRY_BLOCK if levels[i] == 0 else _NODE_BLOCK
                    heapq.heappush(
                        heaps[int(qidx[i])],
                        (float(blk[0][0]), next(counter), kind, blk, 0),
                    )
            active = next_active
        for qi in range(m):
            if verify_expand is not None:
                out[qi] = sorted(
                    ((-nk, -nd) for nd, nk in best[qi]),
                    key=lambda t: (t[1], t[0]),
                )
            else:
                out[qi] = sorted(
                    ((rid, -nd) for nd, rid in best[qi]),
                    key=lambda t: (t[1], t[0]),
                )
        return out


def _euclid_rect_rows(
    lows: xp.ndarray, highs: xp.ndarray, qs: xp.ndarray
) -> xp.ndarray:
    """Row-aligned Euclidean MINDIST (default metric for raw trees)."""
    clamped = xp.clip(qs, lows, highs)
    return xp.linalg.norm(qs - clamped, axis=1)


# ----------------------------------------------------------------------
# cache management
# ----------------------------------------------------------------------
#: stale-cache accesses tolerated before :func:`cached_kernel` refreezes.
#: A mutation invalidates the frozen image; refreezing is O(whole tree),
#: so a workload that interleaves mutations with queries must not pay a
#: full refreeze per query.  Stale accesses run the recursive reference
#: path (O(nodes touched), exactly the pre-kernel behaviour) until the
#: same tree version has been queried this many times — a query-heavy
#: phase refreezes quickly, a write-heavy phase never does.
REFREEZE_AFTER_STALE_READS = 4


def frozen_kernel(tree) -> FrozenRTree:
    """The tree's frozen kernel, (re)built *now* if stale, cached on the tree.

    The cache key is the tree's mutation counter (bumped by every insert
    and delete), so a stale image is never served.  This is the eager
    form used at engine build and by explicit ``engine.kernel`` access;
    query paths go through :func:`cached_kernel`, which defers the O(N)
    refreeze.  :func:`attach_kernel` installs a deserialized image under
    the same contract.
    """
    if getattr(tree, "_kernel_disabled", False):
        raise CorruptIndexError(
            "frozen kernel is disabled on this tree (its persisted image "
            "failed validation); clear tree._kernel_disabled to re-enable"
        )
    mutations = getattr(tree, "_mutations", 0)
    cached = getattr(tree, "_frozen_cache", None)
    if cached is not None and cached[0] == mutations:
        return cached[1]
    kernel = FrozenRTree.freeze(tree)
    tree._frozen_cache = (mutations, kernel)
    return kernel


def cached_kernel(tree) -> Optional[FrozenRTree]:
    """The tree's frozen kernel if fresh, else ``None`` while refreeze defers.

    Returns the cached image when it matches the tree's mutation counter.
    On a stale cache it counts accesses per tree version and only
    refreezes after :data:`REFREEZE_AFTER_STALE_READS` of them, returning
    ``None`` (= caller takes the recursive reference path) in between, so
    interleaved mutate/query workloads never pay O(tree) per query.

    A tree whose ``_kernel_disabled`` flag is set (its persisted kernel
    image failed validation) always gets ``None`` — the graceful-
    degradation tier where every query runs the node-object reference
    path instead of trusting, or expensively rebuilding, the columnar
    image.
    """
    if getattr(tree, "_kernel_disabled", False):
        return None
    mutations = getattr(tree, "_mutations", 0)
    cached = getattr(tree, "_frozen_cache", None)
    if cached is not None and cached[0] == mutations:
        return cached[1]
    pending = getattr(tree, "_refreeze_pending", None)
    count = pending[1] + 1 if pending is not None and pending[0] == mutations else 1
    if count >= REFREEZE_AFTER_STALE_READS:
        tree._refreeze_pending = None
        return frozen_kernel(tree)
    tree._refreeze_pending = (mutations, count)
    return None


def attach_kernel(tree, kernel: FrozenRTree) -> None:
    """Install a prebuilt (e.g. deserialized) kernel as the tree's cache."""
    tree._frozen_cache = (getattr(tree, "_mutations", 0), kernel)
