"""The ST-index: an R-tree over sub-trail MBRs ([FRM94]).

Indexing: every series is mapped to a *trail* — the curve its sliding
windows trace through feature space.  Storing one point per offset would
drown the tree, so consecutive trail points are grouped into *sub-trails*
and only each sub-trail's MBR is inserted, tagged with (series id, offset
range).  Two grouping policies are provided:

* ``"fixed"`` — chunks of a constant number of offsets (FRM94's
  I-fixed), and
* ``"adaptive"`` — a greedy version of FRM94's I-adaptive: a sub-trail is
  cut when admitting the next point would raise the marginal cost — the
  MBR's margin per enclosed point — rather than lower it.

Querying (Algorithm: range search):

* query length == window ``w``: build the eps-ball MBR around the query's
  feature point, collect intersecting sub-trails, then verify every
  offset they cover against the raw series (early abandoning) — a
  two-step filter-and-refine with no false dismissals, since the
  truncated-spectrum distance lower-bounds the true window distance.
* query length ``L > w``: two probe reductions, planner-chosen per query
  (``probe="auto"``; :class:`~repro.core.planner.SubseqProbePlanner`):

  - **multipiece** — split the query into ``p = floor(L / w)`` disjoint
    pieces; if the whole match is within ``eps``, some piece is within
    ``eps / sqrt(p)`` of its aligned window, so the union of piece
    searches (with shifted offsets) is a candidate superset;
  - **prefix** (FRM94's PrefixSearch) — search only the leading window
    at the full ``eps``: one wide rectangle instead of ``p`` narrow
    ones.  Both refine on the full length and return identical answers.

Subsequence k-NN (:meth:`STIndex.knn_query`,
:meth:`STIndex.knn_query_batch`): the k closest windows, exactly.  The
query's prefix-window features drive the kernel's batched best-first
k-NN with the sub-trail MBRs as *box* leaves; every reached sub-trail
fans out into its windows via the kernel's ``verify_expand`` seam, and
full-length exact distances feed the per-query pruning radii back into
the traversal.  Feature-space MINDIST lower-bounds every covered
window's true distance (Lemma 1 + prefix monotonicity), so no answer is
dismissed; k-th-position ties resolve to the smallest
``(series, offset)``.  :meth:`STIndex.brute_force_knn` is the reference.

Execution: the whole pipeline is columnar.  Sub-trail boundaries come
from one vectorized pass over prefix extents per segment
(:meth:`STIndex._adaptive_starts`), their MBRs from two ``reduceat``
passes, and the rectangles are STR bulk-loaded and frozen into a
:class:`~repro.rtree.kernel.FrozenRTree` on first query.  Probing fuses
all pieces of all queries of a batch into **one**
:meth:`~repro.rtree.kernel.FrozenRTree.range_ids_many` call; candidate
offsets are expanded with ``xp.repeat``/``xp.arange`` arithmetic and
deduplicated with ``xp.unique`` over packed ``(series, offset)`` keys;
refinement gathers each series' candidate windows into a strided
sliding-window matrix and verifies them with one
:func:`~repro.core.similarity.batch_euclidean_within` pass.  The original
per-sub-trail R* inserts (``build="insert"``), recursive probe, Python-set
expansion and scalar refine loop stay in-tree as the tested reference
(:meth:`STIndex.range_query_reference`, mirroring the PR 1–3 pattern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # plan imports stindex for spec compilation
    from repro.core.plan import PhysicalPlan, QuerySpec

from repro.rtree.backend import xp

from repro.core.planner import (
    PROBE_STRATEGIES,
    ProbeChoice,
    SubseqProbePlanner,
)
from repro.rtree.base import RTreeBase
from repro.rtree.bulk import str_pack_rects
from repro.rtree.geometry import Rect
from repro.rtree.kernel import FrontierStats, FrozenRTree, frozen_kernel
from repro.rtree.rstar import RStarTree
from repro.subseq.window import (
    encode_rect,
    piece_features,
    prefix_features,
    sliding_features,
)

#: window feature points sampled per series for the probe planner.
_PLANNER_SAMPLE_PER_SERIES = 16

ArrayLike = Union[Sequence[float], xp.ndarray]


@dataclass(frozen=True)
class SubseqMatch:
    """One verified subsequence match."""

    series_id: int
    offset: int
    distance: float


@dataclass
class _SubTrail:
    series_id: int
    start: int  # first window offset covered
    end: int  # last window offset covered (inclusive)


class STIndex:
    """Subsequence index over a collection of series.

    Args:
        window: window length ``w`` (the minimum query length).
        k: DFT coefficients retained per window.
        grouping: ``"adaptive"`` (default) or ``"fixed"``.
        chunk: sub-trail size for the fixed policy (and the adaptive
            policy's upper bound).
        max_entries: R-tree fanout.
        build: ``"bulk"`` (default) defers tree construction and STR
            bulk-loads all sub-trail MBRs at first query, freezing them
            straight into the columnar kernel; ``"insert"`` reproduces
            the original behaviour — one R* insert per sub-trail at
            ``add_series`` time (the reference build path).
    """

    def __init__(
        self,
        window: int,
        k: int = 3,
        grouping: str = "adaptive",
        chunk: int = 16,
        max_entries: int = 32,
        build: str = "bulk",
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if not 1 <= k <= window:
            raise ValueError(f"k must be in [1, {window}], got {k}")
        if grouping not in ("fixed", "adaptive"):
            raise ValueError(
                f"grouping must be 'fixed' or 'adaptive', got {grouping!r}"
            )
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        if build not in ("bulk", "insert"):
            raise ValueError(f"build must be 'bulk' or 'insert', got {build!r}")
        self.window = window
        self.k = k
        self.grouping = grouping
        self.chunk = chunk
        self.max_entries = max_entries
        self.build = build
        self.dim = 2 * k
        self._series: list[xp.ndarray] = []
        self._subtrails: list[_SubTrail] = []
        # Per-add_series stacks of sub-trail MBRs, concatenated at seal time.
        self._mbr_lows: list[xp.ndarray] = []
        self._mbr_highs: list[xp.ndarray] = []
        self._tree = (
            RStarTree(self.dim, max_entries=max_entries)
            if build == "insert"
            else None
        )
        # Columnar image of the sub-trail metadata + frozen tree, rebuilt
        # lazily whenever series were added since the last seal.
        self._sealed_count = -1
        self._kernel: Optional[FrozenRTree] = None
        self._sub_series = xp.empty(0, dtype=xp.int64)
        self._sub_start = xp.empty(0, dtype=xp.int64)
        self._sub_end = xp.empty(0, dtype=xp.int64)
        self._series_lens = xp.empty(0, dtype=xp.int64)
        self._offset_stride = 1
        # Per-series subsamples of window feature points, feeding the
        # probe planner's selectivity sample.
        self._feat_samples: list[xp.ndarray] = []
        self._window_sample = xp.empty((0, self.dim))
        self._total_windows = 0
        self._planner: Optional[SubseqProbePlanner] = None

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_series(self, series: ArrayLike) -> int:
        """Index a series; returns its id.  Series shorter than the window
        are rejected."""
        x = xp.asarray(series, dtype=xp.float64).copy()
        if x.ndim != 1 or x.shape[0] < self.window:
            raise ValueError(
                f"series must be 1-D with length >= {self.window}, got {x.shape}"
            )
        series_id = len(self._series)
        self._series.append(x)
        points = encode_rect(sliding_features(x, self.window, self.k))
        # Evenly-spaced subsample of the trail for the probe planner's
        # selectivity estimates (deterministic, a handful of rows per
        # series).
        sel = xp.unique(
            xp.linspace(
                0, points.shape[0] - 1,
                num=min(points.shape[0], _PLANNER_SAMPLE_PER_SERIES),
            ).astype(xp.int64)
        )
        self._feat_samples.append(points[sel])
        starts = self._group_starts(points)
        ends = xp.append(starts[1:] - 1, points.shape[0] - 1)
        # All sub-trail MBRs of the series in two cumulative passes: the
        # groups tile the trail contiguously, so reduceat over the start
        # indices is exactly the per-group min/max.
        lows = xp.minimum.reduceat(points, starts, axis=0)
        highs = xp.maximum.reduceat(points, starts, axis=0)
        base = len(self._subtrails)
        for i in range(starts.shape[0]):  # repro: allow(REP001): construction, registers one sub-trail per group
            self._subtrails.append(
                _SubTrail(series_id, int(starts[i]), int(ends[i]))
            )
        self._mbr_lows.append(lows)
        self._mbr_highs.append(highs)
        if self.build == "insert":
            for i in range(starts.shape[0]):  # repro: allow(REP001): insert-build adds one sub-trail rect at a time by design
                self._tree.insert(Rect(lows[i], highs[i]), base + i)
        return series_id

    def add_series_many(self, seriess: Sequence[ArrayLike]) -> list[int]:
        """Index a batch of series; returns their ids."""
        return [self.add_series(x) for x in seriess]

    def _group_starts(self, points: xp.ndarray) -> xp.ndarray:
        """Sub-trail start offsets for one trail (vectorized policies)."""
        m = points.shape[0]
        if self.grouping == "fixed":
            return xp.arange(0, m, self.chunk, dtype=xp.int64)
        return self._adaptive_starts(points)

    def _adaptive_starts(self, points: xp.ndarray) -> xp.ndarray:
        """Greedy adaptive cuts, evaluated over prefix extents per segment.

        Same rule as the scalar :meth:`_group` reference: extend while the
        MBR margin per enclosed point stays roughly flat, cut on a sharp
        trail turn (or at the ``chunk`` cap).  Instead of updating running
        extents one point at a time, each segment computes cumulative
        min/max over its next ``chunk + 1`` points, derives every prefix's
        margin in one pass, and locates the first offending cut with a
        single vectorized comparison — one numpy pass per *sub-trail*
        rather than per offset.
        """
        m = points.shape[0]
        chunk = self.chunk
        starts = [0]
        s = 0
        while True:
            stop = min(s + chunk + 1, m)
            win = points[s:stop]
            nw = stop - s
            if nw <= 1:
                break
            cmin = xp.minimum.accumulate(win, axis=0)
            cmax = xp.maximum.accumulate(win, axis=0)
            margins = xp.sum(cmax - cmin, axis=1)  # margins[t]: prefix t+1
            j = xp.arange(1, nw)  # group size when point s+j is considered
            old_cost = margins[j - 1] / j
            grown_cost = margins[j] / (j + 1)
            cut = (j >= chunk) | (
                (j >= 4) & (old_cost > 0) & (grown_cost > 1.3 * old_cost)
            )
            hits = xp.nonzero(cut)[0]
            if hits.size == 0:
                break  # the segment runs to the end of the trail
            s += int(j[hits[0]])
            starts.append(s)
        return xp.asarray(starts, dtype=xp.int64)

    def _group(self, points: xp.ndarray) -> list[tuple[int, int]]:
        """Scalar reference grouping (one Python step per trail point).

        Kept verbatim as the tested reference for
        :meth:`_adaptive_starts`; see ``tests/test_subseq_fast_parity.py``.
        """
        m = points.shape[0]
        if self.grouping == "fixed":
            return [
                (s, min(s + self.chunk - 1, m - 1)) for s in range(0, m, self.chunk)
            ]
        # Greedy adaptive: extend while the MBR margin per enclosed point
        # stays roughly flat.  Smooth trails (consecutive windows overlap
        # in w-1 values, so successive feature points are close) pack many
        # offsets per MBR; a sharp trail turn raises the marginal cost and
        # cuts the sub-trail.  The 1.3 growth factor and the minimum run of
        # 4 keep smooth stock trails at ~chunk offsets per MBR instead of
        # fragmenting on every small wiggle.
        groups: list[tuple[int, int]] = []
        start = 0
        lo = points[0].copy()
        hi = points[0].copy()
        margin = 0.0
        count = 1
        for i in range(1, m):
            new_lo = xp.minimum(lo, points[i])
            new_hi = xp.maximum(hi, points[i])
            new_margin = float(xp.sum(new_hi - new_lo))
            grown_cost = new_margin / (count + 1)
            old_cost = margin / count if count else 0.0
            if count >= self.chunk or (
                count >= 4 and old_cost > 0 and grown_cost > 1.3 * old_cost
            ):
                groups.append((start, i - 1))
                start = i
                lo = points[i].copy()
                hi = points[i].copy()
                margin = 0.0
                count = 1
            else:
                lo, hi = new_lo, new_hi
                margin = new_margin
                count += 1
        groups.append((start, m - 1))
        return groups

    # ------------------------------------------------------------------
    # sealing: columnar metadata + bulk-loaded frozen tree
    # ------------------------------------------------------------------
    def _seal(self) -> None:
        """Refresh the columnar sub-trail arrays after new series."""
        n = len(self._subtrails)
        if self._sealed_count == n:
            return
        self._sub_series = xp.fromiter(
            (s.series_id for s in self._subtrails), dtype=xp.int64, count=n
        )
        self._sub_start = xp.fromiter(
            (s.start for s in self._subtrails), dtype=xp.int64, count=n
        )
        self._sub_end = xp.fromiter(
            (s.end for s in self._subtrails), dtype=xp.int64, count=n
        )
        self._series_lens = xp.fromiter(
            (x.shape[0] for x in self._series), dtype=xp.int64,
            count=len(self._series),
        )
        # Packing stride for (series, offset) dedup keys.
        self._offset_stride = (
            int(self._series_lens.max()) + 1 if self._series_lens.size else 1
        )
        self._window_sample = (
            xp.concatenate(self._feat_samples)
            if self._feat_samples
            else xp.empty((0, self.dim))
        )
        self._total_windows = int(
            xp.sum(self._series_lens - self.window + 1)
        )
        self._planner = None
        if self.build == "bulk":
            self._tree = None  # stale bulk tree: rebuild on next access
        self._kernel = None
        self._sealed_count = n

    @property
    def tree(self) -> RTreeBase:
        """The node-object R-tree over sub-trail MBRs.

        In ``"insert"`` mode this is the incrementally built R*-tree; in
        ``"bulk"`` mode it is STR-packed from the accumulated MBR stacks
        on first access (one bulk load instead of one insert per
        sub-trail) and rebuilt lazily after further ``add_series`` calls.
        """
        self._seal()
        if self._tree is None:
            lows = (
                xp.concatenate(self._mbr_lows)
                if self._mbr_lows
                else xp.empty((0, self.dim))
            )
            highs = (
                xp.concatenate(self._mbr_highs)
                if self._mbr_highs
                else xp.empty((0, self.dim))
            )
            self._tree = str_pack_rects(
                lows, highs,
                record_ids=xp.arange(lows.shape[0], dtype=xp.int64),
                max_entries=self.max_entries,
            )
        return self._tree

    @property
    def kernel(self) -> FrozenRTree:
        """Frozen columnar image of :attr:`tree` (built on demand)."""
        self._seal()
        if self._kernel is None:
            self._kernel = frozen_kernel(self.tree)
        return self._kernel

    @property
    def stats(self) -> IOStats:
        """The backing store's :class:`~repro.storage.stats.IOStats`."""
        return self.tree.store.stats

    @property
    def num_series(self) -> int:
        return len(self._series)

    @property
    def num_subtrails(self) -> int:
        return len(self._subtrails)

    def series(self, series_id: int) -> xp.ndarray:
        """The raw series stored under ``series_id``."""
        return self._series[series_id]

    # ------------------------------------------------------------------
    # the unified plan API (mirrors SimilarityEngine.plan)
    # ------------------------------------------------------------------
    def plan(self, spec: "QuerySpec") -> "PhysicalPlan":
        """Compile a ``subseq_range``/``subseq_knn`` spec into a plan.

        The subsequence entry point of the unified plan API: probe
        strategies are resolved at compile time (so ``EXPLAIN`` reports
        the planner's multipiece-vs-prefix choice without running), and
        ``.execute()`` runs the fused fast path.
        """
        from repro.core.plan import compile_subseq_spec

        return compile_subseq_spec(self, spec)

    def explain(self, spec: "QuerySpec") -> dict:
        """``EXPLAIN`` for a subsequence spec: compile only, describe."""
        return self.plan(spec).explain()

    # ------------------------------------------------------------------
    # querying — the columnar fast path
    # ------------------------------------------------------------------
    def _check_query(self, query: ArrayLike, eps: float = 0.0) -> xp.ndarray:
        q = xp.asarray(query, dtype=xp.float64)
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        if q.ndim != 1 or q.shape[0] < self.window:
            raise ValueError(
                f"query must be 1-D with length >= {self.window}, got {q.shape}"
            )
        if not xp.all(xp.isfinite(q)):
            # A NaN would silently empty the probe rectangles (every
            # comparison false) and an inf would blow them up; fail the
            # query cleanly instead of returning a wrong answer.
            raise ValueError("query must contain only finite values")
        return q

    def _check_probe(
        self, probe: Union[str, Sequence[str]], count: int
    ) -> list[str]:
        """Normalise a probe hint into one resolved strategy per query."""
        if isinstance(probe, str):
            if probe not in PROBE_STRATEGIES:
                raise ValueError(
                    f"probe must be one of {PROBE_STRATEGIES}, got {probe!r}"
                )
            return [probe] * count
        out = list(probe)
        if len(out) != count:
            raise ValueError(
                f"probe list has {len(out)} entries for {count} queries"
            )
        for s in out:
            if s not in PROBE_STRATEGIES:
                raise ValueError(
                    f"probe must be one of {PROBE_STRATEGIES}, got {s!r}"
                )
        return out

    # ------------------------------------------------------------------
    # probe-strategy planning
    # ------------------------------------------------------------------
    @property
    def probe_planner(self) -> SubseqProbePlanner:
        """The planner choosing between multipiece and prefix probes.

        Backed by a deterministic subsample of the indexed window feature
        points (collected at ``add_series`` time); rebuilt lazily after
        new series.
        """
        self._seal()
        if self._planner is None:
            self._planner = SubseqProbePlanner(
                self._window_sample, self._total_windows
            )
        return self._planner

    def _query_rects(
        self, q: xp.ndarray, eps: float
    ) -> tuple[xp.ndarray, xp.ndarray, xp.ndarray, xp.ndarray]:
        """Both reductions' search rectangles for one query.

        Returns ``(piece_lows, piece_highs, prefix_lo, prefix_hi)`` — the
        ``p`` multipiece rectangles at radius ``eps / sqrt(p)`` and the
        single prefix rectangle at radius ``eps``, all padded by the same
        numerical tolerance the probe applies.
        """
        w = self.window
        p = q.shape[0] // w
        feats = encode_rect(
            piece_features(q[: p * w].reshape(p, w), self.k)
        )
        pad = self._feat_pad(feats)
        piece_r = (eps / math.sqrt(p) + pad)[:, None]
        prefix_r = eps + pad[0]
        return (
            feats - piece_r,
            feats + piece_r,
            feats[0] - prefix_r,
            feats[0] + prefix_r,
        )

    def choose_probe(self, query: ArrayLike, eps: float) -> ProbeChoice:
        """The planner's probe-strategy decision for one query.

        Single-piece queries (length under ``2 * window``) always resolve
        to ``"multipiece"`` — the two reductions coincide there.
        """
        q = self._check_query(query, eps)
        return self.probe_planner.choose(*self._query_rects(q, eps))

    def range_query(  # repro: allow(REP005): thin wrapper, range_query_batch runs _check_query
        self,
        query: ArrayLike,
        eps: float,
        fstats: Optional[FrontierStats] = None,
        probe: str = "auto",
    ) -> list[SubseqMatch]:
        """All subsequences within ``eps`` of ``query``.

        The query must be at least one window long; longer queries go
        through a probe reduction — the multipiece split or FRM94's
        longest-prefix search, planner-chosen under ``probe="auto"``
        (answers are identical whichever runs; both are candidate
        supersets refined exactly).  Matches report the best offset
        semantics of [FRM94]: every qualifying offset is returned.
        """
        return self.range_query_batch([query], eps, fstats=fstats, probe=probe)[0]

    def range_query_batch(
        self,
        queries: Sequence[ArrayLike],
        eps: float,
        fstats: Optional[FrontierStats] = None,
        probe: Union[str, Sequence[str]] = "auto",
        budget=None,
    ) -> list[list[SubseqMatch]]:
        """:meth:`range_query` over a batch, sharing one fused index probe.

        All probe rectangles of all queries (queries may have different
        lengths and different resolved strategies) descend the frozen
        kernel together as one
        :meth:`~repro.rtree.kernel.FrozenRTree.range_ids_many` pair
        frontier; expansion, dedup and refinement then run per query on
        the returned sub-trail id arrays.  Answers are identical to one
        :meth:`range_query` per query, and independent of the probe
        strategy.

        Args:
            queries: the query series (each at least one window long).
            eps: similarity threshold.
            fstats: optional frontier counters to fill in.
            probe: ``"auto"`` (planner decides per query),
                ``"multipiece"``, ``"prefix"``, or one resolved strategy
                per query.
        """
        qs = [self._check_query(q, eps) for q in queries]
        strategies = self._check_probe(probe, len(qs))
        if not qs or not self._subtrails:
            return [[] for _ in qs]
        candidates = self._probe_batch(
            qs, eps, strategies, fstats=fstats, budget=budget
        )
        return [
            self._refine_arrays(q, eps, series, aligned, budget=budget)
            for q, (series, aligned) in zip(qs, candidates)
        ]

    def candidate_offsets(
        self, query: ArrayLike, eps: float, probe: str = "multipiece"
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Deduplicated candidate ``(series ids, offsets)`` for one query.

        The filter phase of the pipeline (fused kernel probe + array
        expansion), exposed for filter-quality inspection and the phase
        benchmarks; :meth:`range_query` under the same resolved ``probe``
        strategy refines exactly these candidates (the default pins the
        multipiece reduction so candidate sets are reproducible).
        """
        q = self._check_query(query, eps)
        strategies = self._check_probe(probe, 1)
        if not self._subtrails:
            empty = xp.empty(0, dtype=xp.int64)
            return empty, empty
        return self._probe_batch([q], eps, strategies)[0]

    def _probe_batch(
        self,
        qs: list[xp.ndarray],
        eps: float,
        strategies: Sequence[str],
        fstats: Optional[FrontierStats] = None,
        budget=None,
    ) -> list[tuple[xp.ndarray, xp.ndarray]]:
        """Fused filter phase: one kernel traversal for all queries' probes.

        ``strategies`` holds one reduction hint per query —
        ``"multipiece"`` contributes ``floor(L / w)`` rectangles at radius
        ``eps / sqrt(p)``, ``"prefix"`` one rectangle (the leading window)
        at the full ``eps``, and ``"auto"`` is resolved *here*, by the
        planner, against the same fused piece features the probe uses (so
        the piece FFTs run exactly once per query either way).  Returns
        one deduplicated ``(series, aligned offset)`` array pair per
        query.
        """
        kernel = self.kernel
        w = self.window
        # --- probe rows, one fused FFT.  A query pre-resolved to
        # "prefix" contributes only its leading window up front (no
        # point featurizing pieces the keep-mask would discard); "auto"
        # and "multipiece" emit every piece — "auto" needs them all for
        # the planner's estimates anyway.
        pieces: list[xp.ndarray] = []
        row_query: list[int] = []
        row_shift: list[int] = []
        counts: list[int] = []
        for i, q in enumerate(qs):  # repro: allow(REP001): per-query piece bookkeeping, O(queries) not O(rows)
            p = 1 if strategies[i] == "prefix" else q.shape[0] // w
            counts.append(p)
            for j in range(p):
                pieces.append(q[j * w : (j + 1) * w])
                row_query.append(i)
                row_shift.append(j * w)
        feats = encode_rect(piece_features(xp.stack(pieces), self.k))
        pad = self._feat_pad(feats)
        # --- resolve strategies + per-row radii; prefix keeps row 0 only
        bounds = xp.cumsum([0] + counts)
        keep = xp.ones(len(pieces), dtype=bool)
        row_eps = xp.empty(len(pieces))
        planner: Optional[SubseqProbePlanner] = None
        for i, q in enumerate(qs):  # repro: allow(REP001): per-query rect assembly, O(queries) not O(rows)
            s, e = int(bounds[i]), int(bounds[i + 1])
            p = q.shape[0] // w
            strategy = strategies[i]
            if strategy == "auto":
                if p <= 1:
                    strategy = "multipiece"  # the reductions coincide
                else:
                    if planner is None:
                        planner = self.probe_planner
                    piece_r = (eps / math.sqrt(p) + pad[s:e])[:, None]
                    prefix_r = eps + pad[s]
                    strategy = planner.choose(
                        feats[s:e] - piece_r, feats[s:e] + piece_r,
                        feats[s] - prefix_r, feats[s] + prefix_r,
                    ).strategy
            if strategy == "prefix":
                keep[s + 1 : e] = False
                row_eps[s] = eps
            else:
                row_eps[s:e] = eps / math.sqrt(p)
        radius = (row_eps + pad)[keep][:, None]
        kept_feats = feats[keep]
        ids_per_row = kernel.range_ids_many(
            kept_feats - radius, kept_feats + radius,
            fstats=fstats, io=self.tree.store.stats,
            budget=budget,
        )
        # --- expand + dedup, per query
        shifts = xp.asarray(row_shift, dtype=xp.int64)[keep]
        kept_query = xp.asarray(row_query, dtype=xp.int64)[keep]
        out: list[tuple[xp.ndarray, xp.ndarray]] = []
        row = 0
        for i, q in enumerate(qs):  # repro: allow(REP001): per-query gather of its candidate rows
            rows = []
            while row < kept_query.shape[0] and kept_query[row] == i:
                rows.append(row)
                row += 1
            out.append(
                self._expand_rows(
                    [ids_per_row[r] for r in rows], shifts[rows], q.shape[0]
                )
            )
        if budget is not None:
            budget.charge_candidates(
                sum(int(s.shape[0]) for s, _ in out), where="subseq probe"
            )
        return out

    def _expand_subtrails(
        self, ids: xp.ndarray
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Sub-trail ids -> their full ``(series, window offset)`` runs.

        The ``xp.repeat``/``xp.arange`` expansion shared by the range
        pipeline (:meth:`_expand_rows`, which then shifts, bounds-checks
        and dedups) and the k-NN verifier (which then drops offsets that
        cannot host the full query) — the index arithmetic lives once.
        """
        starts = self._sub_start[ids]
        counts = self._sub_end[ids] - starts + 1
        total = int(counts.sum())
        csum = xp.cumsum(counts)
        intra = xp.arange(total, dtype=xp.int64) - xp.repeat(
            csum - counts, counts
        )
        return (
            xp.repeat(self._sub_series[ids], counts),
            xp.repeat(starts, counts) + intra,
        )

    @staticmethod
    def _feat_pad(feats: xp.ndarray) -> xp.ndarray:
        """Numerical-tolerance pad, one value per feature row.

        Trail features come from the O(k) incremental recurrence, query
        features from a fresh FFT; their last-ulp disagreement must not
        dismiss an exact match at ``eps == 0`` or prune an exact k-NN
        tie.  Every probe rectangle and k-NN lower bound applies this
        same rule (widening only — Lemma 1 safe), including the planner's
        compile-time rectangles, which must match the execute-time probe.
        """
        return 1e-7 * (1.0 + xp.max(xp.abs(xp.atleast_2d(feats)), axis=1))

    def _expand_rows(
        self,
        ids_per_row: list[xp.ndarray],
        shifts: xp.ndarray,
        qlen: int,
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Sub-trail id arrays -> deduplicated (series, aligned offset).

        Each sub-trail ``(start, end)`` range becomes its run of offsets
        via ``xp.repeat``/``xp.arange`` arithmetic; alignments that run
        off either end of their series (``aligned < 0`` or
        ``aligned + qlen > len(series)``) are dropped here, at expansion
        time, and duplicates across overlapping sub-trails and query
        pieces collapse with one ``xp.unique`` over packed keys — no
        Python sets anywhere.

        Returns:
            ``(series ids, aligned offsets)``, sorted by the packed key
            (series-major, offset-minor).
        """
        ser_parts: list[xp.ndarray] = []
        ali_parts: list[xp.ndarray] = []
        for ids, shift in zip(ids_per_row, shifts):  # repro: allow(REP001): per-query-row concat of variable-length id lists
            if ids.size == 0:
                continue
            sids, offs = self._expand_subtrails(ids)
            ali_parts.append(offs - int(shift))
            ser_parts.append(sids)
        if not ser_parts:
            empty = xp.empty(0, dtype=xp.int64)
            return empty, empty
        series = xp.concatenate(ser_parts)
        aligned = xp.concatenate(ali_parts)
        ok = (aligned >= 0) & (aligned <= self._series_lens[series] - qlen)
        keys = xp.unique(series[ok] * self._offset_stride + aligned[ok])
        return keys // self._offset_stride, keys % self._offset_stride

    def _refine_arrays(
        self,
        q: xp.ndarray,
        eps: float,
        series: xp.ndarray,
        aligned: xp.ndarray,
        budget=None,
    ) -> list[SubseqMatch]:
        """Verify candidates with one matrix pass per candidate series.

        Gathers each series' candidate windows from a strided
        sliding-window view (no per-candidate slicing) and runs the
        matrix-level early-abandon verifier
        :func:`~repro.core.similarity.batch_euclidean_within` once per
        series — the batched counterpart of the scalar :meth:`_refine`.
        """
        from repro.core.similarity import batch_euclidean_within

        L = q.shape[0]
        out: list[SubseqMatch] = []
        uniq, first = xp.unique(series, return_index=True)
        bounds = xp.append(first, series.shape[0])
        for t in range(uniq.shape[0]):  # repro: allow(REP001): per-series verify round, window distances batched inside
            if budget is not None:
                budget.check(where="subseq refine")
            sid = int(uniq[t])
            offs = aligned[bounds[t] : bounds[t + 1]]
            x = self._series[sid]
            windows = xp.lib.stride_tricks.sliding_window_view(x, L)[offs]
            kept, dists, _ = batch_euclidean_within(windows, q, eps)
            for a, d in zip(kept, dists):  # repro: allow(REP001): one append per surviving match
                out.append(SubseqMatch(sid, int(offs[a]), float(d)))
        out.sort(key=lambda m: (m.distance, m.series_id, m.offset))
        return out

    # ------------------------------------------------------------------
    # querying — subsequence k-NN (the k closest windows)
    # ------------------------------------------------------------------
    def knn_query(  # repro: allow(REP005): thin wrapper, knn_query_batch runs _check_query
        self, query: ArrayLike, k: int, fstats: Optional[FrontierStats] = None
    ) -> list[SubseqMatch]:
        """The ``k`` subsequences closest to ``query`` (exact).

        Multi-step best-first search over the sub-trail MBRs: the query's
        *prefix window* features drive the kernel's batched k-NN with the
        sub-trail boxes as leaves, and every reached sub-trail fans out
        into its windows, verified against the raw series at full query
        length.  The feature-space MINDIST to a sub-trail MBR lower-bounds
        the true distance of every window it covers (Lemma 1 plus prefix
        monotonicity), so pruning by the k-th best exact distance never
        dismisses an answer.  Ties at the k-th position resolve
        deterministically to the smallest ``(series, offset)``.
        """
        return self.knn_query_batch([query], k, fstats=fstats)[0]

    def knn_query_batch(
        self,
        queries: Sequence[ArrayLike],
        k: int,
        fstats: Optional[FrontierStats] = None,
        budget=None,
    ) -> list[list[SubseqMatch]]:
        """:meth:`knn_query` over a batch, sharing one fused kernel search.

        All queries run through one round-synchronous
        :meth:`~repro.rtree.kernel.FrozenRTree.knn_batch` traversal with
        per-query pruning radii; each query's shrinking radius (its k-th
        best exact window distance so far) feeds back into both the
        kernel's node pruning and the sliding-window verifier's early
        abandoning.

        Edge cases follow the kernel's uniform contract: ``k == 0``, an
        empty batch or an empty index return empty lists; ``k`` larger
        than the number of alignable windows returns every window,
        exactly verified and sorted.
        """
        if k != int(k) or k < 0:
            raise ValueError(f"k must be a non-negative integer, got {k}")
        k = int(k)
        qs = [self._check_query(q) for q in queries]
        if not qs:
            return []
        if k == 0 or not self._subtrails:
            return [[] for _ in qs]
        kernel = self.kernel
        feats = encode_rect(prefix_features(qs, self.window, self.k))
        pairs = self._knn_kernel_call(kernel, feats, k, qs, fstats, budget=budget)
        stride = self._offset_stride
        return [
            [
                SubseqMatch(int(key // stride), int(key % stride), float(d))
                for key, d in pr
            ]
            for pr in pairs
        ]

    def _knn_kernel_call(self, kernel, feats, k, qs, fstats, budget=None):
        """Drive :meth:`FrozenRTree.knn_batch` with the window verifier.

        The MINDIST rows are shrunk by the probe's numerical tolerance:
        trail features come from the incremental recurrence, the query's
        from a fresh FFT, and a last-ulp excess must not prune an exact
        tie at the pruning radius.  Shrinking a lower bound only widens
        the search — it can never dismiss an answer.
        """

        def rect_rows(lows, highs, qrows):
            clamped = xp.clip(qrows, lows, highs)
            d = xp.linalg.norm(qrows - clamped, axis=1)
            return xp.maximum(d - self._feat_pad(qrows), 0.0)

        return kernel.knn_batch(
            feats,
            k,
            box_leaves=True,
            verify_expand=self._knn_verifier(qs),
            rect_dist_rows=rect_rows,
            fstats=fstats,
            io=self.tree.store.stats,
            budget=budget,
        )

    def _knn_verifier(self, qs: list[xp.ndarray]):
        """The expanding verify callback :meth:`knn_query_batch` hands the
        kernel: sub-trail ids -> exact full-length window distances.

        Windows are gathered per candidate series from a strided
        sliding-window view and verified with one
        :func:`~repro.core.similarity.batch_euclidean_within` pass at the
        query's current pruning radius — windows provably beyond it are
        abandoned early and never reach the kernel's result heap (safe:
        radii only shrink).  Alignments that cannot fit the full query are
        dropped at expansion time.  Item keys are the packed
        ``series * stride + offset`` values, which make the kernel's
        smallest-key tie-break exactly the ``(series, offset)`` order.
        """
        from repro.core.similarity import batch_euclidean_within

        stride = self._offset_stride

        def verify(
            qidx: xp.ndarray, rids: xp.ndarray, radii: xp.ndarray
        ) -> tuple[xp.ndarray, xp.ndarray, xp.ndarray]:
            out_q: list[xp.ndarray] = []
            out_key: list[xp.ndarray] = []
            out_d: list[xp.ndarray] = []
            order = xp.argsort(qidx, kind="stable")
            qidx_s, rids_s, rad_s = qidx[order], rids[order], radii[order]
            starts = xp.nonzero(
                xp.diff(qidx_s, prepend=qidx_s[0] - 1 if qidx_s.size else 0)
            )[0]
            bounds = xp.append(starts, qidx_s.shape[0])
            for g in range(starts.shape[0]):  # repro: allow(REP001): per-query fan-out, verification below is batched
                qi = int(qidx_s[bounds[g]])
                radius = float(rad_s[bounds[g]])
                ids = rids_s[bounds[g] : bounds[g + 1]]
                q = qs[qi]
                L = q.shape[0]
                sids, offs = self._expand_subtrails(ids)
                ok = offs <= self._series_lens[sids] - L
                offs, sids = offs[ok], sids[ok]
                if offs.size == 0:
                    continue
                keys = sids * stride + offs
                ks = xp.argsort(keys)
                keys, offs, sids = keys[ks], offs[ks], sids[ks]
                uniq, first = xp.unique(sids, return_index=True)
                sb = xp.append(first, sids.shape[0])
                for t in range(uniq.shape[0]):  # repro: allow(REP001): per-series window grouping, distances batched per series
                    offs_t = offs[sb[t] : sb[t + 1]]
                    x = self._series[int(uniq[t])]
                    windows = xp.lib.stride_tricks.sliding_window_view(x, L)[
                        offs_t
                    ]
                    kept, dists, _ = batch_euclidean_within(windows, q, radius)
                    if kept.size == 0:
                        continue
                    out_q.append(xp.full(kept.shape[0], qi, dtype=xp.int64))
                    out_key.append(keys[sb[t] : sb[t + 1]][kept])
                    out_d.append(dists)
            if not out_key:
                empty = xp.empty(0, dtype=xp.int64)
                return empty, empty, xp.empty(0)
            return (
                xp.concatenate(out_q),
                xp.concatenate(out_key),
                xp.concatenate(out_d),
            )

        return verify

    def brute_force_knn(self, query: ArrayLike, k: int) -> list[SubseqMatch]:  # repro: allow(REP001): reference brute-force path, scalar by design
        """Reference k-NN: scan every alignable window of every series.

        Sorted by ``(distance, series, offset)`` — the deterministic tie
        order :meth:`knn_query` reproduces.
        """
        if k != int(k) or k < 0:
            raise ValueError(f"k must be a non-negative integer, got {k}")
        q = self._check_query(query)
        L = q.shape[0]
        out: list[SubseqMatch] = []
        for sid, x in enumerate(self._series):
            if x.shape[0] < L:
                continue
            windows = xp.lib.stride_tricks.sliding_window_view(x, L)
            dists = xp.linalg.norm(windows - q, axis=1)
            out.extend(
                SubseqMatch(sid, off, float(d)) for off, d in enumerate(dists)
            )
        out.sort(key=lambda m: (m.distance, m.series_id, m.offset))
        return out[:k]

    # ------------------------------------------------------------------
    # querying — the recursive/scalar reference path
    # ------------------------------------------------------------------
    def range_query_reference(
        self, query: ArrayLike, eps: float, probe: str = "multipiece"
    ) -> list[SubseqMatch]:
        """Reference :meth:`range_query`: recursive probe, scalar refine.

        The pre-kernel implementation, kept verbatim (recursive
        ``tree.search`` per piece, Python-set candidate expansion, one
        early-abandon distance call per candidate) as the tested parity
        baseline for the columnar fast path.  ``probe="prefix"`` runs the
        scalar form of the longest-prefix reduction instead.
        """
        q = self._check_query(query, eps)
        if probe == "prefix":
            return self._refine(q, eps, self._prefix_candidates(q, eps))
        return self._refine(q, eps, self._multipiece_candidates(q, eps))

    def _window_candidates(
        self, piece: xp.ndarray, eps: float, shift: int, qlen: int
    ) -> set[tuple[int, int]]:
        """Candidate (series, query-start offset) pairs from one piece.

        ``shift`` is the piece's offset inside the full query: a window
        matching at data offset ``p`` implies the full query aligns at
        ``p - shift``.  Offsets whose alignment cannot fit the full query
        (``aligned + qlen > len(series)``) are skipped here, at expansion
        time, rather than costing a set insert and a refine iteration.
        """
        feat = encode_rect(sliding_features(piece, self.window, self.k))[0]
        pad = float(self._feat_pad(feat)[0])
        qrect = Rect(feat - eps - pad, feat + eps + pad)
        out: set[tuple[int, int]] = set()
        for entry in self.tree.search(qrect):
            sub = self._subtrails[entry.child]
            limit = self._series[sub.series_id].shape[0] - qlen
            for offset in range(sub.start, sub.end + 1):
                aligned = offset - shift
                if 0 <= aligned <= limit:
                    out.add((sub.series_id, aligned))
        return out

    def _prefix_candidates(
        self, q: xp.ndarray, eps: float
    ) -> set[tuple[int, int]]:
        """Scalar longest-prefix reduction: one probe at the full radius.

        A full-length match within ``eps`` implies its leading window
        matches the query's prefix within ``eps``, so the single prefix
        search is a candidate superset — FRM94's alternative to the
        multipiece split.
        """
        return self._window_candidates(q[: self.window], eps, 0, q.shape[0])

    def _multipiece_candidates(
        self, q: xp.ndarray, eps: float
    ) -> set[tuple[int, int]]:
        pieces = q.shape[0] // self.window
        piece_eps = eps / math.sqrt(pieces)
        out: set[tuple[int, int]] = set()
        for j in range(pieces):
            shift = j * self.window
            piece = q[shift : shift + self.window]
            out |= self._window_candidates(piece, piece_eps, shift, q.shape[0])
        return out

    def _refine(
        self, q: xp.ndarray, eps: float, candidates: set[tuple[int, int]]
    ) -> list[SubseqMatch]:
        from repro.core.similarity import euclidean_early_abandon

        L = q.shape[0]
        out: list[SubseqMatch] = []
        for series_id, offset in sorted(candidates):
            x = self._series[series_id]
            d = euclidean_early_abandon(x[offset : offset + L], q, eps)
            if d is not None:
                out.append(SubseqMatch(series_id, offset, d))
        out.sort(key=lambda m: (m.distance, m.series_id, m.offset))
        return out

    # ------------------------------------------------------------------
    def brute_force(self, query: ArrayLike, eps: float) -> list[SubseqMatch]:  # repro: allow(REP001): reference brute-force path, scalar by design
        """Reference scan over every offset of every series (for tests)."""
        q = xp.asarray(query, dtype=xp.float64)
        L = q.shape[0]
        out: list[SubseqMatch] = []
        for sid, x in enumerate(self._series):
            for offset in range(0, x.shape[0] - L + 1):
                d = float(xp.linalg.norm(x[offset : offset + L] - q))
                if d <= eps:
                    out.append(SubseqMatch(sid, offset, d))
        out.sort(key=lambda m: (m.distance, m.series_id, m.offset))
        return out
