"""Physical query operators — the executable half of the plan API.

A compiled :class:`~repro.core.plan.PhysicalPlan` is a small tree of the
operators in this module.  Each operator owns one phase of the paper's
query pipeline and exposes the same two-method surface:

* ``execute(ctx)`` — run the operator (and its inputs) against an
  :class:`ExecContext`, returning its results;
* ``explain()`` — a JSON-friendly description of what the operator would
  do (access path, parameters, children), plus the :class:`IOStats` delta
  it incurred if it has already run.

The operators mirror the paper's three-phase shape (Section 4 /
Algorithm 2):

* :class:`IndexProbe` — phase 2, the search over the transformed R-tree
  view (Algorithm 1), producing candidate record ids per query row;
* :class:`Verify` — phase 3, exact-distance post-processing of candidate
  ids with matrix-level early abandoning (no false positives);
* :class:`SeqScan` — the competing access path: the tuned
  frequency-domain sequential scan of Section 5 (Figures 10-12);
* :class:`KnnSearch` — the multi-step k-NN search, where probing and
  verification interleave and cannot be split into separate operators;
* :class:`PairJoin` — the Table-1 all-pairs strategies;
* :class:`DistCompute` — a leaf evaluating one exact distance.

Every operator captures the per-operator :class:`IOStats` delta of its
most recent execution (inclusive of its children), so ``EXPLAIN`` after a
run reports where candidates, distance computations and node reads were
spent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:
    from repro.storage.budget import ResourceBudget
    from repro.storage.stats import IOStats

from repro.rtree.backend import xp

from repro.core import queries as q
from repro.core.transforms import Transformation
from repro.rtree.kernel import FrontierStats
from repro.scan import scan_knn, scan_range_many

Match = tuple[int, float]


class ExecContext:
    """Everything an operator needs at run time.

    Args:
        engine: the :class:`~repro.core.engine.SimilarityEngine` whose
            relation/index the plan runs against; ``None`` only for plans
            that touch no relation (``DIST``).
        budget: optional :class:`~repro.storage.budget.ResourceBudget`
            governing this execution; operators hand it to the kernel's
            frontier loops and charge verified candidates against it.
    """

    def __init__(
        self,
        engine: Optional[Any] = None,
        budget: Optional["ResourceBudget"] = None,
    ) -> None:
        self.engine = engine
        self.budget = budget

    @property
    def stats(self) -> Optional["IOStats"]:
        return None if self.engine is None else self.engine.stats


class Operator(ABC):
    """Base class: uniform ``execute``/``explain`` plus IOStats capture."""

    def __init__(self) -> None:
        self.children: list[Operator] = []
        #: IOStats delta of the last execution (inclusive of children);
        #: ``None`` until the operator has run.
        self.io: Optional[dict] = None
        #: frontier counters of the last kernel-backed traversal
        #: (``nodes_expanded`` / ``entries_scanned`` / ``frontier_peak``);
        #: ``None`` until a kernel-backed operator has run.
        self.frontier: Optional[FrontierStats] = None

    def execute(self, ctx: ExecContext) -> Any:
        """Run the operator, capturing its (inclusive) IOStats delta."""
        before = None if ctx.stats is None else ctx.stats.snapshot()
        result = self._execute(ctx)
        if before is not None:
            after = ctx.stats.snapshot()
            self.io = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] - before.get(key, 0)
            }
        return result

    @abstractmethod
    def _execute(self, ctx: ExecContext):
        """Operator-specific execution (stats capture handled by caller)."""

    def explain(self) -> dict:
        """JSON-friendly description: op name, parameters, children, IO."""
        out = {"op": type(self).__name__}
        out.update(self._describe())
        if self.io is not None:
            out["io"] = self.io
        if self.frontier is not None:
            out["frontier"] = self.frontier.as_dict()
        if self.children:
            out["children"] = [child.explain() for child in self.children]
        return out

    def _describe(self) -> dict:
        return {}

    @staticmethod
    def _tname(t: Optional[Transformation]) -> Optional[str]:
        return None if t is None else t.name


# ----------------------------------------------------------------------
# access paths (phase 2)
# ----------------------------------------------------------------------
class IndexProbe(Operator):
    """Range search over the transformed index view (Algorithm 2, step 2).

    Produces, per query row, the candidate record ids whose (transformed)
    feature points fall inside that query's search rectangle; Lemma 1
    guarantees each set has no false dismissals.  All rows descend the
    tree together (:meth:`~repro.rtree.transformed.TransformedIndexView.search_many`):
    each node is read and transformed at most once per batch, and a
    subtree is visited with only the queries whose rectangles reach it.
    A single query is a batch of one.
    """

    def __init__(
        self,
        q_points: xp.ndarray,
        eps: float,
        transformation: Optional[Transformation] = None,
        aux_bounds: Optional[Sequence[tuple[float, float]]] = None,
    ) -> None:
        super().__init__()
        self.q_points = q_points
        self.eps = eps
        self.transformation = transformation
        self.aux_bounds = aux_bounds

    def _execute(self, ctx: ExecContext) -> list[xp.ndarray]:
        engine = ctx.engine
        space = engine.space
        view = q._make_view(engine.tree, space, self.transformation)
        qlows, qhighs = space.search_rect_many(
            self.q_points, self.eps, aux_bounds=self.aux_bounds
        )
        self.frontier = FrontierStats()
        out = view.search_many(
            qlows, qhighs, fstats=self.frontier, budget=ctx.budget
        )
        candidates = sum(int(a.shape[0]) for a in out)
        if ctx.budget is not None:
            ctx.budget.charge_candidates(candidates, where="index probe")
        if ctx.stats is not None:
            ctx.stats.candidate_count += candidates
        return out

    def _describe(self) -> dict:
        return {
            "queries": int(self.q_points.shape[0]),
            "eps": self.eps,
            "transformation": self._tname(self.transformation),
            "aux_bounds": (
                None
                if self.aux_bounds is None
                else [[float(lo), float(hi)] for lo, hi in self.aux_bounds]
            ),
        }


class SeqScan(Operator):
    """The tuned frequency-domain sequential scan (Section 5's competitor).

    A complete access path on its own: scanning the relation of spectra
    with exact distances (block-abandoned for range) both filters and
    verifies, so no separate :class:`Verify` stage follows it.  Handles
    range and k-NN over a matrix of query spectra; the transformation is
    hoisted over the relation once per batch.
    """

    def __init__(
        self,
        kind: str,
        query_spectra: xp.ndarray,
        eps: Optional[float] = None,
        k: Optional[int] = None,
        transformation: Optional[Transformation] = None,
    ) -> None:
        super().__init__()
        self.kind = kind
        self.query_spectra = query_spectra
        self.eps = eps
        self.k = k
        self.transformation = transformation

    def _execute(self, ctx: ExecContext) -> list[list[Match]]:
        engine = ctx.engine
        spectra = engine.ground_spectra
        if ctx.budget is not None:
            # The scan is one fused pass; the deadline is checked at entry
            # (its runtime is bounded by the relation, not the query).
            ctx.budget.check(where="seq scan")
        if self.kind == "range":
            return scan_range_many(
                spectra, self.query_spectra, self.eps,
                transformation=self.transformation, stats=ctx.stats,
            )
        if self.transformation is not None:
            spectra = self.transformation.apply_spectrum(spectra)
        return [
            scan_knn(spectra, q_spec, self.k, stats=ctx.stats)
            for q_spec in self.query_spectra
        ]

    def _describe(self) -> dict:
        out = {
            "kind": self.kind,
            "queries": int(self.query_spectra.shape[0]),
            "transformation": self._tname(self.transformation),
            "early_abandon": "matrix-blocked" if self.kind == "range" else False,
        }
        if self.eps is not None:
            out["eps"] = self.eps
        if self.k is not None:
            out["k"] = self.k
        return out


# ----------------------------------------------------------------------
# post-processing (phase 3)
# ----------------------------------------------------------------------
class Verify(Operator):
    """Exact-distance verification of index candidates (Algorithm 2, step 3).

    Fetches each candidate's full ground spectrum and checks the exact
    Euclidean distance with matrix-level early abandoning, guaranteeing no
    false positives.  Consumes the :class:`IndexProbe`'s one candidate
    array per query row.
    """

    def __init__(
        self,
        child: Operator,
        query_spectra: xp.ndarray,
        eps: float,
        transformation: Optional[Transformation] = None,
    ) -> None:
        super().__init__()
        self.children = [child]
        self.query_spectra = query_spectra
        self.eps = eps
        self.transformation = transformation

    def _verify_one(
        self, ctx: ExecContext, ids: xp.ndarray, q_spec: xp.ndarray
    ) -> list[Match]:
        engine = ctx.engine
        if ctx.budget is not None:
            ctx.budget.check(where="verify round")
        kept, dists, abandoned = engine.space.ground_distances_within_many(
            engine.ground_spectra[ids], q_spec, self.eps, self.transformation
        )
        if ctx.stats is not None:
            ctx.stats.distance_computations += ids.shape[0]
            ctx.stats.verifications_completed += len(kept)
            ctx.stats.verifications_abandoned += abandoned
        out = [(int(ids[i]), float(d)) for i, d in zip(kept, dists)]
        out.sort(key=lambda m: (m[1], m[0]))
        return out

    def _execute(self, ctx: ExecContext) -> list[list[Match]]:
        candidates = self.children[0].execute(ctx)
        return [
            self._verify_one(ctx, ids, self.query_spectra[i])
            for i, ids in enumerate(candidates)
        ]

    def _describe(self) -> dict:
        return {
            "eps": self.eps,
            "transformation": self._tname(self.transformation),
            "early_abandon": "matrix-blocked",
        }


# ----------------------------------------------------------------------
# composite searches
# ----------------------------------------------------------------------
class KnnSearch(Operator):
    """Multi-step exact k-NN over the transformed index.

    The radius comes out of verification (a seed pool of the lowest
    bounds, :func:`repro.core.queries.knn_query_fused`), so this is a
    single operator rather than a probe/verify pair; ``entries_scanned``
    counts the rows bounded.  The query rows share one transformed view.
    """

    def __init__(
        self,
        query_spectra: xp.ndarray,
        q_points: xp.ndarray,
        k: int,
        transformation: Optional[Transformation] = None,
    ) -> None:
        super().__init__()
        self.query_spectra = query_spectra
        self.q_points = q_points
        self.k = k
        self.transformation = transformation

    def _execute(self, ctx: ExecContext) -> list[list[Match]]:
        engine = ctx.engine
        self.frontier = FrontierStats()
        # k == 0 is an empty answer, not an error (matching k > |relation|
        # returning all records); knn_query_fused defines it once.
        return q.knn_query_fused(
            engine.tree, engine.space, engine.ground_spectra,
            self.query_spectra, self.q_points, self.k,
            transformation=self.transformation, stats=ctx.stats,
            frontier_stats=self.frontier, budget=ctx.budget,
        )

    def _describe(self) -> dict:
        return {
            "queries": int(self.q_points.shape[0]),
            "k": self.k,
            "transformation": self._tname(self.transformation),
            "strategy": "multi-step seeded radius (bound all, verify within r)",
        }


class PairJoin(Operator):
    """All-pairs similarity self-join — the four strategies of Table 1.

    Methods: ``"scan"`` (Table 1's *a*), ``"scan-abandon"`` (*b*),
    ``"index"`` (*c*/*d*), ``"tree-join"`` (synchronized-descent
    ablation).
    """

    def __init__(
        self,
        eps: float,
        transformation: Optional[Transformation] = None,
        method: str = "index",
    ) -> None:
        super().__init__()
        self.eps = eps
        self.transformation = transformation
        self.method = method

    def _execute(self, ctx: ExecContext) -> list[tuple[int, int, float]]:
        engine = ctx.engine
        spectra = engine.ground_spectra
        if ctx.budget is not None:
            ctx.budget.check(where="pair join")
        if self.method == "scan":
            return q.all_pairs_scan(
                spectra, self.eps, self.transformation,
                early_abandon=False, stats=ctx.stats,
            )
        if self.method == "scan-abandon":
            return q.all_pairs_scan(
                spectra, self.eps, self.transformation,
                early_abandon=True, stats=ctx.stats,
            )
        if self.method == "index":
            self.frontier = FrontierStats()
            return q.all_pairs_index(
                engine.tree, engine.space, spectra, engine.points,
                self.eps, self.transformation, stats=ctx.stats,
                frontier_stats=self.frontier,
            )
        if self.method == "tree-join":
            return q.all_pairs_tree_join(
                engine.tree, engine.space, spectra,
                self.eps, self.transformation, stats=ctx.stats,
            )
        raise ValueError(f"unknown join method {self.method!r}")

    def _describe(self) -> dict:
        return {
            "eps": self.eps,
            "method": self.method,
            "transformation": self._tname(self.transformation),
        }


class SubseqRangeSearch(Operator):
    """Subsequence range search over an ST-index (the [FRM94] extension).

    Executes the fused columnar pipeline of
    :meth:`~repro.subseq.stindex.STIndex.range_query_batch` with the
    probe strategies the plan resolved at compile time — one reduction
    per query, ``"multipiece"`` (``p`` pieces at ``eps / sqrt(p)``) or
    ``"prefix"`` (the leading window at the full ``eps``).  Both are
    exact-answer candidate supersets; only latency differs.
    """

    def __init__(
        self,
        queries: Sequence[xp.ndarray],
        eps: float,
        strategies: Sequence[str],
        window: int,
    ) -> None:
        super().__init__()
        self.queries = list(queries)
        self.eps = eps
        self.strategies = list(strategies)
        self.window = window

    def _execute(self, ctx: ExecContext):
        stindex = ctx.engine
        self.frontier = FrontierStats()
        return stindex.range_query_batch(
            self.queries, self.eps, fstats=self.frontier,
            probe=self.strategies, budget=ctx.budget,
        )

    def _describe(self) -> dict:
        return {
            "queries": len(self.queries),
            "eps": self.eps,
            "window": self.window,
            "probe_strategies": self.strategies,
            "refine": "sliding-window matrix early-abandon",
        }


class SubseqKnnSearch(Operator):
    """Subsequence k-NN: the k closest windows across all indexed series.

    A single multi-step operator (probe and verification interleave, as
    in :class:`KnnSearch`): the queries' prefix-window features drive the
    kernel's fused batched k-NN over the sub-trail *boxes*, every reached
    sub-trail fans out into its windows, and full-length exact distances
    feed the per-query pruning radii back into the traversal.
    """

    def __init__(
        self,
        queries: Sequence[xp.ndarray],
        k: int,
        window: int,
    ) -> None:
        super().__init__()
        self.queries = list(queries)
        self.k = k
        self.window = window

    def _execute(self, ctx: ExecContext):
        stindex = ctx.engine
        self.frontier = FrontierStats()
        return stindex.knn_query_batch(
            self.queries, self.k, fstats=self.frontier, budget=ctx.budget
        )

    def _describe(self) -> dict:
        return {
            "queries": len(self.queries),
            "k": self.k,
            "window": self.window,
            "strategy": (
                "multi-step best-first over sub-trail boxes "
                "(prefix features, shrinking radii)"
            ),
        }


class DistCompute(Operator):
    """Exact distance between two bound series (the language's ``DIST``).

    With ``symmetric`` the transformation applies to both sides (the
    Section-2 "their moving averages look the same" semantics the query
    language uses); otherwise only the first series is transformed.
    """

    def __init__(
        self,
        series_a: xp.ndarray,
        series_b: xp.ndarray,
        transformation: Optional[Transformation] = None,
        symmetric: bool = True,
    ) -> None:
        super().__init__()
        self.series_a = xp.asarray(series_a, dtype=xp.float64)
        self.series_b = xp.asarray(series_b, dtype=xp.float64)
        self.transformation = transformation
        self.symmetric = symmetric

    def _execute(self, ctx: ExecContext) -> float:
        a, b = self.series_a, self.series_b
        if self.transformation is not None:
            a = xp.asarray(self.transformation.apply_series(a), dtype=xp.float64)
            if self.symmetric:
                b = xp.asarray(
                    self.transformation.apply_series(b), dtype=xp.float64
                )
        return float(xp.linalg.norm(a - b))

    def _describe(self) -> dict:
        return {
            "transformation": self._tname(self.transformation),
            "symmetric": self.symmetric,
            "length": int(self.series_a.shape[0]),
        }
