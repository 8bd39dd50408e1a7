"""The user-facing façade: relation + feature space + index + queries.

:class:`SimilarityEngine` wires the pieces of the reproduction together
exactly the way the paper's Section 5 describes its experimental system:

* every series of the relation is (optionally) normalised, its first ``k``
  DFT coefficients extracted, and the resulting feature point inserted
  into an R*-tree (the mean and standard deviation occupying the first two
  dimensions in the normal-form layout);
* similarity queries are answered through Algorithm 2 over a transformed
  view of that one index — no transformation ever builds a second index.

Every query flows through the unified plan API: :meth:`SimilarityEngine.plan`
compiles a :class:`~repro.core.plan.QuerySpec` into a tree of physical
operators (access-path selection included, per Figure 12), and the classic
``range_query``/``knn_query``/``all_pairs`` methods are thin builders over
it, kept with their original signatures and exact behaviour (they pin
``method="index"`` so existing callers see the same plans as before the
redesign; pass ``method="auto"`` or build a spec for planner routing).

The engine is deliberately small: all real work lives in
:mod:`repro.core.plan`, :mod:`repro.core.ops`, :mod:`repro.core.queries`,
:mod:`repro.core.features` and :mod:`repro.rtree`; this class only owns
the wiring, the record/spectra caches and the statistics counters.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core import queries as q
from repro.core.features import FeatureSpace, NormalFormSpace
from repro.core.health import ComponentHealth, HealthReport
from repro.core.plan import PhysicalPlan, QuerySpec, compile_spec
from repro.core.planner import SelectivityEstimator
from repro.core.transforms import Transformation
from repro.data.relation import SequenceRelation
from repro.rtree.base import RTreeBase
from repro.rtree.bulk import str_pack
from repro.rtree.kernel import FrozenRTree, frozen_kernel
from repro.rtree.node import MemoryNodeStore, PagedNodeStore
from repro.rtree.rstar import RStarTree
from repro.rtree.transformed import TransformedIndexView
from repro.storage.stats import IOStats

ArrayLike = Union[Sequence[float], np.ndarray]


class SimilarityEngine:
    """Index a relation of time sequences and answer similarity queries.

    Args:
        relation: the sequences to index.
        space: feature space; defaults to the paper's configuration — a
            polar-coordinate normal-form space retaining 2 coefficients
            (six index dimensions: mean, std, |X_1|, arg X_1, |X_2|,
            arg X_2).
        index_cls: R-tree variant (R*-tree by default, like the paper).
        paged: back the index with the paged storage engine so traversals
            count disk accesses; in-memory nodes otherwise.
        max_entries: node fanout.
        bulk_load: build the index by STR packing (fast) instead of
            one-by-one insertion (the paper's method; set ``False`` to
            replicate it).
        buffer_capacity: buffer-pool pages when ``paged``.
    """

    def __init__(
        self,
        relation: SequenceRelation,
        space: Optional[FeatureSpace] = None,
        index_cls: type[RTreeBase] = RStarTree,
        paged: bool = False,
        max_entries: int = 32,
        bulk_load: bool = True,
        buffer_capacity: int = 128,
    ) -> None:
        self.relation = relation
        self.space = (
            space
            if space is not None
            else NormalFormSpace(relation.length, k=2, coord="polar")
        )
        if self.space.n != relation.length:
            raise ValueError(
                f"space length {self.space.n} != relation length {relation.length}"
            )
        self.stats = IOStats()
        if paged:
            store = PagedNodeStore(
                self.space.dim, buffer_capacity=buffer_capacity, stats=self.stats
            )
        else:
            store = MemoryNodeStore(stats=self.stats)

        # Index points plus full spectra of the ground objects (normal
        # forms for the normal-form space — what post-processing verifies
        # against), from one shared batched pipeline; both come out as
        # (0, ...) for an empty relation.
        self.points, self.ground_spectra = self.space.extract_many_with_spectra(
            relation.matrix
        )

        if bulk_load and len(relation) > 0:
            self.tree = str_pack(
                self.points,
                store=store,
                max_entries=max_entries,
                tree_cls=index_cls,
            )
        else:
            self.tree = index_cls(self.space.dim, store=store, max_entries=max_entries)
            for rid in range(len(relation)):
                self.tree.insert_point(self.points[rid], rid)
        # Freeze the columnar kernel eagerly: queries route through it, and
        # freezing at build time keeps its one-off node reads out of
        # query-time statistics.  It refreezes lazily after any mutation.
        frozen_kernel(self.tree)
        self._estimator: Optional[SelectivityEstimator] = None

    # ------------------------------------------------------------------
    # the unified plan API
    # ------------------------------------------------------------------
    @property
    def estimator(self) -> SelectivityEstimator:
        """The engine's default selectivity estimator (built lazily).

        ``getattr`` rather than a plain attribute read because persistence
        reassembles engines via ``__new__`` without running ``__init__``.
        """
        if getattr(self, "_estimator", None) is None:
            self._estimator = SelectivityEstimator(self.points)
        return self._estimator

    @property
    def kernel(self) -> FrozenRTree:
        """The index's frozen columnar kernel (refrozen after mutations).

        This is the struct-of-arrays image the frontier engine traverses;
        ``EXPLAIN`` reports its per-operator ``nodes_expanded`` /
        ``entries_scanned`` / ``frontier_peak`` counters after a run.

        Raises:
            CorruptIndexError: the kernel is disabled because its
                persisted image failed validation (degraded engines
                answer queries through the reference path instead).
        """
        return frozen_kernel(self.tree)

    def health(self) -> HealthReport:
        """Trust state of the engine's components (see :mod:`repro.core.health`).

        A built engine is all-ok; a loaded one carries whatever the
        persistence layer's validation found — a failed index (queries
        degrade to the sequential scan), a failed kernel image (queries
        run the node-object reference path), or a legacy image with no
        manifest to verify.  ``getattr`` defaults throughout because
        persistence reassembles engines via ``__new__``.
        """
        index_failed = getattr(self, "_index_failed", None)
        kernel_disabled = getattr(self.tree, "_kernel_disabled", False)
        kernel_detail = getattr(self, "_kernel_detail", "")
        persist_status, persist_detail = getattr(
            self, "_persist_health", ("ok", "built in memory (not loaded)")
        )
        if index_failed:
            index = ComponentHealth("index", "failed", index_failed)
            kernel = ComponentHealth(
                "kernel", "failed",
                kernel_detail or "unavailable: the node index failed validation",
            )
        elif kernel_disabled:
            index = ComponentHealth("index", "ok", "node pages verified")
            kernel = ComponentHealth(
                "kernel", "degraded",
                kernel_detail
                or "columnar image failed validation; reference path in use",
            )
        else:
            index = ComponentHealth("index", "ok", "")
            kernel = ComponentHealth("kernel", "ok", "")
        return HealthReport(
            [
                ComponentHealth(
                    "relation", "ok", f"{len(self.relation)} records"
                ),
                index,
                kernel,
                ComponentHealth("persistence", persist_status, persist_detail),
            ]
        )

    def plan(
        self, spec: QuerySpec, estimator: Optional[SelectivityEstimator] = None
    ) -> PhysicalPlan:
        """Compile a :class:`~repro.core.plan.QuerySpec` into a physical plan.

        The single seam every entry point shares: preprocessing, access-path
        selection (for ``method="auto"``) and operator construction happen
        here; ``.execute()`` runs the plan and ``.explain()`` describes it.

        Args:
            spec: the declarative query description.
            estimator: selectivity estimator override (the engine's default
                sampling estimator otherwise).
        """
        return compile_spec(self, spec, estimator=estimator)

    def explain(
        self, spec: QuerySpec, estimator: Optional[SelectivityEstimator] = None
    ) -> dict:
        """``EXPLAIN`` for a spec: compile only, describe the plan."""
        return self.plan(spec, estimator=estimator).explain()

    def subseq_index(
        self,
        window: int,
        k: int = 3,
        grouping: str = "adaptive",
        chunk: int = 16,
        max_entries: int = 32,
        build: str = "bulk",
    ):
        """An ST-index over this engine's relation (every row a series).

        The subsequence companion of the whole-sequence index: the
        returned :class:`~repro.subseq.stindex.STIndex` answers
        ``subseq_range`` / ``subseq_knn`` specs through its own
        :meth:`~repro.subseq.stindex.STIndex.plan` — the same plan API,
        compiled against sub-trail MBRs instead of feature points.  A new
        index is built per call (the query language's
        :class:`~repro.core.language.QuerySession` caches per window).
        """
        from repro.subseq.stindex import STIndex

        idx = STIndex(
            window, k=k, grouping=grouping, chunk=chunk,
            max_entries=max_entries, build=build,
        )
        idx.add_series_many(self.relation.matrix)
        return idx

    # ------------------------------------------------------------------
    # object-level helpers
    # ------------------------------------------------------------------
    def query_spectrum(self, series: ArrayLike) -> np.ndarray:
        """Full ground spectrum of an ad-hoc query series."""
        return self.space.series_spectrum(np.asarray(series, dtype=np.float64))

    def query_point(self, series: ArrayLike) -> np.ndarray:
        """Feature point of an ad-hoc query series."""
        return self.space.extract(np.asarray(series, dtype=np.float64))

    def view(self, transformation: Optional[Transformation] = None) -> TransformedIndexView:
        """Algorithm 1's transformed view of the engine's index."""
        return q._make_view(self.tree, self.space, transformation)

    def distance(
        self,
        record_id: int,
        series: ArrayLike,
        transformation: Optional[Transformation] = None,
    ) -> float:
        """Exact ``D(T(record), series)`` in the engine's ground metric."""
        return self.space.ground_distance(
            self.ground_spectra[record_id],
            self.query_spectrum(series),
            transformation,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(
        self,
        series: ArrayLike,
        eps: float,
        transformation: Optional[Transformation] = None,
        aux_bounds: Optional[Sequence[tuple[float, float]]] = None,
        transform_query: bool = False,
        method: str = "index",
    ) -> list[tuple[int, float]]:
        """All records with ``D(T(record), query) <= eps`` (Algorithm 2).

        Deprecated shim over :meth:`plan`; ``method`` defaults to
        ``"index"`` (the pre-plan-API behaviour) — pass ``"auto"`` for
        Figure-12 access-path selection or ``"scan"`` to force the
        sequential scan (answer sets are identical either way).
        """
        return self.plan(
            QuerySpec(
                kind="range",
                series=series,
                eps=eps,
                transformation=transformation,
                transform_query=transform_query,
                aux_bounds=aux_bounds,
                method=method,
            )
        ).execute()

    def knn_query(
        self,
        series: ArrayLike,
        k: int,
        transformation: Optional[Transformation] = None,
        transform_query: bool = False,
        method: str = "index",
    ) -> list[tuple[int, float]]:
        """The ``k`` records nearest to the query under ``T`` (exact).

        Deprecated shim over :meth:`plan` (see :meth:`range_query`).
        """
        return self.plan(
            QuerySpec(
                kind="knn",
                series=series,
                k=k,
                transformation=transformation,
                transform_query=transform_query,
                method=method,
            )
        ).execute()

    def _query_reps_batch(
        self,
        series_matrix: ArrayLike,
        transformation: Optional[Transformation],
        transform_query: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Spectra and feature points of an ``(m, n)`` matrix of queries.

        One numpy pipeline for all rows (a single query is a batch of
        one).  With ``transform_query`` the transformation is applied to
        the query side too, turning the predicate into
        ``D(T(record), T(query))`` — the symmetric semantics of the
        Section 2 examples and the Table-1 join ("apply T_mavg20 ... to
        both the index and the search rectangles").  Without it, the
        predicate is Algorithm 2's literal ``D(T(record), query)``.
        """
        rows = np.asarray(series_matrix, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.space.n:
            raise ValueError(
                f"queries must be (m, {self.space.n}), got {rows.shape}"
            )
        # One shared FFT pipeline for both representations — the spectra
        # computation dominates, so splitting it across series_spectrum_many
        # and extract_many would run it twice.
        q_points, q_specs = self.space.extract_many_with_spectra(rows)
        if transform_query and transformation is not None:
            q_specs = transformation.apply_spectrum(q_specs)
            amap = self.space.affine_map(transformation)
            q_points = q_points * amap.scale + amap.offset
        return q_specs, q_points

    def range_query_batch(
        self,
        series_matrix: ArrayLike,
        eps: float,
        transformation: Optional[Transformation] = None,
        aux_bounds: Optional[Sequence[tuple[float, float]]] = None,
        transform_query: bool = False,
        method: str = "index",
    ) -> list[list[tuple[int, float]]]:
        """Batched :meth:`range_query` over an ``(m, n)`` matrix of queries.

        Deprecated shim over :meth:`plan`.  Preprocessing is shared across
        the batch and the whole batch probes the index through one fused
        tree descent (:class:`~repro.core.ops.IndexProbe`), so node
        visits are amortised across queries.  Returns one result list per
        query row, in order.
        """
        return self.plan(
            QuerySpec(
                kind="range",
                series=series_matrix,
                eps=eps,
                transformation=transformation,
                transform_query=transform_query,
                aux_bounds=aux_bounds,
                method=method,
            )
        ).execute()

    def knn_query_batch(
        self,
        series_matrix: ArrayLike,
        k: int,
        transformation: Optional[Transformation] = None,
        transform_query: bool = False,
        method: str = "index",
    ) -> list[list[tuple[int, float]]]:
        """Batched :meth:`knn_query` over an ``(m, n)`` matrix of queries.

        Deprecated shim over :meth:`plan`; preprocessing and the
        transformed view are shared across the batch.
        """
        return self.plan(
            QuerySpec(
                kind="knn",
                series=series_matrix,
                k=k,
                transformation=transformation,
                transform_query=transform_query,
                method=method,
            )
        ).execute()

    def all_pairs(
        self,
        eps: float,
        transformation: Optional[Transformation] = None,
        method: str = "index",
    ) -> list[tuple[int, int, float]]:
        """Self-join: pairs with ``D(T(x), T(y)) <= eps`` (Table 1).

        Deprecated shim over :meth:`plan`.  Methods: ``"scan"`` (Table 1's
        *a*), ``"scan-abandon"`` (*b*), ``"index"`` (*c* when
        ``transformation`` is None, *d* otherwise), ``"tree-join"``
        (synchronized-descent ablation).
        """
        return self.plan(
            QuerySpec(
                kind="join", eps=eps, transformation=transformation, method=method
            )
        ).execute()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"SimilarityEngine(records={len(self.relation)}, "
            f"space={type(self.space).__name__}(dim={self.space.dim}), "
            f"index={type(self.tree).__name__})"
        )
