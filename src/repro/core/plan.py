"""The unified query-plan API: ``QuerySpec`` → logical plan → operators.

Every similarity query in the system — range, k-NN, all-pairs join, exact
distance; single or batched; from Python, the query language, or the CLI
— is described by one :class:`QuerySpec` and answered through one
compiled :class:`PhysicalPlan`:

.. code-block:: python

    spec = QuerySpec(kind="range", series=q, eps=2.5,
                     transformation=moving_average(128, 20),
                     transform_query=True)
    plan = engine.plan(spec)
    print(plan.explain()["access_path"])   # "index" or "scan"
    matches = plan.execute()

Compilation follows the paper end to end:

1. **Preprocess** the query into the frequency domain (spectrum + feature
   point, transformed when ``transform_query`` asks for the symmetric
   semantics) — Algorithm 2's step 1.
2. **Choose the access path.**  With ``method="auto"`` the Figure-12
   selection applies: a sampling
   :class:`~repro.core.planner.SelectivityEstimator` predicts the
   candidate fraction the index filter would pass, and the query routes
   to the tuned sequential scan once that fraction exceeds the measured
   crossover (~0.15).  ``method="index"``/``"scan"`` force a path; join
   specs accept the Table-1 method names.
3. **Build the operator tree** — an
   :class:`~repro.core.ops.IndexProbe` under a
   :class:`~repro.core.ops.Verify`, a standalone
   :class:`~repro.core.ops.SeqScan`, a
   :class:`~repro.core.ops.KnnSearch`, or a
   :class:`~repro.core.ops.PairJoin`.

Range and k-NN operators always run over a ``(q, n)`` query matrix; a
single series compiles to ``q = 1`` and :meth:`PhysicalPlan.execute`
unwraps its one answer.  Both access paths return the exact answer set
(the estimator can only affect latency, never correctness), which the
parity tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core import ops
from repro.core.planner import PROBE_STRATEGIES
from repro.core.transforms import Transformation
from repro.rtree.transformed import AffineMap
from repro.storage.budget import ResourceBudget
from repro.storage.manifest import CorruptIndexError

ArrayLike = Union[Sequence[float], np.ndarray]


def require_finite(values: ArrayLike, what: str) -> np.ndarray:
    """Admission check (REP005): reject NaN/inf query payloads.

    A NaN coordinate silently empties every probe rectangle it touches
    (all comparisons are false), turning a malformed query into a wrong
    — not failed — answer, so every public entry validates here before
    any I/O.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite; got NaN or inf")
    return arr

#: Valid spec kinds.
KINDS = ("range", "knn", "join", "dist", "subseq_range", "subseq_knn")
#: The spec kinds compiled against an ST-index instead of an engine.
SUBSEQ_KINDS = ("subseq_range", "subseq_knn")
#: Access-path hints for range/knn specs.
ACCESS_HINTS = ("auto", "index", "scan")
#: Probe-strategy hints for subseq_range specs (one vocabulary,
#: owned by the planner and shared with the ST-index).
SUBSEQ_PROBES = PROBE_STRATEGIES
#: Join methods (Table 1 labels plus the tree-matching ablation).
JOIN_METHODS = ("scan", "scan-abandon", "index", "tree-join")


@dataclass
class QuerySpec:
    """A declarative description of one similarity query.

    Args:
        kind: ``"range"``, ``"knn"``, ``"join"`` or ``"dist"``.
        series: query payload — one series for a single range/k-NN query
            (answered as a batch of one), an ``(m, n)`` matrix for a
            batch, the first operand of a ``dist`` spec; unused for joins.
        other: second operand of a ``dist`` spec.
        eps: similarity threshold (range and join).
        k: neighbour count (k-NN).
        transformation: safe transformation applied to the data side.
        transform_query: apply the transformation to the query side too —
            the symmetric ``D(T(x), T(q))`` semantics of the paper's
            Section 2 examples (what the query language always uses).
        aux_bounds: optional intervals constraining auxiliary index
            dimensions ([GK95]-style shift/scale restrictions).
        method: access-path hint — ``"auto"`` (planner decides),
            ``"index"``, ``"scan"``; joins take a Table-1 method name
            (``"auto"`` resolves to ``"index"``).
        window: the ST-index window a subsequence spec expects (checked
            against the index it compiles on; ``None`` accepts any).
        probe: probe-strategy hint for ``subseq_range`` specs —
            ``"auto"`` (the planner weighs piece count against prefix
            selectivity per query), ``"multipiece"`` or ``"prefix"``.
        budget: optional :class:`~repro.storage.budget.ResourceBudget`
            bounding the execution (deadline, candidate and frontier
            caps); re-armed on every ``execute()``.
    """

    kind: str
    series: Optional[ArrayLike] = None
    other: Optional[ArrayLike] = None
    eps: Optional[float] = None
    k: Optional[int] = None
    transformation: Optional[Transformation] = None
    transform_query: bool = False
    aux_bounds: Optional[Sequence[tuple[float, float]]] = None
    method: str = "auto"
    window: Optional[int] = None
    probe: str = "auto"
    budget: Optional[ResourceBudget] = None


@dataclass
class LogicalPlan:
    """The compile-time routing decision EXPLAIN reports."""

    kind: str
    access_path: str
    method_hint: str
    batch: bool = False
    estimated_fraction: Optional[float] = None
    crossover_fraction: Optional[float] = None
    #: per-query probe decisions of a subsequence plan (ProbeChoice dicts).
    probe_choices: Optional[list[dict]] = None
    #: the access path the planner *wanted* but had to abandon because a
    #: component failed validation (``"frozen-kernel"``, ``"index"``, or a
    #: join method); ``None`` on a healthy engine.
    degraded_from: Optional[str] = None
    reason: str = ""


class PhysicalPlan:
    """A compiled, executable, explainable query plan.

    Obtained from :meth:`SimilarityEngine.plan`; ``execute()`` runs the
    operator tree against the engine and ``explain()`` reports the chosen
    access path, the selectivity estimate behind it, and (after a run)
    per-operator IOStats.
    """

    def __init__(
        self,
        root: ops.Operator,
        ctx: ops.ExecContext,
        logical: LogicalPlan,
        spec: QuerySpec,
    ) -> None:
        self.root = root
        self.ctx = ctx
        self.logical = logical
        self.spec = spec

    def execute(self) -> Any:
        """Run the plan; the result type matches the spec kind.

        Query operators answer one list per query row; a spec with a
        single series gets its row's list.
        """
        if self.ctx.budget is not None:
            self.ctx.budget.start()
        result = self.root.execute(self.ctx)
        if self.logical.batch or self.spec.kind in ("join", "dist"):
            return result
        return result[0]

    def explain(self) -> dict:
        """The plan as a JSON-friendly dict (``EXPLAIN`` output)."""
        spec, logical = self.spec, self.logical
        out = {
            "kind": spec.kind,
            "access_path": logical.access_path,
            "method_hint": logical.method_hint,
            "batch": logical.batch,
            "estimated_candidate_fraction": logical.estimated_fraction,
            "crossover_fraction": logical.crossover_fraction,
            "degraded_from": logical.degraded_from,
            "budget": None if spec.budget is None else spec.budget.as_dict(),
            "reason": logical.reason,
            "eps": spec.eps,
            "k": spec.k,
            "transformation": (
                None if spec.transformation is None else spec.transformation.name
            ),
            "transform_query": spec.transform_query,
            "plan": self.root.explain(),
        }
        if spec.kind in SUBSEQ_KINDS:
            out["window"] = spec.window
        if logical.probe_choices is not None:
            # One ProbeChoice dict per query; scalar plans report it flat.
            out["probe"] = (
                logical.probe_choices
                if logical.batch
                else logical.probe_choices[0]
            )
        return out

    def __repr__(self) -> str:
        return (
            f"PhysicalPlan(kind={self.spec.kind!r}, "
            f"access_path={self.logical.access_path!r}, "
            f"root={type(self.root).__name__})"
        )


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def _mapping_for(engine, t: Optional[Transformation]) -> AffineMap:
    if t is None:
        return AffineMap.identity(engine.space.dim)
    return engine.space.affine_map(t)


def _route_range(
    engine, spec: QuerySpec, q_points: np.ndarray, batch: bool, estimator
) -> LogicalPlan:
    """Access-path selection for a range spec (Figure 12's crossover).

    ``q_points`` holds one feature point per query row; ``batch`` only
    labels the plan.
    """
    logical = LogicalPlan(
        kind="range", access_path="index", method_hint=spec.method, batch=batch
    )
    failed = getattr(engine, "_index_failed", None)
    if failed:
        if spec.aux_bounds is not None:
            # A scan cannot apply aux-dimension bounds, so there is no
            # trusted path left for this query — fail typed.
            raise CorruptIndexError(
                f"aux_bounds need the index path, but the persisted index "
                f"failed validation: {failed}"
            )
        logical.access_path = "scan"
        logical.degraded_from = "index"
        logical.reason = f"index unavailable ({failed}); degraded to scan"
        return logical
    if spec.aux_bounds is not None:
        # Only the index path can apply [GK95]-style aux-dimension bounds;
        # a scan would silently return records outside them.
        if spec.method == "scan":
            raise ValueError(
                "the scan access path cannot apply aux_bounds; "
                "use method='index' or 'auto'"
            )
        logical.reason = (
            "aux_bounds constrain index dimensions; only the index path "
            "applies them"
        )
        return logical
    if spec.method in ("index", "scan"):
        logical.access_path = spec.method
        logical.reason = "access path forced by method hint"
        return logical
    if len(engine.relation) == 0:
        logical.reason = "empty relation"
        return logical
    if q_points.shape[0] == 0:
        logical.reason = "empty query batch"
        return logical
    if estimator is None:
        estimator = engine.estimator
    mapping = _mapping_for(engine, spec.transformation)
    fractions = [
        estimator.fraction(engine.space, point, spec.eps, mapping)
        for point in q_points
    ]
    fraction = float(np.mean(fractions))
    logical.estimated_fraction = fraction
    logical.crossover_fraction = estimator.crossover_fraction
    if fraction > estimator.crossover_fraction:
        logical.access_path = "scan"
        logical.reason = (
            f"estimated candidate fraction {fraction:.3f} exceeds the "
            f"Figure-12 crossover {estimator.crossover_fraction:.3f}"
        )
    else:
        logical.reason = (
            f"estimated candidate fraction {fraction:.3f} within the "
            f"index's winning regime"
        )
    return logical


def compile_spec(engine, spec: QuerySpec, estimator=None) -> PhysicalPlan:
    """Compile a :class:`QuerySpec` against an engine.

    Raises:
        ValueError: on an unknown kind/method, a missing required field,
            or a malformed payload — at compile time, before any I/O.
    """
    if spec.kind not in KINDS:
        raise ValueError(f"unknown query kind {spec.kind!r}; expected one of {KINDS}")
    if spec.kind in SUBSEQ_KINDS:
        # Subsequence specs compile against an ST-index, not an engine —
        # falling through here would silently run a whole-sequence query.
        raise ValueError(
            f"a {spec.kind!r} spec compiles against an ST-index: use "
            "STIndex.plan(spec) (e.g. engine.subseq_index(window).plan(spec))"
        )
    ctx = ops.ExecContext(engine, budget=spec.budget)
    if spec.kind == "dist":
        return _compile_dist(spec, ctx)
    if spec.kind == "join":
        return _compile_join(spec, ctx)
    if spec.series is None:
        raise ValueError(f"a {spec.kind!r} spec requires a query series")
    rows = require_finite(spec.series, "query series")
    batch = rows.ndim == 2
    if rows.ndim == 1:
        rows = rows[None, :]  # a single query is a batch of one
    q_specs, q_points = engine._query_reps_batch(
        rows, spec.transformation, spec.transform_query
    )
    if spec.kind == "range":
        if spec.eps is None:
            raise ValueError("a 'range' spec requires eps")
        if not np.isfinite(spec.eps):
            raise ValueError(f"eps must be finite, got {spec.eps}")
        if spec.method not in ACCESS_HINTS:
            raise ValueError(
                f"unknown method {spec.method!r}; expected one of {ACCESS_HINTS}"
            )
        logical = _route_range(engine, spec, q_points, batch, estimator)
        _note_kernel_degradation(engine, logical)
        if logical.access_path == "scan":
            root: ops.Operator = ops.SeqScan(
                "range", q_specs, eps=spec.eps,
                transformation=spec.transformation,
            )
        else:
            probe = ops.IndexProbe(
                q_points, spec.eps,
                transformation=spec.transformation, aux_bounds=spec.aux_bounds,
            )
            root = ops.Verify(
                probe, q_specs, spec.eps, transformation=spec.transformation
            )
        return PhysicalPlan(root, ctx, logical, spec)

    # kind == "knn"
    if spec.k is None or spec.k < 0:
        # k == 0 is a valid (empty) query; the kernel defines the edge
        # cases k == 0, k > |relation| and an empty relation uniformly.
        raise ValueError(f"a 'knn' spec requires non-negative k, got {spec.k}")
    if spec.method not in ACCESS_HINTS:
        raise ValueError(
            f"unknown method {spec.method!r}; expected one of {ACCESS_HINTS}"
        )
    logical = LogicalPlan(
        kind="knn", access_path="index", method_hint=spec.method, batch=batch
    )
    failed = getattr(engine, "_index_failed", None)
    if spec.method == "scan" or failed:
        logical.access_path = "scan"
        if spec.method == "scan":
            logical.reason = "access path forced by method hint"
        else:
            logical.degraded_from = "index"
            logical.reason = f"index unavailable ({failed}); degraded to scan"
        root = ops.SeqScan(
            "knn", q_specs, k=spec.k, transformation=spec.transformation,
        )
    else:
        logical.reason = (
            "k-NN has no eps to estimate selectivity from; "
            "multi-step index search is the default"
        )
        _note_kernel_degradation(engine, logical)
        root = ops.KnnSearch(
            q_specs, q_points, spec.k, transformation=spec.transformation,
        )
    return PhysicalPlan(root, ctx, logical, spec)


def _note_kernel_degradation(engine, logical: LogicalPlan) -> None:
    """Record the frozen-kernel → reference-path downgrade in the plan.

    When a loaded engine's columnar image failed validation the tree's
    ``_kernel_disabled`` flag makes every query path fall back to the
    node-object reference traversal; the plan stays on the index access
    path but EXPLAIN must say so.
    """
    if logical.access_path not in ("index",):
        return
    if getattr(engine.tree, "_kernel_disabled", False):
        logical.degraded_from = "frozen-kernel"
        logical.reason += (
            "; columnar kernel failed validation — "
            "node-object reference traversal"
        )


def _compile_join(spec: QuerySpec, ctx: ops.ExecContext) -> PhysicalPlan:
    if spec.eps is None:
        raise ValueError("a 'join' spec requires eps")
    if not np.isfinite(spec.eps):
        raise ValueError(f"eps must be finite, got {spec.eps}")
    method = "index" if spec.method == "auto" else spec.method
    if method not in JOIN_METHODS:
        raise ValueError(
            f"unknown method {spec.method!r}; expected 'scan', 'scan-abandon', "
            "'index' or 'tree-join'"
        )
    logical = LogicalPlan(
        kind="join",
        access_path=method,
        method_hint=spec.method,
        reason="Table-1 join strategy",
    )
    failed = getattr(ctx.engine, "_index_failed", None)
    if failed and method in ("index", "tree-join"):
        logical.degraded_from = method
        method = "scan-abandon"
        logical.access_path = method
        logical.reason = (
            f"index unavailable ({failed}); degraded to scan-abandon"
        )
    else:
        _note_kernel_degradation(ctx.engine, logical)
    root = ops.PairJoin(spec.eps, transformation=spec.transformation, method=method)
    return PhysicalPlan(root, ctx, logical, spec)


def _compile_dist(spec: QuerySpec, ctx: ops.ExecContext) -> PhysicalPlan:
    if spec.series is None or spec.other is None:
        raise ValueError("a 'dist' spec requires both series and other")
    a = require_finite(spec.series, "series")
    b = require_finite(spec.other, "other")
    if a.shape != b.shape:
        raise ValueError(f"dist requires equal lengths, got {a.shape} and {b.shape}")
    logical = LogicalPlan(
        kind="dist", access_path="compute", method_hint=spec.method,
        reason="exact distance evaluation",
    )
    root = ops.DistCompute(
        a, b, transformation=spec.transformation, symmetric=spec.transform_query
    )
    return PhysicalPlan(root, ctx, logical, spec)


def compile_subseq_spec(stindex, spec: QuerySpec) -> PhysicalPlan:
    """Compile a subsequence spec against an ST-index.

    The subsequence counterpart of :func:`compile_spec`:
    ``"subseq_range"`` resolves one probe strategy per query at compile
    time (FRM94's multipiece split vs longest-prefix search — the
    planner's :class:`~repro.core.planner.SubseqProbePlanner` weighs
    piece count against prefix selectivity under ``probe="auto"``), and
    ``"subseq_knn"`` builds the multi-step k-closest-windows search.
    ``EXPLAIN`` reports the decision without executing — which is why
    ``probe="auto"`` featurizes each query's pieces here, at compile
    time (one small FFT per query), in addition to the fused
    featurization the probe itself performs at execute; the resolved
    strategies are handed to the operator, so what runs is exactly what
    ``EXPLAIN`` reported.

    Raises:
        ValueError: on an unknown kind/probe, a missing required field, a
            malformed payload, or a ``window`` mismatching the index.
    """
    from repro.core.planner import ProbeChoice

    if spec.kind not in SUBSEQ_KINDS:
        raise ValueError(
            f"unknown subsequence kind {spec.kind!r}; expected one of "
            f"{SUBSEQ_KINDS}"
        )
    if spec.series is None:
        raise ValueError(f"a {spec.kind!r} spec requires a query series")
    if spec.window is not None and spec.window != stindex.window:
        raise ValueError(
            f"spec window {spec.window} != index window {stindex.window}"
        )
    series = spec.series
    # A batch is a sequence of sequences (possibly ragged — subsequence
    # queries may have different lengths), a scalar spec one flat series.
    # Materialise non-array input once so iterators/generators survive.
    if isinstance(series, np.ndarray):
        batch = series.ndim != 1
        raw = list(series) if batch else [series]
    else:
        seq = list(series)
        batch = len(seq) == 0 or isinstance(
            seq[0], (list, tuple, np.ndarray)
        )
        raw = seq if batch else [seq]
    qs = [np.asarray(q, dtype=np.float64) for q in raw]
    ctx = ops.ExecContext(stindex, budget=spec.budget)

    if spec.kind == "subseq_range":
        if spec.eps is None:
            raise ValueError("a 'subseq_range' spec requires eps")
        if spec.probe not in SUBSEQ_PROBES:
            raise ValueError(
                f"unknown probe {spec.probe!r}; expected one of {SUBSEQ_PROBES}"
            )
        # Validate every query at compile time on every probe path, so a
        # plan EXPLAIN reports is always one that can run.
        for q in qs:
            stindex._check_query(q, spec.eps)
        if spec.probe == "auto":
            choices = [stindex.choose_probe(q, spec.eps) for q in qs]
            reason = "probe strategy chosen per query by selectivity"
        else:
            choices = [
                ProbeChoice(
                    strategy=spec.probe,
                    pieces=q.shape[0] // stindex.window,
                    reason="probe strategy forced by hint",
                )
                for q in qs
            ]
            reason = "probe strategy forced by hint"
        logical = LogicalPlan(
            kind="subseq_range",
            access_path="st-index",
            method_hint=spec.probe,
            batch=batch,
            probe_choices=[c.as_dict() for c in choices],
            reason=reason,
        )
        root: ops.Operator = ops.SubseqRangeSearch(
            qs, spec.eps, [c.strategy for c in choices], window=stindex.window,
        )
        return PhysicalPlan(root, ctx, logical, spec)

    # kind == "subseq_knn"
    if spec.k is None or spec.k < 0:
        raise ValueError(
            f"a 'subseq_knn' spec requires non-negative k, got {spec.k}"
        )
    for q in qs:
        stindex._check_query(q)
    logical = LogicalPlan(
        kind="subseq_knn",
        access_path="st-index",
        method_hint=spec.method,
        batch=batch,
        reason=(
            "multi-step best-first over sub-trail boxes "
            "(prefix-window features, per-query shrinking radii)"
        ),
    )
    root = ops.SubseqKnnSearch(qs, spec.k, window=stindex.window)
    return PhysicalPlan(root, ctx, logical, spec)


def dist_plan(
    series_a: ArrayLike,
    series_b: ArrayLike,
    transformation: Optional[Transformation] = None,
    symmetric: bool = True,
) -> PhysicalPlan:
    """A standalone distance plan needing no engine (the language's DIST)."""
    spec = QuerySpec(
        kind="dist", series=series_a, other=series_b,
        transformation=transformation, transform_query=symmetric,
    )
    return _compile_dist(spec, ops.ExecContext(None))
