"""Access-path selection between the index and the sequential scan.

Figure 12 of the paper shows the two access paths cross: the transformed
index wins while the answer set is selective, and the tuned sequential
scan wins once roughly a fifth to a third of the relation qualifies.  A
system that always uses the index therefore leaves performance on the
table for broad queries — the classic access-path-selection problem.

:class:`SelectivityEstimator` makes that call with a sampling estimator,
and is a *compile-time* component: :func:`repro.core.plan.compile_spec`
consults it whenever a :class:`~repro.core.plan.QuerySpec` carries the
``method="auto"`` hint, so every planner-routed entry point (Python,
query language, CLI, batch) shares one estimate.

1. keep a fixed random sample of the relation's feature points;
2. for a query, build the same search rectangle Algorithm 2 would use,
   map the sample through the transformation's affine map, and count how
   many sampled points fall inside — an unbiased estimate of the
   candidate fraction;
3. route the query to the scan when the estimated fraction exceeds
   ``crossover_fraction`` (default 0.15, the measured Figure-12 cross).

The estimator never affects correctness — both access paths return the
exact answer set (verified in the tests); only latency is at stake.

:class:`SubseqProbePlanner` is the subsequence analogue: for ST-index
queries longer than the window it chooses between FRM94's multipiece
reduction and the longest-prefix search by estimating each strategy's
expanded candidate count against a sample of the indexed *window*
feature points (see :meth:`repro.subseq.stindex.STIndex.choose_probe`).

:class:`QueryPlanner` is the pre-plan-API user-facing wrapper, kept as a
deprecated shim: it now builds a spec and routes through
``engine.plan(...)`` like everything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from repro.core.transforms import Transformation
from repro.rtree.geometry import intersects_circular_many
from repro.rtree.transformed import AffineMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine → plan → here)
    from repro.core.engine import SimilarityEngine
    from repro.core.features import FeatureSpace

ArrayLike = Union[Sequence[float], np.ndarray]


class SelectivityEstimator:
    """Sampling estimate of the candidate fraction an index probe passes.

    Args:
        points: the relation's ``(m, dim)`` feature points to sample from.
        sample_size: number of feature points sampled for estimation.
        crossover_fraction: candidate fraction above which the scan is
            predicted to win (Figure 12's crossover; tune per deployment).
        seed: sampling seed (fixed for reproducible plans).
    """

    def __init__(
        self,
        points: np.ndarray,
        sample_size: int = 128,
        crossover_fraction: float = 0.15,
        seed: int = 0,
    ) -> None:
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        if not 0.0 < crossover_fraction <= 1.0:
            raise ValueError(
                f"crossover_fraction must be in (0, 1], got {crossover_fraction}"
            )
        self.sample_size = sample_size
        self.crossover_fraction = crossover_fraction
        pts = np.asarray(points, dtype=np.float64)
        n = pts.shape[0]
        rng = np.random.default_rng(seed)
        take = min(sample_size, n)
        self._sample_ids = (
            rng.choice(n, size=take, replace=False) if take else np.empty(0, int)
        )
        self._sample_points = (
            pts[self._sample_ids]
            if take
            else np.empty((0, pts.shape[1] if pts.ndim == 2 else 0))
        )

    def fraction(
        self,
        space: "FeatureSpace",
        q_point: ArrayLike,
        eps: float,
        mapping: Optional[AffineMap] = None,
    ) -> float:
        """Estimated fraction of the relation the index filter would pass.

        Args:
            space: the feature space the sampled points live in.
            q_point: the query's feature point (already transformed when
                the symmetric semantics apply).
            eps: similarity threshold.
            mapping: affine map of the data-side transformation (identity
                when ``None``) — the sample is pushed through it exactly
                as Algorithm 1 pushes node MBRs.
        """
        if self._sample_points.shape[0] == 0:
            return 0.0
        if mapping is None:
            mapping = AffineMap.identity(space.dim)
        qrect = space.search_rect(np.asarray(q_point, dtype=np.float64), eps)
        mapped = self._sample_points * mapping.scale + mapping.offset
        # Points are degenerate rectangles: lows == highs == mapped.
        hits = intersects_circular_many(
            mapped, mapped, qrect.lows, qrect.highs, space.circular_mask
        )
        return float(np.count_nonzero(hits)) / self._sample_points.shape[0]

    def choose(
        self,
        space: "FeatureSpace",
        q_point: ArrayLike,
        eps: float,
        mapping: Optional[AffineMap] = None,
    ) -> str:
        """``"index"`` or ``"scan"`` for this query point."""
        fraction = self.fraction(space, q_point, eps, mapping)
        return "scan" if fraction > self.crossover_fraction else "index"


#: probe-strategy vocabulary for subsequence queries — the single source
#: of truth shared by the ST-index, the plan layer and the language.
PROBE_STRATEGIES = ("auto", "multipiece", "prefix")


@dataclass
class ProbeChoice:
    """The planner's probe-strategy decision for one subsequence query.

    ``EXPLAIN`` surfaces every field; ``strategy`` is what the ST-index
    executes (``"multipiece"`` or ``"prefix"``).
    """

    strategy: str
    pieces: int
    estimated_multipiece: Optional[float] = None
    estimated_prefix: Optional[float] = None
    reason: str = ""

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "pieces": self.pieces,
            "estimated_multipiece_candidates": self.estimated_multipiece,
            "estimated_prefix_candidates": self.estimated_prefix,
            "reason": self.reason,
        }


class SubseqProbePlanner:
    """Choose between FRM94's two long-query probe reductions.

    A subsequence query longer than the index window ``w`` can probe the
    ST-index two ways, both candidate supersets with no false dismissals:

    * **multipiece** — split into ``p = floor(L / w)`` disjoint pieces and
      search each at radius ``eps / sqrt(p)`` (narrow rectangles, but
      ``p`` of them, and their candidate sets union);
    * **prefix** — search only the leading window at the full radius
      ``eps`` (one wide rectangle).

    Which is cheaper is a selectivity question: the multipiece radius
    shrinks with ``p`` but every piece contributes candidates, while the
    prefix pays the undivided ``eps``.  The planner estimates each
    strategy's expanded candidate count against a fixed sample of the
    index's *window feature points* (the subsequence analogue of
    :class:`SelectivityEstimator`'s relation sample) and picks the
    smaller; ties and single-piece queries fall back to multipiece (the
    two coincide at ``p == 1``).

    Args:
        sample_points: ``(s, dim)`` sampled window feature points.
        total_windows: number of indexed windows the sample represents.
    """

    def __init__(self, sample_points: np.ndarray, total_windows: int) -> None:
        self._sample = np.asarray(sample_points, dtype=np.float64)
        self.total_windows = int(total_windows)

    def fraction(self, lo: np.ndarray, hi: np.ndarray) -> float:
        """Estimated fraction of indexed windows inside ``[lo, hi]``."""
        if self._sample.shape[0] == 0:
            return 0.0
        hits = np.all(self._sample >= lo, axis=1) & np.all(
            self._sample <= hi, axis=1
        )
        return float(np.count_nonzero(hits)) / self._sample.shape[0]

    def choose(
        self,
        piece_lows: np.ndarray,
        piece_highs: np.ndarray,
        prefix_lo: np.ndarray,
        prefix_hi: np.ndarray,
    ) -> ProbeChoice:
        """Pick a probe strategy given both reductions' search rectangles.

        Args:
            piece_lows, piece_highs: ``(p, dim)`` multipiece rectangles
                (radius ``eps / sqrt(p)``).
            prefix_lo, prefix_hi: the prefix rectangle (radius ``eps``).
        """
        pieces = int(piece_lows.shape[0])
        if pieces <= 1:
            return ProbeChoice(
                strategy="multipiece",
                pieces=pieces,
                reason="single-piece query: both reductions coincide",
            )
        w = self.total_windows
        est_multi = sum(
            self.fraction(piece_lows[j], piece_highs[j]) * w
            for j in range(pieces)
        )
        est_prefix = self.fraction(prefix_lo, prefix_hi) * w
        if est_prefix < est_multi:
            return ProbeChoice(
                strategy="prefix",
                pieces=pieces,
                estimated_multipiece=est_multi,
                estimated_prefix=est_prefix,
                reason=(
                    f"prefix search estimates {est_prefix:.1f} candidates vs "
                    f"{est_multi:.1f} across {pieces} pieces"
                ),
            )
        return ProbeChoice(
            strategy="multipiece",
            pieces=pieces,
            estimated_multipiece=est_multi,
            estimated_prefix=est_prefix,
            reason=(
                f"{pieces} pieces estimate {est_multi:.1f} candidates vs "
                f"{est_prefix:.1f} for the prefix"
            ),
        )


class QueryPlanner:
    """Deprecated user-facing wrapper around planner-routed execution.

    Kept for API compatibility; new code should build a
    :class:`~repro.core.plan.QuerySpec` with ``method="auto"`` and call
    :meth:`SimilarityEngine.plan` directly.

    Args:
        engine: the engine whose relation/index both paths share.
        sample_size: number of feature points sampled for estimation.
        crossover_fraction: see :class:`SelectivityEstimator`.
        seed: sampling seed (fixed for reproducible plans).
    """

    def __init__(
        self,
        engine: "SimilarityEngine",
        sample_size: int = 128,
        crossover_fraction: float = 0.15,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self._estimator = SelectivityEstimator(
            engine.points,
            sample_size=sample_size,
            crossover_fraction=crossover_fraction,
            seed=seed,
        )

    @property
    def crossover_fraction(self) -> float:
        return self._estimator.crossover_fraction

    # ------------------------------------------------------------------
    def _mapping(self, transformation: Optional[Transformation]) -> AffineMap:
        space = self.engine.space
        if transformation is None:
            return AffineMap.identity(space.dim)
        return space.affine_map(transformation)

    def _point(
        self,
        series: ArrayLike,
        transformation: Optional[Transformation],
        transform_query: bool,
    ) -> np.ndarray:
        """The query's feature point, from the engine's batch pipeline."""
        _, q_points = self.engine._query_reps_batch(
            np.asarray(series, dtype=np.float64)[None, :],
            transformation,
            transform_query,
        )
        return q_points[0]

    def estimate_candidate_fraction(
        self,
        series: ArrayLike,
        eps: float,
        transformation: Optional[Transformation] = None,
        transform_query: bool = False,
    ) -> float:
        """Estimated fraction of the relation the index filter would pass."""
        return self._estimator.fraction(
            self.engine.space,
            self._point(series, transformation, transform_query),
            eps,
            self._mapping(transformation),
        )

    def choose(
        self,
        series: ArrayLike,
        eps: float,
        transformation: Optional[Transformation] = None,
        transform_query: bool = False,
    ) -> str:
        """``"index"`` or ``"scan"`` for this query."""
        return self._estimator.choose(
            self.engine.space,
            self._point(series, transformation, transform_query),
            eps,
            self._mapping(transformation),
        )

    def execute(
        self,
        series: ArrayLike,
        eps: float,
        transformation: Optional[Transformation] = None,
        transform_query: bool = False,
    ) -> tuple[str, list[tuple[int, float]]]:
        """Run the range query through the chosen access path.

        Returns:
            ``(plan, matches)`` — the plan label and the exact answer set
            (identical whichever path ran).
        """
        from repro.core.plan import QuerySpec

        plan = self.engine.plan(
            QuerySpec(
                kind="range",
                series=series,
                eps=eps,
                transformation=transformation,
                transform_query=transform_query,
                method="auto",
            ),
            estimator=self._estimator,
        )
        return plan.logical.access_path, plan.execute()
