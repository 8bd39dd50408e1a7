"""Axis-aligned rectangles and the metrics R-trees are built from.

Everything an R-tree variant needs lives here: areas, margins, enlargement,
pairwise overlap, unions, and the MINDIST / MINMAXDIST point-to-rectangle
metrics of Roussopoulos, Kelley & Vincent (1995) used for nearest-neighbour
pruning.

One extension beyond the paper: *circular dimensions*.  The polar feature
space stores phase angles, which live on a circle of period ``2*pi``.  The
paper's search rectangles implicitly assume angles do not wrap; to keep the
no-false-dismissal guarantee watertight near the ``±pi`` boundary this
module offers wrap-aware interval intersection (:func:`intersects_circular`)
that the query engine enables on phase dimensions.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from repro.rtree.backend import xp

__all__ = [
    "Rect",
    "union_all",
    "intersects_circular",
    "intersects_circular_many",
    "intersects_circular_pairwise",
    "intersects_circular_rows",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi


class Rect:
    """An axis-aligned hyper-rectangle ``[lows, highs]`` (closed on both ends).

    Points are represented as degenerate rectangles with ``lows == highs``;
    this is how leaf entries store feature vectors.

    The class is immutable in spirit: methods return new rectangles.  The
    underlying arrays are float64 and never aliased to caller data.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: Sequence[float], highs: Sequence[float]) -> None:
        self.lows = xp.asarray(lows, dtype=xp.float64).copy()
        self.highs = xp.asarray(highs, dtype=xp.float64).copy()
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError(
                f"lows/highs must be 1-D and equal length, got {self.lows.shape} "
                f"and {self.highs.shape}"
            )
        if xp.any(self.lows > self.highs):
            raise ValueError(f"lows must not exceed highs: {self.lows} > {self.highs}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        """A degenerate rectangle at ``point``."""
        arr = xp.asarray(point, dtype=xp.float64)
        return cls(arr, arr)

    @classmethod
    def around(cls, center: Sequence[float], radius: float) -> "Rect":
        """The L-infinity ball of ``radius`` around ``center``.

        This is the minimum bounding rectangle of the Euclidean
        ``radius``-ball used to build search rectangles in the rectangular
        coordinate system (Section 3.1).
        """
        c = xp.asarray(center, dtype=xp.float64)
        return cls(c - radius, c + radius)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return self.lows.shape[0]

    @property
    def center(self) -> xp.ndarray:
        """Geometric centre of the rectangle."""
        return (self.lows + self.highs) / 2.0

    @property
    def extents(self) -> xp.ndarray:
        """Per-dimension side lengths."""
        return self.highs - self.lows

    def is_point(self, tol: float = 0.0) -> bool:
        """True when every side is no longer than ``tol``."""
        return bool(xp.all(self.extents <= tol))

    def area(self) -> float:
        """Product of side lengths (volume in d dimensions)."""
        return float(xp.prod(self.extents))

    def margin(self) -> float:
        """Sum of side lengths — the R* split's perimeter surrogate."""
        return float(xp.sum(self.extents))

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least one point."""
        return bool(
            xp.all(self.lows <= other.highs) and xp.all(other.lows <= self.highs)
        )

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside ``self`` (closed)."""
        return bool(
            xp.all(self.lows <= other.lows) and xp.all(other.highs <= self.highs)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside the closed rectangle."""
        p = xp.asarray(point, dtype=xp.float64)
        return bool(xp.all(self.lows <= p) and xp.all(p <= self.highs))

    def strictly_contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies in the open interior."""
        p = xp.asarray(point, dtype=xp.float64)
        return bool(xp.all(self.lows < p) and xp.all(p < self.highs))

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Minimum bounding rectangle of both rectangles."""
        return Rect(
            xp.minimum(self.lows, other.lows), xp.maximum(self.highs, other.highs)
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Overlapping region, or ``None`` when disjoint."""
        lows = xp.maximum(self.lows, other.lows)
        highs = xp.minimum(self.highs, other.highs)
        if xp.any(lows > highs):
            return None
        return Rect(lows, highs)

    def overlap_area(self, other: "Rect") -> float:
        """Volume of the intersection (0 when disjoint)."""
        sides = xp.minimum(self.highs, other.highs) - xp.maximum(
            self.lows, other.lows
        )
        if xp.any(sides < 0):
            return 0.0
        return float(xp.prod(sides))

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to absorb ``other`` (Guttman's criterion)."""
        return self.union(other).area() - self.area()

    # ------------------------------------------------------------------
    # RKV95 metrics
    # ------------------------------------------------------------------
    def mindist(self, point: Sequence[float]) -> float:
        """MINDIST: least possible distance from ``point`` to this rectangle.

        Zero when the point is inside.  This is an optimistic bound: no
        object in the subtree rooted at this MBR can be closer.
        """
        p = xp.asarray(point, dtype=xp.float64)
        clamped = xp.clip(p, self.lows, self.highs)
        return float(xp.linalg.norm(p - clamped))

    @staticmethod
    def mindist_many(
        lows: xp.ndarray, highs: xp.ndarray, point: Sequence[float]
    ) -> xp.ndarray:
        """MINDIST from ``point`` to many rectangles at once.

        ``lows``/``highs`` are stacked ``(m, d)`` bounds (one row per
        rectangle, e.g. :meth:`repro.rtree.node.Node.stacked_rects`);
        returns the ``(m,)`` distances — one numpy call per node instead
        of one :meth:`mindist` call per entry.
        """
        p = xp.asarray(point, dtype=xp.float64)
        clamped = xp.clip(p, lows, highs)
        return xp.linalg.norm(p - clamped, axis=1)

    @staticmethod
    def intersects_many(
        lows: xp.ndarray,
        highs: xp.ndarray,
        qlo: Sequence[float],
        qhi: Sequence[float],
    ) -> xp.ndarray:
        """Closed-rectangle intersection of many rectangles with one query.

        The plain (non-circular) counterpart of
        :func:`intersects_circular_many`; returns a boolean ``(m,)`` mask.
        """
        qlo = xp.asarray(qlo, dtype=xp.float64)
        qhi = xp.asarray(qhi, dtype=xp.float64)
        return xp.all(lows <= qhi, axis=1) & xp.all(qlo <= highs, axis=1)

    def minmaxdist(self, point: Sequence[float]) -> float:
        """MINMAXDIST of Roussopoulos et al. (1995).

        The smallest over dimensions k of the largest distance to the face
        nearest in dimension k; an upper bound on the distance to the
        closest object *guaranteed* to exist inside the MBR.
        """
        p = xp.asarray(point, dtype=xp.float64)
        # rm: nearer edge per dimension; rM: farther edge per dimension.
        mid = (self.lows + self.highs) / 2.0
        rm = xp.where(p <= mid, self.lows, self.highs)
        rM = xp.where(p >= mid, self.lows, self.highs)
        far_sq = (p - rM) ** 2
        near_sq = (p - rm) ** 2
        # For each k: swap the k-th farther-edge term for the nearer edge.
        # Summed per candidate (O(d^2), d is small) rather than as
        # ``total_far - far_sq + near_sq``: the subtraction cancels
        # catastrophically when one dimension's extent dwarfs the others,
        # which could push MINMAXDIST (an upper bound) below MINDIST.
        d = p.shape[0]
        candidates = xp.tile(far_sq, (d, 1))
        xp.fill_diagonal(candidates, near_sq)
        return float(math.sqrt(float(xp.min(candidates.sum(axis=1)))))

    def max_dist(self, point: Sequence[float]) -> float:
        """Largest possible distance from ``point`` to anywhere in the MBR."""
        p = xp.asarray(point, dtype=xp.float64)
        far = xp.maximum(xp.abs(p - self.lows), xp.abs(p - self.highs))
        return float(xp.linalg.norm(far))

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(
            xp.array_equal(self.lows, other.lows)
            and xp.array_equal(self.highs, other.highs)
        )

    def __hash__(self) -> int:
        return hash((self.lows.tobytes(), self.highs.tobytes()))

    def approx_equal(self, other: "Rect", tol: float = 1e-9) -> bool:
        """Equality up to ``tol`` per coordinate."""
        return bool(
            xp.allclose(self.lows, other.lows, atol=tol)
            and xp.allclose(self.highs, other.highs, atol=tol)
        )

    def __repr__(self) -> str:
        return f"Rect({self.lows.tolist()}, {self.highs.tolist()})"


def union_all(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding rectangle of a non-empty collection."""
    it = iter(rects)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("union_all() requires at least one rectangle") from None
    lows = first.lows.copy()
    highs = first.highs.copy()
    for r in it:
        xp.minimum(lows, r.lows, out=lows)
        xp.maximum(highs, r.highs, out=highs)
    return Rect(lows, highs)


def _interval_intersects_circular(
    lo_a: float, hi_a: float, lo_b: float, hi_b: float, period: float
) -> bool:
    """Wrap-aware 1-D interval intersection on a circle of ``period``.

    Intervals are given by a start point and an implicit width
    (``hi - lo``); one whose width is >= period covers the whole circle.
    Two intervals ``[a0, a0+wa]`` and ``[b0, b0+wb]`` on the circle
    intersect iff ``(b0 - a0) mod period <= wa`` or
    ``(a0 - b0) mod period <= wb``.  The reduction is applied to the
    *differences*, never endpoint by endpoint — folding an endpoint that
    sits a denormal below zero rounds it onto 0 and silently moves the
    interval — so this scalar reference and the vectorised closed forms
    (:func:`intersects_circular_many` and friends) evaluate literally the
    same IEEE operations and agree bit-for-bit.
    """
    wa = hi_a - lo_a
    wb = hi_b - lo_b
    if wa >= period or wb >= period:
        return True
    return (lo_b - lo_a) % period <= wa or (lo_a - lo_b) % period <= wb


def intersects_circular_many(
    lows: xp.ndarray,
    highs: xp.ndarray,
    qlo: xp.ndarray,
    qhi: xp.ndarray,
    circular_mask: Optional[xp.ndarray] = None,
    period: float = TWO_PI,
) -> xp.ndarray:
    """Vectorised rectangle-vs-query intersection with circular dimensions.

    Args:
        lows, highs: ``(m, d)`` per-rectangle bounds.
        qlo, qhi: ``(d,)`` query bounds.
        circular_mask: boolean ``(d,)`` mask of wrap-around dimensions.
        period: circumference of circular dimensions.

    Returns:
        boolean array of length ``m``: which rectangles meet the query.

    Two intervals ``[a0, a0+wa]`` and ``[b0, b0+wb]`` on a circle intersect
    iff ``(b0 - a0) mod period <= wa`` or ``(a0 - b0) mod period <= wb``
    (or either covers the whole circle); that closed form is what the
    vectorised path evaluates, and the scalar :func:`intersects_circular`
    cross-checks it in the property tests.
    """
    m = lows.shape[0]
    out = xp.ones(m, dtype=bool)
    if circular_mask is None:
        circular_mask = xp.zeros(lows.shape[1], dtype=bool)
    linear = ~circular_mask
    if xp.any(linear):
        out &= xp.all(lows[:, linear] <= qhi[linear], axis=1)
        out &= xp.all(qlo[linear] <= highs[:, linear], axis=1)
    for d in xp.nonzero(circular_mask)[0]:
        wa = highs[:, d] - lows[:, d]
        wb = qhi[d] - qlo[d]
        hit = _circular_offsets_hit(lows[:, d], qlo[d], wa, wb, period)
        out &= hit
    return out


def _circular_offsets_hit(a0, b0, wa, wb, period):
    """Closed-form circular interval intersection from raw start points.

    The offsets are reduced *as differences* — ``(b0 - a0) % period`` —
    never endpoint by endpoint: folding an endpoint that sits a denormal
    below zero rounds it onto 0 and silently widens the interval, which
    is the one place the closed form used to disagree with the scalar
    split-segment reference.  A difference that itself rounds to exactly
    ``period`` means "almost a full circle away", not "touching", and the
    opposite-direction disjunct covers the true near-touch case.
    """
    return (
        (wa >= period)
        | (wb >= period)
        | ((b0 - a0) % period <= wa)
        | ((a0 - b0) % period <= wb)
    )


def intersects_circular_pairwise(
    lows: xp.ndarray,
    highs: xp.ndarray,
    qlows: xp.ndarray,
    qhighs: xp.ndarray,
    circular_mask: Optional[xp.ndarray] = None,
    period: float = TWO_PI,
) -> xp.ndarray:
    """All-pairs rectangle intersection: many rectangles × many queries.

    The two-sided generalisation of :func:`intersects_circular_many`, used
    by the multi-query R-tree descent to test one node's entries against a
    whole batch of search rectangles in a single broadcast.

    Args:
        lows, highs: ``(f, d)`` per-rectangle bounds.
        qlows, qhighs: ``(m, d)`` per-query bounds.
        circular_mask: boolean ``(d,)`` mask of wrap-around dimensions.
        period: circumference of circular dimensions.

    Returns:
        boolean ``(f, m)`` matrix; entry ``[i, j]`` is ``True`` when
        rectangle ``i`` meets query ``j`` (closed, wrap-aware on circular
        dimensions).  Column ``j`` equals
        ``intersects_circular_many(lows, highs, qlows[j], qhighs[j], mask)``.
    """
    f, m = lows.shape[0], qlows.shape[0]
    out = xp.ones((f, m), dtype=bool)
    if circular_mask is None:
        circular_mask = xp.zeros(lows.shape[1], dtype=bool)
    linear = ~circular_mask
    if xp.any(linear):
        lo, hi = lows[:, linear], highs[:, linear]
        qlo, qhi = qlows[:, linear], qhighs[:, linear]
        out &= xp.all(lo[:, None, :] <= qhi[None, :, :], axis=2)
        out &= xp.all(qlo[None, :, :] <= hi[:, None, :], axis=2)
    for d in xp.nonzero(circular_mask)[0]:
        wa = (highs[:, d] - lows[:, d])[:, None]
        wb = (qhighs[:, d] - qlows[:, d])[None, :]
        a0 = lows[:, d][:, None]
        b0 = qlows[:, d][None, :]
        out &= _circular_offsets_hit(a0, b0, wa, wb, period)
    return out


def intersects_circular_rows(
    lows: xp.ndarray,
    highs: xp.ndarray,
    qlows: xp.ndarray,
    qhighs: xp.ndarray,
    circular_mask: Optional[xp.ndarray] = None,
    period: float = TWO_PI,
) -> xp.ndarray:
    """Row-aligned rectangle intersection: rectangle ``i`` vs query ``i``.

    The aligned counterpart of :func:`intersects_circular_many` (one query
    for all rows) and :func:`intersects_circular_pairwise` (all rows × all
    queries): here every row carries its *own* query rectangle.  This is
    the test the columnar frontier engine runs over a ``(node, query)``
    pair frontier, where gathered entries are already expanded against the
    query each pair descends with.

    Args:
        lows, highs: ``(m, d)`` per-rectangle bounds.
        qlows, qhighs: ``(m, d)`` per-row query bounds, or ``(d,)`` for
            one query shared by every row.
        circular_mask: boolean ``(d,)`` mask of wrap-around dimensions.
        period: circumference of circular dimensions.

    Returns:
        boolean array of length ``m``; row ``i`` equals
        ``intersects_circular(Rect(lows[i], highs[i]),
        Rect(qlows[i], qhighs[i]), mask)``.
    """
    if qlows.ndim == 1:
        return intersects_circular_many(
            lows, highs, qlows, qhighs, circular_mask, period
        )
    m = lows.shape[0]
    out = xp.ones(m, dtype=bool)
    if circular_mask is None:
        circular_mask = xp.zeros(lows.shape[1], dtype=bool)
    linear = ~circular_mask
    if xp.any(linear):
        out &= xp.all(lows[:, linear] <= qhighs[:, linear], axis=1)
        out &= xp.all(qlows[:, linear] <= highs[:, linear], axis=1)
    for d in xp.nonzero(circular_mask)[0]:
        wa = highs[:, d] - lows[:, d]
        wb = qhighs[:, d] - qlows[:, d]
        out &= _circular_offsets_hit(lows[:, d], qlows[:, d], wa, wb, period)
    return out


def intersects_circular(
    a: Rect,
    b: Rect,
    circular_mask: Optional[xp.ndarray] = None,
    period: float = TWO_PI,
) -> bool:
    """Rectangle intersection with selected dimensions treated circularly.

    Args:
        a, b: rectangles of the same dimensionality.
        circular_mask: boolean array; ``True`` marks a wrap-around dimension
            (e.g. a phase angle).  ``None`` means plain intersection.
        period: circumference of the circular dimensions.
    """
    if circular_mask is None or not xp.any(circular_mask):
        return a.intersects(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for i in range(a.dim):
        if circular_mask[i]:
            if not _interval_intersects_circular(
                float(a.lows[i]), float(a.highs[i]),
                float(b.lows[i]), float(b.highs[i]),
                period,
            ):
                return False
        else:
            if a.lows[i] > b.highs[i] or b.lows[i] > a.highs[i]:
                return False
    return True
