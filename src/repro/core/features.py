"""Feature spaces: mapping time series to indexable points (Section 3.1).

A time series becomes a point in a low-dimensional *feature space* built
from its first few DFT coefficients.  Complex coefficients need a real
representation, and the paper studies two:

* ``S_rect`` — each coefficient contributes its real and imaginary parts
  (safe for ``T = (a, b)`` with real ``a``, Theorem 2);
* ``S_pol`` — each coefficient contributes its magnitude and phase angle
  (safe for ``T = (a, 0)`` with complex ``a``, Theorem 3 — this is what the
  paper's experiments use, because moving average needs complex stretches).

Two concrete spaces are provided:

* :class:`PlainDFTSpace` — the [AFS93] k-index: coefficients ``0..k-1`` of
  the raw series; distances are distances between raw series.
* :class:`NormalFormSpace` — the paper's Section 5 layout: the series is
  first normalised (Eq. 9), the mean and standard deviation of the
  *original* series occupy index dimensions 0 and 1, and coefficients
  ``1..k`` of the normal form fill the rest (coefficient 0 of a normal
  form is always zero and is dropped).  Distances are distances between
  normal forms.

Every space knows how to

* extract index points (:meth:`FeatureSpace.extract`),
* build the minimum bounding search rectangle of an ``eps``-ball around a
  query point (:meth:`FeatureSpace.search_rect`) — Fig. 7's
  ``asin(eps/m)`` construction in the polar case,
* lower a safe :class:`~repro.core.transforms.Transformation` to the
  per-dimension real affine map of Theorems 2/3
  (:meth:`FeatureSpace.affine_map`), which is what Algorithm 1 applies to
  node MBRs, and
* compute *lower bounds* on the true distance from feature coordinates
  (:meth:`FeatureSpace.point_dist`, :meth:`FeatureSpace.rect_mindist`),
  which drive the multi-step k-NN search.

``exploit_symmetry=True`` additionally doubles the energy contribution of
retained coefficients ``0 < f < n/2`` (their conjugate mirror must match
too when the underlying series are real) — a strictly tighter filter noted
by [FRM94] but not used in the paper; it is benchmarked as an ablation.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Union

from repro.rtree.backend import xp

from repro.core.normal_form import mean_std, mean_std_many, normal_form, normal_form_many
from repro.core.transforms import SAFETY_TOL, Transformation
from repro.dft import dft, dft_many
from repro.rtree.geometry import Rect
from repro.rtree.transformed import AffineMap

ArrayLike = Union[Sequence[float], xp.ndarray]

#: Pseudo-infinite bound for unconstrained auxiliary dimensions.
AUX_RANGE = 1e18

TWO_PI = 2.0 * math.pi


class UnsafeTransformationError(ValueError):
    """Raised when a transformation is not safe for the given space.

    Applying an unsafe transformation to index MBRs would break
    Definition 1 (points inside a rectangle could map outside its image)
    and with it the no-false-dismissal guarantee of Lemma 1, so the
    library refuses instead of silently returning wrong answers.
    """


class FeatureSpace(ABC):
    """Common machinery for both coordinate systems and both layouts.

    Args:
        n: time-series length.
        k: number of retained DFT coefficients.
        coord: ``"rect"`` for ``S_rect`` or ``"polar"`` for ``S_pol``.
        exploit_symmetry: weight mirrored coefficients twice (see module
            docstring); off by default to match the paper.
    """

    #: index of the first coefficient dimension (after aux dims)
    aux_dims: int = 0

    def __init__(
        self, n: int, k: int, coord: str = "polar", exploit_symmetry: bool = False
    ) -> None:
        if coord not in ("rect", "polar"):
            raise ValueError(f"coord must be 'rect' or 'polar', got {coord!r}")
        if n < 2:
            raise ValueError(f"series length must be >= 2, got {n}")
        self.n = n
        self.coord = coord
        self.exploit_symmetry = exploit_symmetry
        self.freqs = self._retained_freqs(k)
        self.k = len(self.freqs)
        if self.k == 0:
            raise ValueError("at least one coefficient must be retained")
        if max(self.freqs) >= n:
            raise ValueError(
                f"retained frequency {max(self.freqs)} out of range for n={n}"
            )
        # Energy weight per retained coefficient (1, or 2 with symmetry).
        self.weights = xp.ones(self.k)
        if exploit_symmetry:
            for i, f in enumerate(self.freqs):
                if 0 < f < n / 2:
                    self.weights[i] = 2.0
        # Cache the wrap-around-dimension mask: it is immutable once the
        # layout is fixed, and views are built once per query.
        if self.coord == "polar":
            mask = xp.zeros(self.dim, dtype=bool)
            mask[self.aux_dims + 1 :: 2] = True
            self._circular_mask: Optional[xp.ndarray] = mask
        else:
            self._circular_mask = None

    # ------------------------------------------------------------------
    # subclass layout hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _retained_freqs(self, k: int) -> list[int]:
        """Frequencies of the retained coefficients."""

    @abstractmethod
    def series_spectrum(self, series: ArrayLike) -> xp.ndarray:
        """Full unitary spectrum the ground-truth distance is taken over."""

    @abstractmethod
    def aux_values(self, series: ArrayLike) -> xp.ndarray:
        """Values of the auxiliary dimensions for this series."""

    def series_spectrum_many(self, matrix: ArrayLike) -> xp.ndarray:
        """Row-wise :meth:`series_spectrum` of an ``(m, n)`` matrix.

        The base implementation loops over rows; both concrete spaces
        override it with a single-FFT-call pipeline.
        """
        rows = xp.asarray(matrix, dtype=xp.float64)
        if rows.shape[0] == 0:
            return xp.empty((0, self.n), dtype=xp.complex128)
        return xp.stack([self.series_spectrum(row) for row in rows])

    def aux_values_many(self, matrix: ArrayLike) -> xp.ndarray:
        """Row-wise :meth:`aux_values` as an ``(m, aux_dims)`` matrix."""
        rows = xp.asarray(matrix, dtype=xp.float64)
        if rows.shape[0] == 0:
            return xp.empty((0, self.aux_dims))
        return xp.stack([self.aux_values(row) for row in rows])

    # ------------------------------------------------------------------
    # derived layout
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Index dimensionality: aux dims plus two per coefficient."""
        return self.aux_dims + 2 * self.k

    @property
    def circular_mask(self) -> Optional[xp.ndarray]:
        """Boolean mask of wrap-around (phase angle) dimensions (cached)."""
        return self._circular_mask

    def coeff_slice(self, point: ArrayLike) -> xp.ndarray:
        """The coefficient-encoding part of an index point."""
        return xp.asarray(point, dtype=xp.float64)[self.aux_dims :]

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def extract(self, series: ArrayLike) -> xp.ndarray:
        """Map a series to its index point."""
        x = xp.asarray(series, dtype=xp.float64)
        if x.shape != (self.n,):
            raise ValueError(f"series must have length {self.n}, got {x.shape}")
        spec = self.series_spectrum(x)
        return xp.concatenate(
            [self.aux_values(x), self.encode_coefficients(spec[self.freqs])]
        )

    def extract_many(self, matrix: ArrayLike) -> xp.ndarray:
        """Vectorised :meth:`extract` over the rows of ``matrix``.

        One numpy pipeline for the whole relation: batched spectra, batched
        aux values, batched coefficient encoding.  An empty ``(0, n)``
        matrix yields ``(0, dim)``.
        """
        return self.extract_many_with_spectra(matrix)[0]

    def extract_many_with_spectra(
        self, matrix: ArrayLike
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Both the index points and the full ground spectra of a relation.

        One shared batched pipeline — the engine needs both at build time,
        and the spectra computation (normal form + FFT) dominates, so
        computing it once roughly halves index-construction cost.
        """
        rows = xp.asarray(matrix, dtype=xp.float64)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise ValueError(f"matrix must be (m, {self.n}), got {rows.shape}")
        spec = self.series_spectrum_many(rows)
        points = xp.concatenate(
            [
                self.aux_values_many(rows),
                self.encode_coefficients_many(spec[:, self.freqs]),
            ],
            axis=1,
        )
        return points, spec

    def encode_coefficients(self, coeffs: ArrayLike) -> xp.ndarray:
        """Encode complex coefficients as index coordinates (pairs)."""
        c = xp.asarray(coeffs, dtype=xp.complex128)
        out = xp.empty(2 * c.shape[0])
        if self.coord == "rect":
            out[0::2] = c.real
            out[1::2] = c.imag
        else:
            out[0::2] = xp.abs(c)
            out[1::2] = xp.angle(c)
        return out

    def encode_coefficients_many(self, coeffs: ArrayLike) -> xp.ndarray:
        """Row-wise :meth:`encode_coefficients` of an ``(m, k)`` matrix."""
        c = xp.asarray(coeffs, dtype=xp.complex128)
        out = xp.empty((c.shape[0], 2 * c.shape[1]))
        if self.coord == "rect":
            out[:, 0::2] = c.real
            out[:, 1::2] = c.imag
        else:
            out[:, 0::2] = xp.abs(c)
            out[:, 1::2] = xp.angle(c)
        return out

    def decode_coefficients(self, encoded: ArrayLike) -> xp.ndarray:
        """Inverse of :meth:`encode_coefficients`."""
        e = xp.asarray(encoded, dtype=xp.float64)
        if self.coord == "rect":
            return e[0::2] + 1j * e[1::2]
        return e[0::2] * xp.exp(1j * e[1::2])

    def point_from_spectrum(
        self, spectrum: ArrayLike, aux: Optional[ArrayLike] = None
    ) -> xp.ndarray:
        """Index point from a full spectrum plus optional aux values."""
        spec = xp.asarray(spectrum, dtype=xp.complex128)
        aux_arr = (
            xp.zeros(self.aux_dims)
            if aux is None
            else xp.asarray(aux, dtype=xp.float64)
        )
        if aux_arr.shape != (self.aux_dims,):
            raise ValueError(f"aux must have length {self.aux_dims}")
        return xp.concatenate([aux_arr, self.encode_coefficients(spec[self.freqs])])

    # ------------------------------------------------------------------
    # search rectangles (Algorithm 2 preprocessing; Fig. 7)
    # ------------------------------------------------------------------
    def search_rect(
        self,
        point: ArrayLike,
        eps: float,
        aux_bounds: Optional[Sequence[tuple[float, float]]] = None,
    ) -> Rect:
        """Minimum bounding rectangle of the ``eps``-ball around ``point``.

        Auxiliary dimensions are unconstrained (full range) unless explicit
        ``aux_bounds`` intervals are given — the ground distance is over
        normal forms / raw spectra, so mean and std never shrink the ball;
        bounds on them express [GK95]-style shift/scale restrictions.
        """
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        p = xp.asarray(point, dtype=xp.float64)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have dim {self.dim}, got {p.shape}")
        lows = xp.empty(self.dim)
        highs = xp.empty(self.dim)
        if aux_bounds is None:
            lows[: self.aux_dims] = -AUX_RANGE
            highs[: self.aux_dims] = AUX_RANGE
        else:
            if len(aux_bounds) != self.aux_dims:
                raise ValueError(
                    f"need {self.aux_dims} aux bounds, got {len(aux_bounds)}"
                )
            for i, (lo, hi) in enumerate(aux_bounds):
                lows[i], highs[i] = lo, hi
        for i in range(self.k):
            e = eps / math.sqrt(self.weights[i])
            base = self.aux_dims + 2 * i
            if self.coord == "rect":
                lows[base] = p[base] - e
                highs[base] = p[base] + e
                lows[base + 1] = p[base + 1] - e
                highs[base + 1] = p[base + 1] + e
            else:
                m, alpha = p[base], p[base + 1]
                lows[base] = max(0.0, m - e)
                highs[base] = m + e
                if m > e:
                    half = math.asin(e / m)
                    lows[base + 1] = alpha - half
                    highs[base + 1] = alpha + half
                else:
                    lows[base + 1] = -math.pi
                    highs[base + 1] = math.pi
        return Rect(lows, highs)

    def search_rect_many(
        self,
        points: xp.ndarray,
        eps: float,
        aux_bounds: Optional[Sequence[tuple[float, float]]] = None,
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Vectorised :meth:`search_rect` over ``(m, dim)`` query points.

        One numpy pipeline builds every query's minimum bounding search
        rectangle (Fig. 7's ``asin(eps/m)`` construction in the polar
        case) — the preprocessing step of the fused batch probes and the
        kernel index join.  Rows agree exactly with per-point
        :meth:`search_rect` calls.

        Returns:
            stacked ``(m, dim)`` lows/highs arrays.
        """
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        p = xp.asarray(points, dtype=xp.float64)
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise ValueError(f"points must be (m, {self.dim}), got {p.shape}")
        m = p.shape[0]
        lows = xp.empty((m, self.dim))
        highs = xp.empty((m, self.dim))
        if aux_bounds is None:
            lows[:, : self.aux_dims] = -AUX_RANGE
            highs[:, : self.aux_dims] = AUX_RANGE
        else:
            if len(aux_bounds) != self.aux_dims:
                raise ValueError(
                    f"need {self.aux_dims} aux bounds, got {len(aux_bounds)}"
                )
            for i, (lo, hi) in enumerate(aux_bounds):
                lows[:, i], highs[:, i] = lo, hi
        # All k coefficients at once: columns aux+0, aux+2, ... hold the
        # real parts / magnitudes, the odd ones the imaginary parts / angles.
        e = eps / xp.sqrt(self.weights)
        first = slice(self.aux_dims, None, 2)
        second = slice(self.aux_dims + 1, None, 2)
        if self.coord == "rect":
            lows[:, first] = p[:, first] - e
            highs[:, first] = p[:, first] + e
            lows[:, second] = p[:, second] - e
            highs[:, second] = p[:, second] + e
        else:
            mag = p[:, first]
            alpha = p[:, second]
            lows[:, first] = xp.maximum(0.0, mag - e)
            highs[:, first] = mag + e
            # Fig. 7: the angular half-width is asin(eps/m) when the
            # magnitude box stays away from the origin; otherwise the
            # whole circle is admissible (eps/inf = 0 keeps asin in range).
            safe = mag > e
            half = xp.arcsin(e / xp.where(safe, mag, xp.inf))
            lows[:, second] = xp.where(safe, alpha - half, -math.pi)
            highs[:, second] = xp.where(safe, alpha + half, math.pi)
        return lows, highs

    def expand_rect(self, rect: Rect, eps: float) -> Rect:
        """Superset expansion of a rectangle by the join radius ``eps``.

        For any point ``x`` inside ``rect``, every point within true
        distance ``eps`` of ``x`` lies inside the expansion.  Used by the
        tree-matching spatial join.
        """
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        lows = rect.lows.copy()
        highs = rect.highs.copy()
        lows[: self.aux_dims] = -AUX_RANGE
        highs[: self.aux_dims] = AUX_RANGE
        for i in range(self.k):
            e = eps / math.sqrt(self.weights[i])
            base = self.aux_dims + 2 * i
            if self.coord == "rect":
                lows[base] -= e
                highs[base] += e
                lows[base + 1] -= e
                highs[base + 1] += e
            else:
                m_lo = lows[base]
                lows[base] = max(0.0, m_lo - e)
                highs[base] += e
                if m_lo > e:
                    half = math.asin(e / m_lo)
                    lows[base + 1] -= half
                    highs[base + 1] += half
                else:
                    lows[base + 1] = -math.pi
                    highs[base + 1] = math.pi
        return Rect(lows, highs)

    def expand_rect_many(
        self, lows: xp.ndarray, highs: xp.ndarray, eps: float
    ) -> tuple[xp.ndarray, xp.ndarray]:
        """Vectorised :meth:`expand_rect` over stacked ``(m, dim)`` boxes.

        One numpy pipeline grows every rectangle by the join radius — the
        preprocessing step of the kernel-backed tree-matching join, where
        the whole outer leaf relation expands at once instead of one
        ``Rect`` at a time.  Rows agree with per-rect :meth:`expand_rect`
        calls (to floating-point ulp on the polar ``asin`` construction;
        either way the expansion is a superset test, so candidate
        verification yields identical final answers).

        Returns:
            stacked ``(m, dim)`` expanded lows/highs arrays.
        """
        if eps < 0:
            raise ValueError(f"eps must be non-negative, got {eps}")
        lo = xp.array(lows, dtype=xp.float64, copy=True)
        hi = xp.array(highs, dtype=xp.float64, copy=True)
        if lo.ndim != 2 or lo.shape != hi.shape or lo.shape[1] != self.dim:
            raise ValueError(
                f"lows/highs must be matching (m, {self.dim}), got "
                f"{lo.shape} vs {hi.shape}"
            )
        lo[:, : self.aux_dims] = -AUX_RANGE
        hi[:, : self.aux_dims] = AUX_RANGE
        for i in range(self.k):
            e = eps / math.sqrt(self.weights[i])
            base = self.aux_dims + 2 * i
            if self.coord == "rect":
                lo[:, base] -= e
                hi[:, base] += e
                lo[:, base + 1] -= e
                hi[:, base + 1] += e
            else:
                m_lo = lo[:, base].copy()
                lo[:, base] = xp.maximum(0.0, m_lo - e)
                hi[:, base] += e
                safe = m_lo > e
                ratio = xp.minimum(xp.divide(e, xp.where(safe, m_lo, 1.0)), 1.0)
                half = xp.where(safe, xp.arcsin(ratio), 0.0)
                lo[:, base + 1] = xp.where(safe, lo[:, base + 1] - half, -math.pi)
                hi[:, base + 1] = xp.where(safe, hi[:, base + 1] + half, math.pi)
        return lo, hi

    # ------------------------------------------------------------------
    # Theorems 2/3: lowering transformations to index-space affine maps
    # ------------------------------------------------------------------
    def affine_map(self, t: Transformation) -> AffineMap:
        """Per-dimension real affine map realising ``t`` on this space.

        Raises:
            UnsafeTransformationError: when ``t`` violates the space's
                safety theorem (complex stretch in ``S_rect``; nonzero
                translation in ``S_pol``).
        """
        if t.n != self.n:
            raise ValueError(f"transformation length {t.n} != space length {self.n}")
        scale = xp.ones(self.dim)
        offset = xp.zeros(self.dim)
        self._aux_affine(t, scale, offset)
        if self.coord == "rect":
            if not t.is_safe_rect():
                raise UnsafeTransformationError(
                    f"{t.name}: complex stretch vector is unsafe in S_rect "
                    "(Theorem 2 requires real a; see the paper's rotation "
                    "counterexample)"
                )
            for i, f in enumerate(self.freqs):
                base = self.aux_dims + 2 * i
                scale[base] = scale[base + 1] = t.a[f].real
                offset[base] = t.b[f].real
                offset[base + 1] = t.b[f].imag
        else:
            if not t.is_safe_polar():
                raise UnsafeTransformationError(
                    f"{t.name}: nonzero translation vector is unsafe in S_pol "
                    "(Theorem 3 requires b = 0)"
                )
            for i, f in enumerate(self.freqs):
                base = self.aux_dims + 2 * i
                mag = abs(t.a[f])
                scale[base] = mag
                if mag <= SAFETY_TOL:
                    # The coefficient collapses to 0; its phase carries no
                    # information, so pin the angle dimension to 0 as well.
                    scale[base + 1] = 0.0
                    offset[base + 1] = 0.0
                else:
                    offset[base + 1] = math.atan2(t.a[f].imag, t.a[f].real)
        return AffineMap(scale, offset)

    def _aux_affine(
        self, t: Transformation, scale: xp.ndarray, offset: xp.ndarray
    ) -> None:
        """Fill the aux-dimension part of the affine map (default: none)."""

    # ------------------------------------------------------------------
    # distance lower bounds (Lemma 1 / multi-step k-NN machinery)
    # ------------------------------------------------------------------
    def point_dist(self, p: ArrayLike, q: ArrayLike) -> float:
        """Lower bound on the true distance from two index points.

        By Parseval, the sum of retained-coefficient energies never exceeds
        the full-spectrum energy, so this is the k-index bound of Lemma 1
        expressed in the space's coordinates.
        """
        a = xp.asarray(p, dtype=xp.float64)[self.aux_dims :]
        b = xp.asarray(q, dtype=xp.float64)[self.aux_dims :]
        if self.coord == "rect":
            d2 = (a[0::2] - b[0::2]) ** 2 + (a[1::2] - b[1::2]) ** 2
        else:
            # Law of cosines: |m1 e^{j t1} - m2 e^{j t2}|^2.
            d2 = (
                a[0::2] ** 2
                + b[0::2] ** 2
                - 2.0 * a[0::2] * b[0::2] * xp.cos(a[1::2] - b[1::2])
            )
            d2 = xp.maximum(d2, 0.0)
        return float(math.sqrt(float(xp.sum(self.weights * d2))))

    def point_dist_many(self, points: xp.ndarray, q: ArrayLike) -> xp.ndarray:
        """Row-wise :meth:`point_dist` of an ``(m, dim)`` matrix of points.

        One law-of-cosines (or squared-difference) evaluation over the whole
        matrix; agrees with the scalar path to float tolerance.
        """
        pts = xp.asarray(points, dtype=xp.float64)[:, self.aux_dims :]
        b = xp.asarray(q, dtype=xp.float64)[self.aux_dims :]
        if self.coord == "rect":
            d2 = (pts[:, 0::2] - b[0::2]) ** 2 + (pts[:, 1::2] - b[1::2]) ** 2
        else:
            d2 = (
                pts[:, 0::2] ** 2
                + b[0::2] ** 2
                - 2.0 * pts[:, 0::2] * b[0::2] * xp.cos(pts[:, 1::2] - b[1::2])
            )
            d2 = xp.maximum(d2, 0.0)
        return xp.sqrt(d2 @ self.weights)

    def rect_mindist(self, rect: Rect, q: ArrayLike) -> float:
        """Lower bound on :meth:`point_dist` over every point in ``rect``.

        In ``S_rect`` this is plain MINDIST on the coefficient dimensions.
        In ``S_pol`` it minimises the per-coefficient law-of-cosines
        distance over the (magnitude, angle) box, handling angle wrap.
        Auxiliary dimensions contribute nothing (they are not part of the
        ground distance).
        """
        point = xp.asarray(q, dtype=xp.float64)
        total = 0.0
        for i in range(self.k):
            base = self.aux_dims + 2 * i
            if self.coord == "rect":
                for d in (base, base + 1):
                    v = point[d]
                    if v < rect.lows[d]:
                        total += self.weights[i] * (rect.lows[d] - v) ** 2
                    elif v > rect.highs[d]:
                        total += self.weights[i] * (v - rect.highs[d]) ** 2
            else:
                total += self.weights[i] * self._polar_box_dist2(
                    point[base],
                    point[base + 1],
                    rect.lows[base],
                    rect.highs[base],
                    rect.lows[base + 1],
                    rect.highs[base + 1],
                )
        return float(math.sqrt(total))

    def rect_mindist_many(
        self, lows: xp.ndarray, highs: xp.ndarray, q: ArrayLike
    ) -> xp.ndarray:
        """Row-wise :meth:`rect_mindist` over stacked ``(m, dim)`` bounds.

        This is the per-node lower bound the k-NN traversal evaluates for a
        whole node's child MBRs in one numpy call.
        """
        point = xp.asarray(q, dtype=xp.float64)
        lo = xp.asarray(lows, dtype=xp.float64)[:, self.aux_dims :]
        hi = xp.asarray(highs, dtype=xp.float64)[:, self.aux_dims :]
        if self.coord == "rect":
            v = point[self.aux_dims :]
            gap = xp.maximum(lo - v, 0.0) + xp.maximum(v - hi, 0.0)
            d2 = gap[:, 0::2] ** 2 + gap[:, 1::2] ** 2
        else:
            d2 = self._polar_box_dist2_many(
                point[self.aux_dims + 0 :: 2],
                point[self.aux_dims + 1 :: 2],
                lo[:, 0::2],
                hi[:, 0::2],
                lo[:, 1::2],
                hi[:, 1::2],
            )
        return xp.sqrt(d2 @ self.weights)

    def point_dist_rows(self, points: xp.ndarray, qs: xp.ndarray) -> xp.ndarray:
        """Row-aligned :meth:`point_dist`: point ``i`` against query ``i``.

        Unlike :meth:`point_dist_many` (one query for every row), each row
        carries its own query point — the shape the fused batched k-NN
        frontier scores, where gathered leaf entries are already expanded
        against the query that reached them.
        """
        pts = xp.asarray(points, dtype=xp.float64)[:, self.aux_dims :]
        qb = xp.asarray(qs, dtype=xp.float64)[:, self.aux_dims :]
        if self.coord == "rect":
            d2 = (pts[:, 0::2] - qb[:, 0::2]) ** 2 + (pts[:, 1::2] - qb[:, 1::2]) ** 2
        else:
            d2 = (
                pts[:, 0::2] ** 2
                + qb[:, 0::2] ** 2
                - 2.0 * pts[:, 0::2] * qb[:, 0::2] * xp.cos(pts[:, 1::2] - qb[:, 1::2])
            )
            d2 = xp.maximum(d2, 0.0)
        return xp.sqrt(d2 @ self.weights)

    def rect_mindist_rows(
        self, lows: xp.ndarray, highs: xp.ndarray, qs: xp.ndarray
    ) -> xp.ndarray:
        """Row-aligned :meth:`rect_mindist`: rectangle ``i`` vs query ``i``.

        The internal-node counterpart of :meth:`point_dist_rows`; the
        polar helper broadcasts unchanged because the box bounds and the
        per-row query magnitudes/angles share the ``(m, k)`` shape.
        """
        q = xp.asarray(qs, dtype=xp.float64)[:, self.aux_dims :]
        lo = xp.asarray(lows, dtype=xp.float64)[:, self.aux_dims :]
        hi = xp.asarray(highs, dtype=xp.float64)[:, self.aux_dims :]
        if self.coord == "rect":
            gap = xp.maximum(lo - q, 0.0) + xp.maximum(q - hi, 0.0)
            d2 = gap[:, 0::2] ** 2 + gap[:, 1::2] ** 2
        else:
            d2 = self._polar_box_dist2_many(
                q[:, 0::2], q[:, 1::2],
                lo[:, 0::2], hi[:, 0::2],
                lo[:, 1::2], hi[:, 1::2],
            )
        return xp.sqrt(d2 @ self.weights)

    @staticmethod
    def _polar_box_dist2(
        mq: float, tq: float, m_lo: float, m_hi: float, t_lo: float, t_hi: float
    ) -> float:
        """Min of ``|m e^{jt} - mq e^{jtq}|^2`` over the box, wrap-aware."""
        if t_hi - t_lo >= TWO_PI:
            dtheta = 0.0
        else:
            # Smallest circular distance from tq to the interval [t_lo, t_hi].
            width = t_hi - t_lo
            rel = (tq - t_lo) % TWO_PI
            if rel <= width:
                dtheta = 0.0
            else:
                gap = rel - width  # distance past the high end, going up
                dtheta = min(gap, TWO_PI - rel)
        cos_d = math.cos(dtheta)
        if cos_d > 0:
            m_star = min(max(mq * cos_d, m_lo), m_hi)
        else:
            m_star = m_lo
        d2 = mq * mq + m_star * m_star - 2.0 * m_star * mq * cos_d
        return max(d2, 0.0)

    @staticmethod
    def _polar_box_dist2_many(
        mq: xp.ndarray,
        tq: xp.ndarray,
        m_lo: xp.ndarray,
        m_hi: xp.ndarray,
        t_lo: xp.ndarray,
        t_hi: xp.ndarray,
    ) -> xp.ndarray:
        """Vectorised :meth:`_polar_box_dist2` over ``(m, k)`` boxes.

        ``mq``/``tq`` are the query's ``(k,)`` magnitudes and angles; the
        box bounds are ``(m, k)`` arrays (one row per rectangle).
        """
        width = t_hi - t_lo
        rel = (tq - t_lo) % TWO_PI
        gap = rel - width
        dtheta = xp.where(
            (width >= TWO_PI) | (rel <= width),
            0.0,
            xp.minimum(gap, TWO_PI - rel),
        )
        cos_d = xp.cos(dtheta)
        m_star = xp.where(cos_d > 0, xp.clip(mq * cos_d, m_lo, m_hi), m_lo)
        d2 = mq * mq + m_star * m_star - 2.0 * m_star * mq * cos_d
        return xp.maximum(d2, 0.0)

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------
    def ground_distance(
        self,
        spec_x: xp.ndarray,
        spec_q: xp.ndarray,
        t: Optional[Transformation] = None,
    ) -> float:
        """Exact distance ``D(T(X), Q)`` over full spectra (Eq. 12)."""
        tx = spec_x if t is None else t.apply_spectrum(spec_x)
        return float(xp.linalg.norm(tx - spec_q))

    def ground_distance_within(
        self,
        spec_x: xp.ndarray,
        spec_q: xp.ndarray,
        eps: float,
        t: Optional[Transformation] = None,
    ) -> Optional[float]:
        """Like :meth:`ground_distance` but abandoned once above ``eps``.

        Post-processing (Algorithm 2 step 3) uses this so that verifying a
        candidate costs the same as the tuned sequential scan's per-record
        check — the fair footing behind the Figure 12 crossover.
        """
        from repro.core.similarity import euclidean_early_abandon

        tx = spec_x if t is None else t.apply_spectrum(spec_x)
        return euclidean_early_abandon(tx, spec_q, eps, block=4)

    def ground_distances_within_many(
        self,
        spectra: xp.ndarray,
        spec_q: xp.ndarray,
        eps: float,
        t: Optional[Transformation] = None,
    ) -> tuple[xp.ndarray, xp.ndarray, int]:
        """Batched :meth:`ground_distance_within` over ``(m, n)`` spectra.

        The transformation is applied to the whole candidate matrix at once
        and rows are verified block-by-block with matrix-level early
        abandoning (see :func:`repro.core.similarity.batch_euclidean_within`).

        Returns:
            ``(surviving row indices, their exact distances, abandoned count)``.
        """
        from repro.core.similarity import batch_euclidean_within

        tx = spectra if t is None else t.apply_spectrum(spectra)
        return batch_euclidean_within(tx, spec_q, eps, block=4)


class PlainDFTSpace(FeatureSpace):
    """The [AFS93] k-index layout: coefficients ``0..k-1`` of the raw series.

    Ground distance = Euclidean distance between raw series (equivalently
    their full spectra, by Parseval).
    """

    aux_dims = 0

    def _retained_freqs(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return list(range(k))

    def series_spectrum(self, series: ArrayLike) -> xp.ndarray:
        return dft(xp.asarray(series, dtype=xp.float64))

    def series_spectrum_many(self, matrix: ArrayLike) -> xp.ndarray:
        rows = xp.asarray(matrix, dtype=xp.float64)
        if rows.shape[0] == 0:
            return xp.empty((0, self.n), dtype=xp.complex128)
        return dft_many(rows)

    def aux_values(self, series: ArrayLike) -> xp.ndarray:
        return xp.empty(0)

    def aux_values_many(self, matrix: ArrayLike) -> xp.ndarray:
        return xp.empty((xp.asarray(matrix).shape[0], 0))


class NormalFormSpace(FeatureSpace):
    """The paper's Section 5 layout over normal-form series.

    Dimensions 0 and 1 hold the mean and standard deviation of the original
    series; coefficient ``f = i`` of the *normal form* fills dimensions
    ``2 + 2(i-1)`` and ``3 + 2(i-1)`` for ``i = 1..k`` (coefficient 0 of a
    normal form is identically zero and is dropped, exactly as the paper
    describes).  With ``k = 2`` and polar coordinates this is precisely the
    six-dimensional index of the experiments.

    Ground distance = Euclidean distance between *normal forms*.
    """

    aux_dims = 2

    def _retained_freqs(self, k: int) -> list[int]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return list(range(1, k + 1))

    def series_spectrum(self, series: ArrayLike) -> xp.ndarray:
        return dft(normal_form(xp.asarray(series, dtype=xp.float64)))

    def series_spectrum_many(self, matrix: ArrayLike) -> xp.ndarray:
        rows = xp.asarray(matrix, dtype=xp.float64)
        if rows.shape[0] == 0:
            return xp.empty((0, self.n), dtype=xp.complex128)
        return dft_many(normal_form_many(rows))

    def aux_values(self, series: ArrayLike) -> xp.ndarray:
        return xp.asarray(mean_std(series), dtype=xp.float64)

    def aux_values_many(self, matrix: ArrayLike) -> xp.ndarray:
        return mean_std_many(matrix)

    def _aux_affine(
        self, t: Transformation, scale: xp.ndarray, offset: xp.ndarray
    ) -> None:
        scale[0], offset[0] = t.mean_map
        scale[1], offset[1] = t.std_map
