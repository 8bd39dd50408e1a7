"""Directed tests for phase-angle wrap-around at the ±pi seam.

The polar feature space stores phase angles in [-pi, pi].  A query whose
Fig.-7 angle window crosses the seam (e.g. centre 3.1, half-width 0.2)
must still find data whose stored angle sits on the other side (-3.1).
The paper's construction silently assumes no wrap; the reproduction
handles it via circular interval intersection, and these tests pin that
behaviour with hand-built spectra rather than random sweeps.
"""

import numpy as np
import pytest

from repro.core.engine import SimilarityEngine
from repro.core.features import PlainDFTSpace
from repro.core.transforms import Transformation
from repro.data import SequenceRelation
from repro.dft import idft

N = 32


def series_with_phase(phase: float, magnitude: float = 3.0, f: int = 1) -> np.ndarray:
    """A real series whose coefficient ``f`` has the given phase/magnitude."""
    spec = np.zeros(N, dtype=np.complex128)
    spec[0] = 10.0 * np.sqrt(N)  # positive level, irrelevant to the test
    spec[f] = magnitude * np.exp(1j * phase)
    spec[N - f] = np.conj(spec[f])  # keep the series real
    x = idft(spec)
    assert np.allclose(x.imag, 0.0, atol=1e-9)
    return x.real


@pytest.fixture(scope="module")
def seam_engine():
    rel = SequenceRelation(N)
    # Data on both sides of the seam plus controls far from it.
    for phase in [np.pi - 0.05, -np.pi + 0.05, np.pi - 0.3, -np.pi + 0.3, 0.0, 1.5]:
        rel.add(series_with_phase(phase), name=f"p{phase:+.2f}")
    space = PlainDFTSpace(N, 2, coord="polar")
    return rel, SimilarityEngine(rel, space=space)


class TestSeamQueries:
    def test_query_near_pi_finds_neighbour_across_seam(self, seam_engine):
        rel, engine = seam_engine
        q = series_with_phase(np.pi - 0.05)
        # True distance between phase pi-0.05 and -pi+0.05 coefficients:
        # |3e^{j(pi-.05)} - 3e^{-j(pi-.05)}| = 2*3*sin(0.05) ~ 0.3.
        got = {r for r, _ in engine.range_query(q, 0.5)}
        assert rel.id_of("p+3.09") in got
        assert rel.id_of("p-3.09") in got  # the cross-seam neighbour
        assert rel.id_of("p+0.00") not in got

    def test_cross_seam_distance_is_exact(self, seam_engine):
        rel, engine = seam_engine
        q = series_with_phase(np.pi - 0.05)
        matches = dict(engine.range_query(q, 0.5))
        d = matches[rel.id_of("p-3.09")]
        per_coeff = abs(
            3.0 * np.exp(1j * (np.pi - 0.05)) - 3.0 * np.exp(1j * (-np.pi + 0.05))
        )
        # Coefficient f=1 and its conjugate mirror f=N-1 both differ, so the
        # full-spectrum distance carries the per-coefficient gap twice.
        assert d == pytest.approx(np.sqrt(2) * per_coeff, abs=1e-9)

    def test_rotation_through_seam_no_false_dismissal(self, seam_engine):
        """A transformation that rotates phases pushes stored angles out of
        [-pi, pi]; matches must survive the wrap."""
        rel, engine = seam_engine
        # Rotate every coefficient by +0.2 rad: a = e^{j0.2} (safe in polar).
        a = np.full(N, np.exp(1j * 0.2))
        a[0] = 1.0  # keep the DC term real so the level stays put
        t = Transformation(a, np.zeros(N), name="rot0.2")
        # Query = rotated version of the near-seam series.
        base = series_with_phase(np.pi - 0.05)
        q_spec = t.apply_spectrum(engine.query_spectrum(base))
        q_point = engine.space.point_from_spectrum(q_spec)
        from repro.core import ops

        # The production probe → verify chain, fed the wrapped query point.
        probe = ops.IndexProbe(q_point[None, :], 0.5, transformation=t)
        verify = ops.Verify(probe, q_spec[None, :], 0.5, transformation=t)
        got = verify.execute(ops.ExecContext(engine))[0]
        ids = {r for r, _ in got}
        assert rel.id_of("p+3.09") in ids  # itself, rotated through the seam
        assert rel.id_of("p-3.09") in ids

    def test_knn_across_seam(self, seam_engine):
        rel, engine = seam_engine
        q = series_with_phase(np.pi - 0.05)
        got = engine.knn_query(q, 2)
        ids = [r for r, _ in got]
        assert rel.id_of("p+3.09") in ids
        assert rel.id_of("p-3.09") in ids

    def test_polar_box_dist_wraps(self):
        """The k-NN rectangle metric must treat the seam circularly."""
        space = PlainDFTSpace(N, 1, coord="polar")
        from repro.rtree.geometry import Rect

        # Box at angle ~ -pi, query at angle ~ +pi, same magnitude.
        rect = Rect([3.0, -np.pi + 0.02], [3.0, -np.pi + 0.04])
        qpoint = np.array([3.0, np.pi - 0.02])
        d = space.rect_mindist(rect, qpoint)
        # Smallest angular gap is 0.04 rad -> distance ~ 2*3*sin(0.02).
        want = 2 * 3.0 * np.sin(0.04 / 2)
        assert d == pytest.approx(want, abs=1e-6)
