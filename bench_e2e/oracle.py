"""Brute-force oracle, written from the paper's definitions in the time domain.

Shares no code with ``src/repro``: normal form (Eq. 9), the circular
20-day moving average (Section 3.2), Euclidean distance; sliding-window
distance for ``SUBSEQ``; a nested loop for ``JOIN``.  The query language
applies ``USING`` symmetrically, so the whole-sequence predicate checked
here is ``|| T(nf(x)) - T(nf(q)) || <= eps``.

Answers are compared as id sets with distances to :data:`TOL`; an id
whose oracle distance lies within :data:`TOL` of ``eps`` (or of the
k-th distance) may be in or out of the answer.
"""

from __future__ import annotations

import numpy as np

#: absolute tolerance on distances, and the half-width of the tie band.
TOL = 1e-6
#: the moving-average window every ``USING mavg(20)`` statement names.
MAVG_WINDOW = 20


def normal_form(matrix: np.ndarray) -> np.ndarray:
    """Row-wise ``(x - mean) / std`` (population std); constant rows -> 0."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    mean = rows.mean(axis=1, keepdims=True)
    std = rows.std(axis=1, keepdims=True)
    out = (rows - mean) / np.where(std > 0, std, 1.0)
    out[std[:, 0] == 0] = 0.0
    return out


def moving_average(matrix: np.ndarray, window: int = MAVG_WINDOW) -> np.ndarray:
    """Circular moving average: ``y_t = mean(x_{t-window+1..t})``, wrapping."""
    rows = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    acc = np.zeros_like(rows)
    for j in range(window):
        acc += np.roll(rows, j, axis=1)
    return acc / window


class WholeOracle:
    """Distances from a query to every row of one relation."""

    def __init__(self, relation: np.ndarray) -> None:
        self._normal = normal_form(relation)
        self._smoothed: np.ndarray | None = None

    def _side(self, using: bool) -> np.ndarray:
        if not using:
            return self._normal
        if self._smoothed is None:
            self._smoothed = moving_average(self._normal)
        return self._smoothed

    def distances(self, query: np.ndarray, using: bool) -> np.ndarray:
        q = normal_form(query)
        if using:
            q = moving_average(q)
        diff = self._side(using) - q[0]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def pair_distances(self, using: bool) -> np.ndarray:
        """All-pairs distance matrix by nested loop (outer loop in Python)."""
        side = self._side(using)
        m = side.shape[0]
        out = np.zeros((m, m))
        for i in range(m):
            diff = side - side[i]
            out[i] = np.sqrt(np.sum(diff * diff, axis=1))
        return out


def window_distances(series: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``(n_series, n_offsets)`` raw Euclidean distance of every window."""
    q = np.asarray(query, dtype=np.float64)
    length = q.shape[0]
    out = np.empty((series.shape[0], series.shape[1] - length + 1))
    for sid in range(series.shape[0]):
        windows = np.lib.stride_tricks.sliding_window_view(series[sid], length)
        diff = windows - q
        out[sid] = np.sqrt(np.sum(diff * diff, axis=1))
    return out


# ----------------------------------------------------------------------
# answer checks: each returns a list of human-readable problems (empty = ok)
# ----------------------------------------------------------------------
def _check_distances(answer: dict, dists: dict) -> list[str]:
    return [
        f"{key}: reported distance {d!r}, oracle {dists[key]!r}"
        for key, d in answer.items()
        if key in dists and abs(d - dists[key]) > TOL
    ]


def check_threshold(answer: dict, dists: dict, eps: float) -> list[str]:
    """Range-style check: ``answer`` and ``dists`` map key -> distance.

    ``dists`` must hold every key whose oracle distance is ``<= eps + TOL``
    (it may hold more).  Keys inside the band ``|d - eps| <= TOL`` are
    optional; everything else must agree exactly.
    """
    problems = _check_distances(answer, dists)
    must = {key for key, d in dists.items() if d < eps - TOL}
    may = {key for key, d in dists.items() if d <= eps + TOL}
    got = set(answer)
    if got - may:
        problems.append(f"false positives: {sorted(got - may)[:5]}")
    if must - got:
        problems.append(f"false dismissals: {sorted(must - got)[:5]}")
    return problems


def check_nearest(answer: dict, dists: dict, k: int) -> list[str]:
    """k-NN check: ties at the k-th distance may resolve either way."""
    want = min(k, len(dists))
    if len(answer) != want:
        return [f"expected {want} neighbours, got {len(answer)}"]
    if want == 0:
        return []
    kth = sorted(dists.values())[want - 1]
    return check_threshold(answer, dists, kth)


def matrix_dists(dists: np.ndarray, limit: float) -> dict:
    """Key -> distance for every cell of ``dists`` not above ``limit + TOL``.

    1-D input is keyed by index; 2-D input by ``(row, column)``.
    """
    idx = np.nonzero(dists <= limit + TOL)
    if dists.ndim == 1:
        return {int(i): float(dists[i]) for i in idx[0]}
    return {(int(i), int(j)): float(dists[i, j]) for i, j in zip(*idx)}


def kth_smallest(dists: np.ndarray, k: int) -> float:
    """The k-th smallest value (1-based) of ``dists``; ``inf`` when k > size."""
    flat = dists.ravel()
    if k <= 0:
        return -np.inf
    if k > flat.size:
        return np.inf
    return float(np.partition(flat, k - 1)[k - 1])
