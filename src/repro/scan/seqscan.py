"""Sequential scanning with the paper's tuning.

The paper is careful to race its index against a *good* sequential scan
(Section 5): the scan runs over the relation stored **in the frequency
domain**, so that the large leading coefficients let the distance
computation abandon most sequences after a few terms, and each distance
computation stops as soon as it exceeds ``eps``.  Here the scan is one
matrix pass over the whole relation: the transformation is applied to
every record at once, and the range scan's abandon rule runs per column
block for all still-active records together
(:func:`~repro.core.similarity.batch_euclidean_within`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.similarity import batch_euclidean_within
from repro.core.transforms import Transformation
from repro.storage.stats import IOStats

ArrayLike = Union[Sequence[float], np.ndarray]


def scan_range(
    ground_spectra: np.ndarray,
    query_spectrum: np.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    block: int = 4,
    stats: Optional[IOStats] = None,
) -> list[tuple[int, float]]:
    """Range query by scanning the frequency-domain relation.

    The one-row case of :func:`scan_range_many`: every distance abandons
    once its partial sum passes ``eps`` (per column block, over the whole
    relation at once).

    Args:
        ground_spectra: ``(m, n)`` complex matrix of record spectra.
        query_spectrum: full spectrum of the query.
        eps: similarity threshold.
        transformation: applied to each record during the comparison
            (the data side, matching Algorithm 2's semantics).
        block: coefficients accumulated per early-abandon step.
        stats: counter bundle.

    Returns:
        ``(record id, exact distance)`` pairs sorted by distance.
    """
    return scan_range_many(
        ground_spectra,
        np.asarray(query_spectrum)[None, :],
        eps,
        transformation=transformation,
        block=block,
        stats=stats,
    )[0]


def scan_range_many(
    ground_spectra: np.ndarray,
    query_spectra: np.ndarray,
    eps: float,
    transformation: Optional[Transformation] = None,
    block: int = 4,
    stats: Optional[IOStats] = None,
) -> list[list[tuple[int, float]]]:
    """Batched :func:`scan_range` over an ``(m, n)`` matrix of query spectra.

    The transformation is hoisted over the whole relation once (O(records)
    applications instead of O(records × queries)), and each query is then
    verified against all records with matrix-level early abandoning, a
    few numpy calls per query.
    """
    if transformation is not None:
        ground_spectra = transformation.apply_spectrum(ground_spectra)
    records = ground_spectra.shape[0]
    out: list[list[tuple[int, float]]] = []
    for q_spec in np.asarray(query_spectra, dtype=np.complex128):
        kept, dists, _ = batch_euclidean_within(ground_spectra, q_spec, eps, block=block)
        matches = [(int(i), float(d)) for i, d in zip(kept, dists)]
        matches.sort(key=lambda t: (t[1], t[0]))
        out.append(matches)
    if stats is not None:
        stats.distance_computations += records * len(out)
    return out


def scan_knn(
    ground_spectra: np.ndarray,
    query_spectrum: np.ndarray,
    k: int,
    transformation: Optional[Transformation] = None,
    stats: Optional[IOStats] = None,
) -> list[tuple[int, float]]:
    """Exact k-NN by one full-distance pass over the relation.

    Ties in distance are broken by ascending record id.  Edge cases match
    the index path's kernel contract: ``k == 0`` and an empty relation
    return ``[]``; ``k > m`` returns every record.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return []
    if transformation is not None:
        ground_spectra = transformation.apply_spectrum(ground_spectra)
    m = ground_spectra.shape[0]
    diff = ground_spectra - np.asarray(query_spectrum)
    d = np.sqrt(np.sum(diff.real**2 + diff.imag**2, axis=1))
    if stats is not None:
        stats.distance_computations += m
    return [(int(i), float(d[i])) for i in np.lexsort((np.arange(m), d))[:k]]
