"""The unary relation of time sequences that similarity queries run over.

Section 3 of the paper: "we assume relations are unary, that is, they are
simply sets of sequences; in practice of course they may have other
attributes, such as source of the data, time period covered, etc.".
:class:`SequenceRelation` keeps exactly that: equal-length sequences with a
dense integer record id, an optional name, and a free-form attribute dict —
plus a cached spectra matrix since every query pipeline needs DFTs.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]


class SequenceRelation:
    """An append-only collection of equal-length real time sequences.

    Args:
        length: the common sequence length (fixed at creation).
    """

    def __init__(self, length: int) -> None:
        if length < 2:
            raise ValueError(f"length must be >= 2, got {length}")
        self.length = length
        self._rows: list[np.ndarray] = []
        self._names: list[str] = []
        self._attrs: list[dict] = []
        self._matrix: Optional[np.ndarray] = None
        self._spectra: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls,
        matrix: ArrayLike,
        names: Optional[Sequence[str]] = None,
        attrs: Optional[Sequence[dict]] = None,
    ) -> "SequenceRelation":
        """Build a relation from an ``(m, n)`` matrix; the rows view one cached copy of it."""
        rows = np.array(matrix, dtype=np.float64, order="C")
        if rows.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {rows.shape}")
        m = rows.shape[0]
        for label, values in (("names", names), ("attrs", attrs)):
            if values is not None and len(values) != m:
                raise ValueError(f"{label} has {len(values)} entries for {m} rows")
        rel = cls(rows.shape[1])
        rel._rows = list(rows)
        rel._names = [f"seq{i}" for i in range(m)] if names is None else list(names)
        rel._attrs = [{} if attrs is None else dict(attrs[i]) for i in range(m)]
        rel._matrix = rows
        return rel

    def add(
        self,
        series: ArrayLike,
        name: Optional[str] = None,
        **attrs,
    ) -> int:
        """Append a sequence; returns its record id."""
        row = np.asarray(series, dtype=np.float64).copy()
        if row.shape != (self.length,):
            raise ValueError(
                f"series must have length {self.length}, got shape {row.shape}"
            )
        record_id = len(self._rows)
        self._rows.append(row)
        self._names.append(name if name is not None else f"seq{record_id}")
        self._attrs.append(dict(attrs))
        self._matrix = None
        self._spectra = None
        return record_id

    # ------------------------------------------------------------------
    def get(self, record_id: int) -> np.ndarray:
        """The sequence stored under ``record_id`` (a copy-safe view)."""
        self._check(record_id)
        return self._rows[record_id]

    def name(self, record_id: int) -> str:
        """Display name of a record."""
        self._check(record_id)
        return self._names[record_id]

    def attrs(self, record_id: int) -> dict:
        """Free-form attributes of a record."""
        self._check(record_id)
        return self._attrs[record_id]

    def id_of(self, name: str) -> int:
        """Record id of the first sequence with this name."""
        try:
            return self._names.index(name)
        except ValueError:
            raise KeyError(f"no sequence named {name!r}") from None

    @property
    def matrix(self) -> np.ndarray:
        """All sequences as an ``(m, n)`` matrix (cached)."""
        if self._matrix is None or self._matrix.shape[0] != len(self._rows):
            self._matrix = (
                np.stack(self._rows)
                if self._rows
                else np.empty((0, self.length))
            )
        return self._matrix

    @property
    def spectra(self) -> np.ndarray:
        """Unitary DFT of every sequence, as an ``(m, n)`` complex matrix."""
        if self._spectra is None or self._spectra.shape[0] != len(self._rows):
            if not self._rows:
                self._spectra = np.empty((0, self.length), dtype=np.complex128)
            else:
                self._spectra = np.fft.fft(self.matrix, axis=1) / np.sqrt(self.length)
        return self._spectra

    def spectrum(self, record_id: int) -> np.ndarray:
        """Unitary DFT of one sequence."""
        self._check(record_id)
        return self.spectra[record_id]

    # ------------------------------------------------------------------
    def subset(self, record_ids: Sequence[int]) -> "SequenceRelation":
        """A new relation containing the chosen records (ids renumbered)."""
        rel = SequenceRelation(self.length)
        for rid in record_ids:
            self._check(rid)
            rel.add(self._rows[rid], name=self._names[rid], **self._attrs[rid])
        return rel

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for i, row in enumerate(self._rows):
            yield i, row

    def __repr__(self) -> str:
        return f"SequenceRelation(count={len(self)}, length={self.length})"

    def _check(self, record_id: int) -> None:
        if not 0 <= record_id < len(self._rows):
            raise KeyError(f"record id {record_id} out of range [0, {len(self._rows)})")
