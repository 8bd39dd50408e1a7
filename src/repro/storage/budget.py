"""Query governance: per-query resource budgets.

A :class:`ResourceBudget` bounds what one query may consume:

* ``deadline_ms``     — wall-clock limit, checked at every frontier
  expansion / verify round;
* ``max_candidates``  — cap on candidate rows fetched for verification;
* ``max_frontier``    — cap on the traversal frontier (pair rows, or heap
  items across a k-NN batch).

The budget travels with the query — ``QuerySpec.budget`` → the operator
``ExecContext`` → the kernel's frontier loops — so enforcement happens
inside the tight loops, not around them.  Range/join paths raise
:class:`QueryBudgetExceeded`; k-NN paths instead *truncate*: they stop
expanding, return the best results found so far, and set
``budget.truncated`` (surfaced by ``EXPLAIN ANALYZE``).

A budget with every limit ``None`` never fires — queries under it are
bit-for-bit identical to unbudgeted ones (the parity tests pin this).
"""

from __future__ import annotations

import time
from typing import Optional


class QueryBudgetExceeded(RuntimeError):
    """A query ran past its :class:`ResourceBudget`.

    Attributes:
        kind: which limit fired (``"deadline"``, ``"candidates"``,
            ``"frontier"``).
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"query budget exceeded ({kind}): {detail}")
        self.kind = kind


class ResourceBudget:
    """Limits for one query execution (see module docstring).

    Instances are reusable: :meth:`start` re-arms the deadline and clears
    the consumed counters, and is called by ``PhysicalPlan.execute`` so a
    compiled plan can be run repeatedly.
    """

    __slots__ = ("deadline_ms", "max_candidates", "max_frontier",
                 "truncated", "candidates", "_deadline")

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_candidates: Optional[int] = None,
        max_frontier: Optional[int] = None,
    ) -> None:
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        if max_candidates is not None and max_candidates < 0:
            raise ValueError(f"max_candidates must be >= 0, got {max_candidates}")
        if max_frontier is not None and max_frontier <= 0:
            raise ValueError(f"max_frontier must be positive, got {max_frontier}")
        self.deadline_ms = deadline_ms
        self.max_candidates = max_candidates
        self.max_frontier = max_frontier
        self.truncated = False
        self.candidates = 0
        self._deadline: Optional[float] = None

    @property
    def unlimited(self) -> bool:
        """True when no limit is set — every check is a no-op."""
        return (
            self.deadline_ms is None
            and self.max_candidates is None
            and self.max_frontier is None
        )

    def start(self) -> "ResourceBudget":
        """(Re-)arm the deadline clock and clear consumed counters."""
        self.truncated = False
        self.candidates = 0
        self._deadline = (
            time.perf_counter() + self.deadline_ms / 1000.0
            if self.deadline_ms is not None
            else None
        )
        return self

    # ------------------------------------------------------------------
    # non-raising probes (k-NN truncation path)
    # ------------------------------------------------------------------
    def exceeded(self, frontier: int = 0) -> Optional[str]:
        """The limit that has fired, or ``None``; never raises."""
        if self._deadline is None and self.deadline_ms is not None:
            self.start()  # checked before start(): arm lazily
        if self._deadline is not None and time.perf_counter() > self._deadline:
            return "deadline"
        if self.max_frontier is not None and frontier > self.max_frontier:
            return "frontier"
        if self.max_candidates is not None and self.candidates > self.max_candidates:
            return "candidates"
        return None

    def consume(self, n: int) -> None:
        """Record ``n`` candidate rows without raising (k-NN accounting)."""
        self.candidates += n

    # ------------------------------------------------------------------
    # raising checks (range / join / subseq paths)
    # ------------------------------------------------------------------
    def check(self, frontier: int = 0, where: str = "") -> None:
        """Raise :class:`QueryBudgetExceeded` if any limit has fired."""
        kind = self.exceeded(frontier)
        if kind is None:
            return
        if kind == "deadline":
            detail = f"deadline of {self.deadline_ms} ms passed"
        elif kind == "frontier":
            detail = f"frontier of {frontier} rows exceeds {self.max_frontier}"
        else:
            detail = (
                f"{self.candidates} candidate rows exceed {self.max_candidates}"
            )
        if where:
            detail += f" at {where}"
        raise QueryBudgetExceeded(kind, detail)

    def charge_candidates(self, n: int, where: str = "") -> None:
        """Consume ``n`` candidates and raise if the cap is now exceeded."""
        self.candidates += n
        if self.max_candidates is not None and self.candidates > self.max_candidates:
            raise QueryBudgetExceeded(
                "candidates",
                f"{self.candidates} candidate rows exceed {self.max_candidates}"
                + (f" at {where}" if where else ""),
            )

    def as_dict(self) -> dict[str, object]:
        return {
            "deadline_ms": self.deadline_ms,
            "max_candidates": self.max_candidates,
            "max_frontier": self.max_frontier,
            "truncated": self.truncated,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResourceBudget(deadline_ms={self.deadline_ms}, "
            f"max_candidates={self.max_candidates}, "
            f"max_frontier={self.max_frontier})"
        )
