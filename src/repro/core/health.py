"""Engine health reporting — which components survived validation.

A :class:`HealthReport` summarises the trust state of an engine's
components after a load (or a build): the relation, the node-object
index, the frozen columnar kernel, and the persistence layer itself.
Statuses are ordered ``ok < degraded < failed``; the report's overall
status is the worst component's.  ``engine.health()`` builds one, and the
query language's ``HEALTH`` verb prints it as JSON.

The report is descriptive, not prescriptive: the actual rerouting around
a failed component happens at plan time (see
:func:`repro.core.plan.compile_spec`), and EXPLAIN's ``degraded_from``
field records it per query.
"""

from __future__ import annotations

from dataclasses import dataclass

#: severity order for the overall status.
_SEVERITY = {"ok": 0, "degraded": 1, "failed": 2}
STATUSES = tuple(_SEVERITY)


@dataclass
class ComponentHealth:
    """One component's trust state."""

    name: str
    status: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail}


class HealthReport:
    """Per-component health with a worst-of overall status."""

    def __init__(self, components: list[ComponentHealth]) -> None:
        for c in components:
            if c.status not in _SEVERITY:
                raise ValueError(
                    f"unknown health status {c.status!r} for {c.name!r}"
                )
        self.components = components

    @property
    def status(self) -> str:
        """The worst component status (``"ok"`` for an empty report)."""
        worst = "ok"
        for c in self.components:
            if _SEVERITY[c.status] > _SEVERITY[worst]:
                worst = c.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def component(self, name: str) -> ComponentHealth:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(f"no health component named {name!r}")

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "components": {c.name: c.as_dict() for c in self.components},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{c.name}={c.status}" for c in self.components)
        return f"HealthReport({self.status}: {parts})"
