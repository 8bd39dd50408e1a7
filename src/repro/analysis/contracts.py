"""Project contract scopes: which modules each rule applies to.

Six PRs of review-enforced invariants ("hot paths are vectorized",
"frozen kernels are immutable", "storage raises typed errors") live here
as data, so :mod:`repro.analysis` can check them mechanically.

A module is in a scope when its (posix-normalised) path ends with one of
the registered suffixes, **or** when the file declares the scope itself
with a marker comment near the top::

    # repro: module-contract(hot-path, kernel)

The marker exists so the rule fixtures under ``tests/analysis_fixtures``
(and any future out-of-tree kernel module) can opt into a contract
without being listed here.
"""

from __future__ import annotations

import re
from typing import Iterable

#: Scope names accepted by ``module-contract(...)`` markers.
SCOPES = ("hot-path", "backend", "kernel", "storage")

#: REP001 — modules whose loops must be vectorized (reference modules,
#: e.g. ``rtree/search.py`` and ``dft/reference.py``, are deliberately
#: absent: scalar code is their whole point).
HOT_PATH_SUFFIXES: tuple[str, ...] = (
    "repro/rtree/kernel.py",
    "repro/core/ops.py",
    "repro/subseq/window.py",
    "repro/subseq/stindex.py",
)

#: REP003 — modules that must import the array API through
#: :mod:`repro.rtree.backend` (the ``xp`` seam).  The whole numeric
#: layer: the hot-path set plus geometry, bulk loading and the feature
#: spaces.
BACKEND_SUFFIXES: tuple[str, ...] = HOT_PATH_SUFFIXES + (
    "repro/rtree/geometry.py",
    "repro/rtree/bulk.py",
    "repro/core/features.py",
)

#: The one module allowed to import numpy for the numeric layer.
BACKEND_SHIM_SUFFIX = "repro/rtree/backend.py"

#: REP004 + REP005 (frontier half) — kernel modules: no recursion, and
#: every frontier loop checks its ResourceBudget.
KERNEL_SUFFIXES: tuple[str, ...] = BACKEND_SUFFIXES

#: REP006 — storage/persistence paths: no bare or swallowed broad
#: excepts (PR-6 typed-error discipline).
STORAGE_SUFFIXES: tuple[str, ...] = (
    "repro/persist.py",
    "repro/storage/pager.py",
    "repro/storage/buffer.py",
    "repro/storage/manifest.py",
    "repro/storage/serialization.py",
    "repro/storage/faults.py",
)

#: REP005 (validation half) — public query entry points that must
#: validate NaN/inf before touching the index.  Keyed by module suffix;
#: values are dotted qualnames (``Class.method`` or plain functions).
#: ``compile_spec`` is the engine's single admission seam (every
#: range/knn/join entry compiles through it); the ST-index methods are
#: their own entries because they can be called without a plan.
QUERY_ENTRY_POINTS: dict[str, frozenset[str]] = {
    "repro/core/plan.py": frozenset(
        {"compile_spec", "compile_subseq_spec"}
    ),
    "repro/subseq/stindex.py": frozenset(
        {
            "STIndex.range_query",
            "STIndex.range_query_batch",
            "STIndex.knn_query",
            "STIndex.knn_query_batch",
            "STIndex.candidate_offsets",
            "STIndex.choose_probe",
        }
    ),
}

#: Calls that count as NaN/inf validation for REP005.  ``isfinite``
#: covers direct ``xp.isfinite`` checks; the underscore names are the
#: shared validation helpers.
VALIDATOR_NAMES: frozenset[str] = frozenset(
    {"require_finite", "isfinite", "_check_query", "_as_queries"}
)

#: REP002 — classes whose instances are immutable after construction.
FROZEN_CLASSES: frozenset[str] = frozenset({"FrozenRTree"})

#: Methods of a frozen class allowed to assign attributes (construction).
FROZEN_CONSTRUCTORS: frozenset[str] = frozenset(
    {"__init__", "__new__", "freeze", "from_arrays"}
)

#: Calls whose result is a frozen instance (for flow-insensitive
#: tracking of local names bound to frozen objects).
FROZEN_PRODUCERS: frozenset[str] = frozenset(
    {"freeze", "from_arrays", "frozen_kernel", "cached_kernel"}
)

#: REP005 — names that mark a ``while`` loop as a traversal frontier.
FRONTIER_NAMES: frozenset[str] = frozenset(
    {"frontier", "fnodes", "fquery", "active", "heap", "heaps"}
)

#: The linter's own package.  Exempt from checking: its docstrings and
#: diagnostic messages are full of pragma/marker examples that would
#: read as malformed suppressions.
ANALYSIS_PACKAGE_FRAGMENT = "repro/analysis/"

_MARKER_RE = re.compile(
    r"#\s*repro:\s*module-contract\(([a-z\-,\s]+)\)"
)
#: Marker registering the *next* ``def`` as a query entry point
#: (fixture support for REP005's validation half).
_ENTRY_MARKER_RE = re.compile(r"#\s*repro:\s*query-entry\b")


def _norm(path: str) -> str:
    return path.replace("\\", "/")


def is_linter_source(path: str) -> bool:
    """True for the linter's own modules (never self-checked)."""
    return ANALYSIS_PACKAGE_FRAGMENT in _norm(path)


def declared_scopes(source: str) -> frozenset[str]:
    """Scopes declared by ``module-contract`` markers in the source."""
    found: set[str] = set()
    for match in _MARKER_RE.finditer(source):
        for raw in match.group(1).split(","):
            name = raw.strip()
            if name in SCOPES:
                found.add(name)
    return frozenset(found)


def _in_scope(
    path: str, source: str, suffixes: Iterable[str], scope: str
) -> bool:
    norm = _norm(path)
    if any(norm.endswith(suffix) for suffix in suffixes):
        return True
    return scope in declared_scopes(source)


def is_hot_path(path: str, source: str) -> bool:
    """REP001 scope: vectorization-mandatory modules."""
    return _in_scope(path, source, HOT_PATH_SUFFIXES, "hot-path")


def is_backend_scoped(path: str, source: str) -> bool:
    """REP003 scope: modules that must use the ``xp`` seam."""
    if _norm(path).endswith(BACKEND_SHIM_SUFFIX):
        return False
    return _in_scope(path, source, BACKEND_SUFFIXES, "backend")


def is_kernel(path: str, source: str) -> bool:
    """REP004/REP005 scope: kernel modules."""
    return _in_scope(path, source, KERNEL_SUFFIXES, "kernel")


def is_storage(path: str, source: str) -> bool:
    """REP006 scope: storage / persistence modules."""
    return _in_scope(path, source, STORAGE_SUFFIXES, "storage")


def entry_points_for(path: str, source: str) -> frozenset[str]:
    """Qualnames in this module that must validate their queries.

    The registered set for known modules, plus any function whose
    ``def`` is immediately preceded by a ``# repro: query-entry`` marker
    (resolved by line in :mod:`repro.analysis.rules`, so this returns
    only the registry half).
    """
    norm = _norm(path)
    for suffix, names in QUERY_ENTRY_POINTS.items():
        if norm.endswith(suffix):
            return names
    return frozenset()


def entry_marker_lines(source: str) -> frozenset[int]:
    """1-based line numbers carrying a ``query-entry`` marker."""
    out: set[int] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        if _ENTRY_MARKER_RE.search(line):
            out.add(lineno)
    return frozenset(out)
