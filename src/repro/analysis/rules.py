"""The project's contract rules, REP001–REP006.

Each rule is a function from ``(tree, source, path)`` to violations,
registered with the engine; module scoping comes from
:mod:`repro.analysis.contracts`.  The rules are deliberately
*syntactic* — they check what can be certified from the AST alone, and
anything legitimately outside the contract carries an inline
``# repro: allow(REPnnn): <reason>`` pragma, so exceptions are explicit
and reviewed rather than social.

========  ==============================================================
REP001    no scalar Python loops over array rows in hot-path modules
REP002    no mutation of frozen kernels outside construction
REP003    hot-path modules import the array API only via
          ``repro.rtree.backend`` (the ``xp`` seam)
REP004    no recursion in kernel modules (frontier loops are iterative)
REP005    kernel frontier loops check their ResourceBudget; public query
          entries validate NaN/inf
REP006    no bare/swallowed broad ``except`` in storage paths
========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.analysis import contracts
from repro.analysis.engine import Violation, register

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    """The called name: ``f(...)`` -> ``f``, ``a.b.f(...)`` -> ``f``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _functions(tree: ast.Module) -> Iterator[tuple[str, AnyFunc]]:
    """All function defs with dotted qualnames (``Class.method``)."""

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, AnyFunc]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


# ----------------------------------------------------------------------
# REP001 — no scalar loops over array rows on hot paths
# ----------------------------------------------------------------------
_ROWWISE_CALLS = frozenset({"len", "enumerate", "zip"})
_ROWWISE_ATTRS = frozenset({"shape", "flat"})
_ROWWISE_METHODS = frozenset({"tolist", "ravel", "flatten", "item"})


def _rowwise_trigger(iter_expr: ast.expr) -> Optional[str]:
    """Why this iterable looks like row-at-a-time array iteration."""
    for node in ast.walk(iter_expr):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if isinstance(node.func, ast.Name) and name in _ROWWISE_CALLS:
                return f"iterates {name}(...)"
            if isinstance(node.func, ast.Attribute) and name in _ROWWISE_METHODS:
                return f"iterates .{name}()"
        elif isinstance(node, ast.Attribute) and node.attr in _ROWWISE_ATTRS:
            return f"iteration count comes from .{node.attr}"
    return None


@register(
    "REP001",
    "no scalar Python loops over array rows in hot-path modules "
    "(vectorize, or pragma a reviewed exception)",
)
def rep001_no_scalar_loops(
    tree: ast.Module, source: str, path: str
) -> Iterator[Violation]:
    if not contracts.is_hot_path(path, source):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.For):
            continue
        trigger = _rowwise_trigger(node.iter)
        if trigger is None:
            continue
        yield Violation(
            "REP001", path, node.lineno, node.col_offset,
            f"scalar for-loop over array rows in a hot-path module "
            f"({trigger}); vectorize it or justify with "
            f"'# repro: allow(REP001): <reason>'",
        )


# ----------------------------------------------------------------------
# REP002 — frozen kernels are immutable outside construction
# ----------------------------------------------------------------------
def _is_store_on(
    stmt: ast.stmt, owner_names: frozenset[str]
) -> Optional[tuple[int, int, str]]:
    """Location and description of an attribute/subscript store on any
    of ``owner_names``, or ``None``."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        base = target
        # x.attr[...] = ... / x.attr[...][...] = ...
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id in owner_names:
                return (
                    target.lineno,
                    target.col_offset,
                    f"{base.value.id}.{base.attr}",
                )
    return None


def _frozen_locals(fn: AnyFunc) -> frozenset[str]:
    """Local names statically known to hold a frozen instance."""
    names: set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        if arg.annotation is None:
            continue
        rendered = ast.unparse(arg.annotation)
        if any(cls in rendered for cls in contracts.FROZEN_CLASSES):
            names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = _call_name(node.value)
            if callee in contracts.FROZEN_PRODUCERS:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return frozenset(names)


@register(
    "REP002",
    "no in-place mutation of frozen kernels (FrozenRTree) outside "
    "construction",
)
def rep002_frozen_immutability(
    tree: ast.Module, source: str, path: str
) -> Iterator[Violation]:
    # Half 1: inside a frozen class, only constructors assign to self.
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in contracts.FROZEN_CLASSES:
            continue
        for qualname, fn in _functions(ast.Module(body=node.body, type_ignores=[])):
            if fn.name in contracts.FROZEN_CONSTRUCTORS:
                continue
            for stmt in ast.walk(fn):
                if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    continue
                hit = _is_store_on(stmt, frozenset({"self"}))
                if hit is not None:
                    line, col, desc = hit
                    yield Violation(
                        "REP002", path, line, col,
                        f"assignment to {desc} in {node.name}.{fn.name}: "
                        f"frozen instances are immutable outside "
                        f"construction ({sorted(contracts.FROZEN_CONSTRUCTORS)})",
                    )
    # Half 2: anywhere, stores through names bound to frozen instances.
    for qualname, fn in _functions(tree):
        owners = _frozen_locals(fn)
        if not owners:
            continue
        enclosing_class = qualname.rsplit(".", 1)[0] if "." in qualname else ""
        if (
            enclosing_class in contracts.FROZEN_CLASSES
            and fn.name in contracts.FROZEN_CONSTRUCTORS
        ):
            continue
        for stmt in ast.walk(fn):
            if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            hit = _is_store_on(stmt, owners)
            if hit is not None:
                line, col, desc = hit
                yield Violation(
                    "REP002", path, line, col,
                    f"store into {desc}, which holds a frozen kernel; "
                    f"frozen arrays must never be mutated after freeze()",
                )


# ----------------------------------------------------------------------
# REP003 — the array API comes from the backend shim
# ----------------------------------------------------------------------
@register(
    "REP003",
    "hot-path modules import the array API only via repro.rtree.backend "
    "(xp), never numpy directly",
)
def rep003_backend_shim(
    tree: ast.Module, source: str, path: str
) -> Iterator[Violation]:
    if not contracts.is_backend_scoped(path, source):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "numpy":
                    yield Violation(
                        "REP003", path, node.lineno, node.col_offset,
                        f"direct 'import {alias.name}' in a backend-scoped "
                        f"module; use 'from repro.rtree.backend import xp' "
                        f"so the kernel stays array-backend agnostic",
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "numpy" or module.startswith("numpy."):
                yield Violation(
                    "REP003", path, node.lineno, node.col_offset,
                    f"direct 'from {module} import ...' in a backend-scoped "
                    f"module; use 'from repro.rtree.backend import xp'",
                )


# ----------------------------------------------------------------------
# REP004 — kernel modules are iterative, never recursive
# ----------------------------------------------------------------------
def _call_edges(
    qualname: str, fn: AnyFunc, module_funcs: frozenset[str]
) -> Iterator[str]:
    """Resolvable intra-module callees of ``fn`` (by qualname)."""
    enclosing_class = qualname.rsplit(".", 1)[0] if "." in qualname else ""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in module_funcs:
            yield func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and enclosing_class
            and f"{enclosing_class}.{func.attr}" in module_funcs
        ):
            yield f"{enclosing_class}.{func.attr}"


@register(
    "REP004",
    "no recursion (direct or mutual) in kernel modules — traversals are "
    "iterative frontier loops",
)
def rep004_no_recursion(
    tree: ast.Module, source: str, path: str
) -> Iterator[Violation]:
    if not contracts.is_kernel(path, source):
        return
    funcs = dict(_functions(tree))
    names = frozenset(funcs)
    edges = {
        qualname: sorted(set(_call_edges(qualname, fn, names)))
        for qualname, fn in funcs.items()
    }
    # Iterative three-color DFS per root: report each function that can
    # reach itself through intra-module calls.
    for root in sorted(edges):
        stack = list(edges[root])
        seen: set[str] = set()
        recursive = False
        while stack:
            current = stack.pop()
            if current == root:
                recursive = True
                break
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edges.get(current, []))
        if recursive:
            fn = funcs[root]
            yield Violation(
                "REP004", path, fn.lineno, fn.col_offset,
                f"{root} is recursive (reaches itself through "
                f"intra-module calls); kernel traversals must be "
                f"iterative frontier loops",
            )


# ----------------------------------------------------------------------
# REP005 — budgets in frontier loops, finite queries at the door
# ----------------------------------------------------------------------
_BUDGET_METHODS = frozenset(
    {"check", "exceeded", "charge_candidates", "consume", "start"}
)


def _is_frontier_condition(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name):
            if node.id in contracts.FRONTIER_NAMES or node.id.endswith(
                "frontier"
            ):
                return True
    return False


def _checks_budget(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in _BUDGET_METHODS:
                continue
            base = node.value
            if isinstance(base, ast.Name) and "budget" in base.id:
                return True
            if isinstance(base, ast.Attribute) and "budget" in base.attr:
                return True
    return False


def _validates_finite(fn: AnyFunc) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in contracts.VALIDATOR_NAMES:
                return True
    return False


@register(
    "REP005",
    "kernel frontier loops check their ResourceBudget; public query "
    "entries validate NaN/inf",
)
def rep005_budget_and_validation(
    tree: ast.Module, source: str, path: str
) -> Iterator[Violation]:
    # Half 1: frontier while-loops in kernel modules carry budget checks.
    if contracts.is_kernel(path, source):
        for node in ast.walk(tree):
            if not isinstance(node, ast.While):
                continue
            if not _is_frontier_condition(node.test):
                continue
            if not _checks_budget(node.body):
                yield Violation(
                    "REP005", path, node.lineno, node.col_offset,
                    "frontier loop without a ResourceBudget check; call "
                    "budget.check()/budget.exceeded() once per "
                    "round so deadlines and frontier caps hold inside "
                    "the tight loop",
                )
    # Half 2: registered public query entries validate their input.
    entry_names = contracts.entry_points_for(path, source)
    marker_lines = contracts.entry_marker_lines(source)
    for qualname, fn in _functions(tree):
        is_entry = qualname in entry_names or (fn.lineno - 1) in marker_lines
        if not is_entry:
            continue
        if not _validates_finite(fn):
            yield Violation(
                "REP005", path, fn.lineno, fn.col_offset,
                f"public query entry {qualname} never validates NaN/inf; "
                f"a NaN query silently empties probe rectangles — call "
                f"require_finite()/isfinite() before touching the index",
            )


# ----------------------------------------------------------------------
# REP006 — typed errors in storage paths
# ----------------------------------------------------------------------
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _exception_names(expr: ast.expr) -> Iterator[str]:
    nodes: list[ast.expr] = (
        list(expr.elts) if isinstance(expr, ast.Tuple) else [expr]
    )
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@register(
    "REP006",
    "no bare or swallowed broad 'except' in storage/persist paths — "
    "wrap-and-raise typed errors only",
)
def rep006_typed_storage_errors(
    tree: ast.Module, source: str, path: str
) -> Iterator[Violation]:
    if not contracts.is_storage(path, source):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Violation(
                "REP006", path, node.lineno, node.col_offset,
                "bare 'except:' in a storage path; catch a typed error, "
                "or wrap-and-raise a PersistError/CorruptIndexError",
            )
            continue
        broad = sorted(
            set(_exception_names(node.type)) & _BROAD_EXCEPTIONS
        )
        if not broad:
            continue
        # The PR-6 discipline allows catching Exception only to *wrap*
        # it: the handler must end by raising (a typed error).
        if node.body and isinstance(node.body[-1], ast.Raise):
            continue
        yield Violation(
            "REP006", path, node.lineno, node.col_offset,
            f"broad 'except {', '.join(broad)}' swallows errors in a "
            f"storage path; either catch a typed error or end the "
            f"handler by raising one",
        )
