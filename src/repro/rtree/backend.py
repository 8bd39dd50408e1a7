"""The array-API backend seam: ``xp`` is the active array namespace.

Every hot-path module (the frozen kernel, the physical operators, the
sliding-window featurizer, the ST-index fast paths, geometry, bulk
loading and the feature spaces) imports its array namespace from here —

::

    from repro.rtree.backend import xp

— instead of importing :mod:`numpy` directly.  The static contract
checker enforces this as rule **REP003** (``python -m repro.analysis``),
so the indirection cannot silently erode.

Today ``xp`` *is* NumPy, resolved once at import time, and the shim adds
zero overhead: ``xp.foo`` is the same attribute lookup ``np.foo`` always
was, on the same module object.  The point of the seam is the scale-out
arc (ROADMAP item 2): a CuPy/JAX/torch namespace can be swapped in for
the whole frontier engine by changing this one module — none of the
kernel code names ``numpy`` anymore.

Selection is environment-driven so experiments need no code edits:
``REPRO_ARRAY_BACKEND=numpy`` (the default) is the only backend baked
into the image; asking for ``cupy`` or ``jax`` imports them if present
and fails with a clear error otherwise.  Swapping must happen before the
kernel modules are imported — they bind ``xp`` at import time, which is
exactly what keeps the indirection free on the hot paths.
"""

from __future__ import annotations

import importlib
import os
from types import ModuleType

#: Backends that may be requested via ``REPRO_ARRAY_BACKEND``.  Only
#: ``numpy`` ships with the project; the others are optional accelerator
#: namespaces resolved at import time when installed.
SUPPORTED_BACKENDS = ("numpy", "cupy", "jax.numpy", "torch")


def _resolve(name: str) -> ModuleType:
    """Import the requested array namespace, failing with a typed error."""
    if name not in SUPPORTED_BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r}; expected one of "
            f"{SUPPORTED_BACKENDS}"
        )
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise ImportError(
            f"array backend {name!r} was requested via REPRO_ARRAY_BACKEND "
            f"but is not installed: {exc}"
        ) from exc


#: The name of the active backend (``"numpy"`` unless overridden).
BACKEND_NAME: str = os.environ.get("REPRO_ARRAY_BACKEND", "numpy")

#: The active array namespace.  Hot-path modules must import this — and
#: only this — as their array API (contract REP003).
xp: ModuleType = _resolve(BACKEND_NAME)


def array_namespace() -> ModuleType:
    """The active array namespace (late-bound accessor for cold paths)."""
    return xp
