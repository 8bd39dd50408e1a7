"""Injectable failpoints for crash-safety testing.

A *failpoint* is a named site in the storage code (``"pager.write_page"``,
``"persist.write:index_columnar.npz"``, ``"persist.replace:meta.json"``)
that tests can arm with :func:`fail_at` to simulate the disasters a real
deployment meets: a full disk, a process killed mid-write, a torn page, a
bit flipped at rest.  Production code never arms anything — when the
registry is empty every hook is a single ``if not _REGISTRY`` check.

Modes (what happens on the *nth* hit of the armed site):

* ``"error"``     — raise ``OSError(EIO)`` before any bytes are written.
* ``"enospc"``    — raise ``OSError(ENOSPC)`` before any bytes are written.
* ``"crash"``     — raise :class:`SimulatedCrash` before any bytes are
  written (the process "died" just before this write).
* ``"torn"``      — write only the first half of the payload, then raise
  :class:`SimulatedCrash` (died mid-write).
* ``"truncate"``  — silently write only the first half (lying firmware:
  the write "succeeds" but the tail is gone).
* ``"bitflip"``   — silently write the payload with one bit flipped
  (corruption at rest).

The registry is honoured whenever it is non-empty; setting
``REPRO_FAILPOINTS=1`` in the environment additionally marks a process as
a fault-injection run (CI uses it to select the crash-safety job), and
:func:`active` exposes it for tests that want to assert the harness is on.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from typing import Optional

MODES = ("error", "enospc", "crash", "torn", "truncate", "bitflip")


class SimulatedCrash(Exception):
    """The simulated process death injected by ``"crash"``/``"torn"`` modes.

    Tests catch this where a real deployment would have lost the process;
    everything the code wrote before the crash point is still on disk.
    """


@dataclass
class _Failpoint:
    name: str
    nth: int  # fire on the nth hit (1-based)
    mode: str
    hits: int = 0
    fired: bool = False
    #: byte offset for bitflip (None = middle of the payload)
    flip_at: Optional[int] = None

    def due(self) -> bool:
        self.hits += 1
        if self.fired or self.hits != self.nth:
            return False
        self.fired = True
        return True


_REGISTRY: dict[str, _Failpoint] = {}


def env_enabled() -> bool:
    """Whether ``REPRO_FAILPOINTS=1`` marks this process as a fault run."""
    return os.environ.get("REPRO_FAILPOINTS", "") == "1"


def fail_at(
    name: str, nth: int = 1, mode: str = "error", flip_at: Optional[int] = None
) -> None:
    """Arm failpoint ``name`` to fire once, on its ``nth`` hit."""
    if mode not in MODES:
        raise ValueError(f"unknown failpoint mode {mode!r}; expected one of {MODES}")
    if nth < 1:
        raise ValueError(f"nth must be >= 1, got {nth}")
    _REGISTRY[name] = _Failpoint(name=name, nth=nth, mode=mode, flip_at=flip_at)


def clear() -> None:
    """Disarm every failpoint."""
    _REGISTRY.clear()


def active() -> bool:
    """Whether any failpoint is currently armed."""
    return bool(_REGISTRY)


class armed:
    """Context manager: arm failpoints inside, guaranteed :func:`clear` after.

    ::

        with faults.armed(("persist.write:meta.json", {"mode": "torn"})):
            ...
    """

    def __init__(self, *points) -> None:
        self._points = points

    def __enter__(self) -> "armed":
        for name, kwargs in self._points:
            fail_at(name, **kwargs)
        return self

    def __exit__(self, *exc) -> None:
        clear()


def _corrupt(data: bytes, fp: _Failpoint) -> bytes:
    if fp.mode in ("torn", "truncate"):
        return data[: len(data) // 2]
    # bitflip
    buf = bytearray(data)
    if not buf:
        return data
    at = fp.flip_at if fp.flip_at is not None else len(buf) // 2
    buf[at % len(buf)] ^= 0x01
    return bytes(buf)


def intercept(name: str, data: bytes) -> tuple[bytes, Optional[BaseException]]:
    """Filter a write through failpoint ``name``.

    Returns ``(data_to_write, exception_to_raise_after_write)``.  Modes
    that fail *before* the write raise from here; ``"torn"`` hands back a
    :class:`SimulatedCrash` for the caller to raise after flushing the
    half-payload; the silent-corruption modes just mangle the bytes.
    """
    if not _REGISTRY:
        return data, None
    fp = _REGISTRY.get(name)
    if fp is None or not fp.due():
        return data, None
    if fp.mode == "error":
        raise OSError(errno.EIO, f"injected I/O error at {name}")
    if fp.mode == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC at {name}")
    if fp.mode == "crash":
        raise SimulatedCrash(f"injected crash before {name}")
    if fp.mode == "torn":
        return _corrupt(data, fp), SimulatedCrash(f"injected torn write at {name}")
    return _corrupt(data, fp), None


def trigger(name: str) -> None:
    """Hit a write-free failpoint (flush, replace, fsync sites).

    Only the raising modes make sense here; the data-mangling modes are
    ignored because there is no payload to mangle.
    """
    if not _REGISTRY:
        return
    fp = _REGISTRY.get(name)
    if fp is None or not fp.due():
        return
    if fp.mode == "error":
        raise OSError(errno.EIO, f"injected I/O error at {name}")
    if fp.mode == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC at {name}")
    if fp.mode in ("crash", "torn"):
        raise SimulatedCrash(f"injected crash at {name}")
