"""Fast-path kernel resolution.

Every fused layer kernel has two implementations: a Numba
``@njit(cache=True)`` loop (when the optional ``fastpath`` extra is
installed) and a mega-batched vectorized NumPy fallback that keeps
bare installs and CI legs without Numba working.  Which one runs
resolves here; both produce the same words, and the modeled counters
never depend on the choice.

``REPRO_FASTPATH`` environment override:

* ``auto`` (default) — Numba when importable, else NumPy;
* ``numba`` — insist on Numba, degrading gracefully to NumPy with no
  error when it is not installed (so one CI matrix works everywhere);
* ``numpy`` — force the vectorized fallback even when Numba is
  installed (the equivalence grid pins both legs this way).
"""

from __future__ import annotations

import os

__all__ = ["numba_available", "fastpath_tier", "FASTPATH_ENV"]

FASTPATH_ENV = "REPRO_FASTPATH"

_numba_ok: bool | None = None


def numba_available() -> bool:
    """Whether ``numba.njit`` is importable (checked once per process)."""
    global _numba_ok
    if _numba_ok is None:
        try:
            from numba import njit  # noqa: F401
            _numba_ok = True
        except ImportError:
            _numba_ok = False
    return _numba_ok


def fastpath_tier() -> str:
    """Resolve the effective kernel implementation: ``"numba"`` or
    ``"numpy"``.

    Reads :data:`FASTPATH_ENV` on every call so tests can monkeypatch
    the environment per case; unknown values fall back to ``auto``.
    """
    env = os.environ.get(FASTPATH_ENV, "auto").strip().lower()
    if env == "numpy":
        return "numpy"
    # "numba", "auto", and anything unrecognised resolve by probing
    return "numba" if numba_available() else "numpy"
