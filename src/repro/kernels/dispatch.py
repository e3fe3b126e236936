"""Backend selection for the compute kernels.

One dispatch point decides which implementation of the stateful inner
loops runs: the pure-Python reference, the NumPy event-vectorised
version, or the optional numba-compiled version.  Selection order:

1. ``repro.kernels.set_backend(name)`` / ``use_backend(name)`` at
   runtime;
2. the ``REPRO_KERNELS`` environment variable
   (``python | numpy | numba | auto``), read at import and again by
   :func:`reset_backend`;
3. ``auto`` (the default): numba when importable, else numpy.

Requesting an unavailable backend programmatically raises
:class:`~repro.errors.KernelError`; requesting a *known* backend that
is unavailable through the environment variable degrades gracefully
with a warning, so a CI matrix can export ``REPRO_KERNELS=numba``
unconditionally.  An unrecognised environment value raises — a typo
should not silently select a different backend.
"""

from __future__ import annotations

import importlib
import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from ..errors import KernelError

__all__ = [
    "BACKEND_NAMES",
    "available_backends",
    "active_backend",
    "get_backend",
    "set_backend",
    "use_backend",
    "reset_backend",
]

BACKEND_NAMES: Tuple[str, ...] = ("python", "numpy", "numba")
_AUTO_PREFERENCE: Tuple[str, ...] = ("numba", "numpy", "python")
_ENV_VAR = "REPRO_KERNELS"

_loaded: dict = {}
_active_module = None
_active_name: Optional[str] = None


def _load(name: str):
    """Import a backend module once; ``None`` marks it unavailable.

    A backend module may import cleanly yet declare itself unusable in
    this environment (``AVAILABLE = False``) — e.g. the numba backend
    when numba is not installed.
    """
    if name not in _loaded:
        try:
            module = importlib.import_module(f".{name}_backend", __package__)
        except ImportError:
            module = None
        if module is not None and not getattr(module, "AVAILABLE", True):
            module = None
        _loaded[name] = module
    return _loaded[name]


def available_backends() -> Tuple[str, ...]:
    """Names of the backends importable in this environment."""
    return tuple(name for name in BACKEND_NAMES if _load(name) is not None)


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the resolved backend name.

    ``"auto"`` picks the fastest available backend.  A concrete name
    that cannot be imported raises :class:`KernelError`.
    """
    global _active_module, _active_name
    name = str(name).strip().lower()
    if name == "auto":
        for candidate in _AUTO_PREFERENCE:
            module = _load(candidate)
            if module is not None:
                _active_module, _active_name = module, candidate
                return candidate
        raise KernelError("no kernel backend could be imported")
    if name not in BACKEND_NAMES:
        raise KernelError(
            f"unknown kernel backend {name!r}; "
            f"choose from {BACKEND_NAMES + ('auto',)}"
        )
    module = _load(name)
    if module is None:
        raise KernelError(
            f"kernel backend {name!r} is not available in this environment "
            f"(available: {available_backends()}); install the 'fast' "
            f"extra for numba"
        )
    _active_module, _active_name = module, name
    return name


def reset_backend() -> str:
    """Re-apply the ``REPRO_KERNELS`` environment selection (or auto).

    A *known* backend that is unavailable in this environment degrades
    to ``auto`` with a warning (CI matrices export the variable
    unconditionally); an unrecognised name raises a
    :class:`KernelError` listing the valid choices, because a typo must
    not silently run a different backend.
    """
    requested = os.environ.get(_ENV_VAR, "").strip().lower() or "auto"
    if requested != "auto" and requested not in BACKEND_NAMES:
        raise KernelError(
            f"{_ENV_VAR}={requested!r} is not a recognised kernel backend; "
            f"valid values are {', '.join(BACKEND_NAMES)} or 'auto'"
        )
    try:
        return set_backend(requested)
    except KernelError as exc:
        warnings.warn(
            f"{_ENV_VAR}={requested!r}: {exc}; falling back to auto",
            RuntimeWarning,
            stacklevel=2,
        )
        return set_backend("auto")


def active_backend() -> str:
    """Name of the backend that kernel calls currently dispatch to."""
    if _active_name is None:
        reset_backend()
    return _active_name  # type: ignore[return-value]


def get_backend():
    """The active backend module (initialising from the env if needed)."""
    if _active_module is None:
        reset_backend()
    return _active_module


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily switch backends (tests, benchmarks, comparisons)."""
    previous = active_backend()
    resolved = set_backend(name)
    try:
        yield resolved
    finally:
        set_backend(previous)
