"""Backend selection for the compute kernels.

One dispatch point decides which implementation of the stateful inner
loops runs: the pure-Python reference or the NumPy event-vectorised
version.  Both always import.  Selection order:

1. ``repro.kernels.set_backend(name)`` / ``use_backend(name)`` at
   runtime;
2. the ``REPRO_KERNELS`` environment variable
   (``python | numpy | auto``), read at import and again by
   :func:`reset_backend`;
3. ``auto`` (the default): numpy.

Any other name raises :class:`~repro.errors.KernelError`, by name and
through the environment alike — a typo must not silently select a
different backend.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from ..errors import KernelError
from . import numpy_backend, python_backend

__all__ = [
    "BACKEND_NAMES",
    "active_backend",
    "get_backend",
    "set_backend",
    "use_backend",
    "reset_backend",
]

_BACKENDS = {"python": python_backend, "numpy": numpy_backend}
BACKEND_NAMES: Tuple[str, ...] = tuple(_BACKENDS)
_ENV_VAR = "REPRO_KERNELS"

_active_module = None
_active_name: Optional[str] = None


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the resolved backend name.

    ``"auto"`` resolves to numpy.  Any name outside
    :data:`BACKEND_NAMES` raises :class:`KernelError`.
    """
    global _active_module, _active_name
    name = str(name).strip().lower()
    if name == "auto":
        name = "numpy"
    if name not in _BACKENDS:
        raise KernelError(
            f"unknown kernel backend {name!r}; "
            f"choose from {BACKEND_NAMES + ('auto',)}"
        )
    _active_module, _active_name = _BACKENDS[name], name
    return name


def reset_backend() -> str:
    """Re-apply the ``REPRO_KERNELS`` environment selection (or auto).

    An unrecognised name raises a :class:`KernelError` listing the
    valid choices.
    """
    requested = os.environ.get(_ENV_VAR, "").strip().lower() or "auto"
    if requested != "auto" and requested not in _BACKENDS:
        raise KernelError(
            f"{_ENV_VAR}={requested!r} is not a recognised kernel backend; "
            f"valid values are {', '.join(BACKEND_NAMES)} or 'auto'"
        )
    return set_backend(requested)


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
