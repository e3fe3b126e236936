"""scipy's ``lfilter`` and ``lfilter_zi`` without importing ``scipy.signal``.

Importing ``scipy.signal`` takes about a second (it pulls in
``scipy.stats``, ``scipy.optimize`` and ``scipy.linalg``), yet for an
IIR filter its ``lfilter`` is one call of the compiled
``_sigtools._linear_filter``.  This module loads that extension from its
file, which does not run the package ``__init__``, and registers it so a
later ``import scipy.signal`` reuses it.  Both functions return
``scipy.signal``'s bytes (``tests/kernels/test_iir.py``); there is no
fallback path.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

__all__ = ["lfilter", "lfilter_zi"]


def _load_sigtools():
    name = "scipy.signal._sigtools"
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(scipy.__file__), "signal")
        spec = importlib.machinery.PathFinder.find_spec("_sigtools", [path])
        if spec is None:
            raise ImportError(f"scipy>=1.8 is required: no _sigtools in {path}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_linear_filter = _load_sigtools()._linear_filter


def _iir_coefficients(b, a):
    b = np.atleast_1d(b)
    a = np.atleast_1d(a)
    # scipy serves len(a) == 1 with a convolution this module lacks.
    if len(a) < 2 or a[0] == 0.0:
        raise ValueError(f"an IIR filter needs len(a) >= 2 and a[0] != 0: {a}")
    return b, a


def lfilter(b, a, x, axis=-1, zi=None):
    """``scipy.signal.lfilter(b, a, x, axis, zi)`` for an IIR filter."""
    b, a = _iir_coefficients(b, a)
    if zi is None:
        return _linear_filter(b, a, np.asarray(x), axis)
    return _linear_filter(b, a, np.asarray(x), axis, np.asarray(zi))


def lfilter_zi(b, a):
    """``scipy.signal.lfilter_zi(b, a)``: the settled state for a unit step."""
    b, a = _iir_coefficients(b, a)
    if a[0] != 1.0:
        b = b / a[0]
        a = a / a[0]
    n = max(len(a), len(b))
    a = np.concatenate((a, np.zeros(n - len(a))))
    b = np.concatenate((b, np.zeros(n - len(b))))
    companion = np.zeros((n - 1, n - 1))
    companion[0, :] = -a[1:] / (1.0 * a[0])
    companion[np.arange(1, n - 1), np.arange(0, n - 2)] = 1
    return np.linalg.solve(np.eye(n - 1) - companion.T, b[1:] - a[1:] * b[0])
