"""Backend selection and dispatch behaviour of repro.kernels."""

import numpy as np
import pytest

from repro import instrument, kernels
from repro.errors import CircuitError, KernelError


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


NUMBA_AVAILABLE = "numba" in kernels.available_backends()


class TestAvailability:
    def test_reference_backends_always_available(self):
        backends = kernels.available_backends()
        assert "python" in backends
        assert "numpy" in backends

    def test_backend_names_superset(self):
        assert set(kernels.available_backends()) <= set(kernels.BACKEND_NAMES)


class TestSelection:
    def test_set_backend_returns_resolved_name(self):
        assert kernels.set_backend("python") == "python"
        assert kernels.active_backend() == "python"

    def test_auto_prefers_fastest_available(self):
        resolved = kernels.set_backend("auto")
        expected = "numba" if NUMBA_AVAILABLE else "numpy"
        assert resolved == expected

    def test_unknown_backend_raises(self):
        with pytest.raises(KernelError):
            kernels.set_backend("fortran")

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_missing_numba_raises_when_explicit(self):
        with pytest.raises(KernelError):
            kernels.set_backend("numba")

    def test_use_backend_restores_previous(self):
        kernels.set_backend("numpy")
        with kernels.use_backend("python") as resolved:
            assert resolved == "python"
            assert kernels.active_backend() == "python"
        assert kernels.active_backend() == "numpy"

    def test_use_backend_restores_on_error(self):
        kernels.set_backend("numpy")
        with pytest.raises(RuntimeError):
            with kernels.use_backend("python"):
                raise RuntimeError("boom")
        assert kernels.active_backend() == "numpy"


class TestEnvironmentOverride:
    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert kernels.reset_backend() == "python"
        assert kernels.active_backend() == "python"

    def test_env_var_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        expected = "numba" if NUMBA_AVAILABLE else "numpy"
        assert kernels.reset_backend() == expected

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_env_var_degrades_gracefully(self, monkeypatch):
        # CI matrices export REPRO_KERNELS=numba unconditionally; a
        # pure-python environment must warn and fall back, not crash.
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        with pytest.warns(RuntimeWarning):
            assert kernels.reset_backend() == "numpy"


class TestUnknownEnvValue:
    def test_unknown_env_value_raises_listing_backends(self, monkeypatch):
        # A typo must not silently run a different backend.
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        with pytest.raises(KernelError) as excinfo:
            kernels.reset_backend()
        message = str(excinfo.value)
        assert "REPRO_KERNELS" in message
        assert "'cuda'" in message
        for name in ("python", "numpy", "numba", "auto"):
            assert name in message

    def test_gpu_is_not_a_backend(self, monkeypatch):
        # There is no device backend: asking for one fails loudly, by
        # name and through the environment alike.
        with pytest.raises(KernelError) as by_name:
            kernels.set_backend("gpu")
        monkeypatch.setenv("REPRO_KERNELS", "gpu")
        with pytest.raises(KernelError) as by_env:
            kernels.reset_backend()
        for excinfo in (by_name, by_env):
            message = str(excinfo.value)
            assert "'gpu'" in message
            for name in ("python", "numpy", "numba", "auto"):
                assert name in message

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_known_but_unavailable_still_degrades(self, monkeypatch):
        # The raise is only for *unknown* names: a known backend that is
        # merely unavailable keeps the warn-and-fall-back contract.
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        with pytest.warns(RuntimeWarning):
            assert kernels.reset_backend() == "numpy"


class TestFallbackChains:
    """The numba-absent -> numpy chain."""

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="numba is installed")
    def test_numba_absent_env_chain_lands_on_numpy_with_counter(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNELS", "numba")
        with pytest.warns(RuntimeWarning):
            assert kernels.reset_backend() == "numpy"
        with instrument.enabled_scope(reset=True) as registry:
            kernels.slew_limit(np.zeros(8), max_step=0.1)
            counters = registry.snapshot()["counters"]
        assert counters["kernels.backend.numpy.calls"] == 1
        assert "kernels.backend.numba.calls" not in counters


class TestWrapperValidation:
    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_slew_limit_rejects_bad_step(self, backend):
        with kernels.use_backend(backend):
            with pytest.raises(CircuitError):
                kernels.slew_limit(np.zeros(4), max_step=0.0)

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_compressive_rejects_bad_step(self, backend):
        with kernels.use_backend(backend):
            with pytest.raises(CircuitError):
                kernels.compressive_slew_limit(
                    np.ones(4), np.ones(4), np.ones(4),
                    max_step=-1.0, dt=1e-12, hysteresis=0.1,
                    corner=6e9, order=3,
                )

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_kernels_accept_non_float_input(self, backend):
        with kernels.use_backend(backend):
            out = kernels.slew_limit([0, 1, 2, 3], max_step=10.0)
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_empty_edge_sets(self, backend):
        with kernels.use_backend(backend):
            assert kernels.match_edges(
                np.empty(0), np.array([1.0]), 0.0, 1.0
            ).size == 0
            assert kernels.nearest_edge_margin(
                np.empty(0), np.array([1.0])
            ) == float("inf")
