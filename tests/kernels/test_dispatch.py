"""Backend selection and dispatch behaviour of repro.kernels."""

import numpy as np
import pytest

from repro import kernels
from repro.errors import CircuitError, KernelError
from repro.kernels.cascade import CascadeStage


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as it found it."""
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


class TestSelection:
    def test_backend_names_are_python_and_numpy(self):
        assert kernels.BACKEND_NAMES == ("python", "numpy")

    def test_set_backend_returns_resolved_name(self):
        assert kernels.set_backend("python") == "python"
        assert kernels.active_backend() == "python"

    def test_auto_prefers_fastest_available(self):
        assert kernels.set_backend("auto") == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(KernelError):
            kernels.set_backend("fortran")

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
        for name in ("python", "numpy", "auto"):
            assert name in message

    @pytest.mark.parametrize("removed", ["gpu", "numba"])
    def test_is_not_a_backend(self, monkeypatch, removed):
        # Deleted backends fail loudly, by name and through the
        # environment alike, and the error offers only the real ones.
        with pytest.raises(KernelError) as by_name:
            kernels.set_backend(removed)
        monkeypatch.setenv("REPRO_KERNELS", removed)
        with pytest.raises(KernelError) as by_env:
            kernels.reset_backend()
        for excinfo in (by_name, by_env):
            message = str(excinfo.value)
            assert f"'{removed}'" in message
            offered = message.replace(f"'{removed}'", "")
            for name in ("python", "numpy", "auto"):
                assert name in offered
            assert "numba" not in offered


def _one_stage(max_step, corner):
    """A noiseless one-stage cascade plan (a standalone buffer)."""
    return [
        CascadeStage(
            amplitude=np.asarray(0.4),
            amplitude_min=0.1,
            v_linear=0.03,
            max_step=max_step,
            corner=corner,
            order=3,
            b=np.array([0.5, 0.5]),
            a=np.array([1.0, 0.0]),
            zi_unit=np.array([0.5]),
        )
    ]


class TestWrapperValidation:
    @pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
    def test_slew_limit_rejects_bad_step(self, backend):
        with kernels.use_backend(backend):
            with pytest.raises(CircuitError):
                kernels.fine_delay_cascade(
                    np.zeros(4), _one_stage(0.0, np.inf), 1e-12
                )

    @pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
    def test_compressive_rejects_bad_step(self, backend):
        with kernels.use_backend(backend):
            with pytest.raises(CircuitError):
                kernels.fine_delay_cascade(
                    np.ones(4), _one_stage(-1.0, 6e9), 1e-12
                )

    @pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
    def test_kernels_accept_non_float_input(self, backend):
        stages = _one_stage(10.0, 6e9)
        with kernels.use_backend(backend):
            out = kernels.fine_delay_cascade([0, 1, 2, 3], stages, 1e-12)
            expected = kernels.fine_delay_cascade(
                np.array([0.0, 1.0, 2.0, 3.0]), stages, 1e-12
            )
        assert out.dtype == np.float64
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
    def test_empty_edge_sets(self, backend):
        with kernels.use_backend(backend):
            assert kernels.match_edges(
                np.empty(0), np.array([1.0]), 0.0, 1.0
            ).size == 0
            assert kernels.nearest_edge_margin(
                np.empty(0), np.array([1.0])
            ) == float("inf")
