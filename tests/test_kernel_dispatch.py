"""Dispatch and wiring tests for ``Param.kernel_backend``.

Covers the selection contract (docs/kernels.md):

- ``Param.kernel_backend`` is validated like every other enum param —
  an unknown name raises a typed :class:`ParamError` with a
  did-you-mean suggestion, never a late ``ImportError``;
- ``"auto"`` probes at :class:`Simulation` construction and silently
  uses the C backend, falling back to NumPy with a
  :class:`KernelBackendWarning` when its library cannot be built;
- the retired names ``numba`` / ``cupy`` raise a typed
  :class:`ParamError` naming ``c`` / ``auto``, wherever a ``Param`` is
  built;
- an *explicitly requested* but unavailable backend also warns and
  falls back — the simulation still runs;
- process-backend workers instantiate their own dispatch table and
  must report the **same** backend the parent resolved (a worker
  silently falling back to a different kernel would poison bitwise
  reproducibility across worker counts);
- the observability registry surfaces ``kernel:backend`` and
  ``kernel:calls`` after stepping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.param import Param, ParamError
from repro.core.simulation import Simulation
from repro.kernels import (
    KNOWN_BACKENDS,
    KernelBackendWarning,
    available_backends,
    make_kernels,
    worker_kernels,
)
from repro.kernels import dispatch as dispatch_mod


class TestParamValidation:
    def test_default_is_numpy(self):
        assert Param().kernel_backend == "numpy"

    @pytest.mark.parametrize("name", ["numpy", "c", "auto"])
    def test_known_names_validate(self, name):
        Param(kernel_backend=name).validate()

    @pytest.mark.parametrize("name", ["numba", "cupy"])
    def test_retired_names_name_the_replacement(self, name, tmp_path):
        message = rf"{name!r} was removed; use 'c' .* or 'auto'"
        with pytest.raises(ParamError, match=message):
            Param(kernel_backend=name)
        with pytest.raises(ParamError, match=message):
            Param.optimized().with_(kernel_backend=name)
        toml = tmp_path / "bdm.toml"
        toml.write_text(f'[param]\nkernel_backend = "{name}"\n')
        with pytest.raises(ParamError, match=message):
            Param.from_file(toml)

    def test_retired_name_in_serve_params_is_a_typed_setup_error(self):
        from repro.serve.session import SessionSetupError, build_session_sim

        spec = {"model": "oncology", "agents": 10, "seed": 1,
                "params": {"kernel_backend": "numba"}}
        with pytest.raises(SessionSetupError, match="'c'") as info:
            build_session_sim(spec)
        assert info.value.code == "unsupported_param"

    def test_typo_gets_suggestion(self):
        with pytest.raises(ParamError, match=r"did you mean 'numpy'"):
            Param(kernel_backend="numpa").validate()
        with pytest.raises(ParamError, match=r"did you mean 'auto'"):
            Param(kernel_backend="atuo").validate()

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ParamError, match="numpy, c, auto"):
            Param(kernel_backend="fortran").validate()

    def test_non_string_rejected(self):
        with pytest.raises(ParamError):
            Param(kernel_backend=7).validate()


class TestDispatch:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        kb = make_kernels("numpy", warn=False)
        assert kb.name == "numpy" and not kb.compiled

    def test_auto_falls_back_to_numpy_when_compiled_absent(self, monkeypatch):
        monkeypatch.setattr(dispatch_mod, "_probe",
                            lambda name: name == "numpy")
        # The fallback must warn (so silent slow runs are visible) but
        # never raise.
        with pytest.warns(KernelBackendWarning, match="auto"):
            kb = make_kernels("auto")
        assert kb.name == "numpy"

    def test_explicit_unavailable_warns_never_raises(self, monkeypatch):
        monkeypatch.setattr(dispatch_mod, "_probe",
                            lambda name: name == "numpy")
        with pytest.warns(KernelBackendWarning, match="'c'"):
            kb = make_kernels("c")
        assert kb.name == "numpy"  # degraded, but functional

    def test_auto_prefers_compiled_when_probe_says_available(self,
                                                             monkeypatch):
        # Simulate "the C library is built": auto must pick it over numpy.
        # The constructor is also patched so the test runs without cc.
        sentinel = make_kernels("numpy", warn=False)
        sentinel.name = "c"
        monkeypatch.setattr(dispatch_mod, "_probe", lambda name: True)
        monkeypatch.setattr(dispatch_mod, "_construct",
                            lambda name: sentinel)
        kb = make_kernels("auto", warn=False)
        assert kb.name == "c"

    def test_worker_kernels_caches_per_name(self):
        dispatch_mod._WORKER_CACHE.clear()
        kb1 = worker_kernels("numpy")
        kb2 = worker_kernels("numpy")
        assert kb1 is kb2

    def test_known_backends_tuple(self):
        assert KNOWN_BACKENDS == ("numpy", "c")


def _clustered_sim(**overrides) -> Simulation:
    """A sim whose agents overlap, so the CSR (and kernels) do work."""
    param = Param(**overrides)
    sim = Simulation("kdisp", param, seed=9)
    rng = np.random.default_rng(9)
    sim.add_cells(rng.uniform(0, 30, (120, 3)), diameters=10.0)
    return sim


class TestSimulationWiring:
    def test_simulation_resolves_backend_at_construction(self):
        sim = _clustered_sim(kernel_backend="numpy")
        assert sim.kernels.name == "numpy"

    def test_unavailable_request_warns_and_still_runs(self, monkeypatch):
        monkeypatch.setattr(dispatch_mod, "_probe",
                            lambda name: name == "numpy")
        with pytest.warns(KernelBackendWarning):
            sim = _clustered_sim(kernel_backend="c")
        assert sim.kernels.name == "numpy"
        sim.simulate(2)  # degraded mode must remain functional
        assert sim.kernels.calls > 0

    def test_obs_counters_after_serial_step(self):
        sim = _clustered_sim(kernel_backend="numpy")
        sim.simulate(2)
        snap = sim.obs.registry.snapshot()
        assert snap["kernel:backend"] == "numpy"
        assert snap["kernel:calls"] > 0
        assert snap["kernel:fallbacks"] == 0
        assert snap["kernel:threads"] == 1
        assert "kernel:build" not in snap    # the C library was not asked

    def test_process_workers_report_parent_backend(self):
        sim = _clustered_sim(kernel_backend="numpy",
                             execution_backend="process",
                             backend_workers=2, backend_chunk_size=32)
        try:
            sim.simulate(2)
            reported = sim.backend.worker_kernel_backends
            assert reported, "no worker ever reported a kernel backend"
            assert set(reported.values()) == {sim.kernels.name}
            snap = sim.obs.registry.snapshot()
            assert snap["kernel:worker_calls"] > 0
        finally:
            sim.close()

    def test_serial_and_process_bitwise_identical_positions(self):
        def positions(backend_overrides):
            sim = _clustered_sim(kernel_backend="numpy",
                                 **backend_overrides)
            try:
                sim.simulate(3)
                return sim.rm.positions.copy()
            finally:
                sim.close()

        serial = positions({})
        process = positions({"execution_backend": "process",
                             "backend_workers": 2,
                             "backend_chunk_size": 32})
        assert serial.tobytes() == process.tobytes()


class TestOptimizedParamSelectsAuto:
    """Regression for ``Param.optimized()`` flipping to kernel
    auto-detection: optimized configs must pick the C backend, and on a
    box that cannot build it must degrade to numpy with exactly one
    visible warning — never an ImportError."""

    def test_optimized_defaults_to_auto(self):
        p = Param.optimized()
        assert p.kernel_backend == "auto"
        p.validate()

    def test_optimized_override_wins(self):
        assert Param.optimized(kernel_backend="numpy").kernel_backend \
            == "numpy"

    def test_plain_param_still_defaults_to_numpy(self):
        # The reference default stays pinned: only optimized() opts into
        # auto-detection.
        assert Param().kernel_backend == "numpy"

    def test_optimized_on_wheelless_box_warns_once_and_runs_numpy(
            self, monkeypatch):
        monkeypatch.setattr(dispatch_mod, "_probe",
                            lambda name: name == "numpy")
        with pytest.warns(KernelBackendWarning, match="auto") as record:
            sim = Simulation("opt", Param.optimized(), seed=9)
        try:
            kb = [w for w in record
                  if issubclass(w.category, KernelBackendWarning)]
            assert len(kb) == 1
            assert sim.kernels.name == "numpy"
            rng = np.random.default_rng(9)
            sim.add_cells(rng.uniform(0, 30, (60, 3)), diameters=10.0)
            sim.simulate(2)  # degraded mode must stay functional
            assert sim.kernels.calls > 0
        finally:
            sim.close()
