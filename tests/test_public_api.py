"""The curated public facade: everything in repro.__all__ imports, and
none of it warns."""

import warnings

import pytest

import repro


class TestCuratedSurface:
    def test_every_all_entry_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_duplicates_in_all(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)

    def test_core_names_identical_to_defining_modules(self):
        from repro.core.param import Param, ParamError
        from repro.core.scheduler import Scheduler
        from repro.core.simulation import Simulation

        assert repro.Param is Param
        assert repro.ParamError is ParamError
        assert repro.Scheduler is Scheduler
        assert repro.Simulation is Simulation

    def test_observability_names_from_obs(self):
        from repro.obs import Observability, chrome_trace, write_chrome_trace

        assert repro.Observability is Observability
        assert repro.chrome_trace is chrome_trace
        assert repro.write_chrome_trace is write_chrome_trace

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist


class TestDeprecationShims:
    def test_curated_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.Tracer
            repro.Observability
            repro.write_metrics
