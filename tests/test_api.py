"""Public API surface and error hierarchy."""

from __future__ import annotations

import pickle

import pytest

import repro
from repro import errors


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_symbols(self):
        # The README quickstart must keep working.
        assert callable(repro.run_solo)
        assert callable(repro.run_colocated)
        assert callable(repro.benchmark)
        assert callable(repro.caer_factory)
        assert repro.CaerConfig.rule_based().detector == "rule-based"

    def test_subpackage_all_exports_resolve(self):
        import repro.analytic
        import repro.arch
        import repro.caer
        import repro.experiments
        import repro.perfmon
        import repro.sim
        import repro.statistical
        import repro.workloads

        for module in (
            repro.arch,
            repro.workloads,
            repro.sim,
            repro.perfmon,
            repro.caer,
            repro.analytic,
            repro.statistical,
            repro.experiments,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        leaf_errors = [
            errors.ConfigError,
            errors.CacheConfigError,
            errors.SimulationError,
            errors.SchedulingError,
            errors.WorkloadError,
            errors.UnknownBenchmarkError,
            errors.PerfmonError,
            errors.DetectorError,
            errors.ExperimentError,
        ]
        for exc in leaf_errors:
            assert issubclass(exc, errors.ReproError)

    def test_scheduling_is_simulation_error(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)

    def test_cache_config_is_config_error(self):
        assert issubclass(errors.CacheConfigError, errors.ConfigError)

    def test_unknown_benchmark_carries_hint(self):
        err = errors.UnknownBenchmarkError("foo", ("a", "b"))
        assert "foo" in str(err)
        assert "a, b" in str(err)

    def test_unknown_benchmark_survives_pickling(self):
        # Errors raised in a pool worker reach the parent pickled.
        err = errors.UnknownBenchmarkError("nope", ("a", "b"))
        back = pickle.loads(pickle.dumps(err))
        assert str(back) == str(err)
        assert (back.name, back.known) == ("nope", ("a", "b"))

    def test_library_failures_catchable_at_root(self):
        with pytest.raises(errors.ReproError):
            repro.benchmark("not-a-benchmark")
        with pytest.raises(errors.ReproError):
            repro.CacheGeometry(num_sets=3, associativity=1)
