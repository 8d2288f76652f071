"""The detector zoo: GMM fence, CDF quantile, proactive analytic.

Unit behaviour with synthetic observations, and determinism (same
inputs, same verdicts — no hidden RNG).  A run under each zoo detector
is pinned in ``tests/golden``.
"""

from __future__ import annotations

import pytest

from repro.caer.cdf_detector import CdfQuantileDetector
from repro.caer.detector import Observation
from repro.caer.gmm_detector import GmmFenceDetector, fit_two_gaussians
from repro.caer.proactive import (
    AnalyticProactiveDetector,
    predicted_miss_fence,
)
from repro.config import MachineConfig
from repro.errors import ConfigError


def obs(neighbor=0.0, own=0.0, neighbor_mean=None, own_mean=None,
        period=0) -> Observation:
    return Observation(
        own_misses=own,
        neighbor_misses=neighbor,
        own_mean=own if own_mean is None else own_mean,
        neighbor_mean=(
            neighbor if neighbor_mean is None else neighbor_mean
        ),
        period=period,
    )


class TestFitTwoGaussians:
    def test_separates_two_clusters(self):
        samples = [10.0, 11.0, 9.0, 10.5] * 5 + [100.0, 101.0, 99.0] * 5
        (mu_low, sigma_low), (mu_high, _) = fit_two_gaussians(samples)
        assert 8.0 < mu_low < 13.0
        assert 95.0 < mu_high < 105.0
        assert sigma_low < 5.0

    def test_sorted_by_mean(self):
        quiet, loud = fit_two_gaussians([5.0, 5.1, 90.0, 91.0])
        assert quiet[0] <= loud[0]

    def test_deterministic(self):
        samples = [1.0, 2.0, 3.0, 50.0, 51.0, 52.0]
        assert fit_two_gaussians(samples) == fit_two_gaussians(samples)

    def test_degenerate_constant_sample(self):
        quiet, loud = fit_two_gaussians([7.0] * 10)
        assert quiet[0] == pytest.approx(7.0)
        assert loud[0] == pytest.approx(7.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigError):
            fit_two_gaussians([])


class TestGmmFence:
    def test_no_verdicts_while_training(self):
        detector = GmmFenceDetector(train_periods=8)
        for i in range(7):
            step = detector.step(obs(neighbor=10.0, period=i))
            assert step.assertion is None
        assert detector.fence is None

    def test_fence_separates_quiet_from_loud(self):
        detector = GmmFenceDetector(train_periods=16, fence_sigma=2.0)
        values = [10.0, 11.0, 9.0, 10.5] * 2 + [100.0, 101.0] * 4
        for i, value in enumerate(values):
            detector.step(obs(neighbor=value, period=i))
        assert detector.fence is not None
        assert detector.step(obs(neighbor=9.0)).assertion is False
        assert detector.step(obs(neighbor=150.0)).assertion is True

    def test_noise_floor_floors_fence(self):
        detector = GmmFenceDetector(train_periods=4, noise_floor=50.0)
        for i in range(4):
            detector.step(obs(neighbor=1.0, period=i))
        assert detector.fence >= 50.0

    def test_deterministic_across_instances(self):
        values = [10.0] * 4 + [80.0, 10.0, 90.0, 12.0] * 8
        verdicts = []
        for _ in range(2):
            detector = GmmFenceDetector(train_periods=8)
            for i, value in enumerate(values):
                detector.step(obs(neighbor=value, period=i))
            verdicts.append(list(detector.verdicts))
        assert verdicts[0] == verdicts[1]

    def test_refit_tracks_phase_change(self):
        detector = GmmFenceDetector(train_periods=8, refit_every=8)
        for i in range(8):
            detector.step(obs(neighbor=10.0, period=i))
        first_fence = detector.fence
        for i in range(8, 24):
            detector.step(obs(neighbor=1000.0 + i, period=i))
        assert detector.fence != first_fence

    def test_validation(self):
        with pytest.raises(ConfigError):
            GmmFenceDetector(train_periods=2)
        with pytest.raises(ConfigError):
            GmmFenceDetector(fence_sigma=0.0)
        with pytest.raises(ConfigError):
            GmmFenceDetector(refit_every=-1)


class TestCdfQuantile:
    def test_no_verdicts_until_min_samples(self):
        detector = CdfQuantileDetector(window=8, min_samples=4)
        for i in range(3):
            step = detector.step(obs(neighbor=5.0, own=9.0, period=i))
            assert step.assertion is None

    def test_tail_value_asserts(self):
        detector = CdfQuantileDetector(
            window=16, quantile=0.8, min_samples=4
        )
        for i in range(8):
            detector.step(obs(neighbor=float(i), own=9.0, period=i))
        assert detector.step(
            obs(neighbor=100.0, own=9.0)
        ).assertion is True

    def test_median_value_does_not_assert(self):
        detector = CdfQuantileDetector(
            window=16, quantile=0.8, min_samples=4
        )
        for i in range(8):
            detector.step(obs(neighbor=float(i), own=9.0, period=i))
        assert detector.step(
            obs(neighbor=4.0, own=9.0)
        ).assertion is False

    def test_idle_batch_never_blamed(self):
        """Algorithm-2 logic: an idle batch cannot be the cause."""
        detector = CdfQuantileDetector(
            window=16, quantile=0.8, min_samples=4, noise_floor=1.0
        )
        for i in range(8):
            detector.step(obs(neighbor=float(i), own=9.0, period=i))
        assert detector.step(
            obs(neighbor=100.0, own=0.0, own_mean=0.0)
        ).assertion is False

    def test_rank_computed_before_ingest(self):
        """A sustained burst cannot immediately re-normalise itself."""
        detector = CdfQuantileDetector(
            window=16, quantile=0.8, min_samples=4
        )
        for i in range(4):
            detector.step(obs(neighbor=1.0, own=9.0, period=i))
        for i in range(4, 8):
            assert detector.step(
                obs(neighbor=100.0, own=9.0, period=i)
            ).assertion is True

    def test_validation(self):
        with pytest.raises(ConfigError):
            CdfQuantileDetector(window=2)
        with pytest.raises(ConfigError):
            CdfQuantileDetector(quantile=0.0)
        with pytest.raises(ConfigError):
            CdfQuantileDetector(window=8, min_samples=9)


class TestProactive:
    def test_rising_trend_asserts_before_fence(self):
        detector = AnalyticProactiveDetector(
            fence=100.0, horizon=4, window=8
        )
        value = 0.0
        last = None
        for i in range(8):
            value += 10.0  # reaches 80 observed; projected 80+4*10 > 100
            last = detector.step(obs(neighbor_mean=value, period=i))
        assert last.assertion is True

    def test_flat_quiet_signal_never_asserts(self):
        detector = AnalyticProactiveDetector(fence=100.0)
        for i in range(10):
            step = detector.step(obs(neighbor_mean=50.0, period=i))
        assert step.assertion is False

    def test_projection_is_linear_extrapolation(self):
        detector = AnalyticProactiveDetector(
            fence=1000.0, horizon=2, window=4
        )
        for i, value in enumerate([10.0, 20.0, 30.0, 40.0]):
            detector.step(obs(neighbor_mean=value, period=i))
        assert detector.project() == pytest.approx(60.0)

    def test_deterministic(self):
        values = [10.0, 30.0, 20.0, 50.0, 40.0, 90.0] * 4
        verdicts = []
        for _ in range(2):
            detector = AnalyticProactiveDetector(fence=45.0)
            for i, value in enumerate(values):
                detector.step(obs(neighbor_mean=value, period=i))
            verdicts.append(list(detector.verdicts))
        assert verdicts[0] == verdicts[1]

    def test_predicted_fence_between_solo_and_colo(self):
        machine = MachineConfig.tiny()
        fence = predicted_miss_fence("429.mcf", machine)
        assert fence > 0.0
        # memoised: second call returns the identical object/value
        assert predicted_miss_fence("429.mcf", machine) == fence

    def test_validation(self):
        with pytest.raises(ConfigError):
            AnalyticProactiveDetector(fence=-1.0)
        with pytest.raises(ConfigError):
            AnalyticProactiveDetector(fence=1.0, window=1)
