"""Unit tests for rate fitting from measurement reports."""

import pytest

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.fit import (
    SECONDS_PER_HOUR,
    FittedParameters,
    FittedRate,
    fit_parameters,
    parameters_for,
)

from tests.selfmodel.conftest import synthetic_measurement


class TestFittedRate:
    def test_interval_brackets_point(self):
        rate = FittedRate(
            name="Mu_detect",
            point=10.0,
            lower=5.0,
            upper=20.0,
            n=3,
            confidence=0.95,
            source="phase:detect",
            method="exponential_mle",
        )
        assert rate.has_interval
        assert rate.mean_hours == pytest.approx(0.1)

    def test_degenerate_interval_allowed(self):
        rate = FittedRate(
            name="Mu_worker",
            point=10.0,
            lower=10.0,
            upper=10.0,
            n=1,
            confidence=0.95,
            source="tied:Mu_restore",
            method="tied",
        )
        assert not rate.has_interval

    def test_non_positive_point_rejected(self):
        with pytest.raises(SelfModelError, match="positive"):
            FittedRate(
                name="La_shard",
                point=0.0,
                lower=0.0,
                upper=1.0,
                n=0,
                confidence=0.95,
                source="life-test",
                method="eq2_life_test",
            )

    def test_inconsistent_interval_rejected(self):
        with pytest.raises(SelfModelError, match="inconsistent"):
            FittedRate(
                name="La_shard",
                point=5.0,
                lower=6.0,
                upper=7.0,
                n=1,
                confidence=0.95,
                source="life-test",
                method="eq2_life_test",
            )

    def test_roundtrip(self):
        rate = FittedRate(
            name="La_shard",
            point=2.0,
            lower=1.0,
            upper=4.0,
            n=2,
            confidence=0.9,
            source="life-test",
            method="eq2_life_test",
            conservative=True,
        )
        assert FittedRate.from_dict(rate.to_dict()) == rate


class TestFitParameters:
    def test_phase_rates_fitted_per_hour(self, measurement):
        fitted = fit_parameters(measurement)
        detect = measurement["recovery_phases"]["detect"]
        expected = len(detect) / sum(detect) * SECONDS_PER_HOUR
        assert fitted.rates["Mu_detect"].point == pytest.approx(expected)
        assert fitted.rates["Mu_detect"].n == len(detect)
        assert fitted.rates["Mu_detect"].source == "phase:detect"
        assert (
            fitted.rates["Mu_detect"].lower
            < fitted.rates["Mu_detect"].point
            < fitted.rates["Mu_detect"].upper
        )

    def test_failure_rate_from_life_test(self, measurement):
        fitted = fit_parameters(measurement)
        shard = fitted.rates["La_shard"]
        exposure_hours = (
            measurement["exposure"]["shard_seconds"] / SECONDS_PER_HOUR
        )
        assert shard.point == pytest.approx(2 / exposure_hours)
        assert shard.n == 2
        assert not shard.conservative
        assert shard.lower < shard.point < shard.upper

    def test_zero_kills_uses_conservative_bound(self):
        report = synthetic_measurement(kills=0)
        fitted = fit_parameters(report)
        shard = fitted.rates["La_shard"]
        assert shard.conservative
        assert shard.n == 0
        assert shard.point == shard.upper

    def test_missing_phases_rejected(self, measurement):
        report = dict(measurement)
        report["recovery_phases"] = {"detect": [], "respawn": []}
        with pytest.raises(SelfModelError, match="recovery episodes"):
            fit_parameters(report)

    def test_zero_exposure_rejected(self, measurement):
        report = dict(measurement)
        report["exposure"] = {"shard_seconds": 0.0, "kill_count": 2}
        with pytest.raises(SelfModelError, match="exposure"):
            fit_parameters(report)

    def test_worker_tier_opt_in(self, measurement):
        fitted = fit_parameters(
            measurement, include_workers=True, worker_processes=2
        )
        assert fitted.rates["La_worker"].conservative
        assert fitted.rates["Mu_worker"].method == "tied"
        assert fitted.rates["Mu_worker"].point == pytest.approx(
            fitted.rates["Mu_restore"].point
        )

    def test_cache_tier_tied_to_shard(self, measurement):
        fitted = fit_parameters(measurement, include_cache=True)
        assert fitted.rates["La_cache"].point == pytest.approx(
            fitted.rates["La_shard"].point
        )
        assert fitted.rates["Mu_cache"].source == "tied:Mu_restore"

    def test_diagnostics_track_restore_consistency(self, measurement):
        fitted = fit_parameters(measurement)
        ratio = fitted.diagnostics["restore_consistency_ratio"]
        # Synthetic restore samples are exactly detect + respawn, but
        # rates compose harmonically, so the ratio is near — not at — 1.
        assert 0.5 < ratio < 2.0

    def test_interval_parameters_sorted(self, measurement):
        fitted = fit_parameters(measurement)
        assert fitted.interval_parameters() == (
            "La_shard",
            "Mu_detect",
            "Mu_restore",
        )

    def test_require_raises_on_missing(self, measurement):
        fitted = fit_parameters(measurement)
        with pytest.raises(SelfModelError, match="La_worker"):
            fitted.require(("La_shard", "La_worker"))


class TestArtifacts:
    def test_fit_roundtrip_through_disk(self, measurement, tmp_path):
        fitted = fit_parameters(measurement)
        path = artifacts.write(fitted.to_dict(), tmp_path / "fit.json")
        loaded = FittedParameters.from_dict(
            artifacts.load(path, "selfmodel-fit")
        )
        assert loaded.rates == fitted.rates
        assert loaded.seed == measurement["seed"]
        assert loaded.n_shards == measurement["n_shards"]

    def test_parameters_for_subsets(self, measurement):
        fitted = fit_parameters(
            measurement, include_workers=True, worker_processes=2
        )
        shard_only = parameters_for(fitted)
        assert sorted(shard_only) == [
            "La_shard",
            "Mu_detect",
            "Mu_restore",
        ]
        with_workers = parameters_for(fitted, include_workers=True)
        assert "Mu_worker" in with_workers

    def test_summary_lists_rates(self, measurement):
        text = fit_parameters(measurement).summary()
        assert "La_shard" in text
        assert "Mu_restore" in text
