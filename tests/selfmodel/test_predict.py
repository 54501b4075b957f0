"""Unit tests for the prediction report and its corner propagation."""

import json

import pytest

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.fit import fit_parameters
from repro.selfmodel.predict import (
    predict_availability,
    render_prediction_report,
)
from repro.selfmodel.topology import ClusterTopology


@pytest.fixture
def fitted(measurement):
    return fit_parameters(measurement)


@pytest.fixture
def topology():
    return ClusterTopology(n_shards=4, quorum=1)


class TestPrediction:
    def test_bands_are_ordered(self, topology, fitted):
        report = predict_availability(topology, fitted)
        availability = report["predicted"]["availability"]
        assert (
            availability["lower"]
            <= availability["point"]
            <= availability["upper"]
        )
        assert 0.0 < availability["lower"] < 1.0
        downtime = report["predicted"]["yearly_downtime_minutes"]
        assert downtime["lower"] <= downtime["point"] <= downtime["upper"]

    def test_corner_count(self, topology, fitted):
        report = predict_availability(topology, fitted)
        m = len(report["deterministic"]["interval_parameters"])
        assert report["deterministic"]["n_samples"] == 1 + 2**m
        assert m == 3  # La_shard, Mu_detect, Mu_restore all have CIs

    def test_deterministic_block_is_seed_pure(self, topology, fitted):
        a = predict_availability(topology, fitted)["deterministic"]
        b = predict_availability(topology, fitted)["deterministic"]
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )
        # Parameter *names* only — fitted values are wall-clock-tainted.
        assert a["parameters"] == ["La_shard", "Mu_detect", "Mu_restore"]
        for name in a["parameters"]:
            assert name not in json.dumps(a["model"])

    def test_measurement_stamped_into_deterministic(
        self, topology, fitted, measurement
    ):
        report = predict_availability(
            topology, fitted, measurement=measurement
        )
        stamped = report["deterministic"]["measurement"]
        assert stamped["seed"] == measurement["seed"]
        assert stamped["kill_count"] == 2
        assert report["measured"]["n_probes"] == 8

    def test_shard_submodel_reported(self, topology, fitted):
        report = predict_availability(topology, fitted)
        shard = report["submodels"]["shard"]
        assert 0.0 < shard["availability"] < 1.0
        assert not shard["masked"]

    def test_interval_cap_enforced(self, topology, fitted, monkeypatch):
        import repro.selfmodel.predict as predict_module

        monkeypatch.setattr(
            predict_module, "MAX_INTERVAL_PARAMETERS", 2
        )
        with pytest.raises(SelfModelError, match="corner solves"):
            predict_availability(topology, fitted)

    def test_wider_intervals_widen_the_band(self, topology, measurement):
        tight = fit_parameters(measurement, confidence=0.50)
        wide = fit_parameters(measurement, confidence=0.99)
        band_tight = predict_availability(topology, tight)["predicted"][
            "availability"
        ]
        band_wide = predict_availability(topology, wide)["predicted"][
            "availability"
        ]
        assert band_wide["lower"] <= band_tight["lower"]
        assert band_wide["upper"] >= band_tight["upper"]


class TestReportIo:
    def test_write_load_roundtrip(self, topology, fitted, tmp_path):
        report = predict_availability(topology, fitted)
        path = artifacts.write(report, tmp_path / "pred.json")
        loaded = artifacts.load(path, "selfmodel-prediction")
        assert loaded["schema"] == artifacts.SCHEMAS["selfmodel-prediction"]
        assert loaded["predicted"]["availability"] == pytest.approx(
            report["predicted"]["availability"]
        )

    def test_render_mentions_topology_and_band(self, topology, fitted):
        text = render_prediction_report(
            predict_availability(topology, fitted)
        )
        assert "1-of-4" in text
        assert "predicted availability" in text
