"""End-to-end loop test: live drill -> fit -> predict -> validate."""

import json

import pytest

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.pipeline import run_selfmodel_drill


class TestSelfmodelDrill:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("selfmodel")
        result = run_selfmodel_drill(
            n_shards=2, requests=8, kills=1, seed=11, probes=4
        )
        artifacts.write(result["prediction"], tmp_path / "prediction.json")
        return result, tmp_path

    def test_loop_closes_with_agreement(self, outcome):
        """Acceptance: the measured cluster's fitted model predicts an
        availability interval overlapping the measured probe interval."""
        result, _ = outcome
        prediction = result["prediction"]
        validation = prediction["validation"]
        assert validation["verdict"] == "agree"
        band = prediction["predicted"]["availability"]
        assert band["lower"] <= band["point"] <= band["upper"]

    def test_fit_carries_drill_rates(self, outcome):
        result, _ = outcome
        fitted = result["fitted"]
        assert fitted.rates["La_shard"].n == 1  # one seeded kill
        assert fitted.rates["Mu_detect"].point > 0.0
        assert result["topology"].n_shards == 2

    def test_prediction_artifact_on_disk(self, outcome):
        _, tmp_path = outcome
        artifact = json.loads(
            (tmp_path / "prediction.json").read_text(encoding="utf-8")
        )
        assert artifact["kind"] == "selfmodel-prediction"
        assert artifact["validation"]["verdict"] == "agree"
        assert artifact["deterministic"]["measurement"]["kill_count"] == 1

    def test_rejects_probe_free_drill(self):
        with pytest.raises(SelfModelError, match="probe"):
            run_selfmodel_drill(
                n_shards=2, requests=8, kills=1, seed=11, probes=0
            )

    def test_rejects_kill_free_drill(self):
        with pytest.raises(SelfModelError, match="kill"):
            run_selfmodel_drill(
                n_shards=2, requests=8, kills=0, seed=11, probes=4
            )
