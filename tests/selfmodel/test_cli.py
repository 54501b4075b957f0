"""CLI coverage for the selfmodel loop (no cluster boot needed)."""

import json

import pytest

from repro import artifacts
from repro.cli import main
from repro.selfmodel.fit import fit_parameters
from repro.selfmodel.predict import predict_availability
from repro.selfmodel.topology import ClusterTopology

from tests.selfmodel.conftest import synthetic_measurement


@pytest.fixture
def measurement_path(tmp_path):
    path = tmp_path / "measurement.json"
    path.write_text(
        json.dumps(synthetic_measurement(), sort_keys=True),
        encoding="utf-8",
    )
    return path


class TestSelfmodelCommands:
    def test_fit_writes_artifact(self, measurement_path, tmp_path, capsys):
        out = tmp_path / "fit.json"
        rc = main(
            [
                "selfmodel",
                "fit",
                "--measurement",
                str(measurement_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "La_shard" in capsys.readouterr().out
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["kind"] == "selfmodel-fit"

    def test_predict_writes_report(
        self, measurement_path, tmp_path, capsys
    ):
        out = tmp_path / "prediction.json"
        rc = main(
            [
                "selfmodel",
                "predict",
                "--measurement",
                str(measurement_path),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "predicted availability" in capsys.readouterr().out
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["kind"] == "selfmodel-prediction"
        assert document["validation"]["verdict"] in ("agree", "disagree")

    def test_validate_agrees_on_consistent_data(
        self, measurement_path, capsys
    ):
        rc = main(
            [
                "selfmodel",
                "validate",
                "--measurement",
                str(measurement_path),
            ]
        )
        assert rc == 0
        assert "AGREE" in capsys.readouterr().out.upper()

    def test_validate_flags_disjoint_prediction(
        self, measurement_path, tmp_path, capsys
    ):
        report = synthetic_measurement()
        fitted = fit_parameters(report)
        prediction = predict_availability(
            ClusterTopology(n_shards=4), fitted
        )
        prediction["predicted"]["availability"] = {
            "point": 0.05,
            "lower": 0.01,
            "upper": 0.10,
        }
        stored = tmp_path / "prediction.json"
        artifacts.write(prediction, stored)
        rc = main(
            [
                "selfmodel",
                "validate",
                "--measurement",
                str(measurement_path),
                "--prediction",
                str(stored),
            ]
        )
        assert rc == 1
        assert "DISAGREE" in capsys.readouterr().out.upper()

    def test_fit_on_non_object_measurement_exits_two(
        self, tmp_path, capsys
    ):
        measurement = tmp_path / "measurement.json"
        measurement.write_text("[1, 2]", encoding="utf-8")
        rc = main(
            ["selfmodel", "fit", "--measurement", str(measurement)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(measurement) in line
        assert "Traceback" not in err


class TestFittedModelPaths:
    @pytest.fixture
    def prediction_path(self, tmp_path):
        report = synthetic_measurement()
        fitted = fit_parameters(report)
        prediction = predict_availability(
            ClusterTopology(n_shards=4), fitted, measurement=report
        )
        path = tmp_path / "prediction.json"
        artifacts.write(prediction, path)
        return path

    def test_solve_fitted(self, prediction_path, capsys):
        rc = main(["solve", "--fitted", str(prediction_path)])
        assert rc == 0
        assert "cluster-1of4" in capsys.readouterr().out

    def test_sweep_fitted_default_parameter(
        self, prediction_path, capsys
    ):
        rc = main(
            [
                "sweep",
                "--fitted",
                str(prediction_path),
                "--points",
                "3",
            ]
        )
        assert rc == 0
        assert "Mu_restore" in capsys.readouterr().out

    def test_sweep_fitted_unknown_parameter(
        self, prediction_path, capsys
    ):
        rc = main(
            [
                "sweep",
                "--fitted",
                str(prediction_path),
                "--parameter",
                "La_bogus",
            ]
        )
        assert rc == 2
        assert "unknown fitted parameter" in capsys.readouterr().out

    def test_uncertainty_fitted(self, prediction_path, capsys):
        rc = main(
            [
                "uncertainty",
                "--fitted",
                str(prediction_path),
                "--samples",
                "16",
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        assert "varied parameter" in capsys.readouterr().out
