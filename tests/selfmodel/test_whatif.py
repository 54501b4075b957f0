"""Unit tests for the what-if surface and the model catalog hookup."""

import numpy as np
import pytest

from repro.exceptions import ArtifactError, ModelError, SelfModelError
from repro.models.catalog import (
    build_model,
    model_builder_names,
    register_model_builder,
)
from repro.selfmodel.fit import fit_parameters
from repro.selfmodel.predict import predict_availability
from repro.selfmodel.topology import ClusterTopology
from repro.selfmodel.whatif import ClusterSelfModel

from tests.selfmodel.conftest import synthetic_measurement


@pytest.fixture
def model(measurement):
    topology = ClusterTopology(n_shards=4)
    return ClusterSelfModel(topology, fit_parameters(measurement))


class TestClusterSelfModel:
    def test_name_encodes_quorum(self, model):
        assert model.name == "cluster-1of4"

    def test_solve_at_base_values(self, model):
        result = model.solve()
        assert 0.0 < result.system.availability < 1.0

    def test_override_moves_the_answer(self, model):
        base = model.solve().system.availability
        slower = model.solve(
            {"Mu_restore": model.base_values["Mu_restore"] / 100.0}
        ).system.availability
        assert slower < base

    def test_unknown_overrides_ignored(self, model):
        base = model.solve().system.availability
        same = model.solve({"La_unknown": 123.0}).system.availability
        assert same == pytest.approx(base)

    def test_solve_batch_columns(self, model):
        column = np.array(
            [model.base_values["Mu_restore"]] * 3
        ) * np.array([0.5, 1.0, 2.0])
        solution = model.solve_batch(
            {"Mu_restore": column}, n_samples=3
        )
        availability = np.asarray(solution.availability)
        assert availability[0] < availability[1] < availability[2]

    def test_metric_is_batchable(self, model):
        metric = model.metric("availability")
        values = dict(model.base_values)
        assert 0.0 < metric(values) < 1.0

    def test_uncertainty_distributions_from_intervals(self, model):
        analysis = model.uncertainty_analysis()
        assert set(analysis.distributions) == {
            "La_shard",
            "Mu_detect",
            "Mu_restore",
        }


class TestFromArtifact:
    def test_from_measurement(self, measurement):
        model = ClusterSelfModel.from_artifact(measurement, n_shards=4)
        assert model.topology.n_shards == 4
        assert model.topology.source == "measurement"

    def test_from_prediction_roundtrip(self, measurement):
        topology = ClusterTopology(n_shards=4, quorum=2)
        fitted = fit_parameters(measurement)
        prediction = predict_availability(topology, fitted)
        model = ClusterSelfModel.from_artifact(prediction)
        assert model.topology == topology
        assert model.base_values == fitted.point_values()

    def test_from_fit_artifact(self, measurement):
        fitted = fit_parameters(measurement)
        model = ClusterSelfModel.from_artifact(fitted.to_dict(), quorum=1)
        assert model.topology.n_shards == measurement["n_shards"]

    def test_from_drill_report(self, measurement):
        drill = {
            "kind": "failover-drill",
            "schema": 1,
            "n_shards": 4,
            "measurement": measurement,
        }
        model = ClusterSelfModel.from_artifact(drill)
        assert model.topology.source == "failover-drill"

    def test_drill_without_measurement_rejected(self):
        with pytest.raises(SelfModelError, match="measurement block"):
            ClusterSelfModel.from_artifact(
                {"kind": "failover-drill", "schema": 1, "n_shards": 4}
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArtifactError, match="kind"):
            ClusterSelfModel.from_artifact({"kind": "mystery"})

    def test_quorum_override(self, measurement):
        model = ClusterSelfModel.from_artifact(
            measurement, n_shards=4, quorum=3
        )
        assert model.topology.quorum == 3


class TestCatalog:
    def test_cluster_is_registered_lazily(self):
        assert "cluster" in model_builder_names()

    def test_build_model_solves(self, measurement):
        model = build_model("cluster", source=measurement, n_shards=4)
        assert 0.0 < model.solve().system.availability < 1.0

    def test_classic_builders_present(self):
        names = model_builder_names()
        for expected in ("k_of_n", "duplex", "tmr", "warm_standby"):
            assert expected in names

    def test_unknown_name_lists_options(self):
        with pytest.raises(ModelError, match="cluster"):
            build_model("nonesuch")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ModelError, match="already registered"):
            register_model_builder("tmr", lambda: None)

    def test_replace_allows_override(self):
        from repro.models.catalog import _MODEL_BUILDERS

        original = _MODEL_BUILDERS["tmr"]
        try:
            register_model_builder("tmr", lambda: None, replace=True)
            assert _MODEL_BUILDERS["tmr"] is not original
        finally:
            register_model_builder("tmr", original, replace=True)
