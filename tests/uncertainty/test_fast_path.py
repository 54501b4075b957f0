"""Seeded uncertainty runs: batched fast path == callable fallback, bytes."""

import numpy as np
import pytest

from repro.models.jsas.configs import (
    HierarchicalConfigMetric,
    build_uncertainty_analysis,
)
from repro.models.jsas.system import CONFIG_1
from repro.uncertainty import (
    UncertaintyAnalysis,
    Uniform,
    latin_hypercube_matrix,
    latin_hypercube_samples,
    monte_carlo_matrix,
    monte_carlo_samples,
)
from tests.uncertainty.conftest import scalar_reference


@pytest.mark.parametrize("sampler", ["monte_carlo", "latin_hypercube"])
def test_fast_path_byte_identical_to_fallback(sampler):
    analysis = build_uncertainty_analysis(CONFIG_1)
    analysis.sampler = sampler
    fast = analysis.run(n_samples=40, seed=2004)
    slow = scalar_reference(analysis).run(n_samples=40, seed=2004)
    assert fast.values == slow.values
    assert fast.snapshots == slow.snapshots
    assert fast.metric_name == slow.metric_name


def test_values_are_finite():
    analysis = build_uncertainty_analysis(CONFIG_1)
    values = np.asarray(analysis.run(n_samples=500, seed=1234).values)
    assert np.isfinite(values).all()
    assert (values >= 0.0).all()


def test_batch_true_requires_capable_metric():
    """A plain callable (no ``evaluate_batch``) runs once per snapshot."""
    analysis = UncertaintyAnalysis(
        metric=lambda p: p["x"],
        distributions={"x": Uniform(0.0, 1.0)},
        base_values={},
    )
    result = analysis.run(n_samples=5, seed=0)
    assert result.values == tuple(s["x"] for s in result.snapshots)


def test_keep_snapshots_false_returns_no_snapshots_both_paths():
    analysis = build_uncertainty_analysis(CONFIG_1)
    fast = analysis.run(n_samples=6, seed=3, keep_snapshots=False)
    slow = scalar_reference(analysis).run(
        n_samples=6, seed=3, keep_snapshots=False
    )
    assert fast.snapshots == ()
    assert slow.snapshots == ()
    assert fast.values == slow.values


def test_metric_object_is_callable_and_batchable():
    metric = HierarchicalConfigMetric(CONFIG_1, metric="availability")
    base = dict(
        build_uncertainty_analysis(CONFIG_1, metric="availability").base_values
    )
    scalar = metric(base)
    batched = metric.evaluate_batch(
        {name: float(v) for name, v in base.items()}, 1
    )
    assert float(batched[0]) == scalar


def test_matrix_and_dict_samplers_share_rng_stream():
    dists = {"a": Uniform(0.0, 1.0), "b": Uniform(5.0, 9.0)}
    for matrix_fn, dict_fn in (
        (monte_carlo_matrix, monte_carlo_samples),
        (latin_hypercube_matrix, latin_hypercube_samples),
    ):
        columns = matrix_fn(dists, 25, np.random.default_rng(42))
        snapshots = dict_fn(dists, 25, np.random.default_rng(42))
        for i, snapshot in enumerate(snapshots):
            for name in dists:
                assert snapshot[name] == columns[name][i]
