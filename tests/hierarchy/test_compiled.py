"""Compiled hierarchical batch solves: results, caching and guards."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.hierarchy import BatchHierarchicalSolution, CompiledHierarchy
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import CONFIG_1, CONFIG_2, JsasConfiguration
from tests.hierarchy.test_exact_oracle import assert_matches_oracle


def sample_columns(hierarchy, n, seed, n_pairs):
    base = dict(PAPER_PARAMETERS)
    rng = np.random.default_rng(seed)
    columns = {name: float(value) for name, value in base.items()}
    if n_pairs:
        columns["N_pair"] = float(n_pairs)
    for name in list(base)[:4]:
        columns[name] = base[name] * rng.uniform(0.5, 2.0, size=n)
    return columns


def sample_values(columns, s):
    return {
        k: (float(v[s]) if isinstance(v, np.ndarray) else v)
        for k, v in columns.items()
    }


@pytest.mark.parametrize("config", [CONFIG_1, CONFIG_2], ids=["2as", "4as"])
def test_batch_matches_exact_oracle(config):
    """Every sample of a batch, stage by stage, against the exact
    rational solve (``test_point.py`` checks that each also equals its
    one-point solve)."""
    hierarchy = config.build_hierarchy()
    n = 15
    columns = sample_columns(hierarchy, n, seed=2004, n_pairs=config.n_pairs)
    solution = hierarchy.solve_batch(columns, n_samples=n)
    assert isinstance(solution, BatchHierarchicalSolution)
    assert solution.n_samples == n
    for s in range(n):
        assert_matches_oracle(
            hierarchy, sample_values(columns, s), solution.result_at(s)
        )


def test_metric_arrays_match_results():
    hierarchy = CONFIG_1.build_hierarchy()
    n = 8
    columns = sample_columns(hierarchy, n, seed=5, n_pairs=CONFIG_1.n_pairs)
    solution = hierarchy.solve_batch(columns, n_samples=n)
    for metric in ("availability", "yearly_downtime_minutes", "mtbf_hours"):
        array = solution.metric_array(metric)
        for s in range(n):
            assert array[s] == getattr(solution.result_at(s), metric)
    with pytest.raises(ModelError, match="unknown batch metric"):
        solution.metric_array("mttr_minutes")


def test_compile_is_cached_and_invalidated():
    config = JsasConfiguration(n_instances=2, n_pairs=2)
    hierarchy = config.build_hierarchy()
    compiled = hierarchy.compile()
    assert hierarchy.compile() is compiled
    assert isinstance(compiled, CompiledHierarchy)
    # Mutating a constituent model invalidates the compilation.
    hierarchy.top.add_state("Extra", reward=0.0)
    hierarchy.top.add_transition("Ok", "Extra", "X")
    hierarchy.top.add_transition("Extra", "Ok", "Y")
    assert not compiled.is_current()
    assert hierarchy.compile() is not compiled


def test_overlap_between_bound_and_supplied_raises():
    hierarchy = CONFIG_1.build_hierarchy()
    columns = sample_columns(hierarchy, 3, seed=1, n_pairs=CONFIG_1.n_pairs)
    columns["La_appl"] = 0.001  # produced by a binding too
    with pytest.raises(ModelError, match="bound parameter"):
        hierarchy.solve_batch(columns, n_samples=3)


def test_all_scalar_columns_need_explicit_n_samples():
    hierarchy = CONFIG_1.build_hierarchy()
    columns = {name: float(v) for name, v in dict(PAPER_PARAMETERS).items()}
    columns["N_pair"] = 2.0
    with pytest.raises(ModelError, match="infer"):
        hierarchy.compile().solve_batch(columns)
    solution = hierarchy.solve_batch(columns, n_samples=1)
    expected = hierarchy.solve(columns)
    assert solution.result_at(0) == expected


def test_results_materializes_every_sample():
    hierarchy = CONFIG_1.build_hierarchy()
    n = 4
    columns = sample_columns(hierarchy, n, seed=9, n_pairs=CONFIG_1.n_pairs)
    solution = hierarchy.solve_batch(columns, n_samples=n)
    results = solution.results()
    assert len(results) == n
    assert [r.availability for r in results] == list(solution.availability)
