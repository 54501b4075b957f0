"""Compiled JSAS configuration solves vs. the scalar composer."""

import pytest

from repro.hierarchy.interface import abstract_submodel
from repro.models.jsas.configs import (
    TABLE3_CONFIGURATIONS,
    compare_configurations,
    optimal_configuration,
)
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration


def _scalar_solve(config, values, **kwargs):
    """The scalar composer on a fresh hierarchy: the reference engine."""
    return config.build_hierarchy().solve(
        config.merged_values(values), **kwargs
    )


@pytest.mark.parametrize("shape", TABLE3_CONFIGURATIONS, ids=str)
def test_solve_compiled_matches_solve(shape):
    """Every Table 3 shape — including the HADB-less (1, 0) baseline."""
    n_instances, n_pairs = shape
    config = JsasConfiguration(n_instances=n_instances, n_pairs=n_pairs)
    values = PAPER_PARAMETERS.to_dict()
    scalar = _scalar_solve(config, values)
    compiled = config.solve(values)
    assert compiled.system == scalar.system
    assert compiled.bound_parameters == scalar.bound_parameters
    assert compiled.submodels == scalar.submodels


@pytest.mark.parametrize("n_instances", [11, 12])
def test_large_parallel_repair_shape_solves(n_instances):
    """Direct LU loses these AS submodels' down mass (``Mu_appl`` comes
    out infinite and the scalar ``direct`` solve raises); the banded GTH
    solve that scalar and batch ``auto`` pick at 32+ states answers like
    GTH."""
    config = JsasConfiguration(n_instances, 2, repair_policy="parallel")
    result = config.solve(PAPER_PARAMETERS)
    scalar = _scalar_solve(config, PAPER_PARAMETERS)
    assert scalar.availability == result.availability
    reference = _scalar_solve(config, PAPER_PARAMETERS, method="gth")
    assert result.availability == pytest.approx(
        reference.availability, rel=1e-15
    )
    expected = abstract_submodel(
        config.build_appserver_submodel(),
        config.merged_values(PAPER_PARAMETERS),
        method="gth",
    )
    interface = result.submodels["appserver"].interface
    # C GTH lands within 4.3e-16 of it, LAPACK band-LU within 1.9e-15.
    assert interface.failure_rate == pytest.approx(
        expected.failure_rate, rel=1e-14
    )
    assert interface.recovery_rate == pytest.approx(
        expected.recovery_rate, rel=1e-14
    )


def test_compare_configurations_engines_agree():
    rows_compiled = compare_configurations()
    values = PAPER_PARAMETERS.to_dict()
    rows_scalar = [
        _scalar_solve(JsasConfiguration(*shape), values)
        for shape in TABLE3_CONFIGURATIONS
    ]
    assert len(rows_compiled) == len(rows_scalar)
    for compiled, scalar in zip(rows_compiled, rows_scalar):
        assert compiled.availability == scalar.availability
        assert (
            compiled.yearly_downtime_minutes == scalar.yearly_downtime_minutes
        )
        assert compiled.mtbf_hours == scalar.mtbf_hours
    # The paper's conclusion survives either engine: 4 AS + 4 pairs wins.
    assert optimal_configuration(rows_compiled).n_instances == 4


def test_hierarchy_cache_shared_between_equal_shapes():
    a = JsasConfiguration(n_instances=2, n_pairs=2)
    b = JsasConfiguration(n_instances=2, n_pairs=2)
    assert a.hierarchy() is b.hierarchy()
    assert a.compiled_hierarchy() is b.compiled_hierarchy()
    c = JsasConfiguration(n_instances=2, n_pairs=2, repair_policy="parallel")
    assert c.hierarchy() is not a.hierarchy()


def test_solve_batch_on_configuration():
    import numpy as np

    config = JsasConfiguration(n_instances=2, n_pairs=2)
    base = PAPER_PARAMETERS.to_dict()
    n = 5
    columns = dict(base)
    first = sorted(base)[0]
    columns[first] = base[first] * np.linspace(0.5, 1.5, n)
    solution = config.solve_batch(columns, n_samples=n)
    for s in range(n):
        values = dict(base)
        values[first] = float(columns[first][s])
        assert solution.result_at(s) == _scalar_solve(config, values)
