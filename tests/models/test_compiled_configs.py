"""JSAS configuration solves: the exact oracle, and the shape cache."""

import pytest

from repro.models.jsas.configs import (
    TABLE3_CONFIGURATIONS,
    compare_configurations,
    optimal_configuration,
)
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration
from tests.hierarchy.test_exact_oracle import assert_matches_oracle


def _fresh_solve(config, values):
    """The one-point solve of a freshly built hierarchy."""
    return config.build_hierarchy().solve(config.merged_values(values))


@pytest.mark.parametrize("shape", TABLE3_CONFIGURATIONS, ids=str)
def test_solve_compiled_matches_solve(shape):
    """Every Table 3 shape — including the HADB-less (1, 0) baseline —
    solved on the cached compiled hierarchy, against the exact oracle."""
    config = JsasConfiguration(*shape)
    values = PAPER_PARAMETERS.to_dict()
    assert_matches_oracle(
        config.build_hierarchy(),
        config.merged_values(values),
        config.solve(values),
    )


#: Relative bound with an AS submodel of 32+ states, where ``auto``
#: takes the banded solver, set from measurement at 11/2 and 12/2: the
#: worst error is 5.5e-16 on the C path and 1.2e-15 on the LAPACK band
#: path (a state probability of the 12/2 AS submodel).
BANDED_RTOL = 4e-15


@pytest.mark.parametrize("n_instances", [11, 12])
def test_large_parallel_repair_shape_solves(n_instances):
    """Direct LU loses these AS submodels' down mass (``Mu_appl`` comes
    out infinite and a ``direct`` solve raises); the banded GTH solve
    that ``auto`` picks at 32+ states matches the exact oracle."""
    config = JsasConfiguration(n_instances, 2, repair_policy="parallel")
    assert_matches_oracle(
        config.build_hierarchy(),
        config.merged_values(PAPER_PARAMETERS),
        config.solve(PAPER_PARAMETERS),
        rtol=BANDED_RTOL,
    )


def test_compare_configurations_engines_agree():
    """Table 3 rows equal fresh one-point solves of each shape."""
    rows = compare_configurations()
    values = PAPER_PARAMETERS.to_dict()
    fresh = [
        _fresh_solve(JsasConfiguration(*shape), values)
        for shape in TABLE3_CONFIGURATIONS
    ]
    assert len(rows) == len(fresh)
    for row, solved in zip(rows, fresh):
        assert row.availability == solved.availability
        assert row.yearly_downtime_minutes == solved.yearly_downtime_minutes
        assert row.mtbf_hours == solved.mtbf_hours
    # The paper's conclusion: 4 AS + 4 pairs wins.
    assert optimal_configuration(rows).n_instances == 4


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
        assert solution.result_at(s) == _fresh_solve(config, values)
