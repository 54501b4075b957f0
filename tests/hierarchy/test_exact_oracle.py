"""Hierarchical solves against an exact rational oracle.

``HierarchicalModel.solve`` is the compiled one-point solve, so its
reference cannot be a second floating-point composer.  The oracle is
exact instead: each submodel's ``(pi, Lambda, Mu)`` comes from a
``Fraction`` solve of its generator
(:func:`tests.ctmc.test_exact_oracle.exact_interface`, which carries no
rounding), and the top model is solved the same way at the solve's own
``bound_parameters``, so every stage is checked on the inputs it was
given.  The stages are checked on both kernel paths: the C kernel, and
the NumPy path a host without a compiler takes.

Cases: every Table 3 shape under both repair policies at the paper's
parameters, and self-model cluster hierarchies of 2-4 shards at every
quorum, with a worker pool and the masked cache tier.
"""

from fractions import Fraction

import pytest

from repro.ctmc.generator import build_generator
from repro.hierarchy.composer import _with_bound
from repro.models.jsas import PAPER_PARAMETERS, JsasConfiguration
from repro.models.jsas.configs import TABLE3_CONFIGURATIONS
from repro.selfmodel.model import build_cluster_hierarchy
from repro.selfmodel.topology import ClusterTopology
from repro.units import MINUTES_PER_YEAR
from tests.ctmc.test_exact_oracle import exact_interface, kernel_path  # noqa: F401

#: Relative bound on every checked float, set from measurement.  The
#: worst errors on the cases below, the same on the C and NumPy paths:
#: 7.8e-16 for the AS submodel's Lambda and down mass (sequential 6/6)
#: and 1.1e-15 for one of its state probabilities; 3.1e-16 for the HADB
#: and self-model submodels; 3.9e-16 for the system's availability,
#: Lambda, Mu and yearly downtime.
RTOL = 2e-15

#: Fitted-scale self-model rates (per hour).
SELFMODEL_RATES = {
    "La_shard": 1.0, "Mu_detect": 1000.0, "Mu_restore": 500.0,
    "La_worker": 2.0, "Mu_worker": 300.0,
    "La_cache": 10.0, "Mu_cache": 100.0,
}


def _jsas_cases():
    values = PAPER_PARAMETERS.to_dict()
    for policy in ("sequential", "parallel"):
        for n_instances, n_pairs in TABLE3_CONFIGURATIONS:
            config = JsasConfiguration(
                n_instances, n_pairs, repair_policy=policy
            )
            yield (
                f"{policy}-{n_instances}as{n_pairs}p",
                config.build_hierarchy,
                config.merged_values(values),
            )


def _selfmodel_cases():
    for n_shards in (2, 3, 4):
        for quorum in range(1, n_shards + 1):
            topology = ClusterTopology(
                n_shards=n_shards, quorum=quorum, worker_processes=2
            )
            yield (
                f"self-{quorum}of{n_shards}",
                lambda topology=topology: build_cluster_hierarchy(
                    topology, include_workers=True, include_cache=True
                ),
                SELFMODEL_RATES,
            )


CASES = list(_jsas_cases()) + list(_selfmodel_cases())


def exact_solution(model, values):
    """Exact ``(pi by state, Lambda, Mu, P(down))`` of one model."""
    generator = build_generator(model, values)
    pi, lam, mu = exact_interface(generator)
    down = sum(p for p, up in zip(pi, generator.up_mask()) if not up)
    return dict(zip(generator.state_names, pi)), lam, mu, down


def assert_stage(detail, model, values, where, rtol):
    """One solved model's availability report against the oracle."""
    pi, lam, mu, down = exact_solution(model, values)
    checks = [
        ("Lambda", detail.failure_rate, lam),
        ("Mu", detail.recovery_rate, mu),
        ("availability", detail.availability, 1 - down),
        (
            "yearly downtime",
            detail.yearly_downtime_minutes,
            down * Fraction(MINUTES_PER_YEAR),
        ),
    ]
    checks.extend(
        (state, detail.state_probabilities[state], p)
        for state, p in pi.items()
    )
    for what, got, exact in checks:
        expected = float(exact)
        error = abs(got - expected) / abs(expected)
        assert error <= rtol, (
            f"{where} {what}: {got!r} vs {expected!r} ({error:.3g})"
        )


def assert_matches_oracle(hierarchy, values, result, rtol=RTOL):
    """Every stage of ``result``, a solve of ``hierarchy`` at ``values``."""
    for key in hierarchy.submodel_names:
        detail = result.submodels[key].interface.detail
        assert_stage(detail, hierarchy.submodel(key), values, key, rtol)
    assert_stage(
        result.system,
        hierarchy.top,
        _with_bound(values, result.bound_parameters),
        "system",
        rtol,
    )


@pytest.mark.parametrize(
    "name,build,values", CASES, ids=[case[0] for case in CASES]
)
def test_solve_matches_exact_oracle(kernel_path, name, build, values):
    hierarchy = build()
    assert_matches_oracle(hierarchy, values, hierarchy.solve(values))
