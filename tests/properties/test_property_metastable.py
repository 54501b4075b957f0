"""Property-based tests on the metastable orbit model (hypothesis).

Three families of invariants:

* **No-feedback limit** — with retry budget 1 (``p_retry = 0``) the
  orbit model IS the M/M/1/K queue: its stationary queue marginal must
  match the closed form for any load and any queue depth, and the
  mean-field fixed point must collapse to zero amplification.
* **Cross-engine parity** — the batched steady-state engines (direct,
  GTH, banded, sparse) must agree with the scalar reference solve to
  1e-9 on the full 63-state orbit lattice, for any parameter point.
* **Structural invariants** — stationary vectors are probability
  distributions and congestion numbers stay inside [0, 1].
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ctmc.batch import BATCH_METHODS, batch_steady_state
from repro.ctmc.steady_state import solve_steady_state
from repro.metastable.model import (
    mm1k_blocking,
    mm1k_distribution,
    orbit_marking,
    orbit_model,
    orbit_states,
    orbit_values,
    retry_fixed_point,
)

loads = st.floats(
    min_value=0.05, max_value=1.8, allow_nan=False, allow_infinity=False
)
budgets = st.integers(min_value=2, max_value=12)
rates = st.floats(
    min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False
)

#: The full-size lattice used by the default regime map: 63 states,
#: banded-plus-spike structure.  Built once — compilation is cached on
#: the model, so every hypothesis example reuses it.
QUEUE_DEPTH, ORBIT_SIZE = 6, 8
LATTICE = orbit_model(QUEUE_DEPTH, ORBIT_SIZE)
STATES = orbit_states(QUEUE_DEPTH, ORBIT_SIZE)
LABELS = [
    orbit_marking(QUEUE_DEPTH, ORBIT_SIZE, q, o).label()
    for q, o in STATES
]


def _queue_marginal(pi, queue_depth, orbit_size):
    marginal = [0.0] * (queue_depth + 1)
    for q, o in orbit_states(queue_depth, orbit_size):
        label = orbit_marking(queue_depth, orbit_size, q, o).label()
        marginal[q] += pi[label]
    return marginal


@settings(max_examples=30, deadline=None)
@given(load=loads, queue_depth=st.integers(min_value=1, max_value=6))
def test_budget_one_queue_marginal_is_mm1k(load, queue_depth):
    orbit_size = 3
    model = orbit_model(queue_depth, orbit_size)
    pi = solve_steady_state(model, orbit_values(load, 1))
    marginal = _queue_marginal(pi, queue_depth, orbit_size)
    closed = mm1k_distribution(load, queue_depth)
    assert max(abs(a - b) for a, b in zip(marginal, closed)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(load=loads, queue_depth=st.integers(min_value=1, max_value=8),
       delta=rates, theta=rates)
def test_fixed_point_no_feedback_limit(load, queue_depth, delta, theta):
    result = retry_fixed_point(
        load, 1, queue_depth, delta=delta, theta=theta
    )
    assert abs(result["amplification"] - 1.0) < 1e-9
    assert abs(result["orbit_mean"]) < 1e-9
    assert abs(result["effective_load"] - load) < 1e-9
    assert abs(
        result["blocking"] - mm1k_blocking(load, queue_depth)
    ) < 1e-9


@settings(max_examples=25, deadline=None)
@given(load=loads, budget=budgets)
def test_fixed_point_amplification_at_least_one(load, budget):
    result = retry_fixed_point(load, budget, 6)
    assert result["amplification"] >= 1.0 - 1e-12
    assert result["effective_load"] >= load - 1e-12
    assert 0.0 <= result["blocking"] <= 1.0


@settings(max_examples=20, deadline=None)
@given(load=loads, budget=budgets)
def test_lattice_steady_state_is_probability_vector(load, budget):
    pi = solve_steady_state(LATTICE, orbit_values(load, budget))
    values = np.array([pi[label] for label in LABELS])
    assert np.all(values >= -1e-12)
    assert abs(values.sum() - 1.0) < 1e-9


@settings(max_examples=15, deadline=None)
@given(load=loads, budget=budgets)
def test_cross_engine_parity_on_the_orbit_lattice(load, budget):
    # The regime mapper trusts the batch engines; every one of them
    # must reproduce the scalar reference solve to 1e-9 on the exact
    # lattice the default map uses.
    values = orbit_values(load, budget)
    reference = solve_steady_state(LATTICE, values, method="gth")
    expected = np.array([reference[label] for label in LABELS])
    for method in BATCH_METHODS:
        batch = batch_steady_state(
            LATTICE,
            {name: np.array([value]) for name, value in values.items()},
            method=method,
        )
        assert batch.shape[0] == 1
        assert np.max(np.abs(batch[0] - expected)) < 1e-9, method


@settings(max_examples=15, deadline=None)
@given(load=loads, smaller=budgets)
def test_bigger_budget_never_lowers_orbit_congestion(load, smaller):
    # p_retry grows with the budget; stationary orbit mass must not
    # shrink when clients retry more.
    bigger = smaller + 2

    def congestion(budget):
        pi = solve_steady_state(LATTICE, orbit_values(load, budget))
        return sum(
            o * pi[
                orbit_marking(QUEUE_DEPTH, ORBIT_SIZE, q, o).label()
            ]
            for q, o in STATES
        ) / ORBIT_SIZE

    assert congestion(bigger) >= congestion(smaller) - 1e-9
