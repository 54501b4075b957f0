"""Property-based tests on the CTMC engine (hypothesis).

Strategy: generate random irreducible chains (a directed cycle over all
states guarantees irreducibility, plus random extra arcs) with rates
spanning several orders of magnitude, then assert solver invariants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import MarkovModel
from repro.ctmc.generator import build_generator
from repro.ctmc.rewards import (
    equivalent_failure_recovery_rates,
    steady_state_availability,
)
from repro.ctmc.steady_state import steady_state_vector
from repro.ctmc.transient import transient_distribution

rates = st.floats(
    min_value=1e-5, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def irreducible_chains(draw):
    """A random strongly-connected CTMC with mixed up/down rewards."""
    n = draw(st.integers(min_value=2, max_value=8))
    model = MarkovModel("random")
    # At least one up state (state 0); others random.
    rewards = [1.0] + [
        draw(st.sampled_from([0.0, 1.0])) for _ in range(n - 1)
    ]
    for i in range(n):
        model.add_state(f"S{i}", reward=rewards[i])
    # A cycle guarantees irreducibility.
    for i in range(n):
        model.add_transition(f"S{i}", f"S{(i + 1) % n}", draw(rates))
    # Random extra arcs.
    n_extra = draw(st.integers(min_value=0, max_value=n * (n - 2) if n > 2 else 0))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and j != (i + 1) % n
    ]
    for k in range(min(n_extra, len(pairs))):
        i, j = pairs[k]
        model.add_transition(f"S{i}", f"S{j}", draw(rates))
    return model


@settings(max_examples=60, deadline=None)
@given(model=irreducible_chains())
def test_steady_state_is_probability_vector(model):
    g = build_generator(model, {})
    pi = steady_state_vector(g)
    assert pi.shape == (len(model),)
    assert np.all(pi >= 0.0)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    # And it satisfies the balance equations.
    residual = np.abs(pi @ g.dense()).max()
    assert residual < 1e-8


@settings(max_examples=40, deadline=None)
@given(model=irreducible_chains())
def test_gth_matches_sparse_lu(model):
    g = build_generator(model, {})
    lu = steady_state_vector(g, method="sparse")
    gth = steady_state_vector(g, method="gth")
    assert np.abs(lu - gth).max() < 1e-8


@settings(max_examples=20, deadline=None)
@given(model=irreducible_chains(), t=st.floats(min_value=0.001, max_value=5.0))
def test_uniformization_matches_expm(model, t):
    a = transient_distribution(model, t, {}, method="uniformization")
    b = transient_distribution(model, t, {}, method="expm")
    for state in a:
        assert a[state] == pytest.approx(b[state], abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(model=irreducible_chains())
def test_availability_consistency(model):
    result = steady_state_availability(model, {})
    assert 0.0 <= result.availability <= 1.0
    assert result.availability + result.unavailability == pytest.approx(1.0)
    up_mass = sum(
        p
        for name, p in result.state_probabilities.items()
        if model.state(name).is_up
    )
    assert result.availability == pytest.approx(up_mass, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(model=irreducible_chains())
def test_flow_abstraction_identity(model):
    """A = Mu/(Lambda+Mu) holds exactly for the flow abstraction."""
    result = steady_state_availability(model, {})
    if result.unavailability == 0.0:
        return  # no down states reachable; identity degenerates
    lam, mu = equivalent_failure_recovery_rates(model, {}, abstraction="flow")
    if math.isinf(mu):
        return
    assert mu / (lam + mu) == pytest.approx(result.availability, rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(model=irreducible_chains())
def test_mttf_lambda_no_larger_than_max_exit_rate(model):
    """1/MTTF is bounded by the largest total exit rate of any up state."""
    result = steady_state_availability(model, {})
    if result.failure_rate == 0.0:
        return
    g = build_generator(model, {})
    assert result.failure_rate <= g.exit_rates().max() * (1 + 1e-9)
