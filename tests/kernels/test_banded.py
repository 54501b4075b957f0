"""Banded steady-state kernels: parity, determinism, failure paths.

Every property runs on both paths a host can take: the C kernel, and
the LAPACK path a host without a working compiler falls back to.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.compiled import compile_model
from repro.core.model import MarkovModel, birth_death_model
from repro.ctmc.batch import (
    banded_structure_of,
    batch_availability,
    batch_steady_state,
)
from repro.ctmc.generator import build_generator
from repro.ctmc.rewards import steady_state_availability
from repro.ctmc.steady_state import steady_state_vector
from repro.exceptions import SolverError
from repro.kernels import cext
from repro.models.jsas import PAPER_PARAMETERS
from repro.models.jsas.appserver import build_appserver_model
from repro.models.jsas.parameters import paper_values
from repro.models.jsas.system import JsasConfiguration


@pytest.fixture(params=["c", "lapack"])
def banded_path(request, monkeypatch):
    """Run on the C kernel, then with it faked unavailable (LAPACK).

    The fake lasts for one test only, so the fall-back never leaks.
    """
    if request.param == "c":
        if cext.load() is None:
            pytest.skip("the C kernel cannot be built on this host")
    else:
        monkeypatch.setattr(cext, "load", lambda: None)
    return request.param


def _appserver_columns(n_samples, seed=0):
    rng = np.random.default_rng(seed)
    model = JsasConfiguration(
        n_instances=4, n_pairs=2
    ).build_appserver_submodel()
    base = PAPER_PARAMETERS.to_dict()
    names = sorted(
        {name for t in model.transitions for name in t.rate.variables}
    )
    columns = {
        name: base.get(name, 1.0)
        * rng.uniform(0.5, 2.0, size=n_samples)
        for name in names
    }
    return model, columns


def test_appserver_model_is_banded():
    model, _ = _appserver_columns(1)
    assert banded_structure_of(compile_model(model)) is not None


def test_kernel_matches_gth_reference(banded_path):
    model, columns = _appserver_columns(64)
    reference = batch_steady_state(model, columns, 64, method="gth")
    pis = batch_steady_state(model, columns, 64, method="banded")
    assert pis.shape == reference.shape
    np.testing.assert_allclose(pis, reference, rtol=1e-10, atol=1e-14)


def test_batched_solve_is_per_sample_bit_identical(banded_path):
    """Which samples share a batch never changes any sample's bits."""
    model, columns = _appserver_columns(32)
    together = batch_steady_state(model, columns, 32, method="banded")
    for i in (0, 7, 31):
        alone = batch_steady_state(
            model,
            {name: col[i: i + 1] for name, col in columns.items()},
            1,
            method="banded",
        )
        assert np.array_equal(alone[0], together[i]), f"sample {i}"


PARITY_CHAINS = [
    (n, policy) for n in (11, 16, 64) for policy in ("sequential", "parallel")
] + [("birth-death", 200)]


@pytest.mark.parametrize(
    "chain", PARITY_CHAINS, ids=lambda chain: "-".join(map(str, chain))
)
def test_scalar_banded_matches_batch_banded(banded_path, chain):
    """Scalar ``method="banded"`` runs the batch engine's kernel: the
    same bits on the C path; on the LAPACK path the exit-rate diagonal
    sums arcs in generator order on one side and model order on the
    other, so only rounding differs."""
    if chain[0] == "birth-death":
        levels = chain[1]
        model = birth_death_model(
            "bd", levels, [1.0] * (levels - 1), [2.0] * (levels - 1)
        )
        values = {}
    else:
        model = build_appserver_model(chain[0], repair_policy=chain[1])
        values = paper_values()
    scalar = steady_state_vector(
        build_generator(model, values), method="banded"
    )
    batch = batch_steady_state(model, values, 1, method="banded")[0]
    if banded_path == "c":
        assert np.array_equal(scalar, batch)
    else:
        down = ~compile_model(model).up_mask
        assert scalar[down].sum() == pytest.approx(
            batch[down].sum(), rel=1e-12
        )


def test_numpy_vs_other_backends_close(monkeypatch):
    model, columns = _appserver_columns(16)
    if cext.load() is None:
        pytest.skip("the C kernel cannot be built on this host")
    pis = batch_steady_state(model, columns, 16, method="banded")
    monkeypatch.setattr(cext, "load", lambda: None)
    reference = batch_steady_state(model, columns, 16, method="banded")
    np.testing.assert_allclose(pis, reference, rtol=1e-10, atol=1e-14)


def test_probabilities_normalized(banded_path):
    model, columns = _appserver_columns(20)
    pis = batch_steady_state(model, columns, 20, method="banded")
    assert (pis >= 0.0).all()
    np.testing.assert_allclose(pis.sum(axis=1), 1.0, rtol=1e-12)


def test_reducible_sample_raises_solver_error(banded_path):
    # Sample 1 disconnects s2 entirely, leaving two recurrent classes;
    # the kernel must surface the same SolverError the interpreted
    # engine raises, not NaNs.
    from repro.core.model import MarkovModel

    model = MarkovModel("bd_reducible")
    model.add_state("s0", reward=1.0)
    model.add_state("s1", reward=0.0)
    model.add_state("s2", reward=0.0)
    model.add_transition("s0", "s1", "a")
    model.add_transition("s1", "s2", "b")
    model.add_transition("s1", "s0", "c")
    model.add_transition("s2", "s1", "d")
    columns = {
        "a": np.array([1.0, 1.0]),
        "b": np.array([1.0, 0.0]),
        "c": np.array([1.0, 1.0]),
        "d": np.array([1.0, 0.0]),
    }
    with pytest.raises(SolverError, match="recurrent classes"):
        batch_steady_state(model, columns, 2, method="banded")


@st.composite
def banded_spike_chains(draw):
    """A random banded-plus-spike chain whose MTTF and flow Lambda differ.

    A birth-death backbone (irreducible), extra arcs within two states
    of the diagonal, and repair arcs into state 0 (the spike column).
    State 0 and state 1 are up and state 2 is down, so the arc 2 -> 1
    is a down -> up arc that misses the initial state: an up period
    can start in state 1, and the flow rate is not 1/MTTF.
    """
    n = draw(st.integers(5, 40))
    up = [True, True, False] + draw(
        st.lists(st.booleans(), min_size=n - 3, max_size=n - 3)
    )
    assume(up.count(False) >= 2)
    arcs = set()
    for i in range(n - 1):
        arcs.add((i, i + 1))
        arcs.add((i + 1, i))
    for i in range(n):
        for j in (i - 2, i + 2):
            if 0 <= j < n and draw(st.booleans()):
                arcs.add((i, j))
        if i > 1 and draw(st.booleans()):
            arcs.add((i, 0))
    model = MarkovModel("banded_spike")
    for i in range(n):
        model.add_state(f"S{i}", reward=1.0 if up[i] else 0.0)
    rate = st.floats(min_value=1e-3, max_value=1e3)
    for i, j in sorted(arcs):
        model.add_transition(f"S{i}", f"S{j}", draw(rate))
    return model


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(model=banded_spike_chains())
def test_banded_mttf_lambda_matches_gth(banded_path, model):
    """Forced ``banded`` takes Lambda = 1/MTTF from the renewal closure
    through its own kernel, scalar and batch, on chains where the flow
    rate differs; the dense GTH kernel is the reference."""
    reference = steady_state_availability(model, {}, method="gth")
    flow = steady_state_availability(
        model, {}, method="gth", abstraction="flow"
    )
    assume(
        abs(flow.failure_rate - reference.failure_rate)
        > 1e-6 * reference.failure_rate
    )
    scalar = steady_state_availability(model, {}, method="banded")
    batch = batch_availability(model, {}, n_samples=1, method="banded")
    for lam in (scalar.failure_rate, batch.failure_rate[0]):
        assert lam == pytest.approx(reference.failure_rate, rel=1e-10)
    if banded_path == "c":
        assert scalar.failure_rate == batch.failure_rate[0]


def _switchable_model():
    """Six banded states; ``c`` is the only way into the down set, and
    ``x`` is a repair arc into state 2 (missing the initial state)."""
    model = MarkovModel("switchable")
    for i, is_up in enumerate([1, 1, 1, 1, 0, 0]):
        model.add_state(f"S{i}", reward=float(is_up))
    for i in range(3):
        model.add_transition(f"S{i}", f"S{i + 1}", 1.0)
        model.add_transition(f"S{i + 1}", f"S{i}", 2.0)
    model.add_transition("S3", "S4", "c")
    model.add_transition("S4", "S5", 3.0)
    model.add_transition("S5", "S4", 1.0)
    model.add_transition("S4", "S0", 5.0)
    model.add_transition("S5", "S2", "x")
    return model


def test_banded_lambda_zero_rates_keep_their_semantics(banded_path):
    """A zero rate that cuts off the down set reads Lambda 0 and Mu inf;
    one that only drops a repair arc is solved like any other sample,
    and the MTTF from the initial state does not see where repairs
    land; scalar, batch and the dense kernel agree on all three."""
    model = _switchable_model()
    columns = {"c": np.array([0.5, 0.0, 0.5]), "x": np.array([0.7, 0.7, 0.0])}
    batch = batch_availability(model, columns, n_samples=3, method="banded")
    for s in range(3):
        values = {name: float(col[s]) for name, col in columns.items()}
        scalar = steady_state_availability(model, values, method="banded")
        gth = steady_state_availability(model, values, method="gth")
        for result in (scalar, gth):
            assert batch.failure_rate[s] == pytest.approx(
                result.failure_rate, rel=1e-12, abs=0.0
            )
            assert batch.recovery_rate[s] == pytest.approx(
                result.recovery_rate, rel=1e-12, abs=0.0
            )
    assert batch.failure_rate[1] == 0.0
    assert batch.recovery_rate[1] == np.inf
    assert batch.failure_rate[0] == batch.failure_rate[2] > 0.0
