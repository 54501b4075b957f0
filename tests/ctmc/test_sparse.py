"""Structured/sparse steady-state engines vs the dense reference solvers.

Three layers of evidence:

* hypothesis property tests — sparse-vs-dense steady-state parity and
  uniformization-vs-``expm`` parity on randomly generated irreducible
  chains;
* exact parity of the structured banded solve against GTH elimination
  on the generalized N-instance AS model (the ISSUE's 1e-10 bar);
* dispatch and diagnostic behavior (method routing, the dense-stack
  guard, clear errors on structure mismatches).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.compiled import compile_model
from repro.core.model import MarkovModel, birth_death_model
from repro.ctmc.batch import (
    BATCH_METHODS,
    banded_structure_of,
    batch_availability,
    batch_steady_state,
)
from repro.ctmc.generator import SPARSE_THRESHOLD, build_generator
from repro.ctmc.sparse import (
    BANDED_MIN_STATES,
    SparseSteadyStateSolver,
    detect_banded_structure,
    generator_banded_structure,
    gth_banded_batch,
)
from repro.ctmc.steady_state import _gth_reference, steady_state_vector
from repro.ctmc.transient import transient_distribution
from repro.exceptions import ModelError, SolverError
from repro.models.jsas.appserver import build_appserver_model
from repro.models.jsas.parameters import paper_values


@st.composite
def irreducible_chains(draw):
    """A random irreducible chain: a forced cycle plus random extra arcs."""
    n = draw(st.integers(3, 8))
    model = MarkovModel("random_sparse")
    model.add_state("S0", reward=1.0)
    for i in range(1, n):
        model.add_state(f"S{i}", reward=draw(st.sampled_from([0.0, 1.0])))
    arcs = [(i, (i + 1) % n) for i in range(n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=10,
        )
    )
    for i, j in extra:
        if i != j and (i, j) not in arcs:
            arcs.append((i, j))
    values = {}
    for k, (i, j) in enumerate(arcs):
        name = f"r{k}"
        model.add_transition(f"S{i}", f"S{j}", name)
        values[name] = draw(st.floats(min_value=1e-3, max_value=1e3))
    return model, values


@settings(max_examples=40, deadline=None)
@given(chain=irreducible_chains())
def test_sparse_steady_state_matches_dense(chain):
    """The symbolic-pattern sparse solver agrees with dense direct."""
    model, values = chain
    generator = build_generator(model, values)
    dense_pi = steady_state_vector(generator, method="direct")
    compiled = compile_model(model)
    solver = SparseSteadyStateSolver(
        compiled.n_states,
        compiled.transition_sources,
        compiled.transition_targets,
    )
    rates = compiled.rate_matrix(values, 1)
    sparse_pi = solver.solve(rates[0])
    assert np.abs(sparse_pi - dense_pi).max() < 1e-8


@settings(max_examples=40, deadline=None)
@given(chain=irreducible_chains())
def test_batch_sparse_engine_matches_scalar(chain):
    """batch_steady_state(method='sparse') agrees with the scalar solver."""
    model, values = chain
    pis = batch_steady_state(model, values, n_samples=1, method="sparse")
    expected = steady_state_vector(build_generator(model, values))
    assert np.abs(pis[0] - expected).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(chain=irreducible_chains(), t=st.floats(min_value=0.01, max_value=50.0))
def test_uniformization_matches_expm(chain, t):
    """Fox–Glynn uniformization and expm agree on random chains."""
    model, values = chain
    generator = build_generator(model, values)
    uni = transient_distribution(generator, t, method="uniformization")
    exp = transient_distribution(generator, t, method="expm")
    for name in uni:
        assert uni[name] == pytest.approx(exp[name], abs=1e-9)


class TestBandedExactParity:
    """Structured banded GTH vs textbook GTH on the N-instance AS model."""

    @pytest.mark.parametrize("n_instances", [4, 16, 64])
    def test_banded_matches_gth_reference(self, n_instances):
        model = build_appserver_model(n_instances)
        generator = build_generator(model, paper_values())
        reference = _gth_reference(generator.dense())
        banded = steady_state_vector(generator, method="banded")
        assert np.abs(banded - reference).max() < 1e-10

    def test_birth_death_is_banded(self):
        model = birth_death_model(
            "bd", 30, [1.0] * 29, [2.0] * 29
        )
        generator = build_generator(model, {})
        assert generator_banded_structure(generator) is not None
        banded = steady_state_vector(generator, method="banded")
        reference = _gth_reference(generator.dense())
        assert np.abs(banded - reference).max() < 1e-12

    def test_batched_banded_gth_over_samples(self):
        """gth_banded_batch solves every sample of a parameter sweep."""
        model = build_appserver_model(32)
        compiled = compile_model(model)
        structure = banded_structure_of(compiled)
        assert structure is not None
        values = dict(paper_values())
        sweep = np.linspace(5.0, 60.0, 7)
        values["Tstart_long_as"] = sweep
        rates = compiled.rate_matrix(values, sweep.size)
        pis = gth_banded_batch(structure, rates)
        for s in range(sweep.size):
            scalar = dict(paper_values())
            scalar["Tstart_long_as"] = float(sweep[s])
            generator = build_generator(model, scalar)
            reference = _gth_reference(generator.dense())
            assert np.abs(pis[s] - reference).max() < 1e-10


class TestLargeModelRouting:
    """Models past the dense thresholds route through structured engines."""

    def test_auto_uses_banded_for_large_as_model(self):
        compiled = compile_model(build_appserver_model(64))
        assert compiled.n_states >= BANDED_MIN_STATES
        assert banded_structure_of(compiled) is not None

    def test_generator_batch_refuses_dense_blowup(self):
        n = (SPARSE_THRESHOLD + 2 + 1) // 3  # 3n-1 >= threshold
        compiled = compile_model(build_appserver_model(n))
        assert compiled.n_states >= SPARSE_THRESHOLD
        rates = compiled.rate_matrix(paper_values(), 1)
        with pytest.raises(ModelError, match="dense"):
            compiled.generator_batch(rates)
        mats = compiled.generator_batch(rates, allow_dense=True)
        assert mats.shape == (1, compiled.n_states, compiled.n_states)

    def test_batch_availability_matches_scalar_loop_at_n64(self):
        from repro.ctmc.rewards import equivalent_failure_recovery_rates

        model = build_appserver_model(64)
        compiled = compile_model(model)
        values = dict(paper_values())
        sweep = np.linspace(5.0, 60.0, 4)
        values["Tstart_long_as"] = sweep
        batch = batch_availability(
            compiled, values, n_samples=sweep.size, method="auto"
        )
        for s in range(sweep.size):
            scalar = dict(paper_values())
            scalar["Tstart_long_as"] = float(sweep[s])
            generator = build_generator(model, scalar)
            lam, mu = equivalent_failure_recovery_rates(generator, scalar)
            assert batch.failure_rate[s] == pytest.approx(lam, rel=1e-10)
            assert batch.recovery_rate[s] == pytest.approx(mu, rel=1e-10)
            assert batch.availability[s] == pytest.approx(
                mu / (lam + mu), rel=1e-12
            )

    def test_sparse_and_banded_engines_agree(self):
        compiled = compile_model(build_appserver_model(64))
        values = dict(paper_values())
        values["Tstart_long_as"] = np.linspace(5.0, 60.0, 3)
        banded = batch_steady_state(
            compiled, values, n_samples=3, method="banded"
        )
        sparse = batch_steady_state(
            compiled, values, n_samples=3, method="sparse"
        )
        assert np.abs(banded - sparse).max() < 1e-10


class TestDispatchAndDiagnostics:
    def test_unknown_batch_method_rejected(self):
        compiled = compile_model(build_appserver_model(4))
        with pytest.raises(SolverError, match="unknown"):
            batch_steady_state(
                compiled, paper_values(), n_samples=1, method="cholesky"
            )
        assert "banded" in BATCH_METHODS and "sparse" in BATCH_METHODS

    def test_unknown_scalar_method_rejected(self):
        generator = build_generator(build_appserver_model(4), paper_values())
        with pytest.raises(SolverError, match="unknown"):
            steady_state_vector(generator, method="cholesky")

    def test_rejected_method_is_not_counted_as_a_solve(self):
        generator = build_generator(build_appserver_model(4), paper_values())
        with obs.observe() as recorder:
            with pytest.raises(SolverError, match="unknown"):
                steady_state_vector(generator, method="cholesky")
            solves = recorder.metrics.counter(
                "ctmc_steady_state_solves_total", method="cholesky"
            )
            assert solves.value == 0

    def test_banded_method_requires_structure(self):
        """A long chord away from column 0 breaks the band."""
        model = MarkovModel("chord")
        n = 30
        for i in range(n):
            model.add_state(f"S{i}", reward=1.0)
        for i in range(n):
            model.add_transition(f"S{i}", f"S{(i + 1) % n}", 1.0)
        # Chord spanning 23 states, far over MAX_BANDWIDTH, and its
        # target is not state 0, so the spike column cannot absorb it.
        model.add_transition("S2", "S25", 0.5)
        assert detect_banded_structure(n, *_arc_arrays(model)) is None
        with pytest.raises(SolverError, match="banded"):
            batch_steady_state(model, {}, n_samples=1, method="banded")

    def test_auto_equals_direct_on_small_models(self):
        """Below the banded cutover 'auto' must be bit-identical to
        direct, scalar and batch."""
        model = build_appserver_model(4)
        values = paper_values()
        generator = build_generator(model, values)
        assert generator.n_states < BANDED_MIN_STATES
        auto = steady_state_vector(generator, method="auto")
        direct = steady_state_vector(generator, method="direct")
        assert (auto == direct).all()
        batch_auto = batch_steady_state(model, values, 1, method="auto")
        batch_direct = batch_steady_state(model, values, 1, method="direct")
        assert (batch_auto == batch_direct).all()

    def test_scalar_and_batch_auto_share_cutover(self):
        """One cutover: AS N=10 (29 states) stays dense on both paths,
        N=11 (32 states) and N=16 (47 states) go banded on both."""
        from repro.ctmc.batch import _resolve_engine

        cases = ((10, "direct"), (11, "banded"), (16, "banded"))
        for n_instances, engine in cases:
            model = build_appserver_model(n_instances)
            with obs.observe() as recorder:
                steady_state_vector(
                    build_generator(model, paper_values()), method="auto"
                )
            (chosen,) = [
                record["fields"]["chosen"]
                for record in recorder.records
                if record["name"] == "ctmc.method_auto"
            ]
            assert chosen == engine, n_instances
            compiled = compile_model(model)
            batch = _resolve_engine(compiled, "auto")
            # Batch "auto" below the cutover is the dense stacked LU.
            assert batch == ("auto" if engine == "direct" else engine)
            # Dense methods keep their bit-parity contract at any size
            # below SPARSE_THRESHOLD.
            assert _resolve_engine(compiled, "direct") == "direct"

    def test_sparse_factorization_failure_names_sample(self, monkeypatch):
        """A failed splu surfaces as a SolverError naming the model and
        the sample; there is no second rung."""
        import repro.ctmc.sparse as sparse

        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(sparse.spla, "splu", fail)
        model = build_appserver_model(4)
        with pytest.raises(
            SolverError, match=rf"model {model.name!r}, sample 0"
        ):
            batch_steady_state(model, paper_values(), 1, method="sparse")


def _arc_arrays(model):
    compiled = compile_model(model)
    return compiled.transition_sources, compiled.transition_targets
