"""Batched solvers vs. the scalar path: exact element-wise agreement.

The batch engine's contract is not "close to" the scalar solver — it is
*the same arithmetic*, so every comparison in this module uses ``==`` on
floats, not ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiled import compile_model
from repro.core.model import MarkovModel, birth_death_model
from repro.ctmc.batch import (
    batch_availability,
    batch_steady_state,
    pattern_structure,
)
from repro.ctmc.generator import build_generator
from repro.ctmc.rewards import steady_state_availability
from repro.ctmc.steady_state import steady_state_vector
from repro.exceptions import SolverError, StructureError
from repro.models.jsas.appserver import build_appserver_model
from repro.models.jsas.hadb import build_hadb_pair_model
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import build_system_model


def two_state():
    model = MarkovModel("component")
    model.add_state("Up", reward=1.0)
    model.add_state("Down", reward=0.0)
    model.add_transition("Up", "Down", "La")
    model.add_transition("Down", "Up", "Mu")
    return model


def scalar_pi(model, values):
    return steady_state_vector(build_generator(model, values))


@st.composite
def irreducible_chains(draw):
    """A random irreducible chain: a forced cycle plus random extra arcs."""
    n = draw(st.integers(2, 6))
    model = MarkovModel("random")
    model.add_state("S0", reward=1.0)
    for i in range(1, n):
        model.add_state(f"S{i}", reward=draw(st.sampled_from([0.0, 1.0])))
    # Cycle 0 -> 1 -> ... -> n-1 -> 0 guarantees irreducibility.
    arcs = [(i, (i + 1) % n) for i in range(n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8,
        )
    )
    for i, j in extra:
        if i != j and (i, j) not in arcs:
            arcs.append((i, j))
    names = []
    for k, (i, j) in enumerate(arcs):
        name = f"r{k}"
        model.add_transition(f"S{i}", f"S{j}", name)
        names.append(name)
    values = {
        name: draw(st.floats(min_value=1e-6, max_value=1e4)) for name in names
    }
    return model, values


@settings(max_examples=40, deadline=None)
@given(chain=irreducible_chains(), data=st.data())
def test_batch_equals_scalar_on_random_chains(chain, data):
    model, base = chain
    n_samples = data.draw(st.integers(1, 5))
    columns = {}
    for name, value in base.items():
        if data.draw(st.booleans()):
            factors = data.draw(
                st.lists(
                    st.floats(min_value=0.25, max_value=4.0),
                    min_size=n_samples,
                    max_size=n_samples,
                )
            )
            columns[name] = np.array([value * f for f in factors])
        else:
            columns[name] = value
    pis = batch_steady_state(model, columns, n_samples=n_samples)
    for s in range(n_samples):
        values = {
            k: (float(v[s]) if isinstance(v, np.ndarray) else v)
            for k, v in columns.items()
        }
        expected = scalar_pi(model, values)
        assert (pis[s] == expected).all()


class TestExactParityOnPaperModels:
    """The Fig. 2-4 JSAS models, batched vs scalar, element-wise ``==``."""

    @pytest.mark.parametrize(
        "build",
        [
            build_hadb_pair_model,
            lambda: build_appserver_model(2),
            lambda: build_appserver_model(4),
            lambda: build_system_model(include_hadb=False),
        ],
        ids=["hadb", "as2", "as4", "top-no-hadb"],
    )
    def test_steady_state_and_availability(self, build):
        model = build()
        base = dict(PAPER_PARAMETERS)
        base.setdefault("La_appl", 0.002)
        base.setdefault("Mu_appl", 1.5)
        rng = np.random.default_rng(2004)
        n = 20
        columns = {
            name: float(base[name]) for name in model.required_parameters()
        }
        varied = sorted(model.required_parameters())[:3]
        for name in varied:
            columns[name] = base[name] * rng.uniform(0.5, 2.0, size=n)
        batch = batch_availability(model, columns, n_samples=n)
        for s in range(n):
            values = {
                k: (float(v[s]) if isinstance(v, np.ndarray) else v)
                for k, v in columns.items()
            }
            scalar = steady_state_availability(model, values)
            assert batch.availability[s] == scalar.availability
            assert (
                batch.yearly_downtime_minutes[s]
                == scalar.yearly_downtime_minutes
            )
            assert batch.failure_rate[s] == scalar.failure_rate
            assert batch.recovery_rate[s] == scalar.recovery_rate
            assert batch.mtbf_hours[s] == scalar.mtbf_hours
            assert batch.mttr_hours[s] == scalar.mttr_hours
            expected_pi = np.array(
                [scalar.state_probabilities[name] for name in batch.state_names]
            )
            assert (batch.pis[s] == expected_pi).all()

    def test_flow_abstraction_parity(self):
        model = build_hadb_pair_model()
        base = dict(PAPER_PARAMETERS)
        rng = np.random.default_rng(7)
        n = 10
        columns = {
            name: float(base[name]) for name in model.required_parameters()
        }
        first = sorted(model.required_parameters())[0]
        columns[first] = base[first] * rng.uniform(0.5, 2.0, size=n)
        batch = batch_availability(
            model, columns, n_samples=n, abstraction="flow"
        )
        for s in range(n):
            values = {
                k: (float(v[s]) if isinstance(v, np.ndarray) else v)
                for k, v in columns.items()
            }
            scalar = steady_state_availability(
                model, values, abstraction="flow"
            )
            assert batch.failure_rate[s] == scalar.failure_rate
            assert batch.recovery_rate[s] == scalar.recovery_rate


class TestZeroPatternSafety:
    """A rate hitting exactly 0 changes the structure — the cache must
    classify each pattern separately, never reuse the wrong one."""

    def build(self):
        # Up <-> Down, plus a Maintenance branch switched by one rate.
        model = MarkovModel("switchable")
        model.add_state("Up", reward=1.0)
        model.add_state("Down", reward=0.0)
        model.add_state("Maint", reward=0.0)
        model.add_transition("Up", "Down", "La")
        model.add_transition("Down", "Up", "Mu")
        model.add_transition("Up", "Maint", "M")
        model.add_transition("Maint", "Up", "R")
        return model

    def test_mixed_zero_and_nonzero_batch(self):
        model = self.build()
        m = np.array([0.01, 0.0, 0.02, 0.0])
        columns = {"La": 0.5, "Mu": 2.0, "M": m, "R": 3.0}
        pis = batch_steady_state(model, columns, n_samples=4)
        for s in range(4):
            values = {"La": 0.5, "Mu": 2.0, "M": float(m[s]), "R": 3.0}
            assert (pis[s] == scalar_pi(model, values)).all()
        # Samples where M == 0 put zero mass on the unreachable state.
        assert pis[1, 2] == 0.0
        assert pis[3, 2] == 0.0

    @pytest.mark.parametrize("abstraction", ["mttf", "flow"])
    def test_kernel_hands_zero_rate_samples_to_the_library(
        self, abstraction
    ):
        """Under ``auto`` a sample with a zero rate (here a reducible
        chain: Maint unreachable) is solved by the scalar library, so
        the batch equals the scalar solve bit for bit."""
        model = self.build()
        m = np.array([0.01, 0.0, 0.02, 0.0])
        columns = {"La": 0.5, "Mu": 2.0, "M": m, "R": 3.0}
        batch = batch_availability(
            model, columns, n_samples=4, method="auto",
            abstraction=abstraction,
        )
        for s in range(4):
            values = {"La": 0.5, "Mu": 2.0, "M": float(m[s]), "R": 3.0}
            scalar = steady_state_availability(
                model, values, method="auto", abstraction=abstraction
            )
            expected = np.array(
                [scalar.state_probabilities[n] for n in batch.state_names]
            )
            assert (batch.pis[s] == expected).all()
            assert batch.availability[s] == scalar.availability
            assert batch.failure_rate[s] == scalar.failure_rate
            assert batch.recovery_rate[s] == scalar.recovery_rate
        assert batch.pis[1, 2] == 0.0

    def test_cache_holds_one_entry_per_pattern(self):
        """The structured engines group samples by zero-pattern (the
        dense kernel hands a zero-rate sample to the scalar library)."""
        model = self.build()
        compiled = compile_model(model)
        compiled.structure_cache.clear()
        m = np.array([0.01, 0.0])
        batch_steady_state(
            compiled, {"La": 0.5, "Mu": 2.0, "M": m, "R": 3.0}, n_samples=2,
            method="sparse",
        )
        assert len(compiled.structure_cache) == 2

    def test_disconnected_recurrent_classes_raise(self):
        model = MarkovModel("split")
        model.add_state("A", reward=1.0)
        model.add_state("B", reward=0.0)
        model.add_state("C", reward=1.0)
        model.add_transition("A", "B", "x")
        model.add_transition("B", "A", "y")
        model.add_transition("A", "C", "z")
        model.add_transition("C", "A", "w")
        # z = w = 0 isolates C while A<->B keeps spinning... but C also
        # becomes a second recurrent class (absorbing with no arcs), so
        # the stationary distribution is not unique.
        columns = {
            "x": 1.0,
            "y": 1.0,
            "z": np.array([1.0, 0.0]),
            "w": np.array([1.0, 0.0]),
        }
        with pytest.raises(StructureError):
            batch_steady_state(model, columns, n_samples=2)


class TestMethods:
    def test_gth_matches_scalar_gth(self):
        model = birth_death_model(
            "bd", 4, ["b0", "b1", "b2"], ["d0", "d1", "d2"]
        )
        values = {
            "b0": 0.3, "b1": 0.2, "b2": 1e-6,
            "d0": 1.0, "d1": 2e5, "d2": 3.0,
        }
        pis = batch_steady_state(model, values, n_samples=2, method="gth")
        expected = steady_state_vector(
            build_generator(model, values), method="gth"
        )
        assert (pis[0] == expected).all()
        assert (pis[1] == expected).all()

    def test_auto_falls_back_per_sample(self):
        model = two_state()
        columns = {"La": np.array([0.5, 1e-30]), "Mu": np.array([2.0, 1e8])}
        pis = batch_steady_state(model, columns, n_samples=2, method="auto")
        assert np.isfinite(pis).all()
        assert pis.shape == (2, 2)
        assert (abs(pis.sum(axis=1) - 1.0) < 1e-12).all()

    def test_unknown_method(self):
        with pytest.raises(SolverError, match="unknown"):
            batch_steady_state(
                two_state(), {"La": 1.0, "Mu": 1.0}, n_samples=1, method="qr"
            )

    def test_direct_is_refused(self):
        """Stacked LU (``direct``) is gone; the error names the methods
        that remain."""
        with pytest.raises(
            SolverError,
            match=r"unknown batch steady-state method 'direct'; expected "
            r"one of \('gth', 'auto', 'banded', 'sparse'\)",
        ):
            batch_availability(
                two_state(), {"La": 1.0, "Mu": 1.0}, n_samples=1,
                method="direct",
            )

    def test_sample_count_inference(self):
        model = two_state()
        pis = batch_steady_state(
            model, {"La": np.array([0.1, 0.2, 0.3]), "Mu": 1.0}
        )
        assert pis.shape == (3, 2)
        with pytest.raises(SolverError, match="infer"):
            batch_steady_state(model, {"La": 0.1, "Mu": 1.0})


class TestPatternStructure:
    def test_mtta_error_cached_for_unreachable_down(self):
        model = MarkovModel("trap")
        model.add_state("Up", reward=1.0)
        model.add_state("Side", reward=1.0)
        model.add_state("Down", reward=0.0)
        model.add_transition("Up", "Side", "a")
        model.add_transition("Side", "Up", "b")
        model.add_transition("Up", "Down", "c")
        model.add_transition("Down", "Up", "d")
        compiled = compile_model(model)
        # All arcs on: every up state reaches Down.
        info = pattern_structure(
            compiled, np.array([True, True, True, True])
        )
        assert info.mtta_error is None
        # c off: no up state reaches Down at all -> flow_down is 0 for
        # such samples and the MTTA system is never solved, but the
        # cached verdict must still record the unreachability.
        info = pattern_structure(
            compiled, np.array([True, True, False, True])
        )
        assert info.mtta_error is not None
