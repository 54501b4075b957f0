"""Unit tests for the steady-state solvers (GTH, sparse LU, auto)."""

import numpy as np
import pytest

from repro.core.model import MarkovModel, birth_death_model
from repro.ctmc import (
    mean_first_passage_matrix,
    mean_time_to_absorption,
    outage_duration_cdf,
    passage_time_cdf,
    steady_state_availability,
    transient_distribution,
)
from repro.ctmc.generator import build_generator
from repro.ctmc.steady_state import solve_steady_state, steady_state_vector
from repro.exceptions import SolverError, StructureError

METHODS = ["gth", "auto", "sparse"]


def birth_death_closed_form(births, deaths):
    """pi_k proportional to prod(b_i / d_i)."""
    weights = [1.0]
    for b, d in zip(births, deaths):
        weights.append(weights[-1] * b / d)
    total = sum(weights)
    return [w / total for w in weights]


@pytest.mark.parametrize("method", METHODS)
class TestAgainstClosedForms:
    def test_two_state(self, method, two_state_model, two_state_values):
        pi = solve_steady_state(two_state_model, two_state_values, method)
        la, mu = two_state_values["La"], two_state_values["Mu"]
        assert pi["Up"] == pytest.approx(mu / (la + mu), rel=1e-9)
        assert pi["Down"] == pytest.approx(la / (la + mu), rel=1e-9)

    def test_birth_death(self, method):
        births, deaths = [0.3, 0.2, 0.1], [1.0, 2.0, 3.0]
        model = birth_death_model("bd", 4, births, deaths)
        pi = solve_steady_state(model, {}, method)
        expected = birth_death_closed_form(births, deaths)
        for k, value in enumerate(expected):
            assert pi[f"L{k}"] == pytest.approx(value, rel=1e-8)

    def test_stiff_chain(self, method):
        """Rates spanning 8 orders of magnitude (paper-like stiffness)."""
        model = MarkovModel("stiff")
        model.add_state("Up")
        model.add_state("Down", reward=0.0)
        model.add_transition("Up", "Down", 1e-6)
        model.add_transition("Down", "Up", 60.0)
        pi = solve_steady_state(model, {}, method)
        assert pi["Down"] == pytest.approx(1e-6 / (1e-6 + 60.0), rel=1e-6)


class TestCrossMethodAgreement:
    def test_methods_agree_on_paper_scale_chain(self, paper_values):
        from repro.models.jsas import build_hadb_pair_model

        model = build_hadb_pair_model()
        results = {
            m: solve_steady_state(model, paper_values, m) for m in METHODS
        }
        for state in model.state_names:
            assert results["gth"][state] == pytest.approx(
                results["sparse"][state], rel=1e-6
            )
        assert results["auto"] == results["gth"]


class TestStructureGuards:
    def test_absorbing_chain_puts_all_mass_on_absorber(self):
        """A unique recurrent class with transient states is solvable:
        all stationary mass sits on the recurrent class."""
        model = MarkovModel("absorbing")
        model.add_state("Up")
        model.add_state("Dead", reward=0.0)
        model.add_transition("Up", "Dead", 1.0)
        pi = solve_steady_state(model, {})
        assert pi == {"Up": 0.0, "Dead": 1.0}

    def test_transient_states_get_zero_mass(self):
        model = MarkovModel("feeder")
        model.add_state("Start")
        model.add_state("A")
        model.add_state("B", reward=0.0)
        model.add_transition("Start", "A", 5.0)
        model.add_transition("A", "B", 1.0)
        model.add_transition("B", "A", 3.0)
        pi = solve_steady_state(model, {})
        assert pi["Start"] == 0.0
        assert pi["A"] == pytest.approx(0.75)
        assert pi["B"] == pytest.approx(0.25)

    def test_two_recurrent_classes_rejected(self):
        model = MarkovModel("split")
        for name in ("Start", "A1", "A2", "B1", "B2"):
            model.add_state(name)
        # A transient start feeding two closed cycles: no unique
        # stationary distribution.
        model.add_transition("Start", "A1", 1.0)
        model.add_transition("Start", "B1", 1.0)
        model.add_transition("A1", "A2", 1.0)
        model.add_transition("A2", "A1", 1.0)
        model.add_transition("B1", "B2", 1.0)
        model.add_transition("B2", "B1", 1.0)
        with pytest.raises(StructureError, match="recurrent classes"):
            solve_steady_state(model, {})

    def test_unknown_method(self, two_state_model, two_state_values):
        with pytest.raises(SolverError, match="unknown steady-state method"):
            solve_steady_state(two_state_model, two_state_values, "magic")

    def test_direct_is_refused(self, two_state_model, two_state_values):
        """Dense LU (``direct``) is gone; the error names the methods
        that remain."""
        generator = build_generator(two_state_model, two_state_values)
        with pytest.raises(
            SolverError,
            match=r"unknown steady-state method 'direct'; expected one of "
            r"\('gth', 'auto', 'banded', 'sparse'\)",
        ):
            steady_state_vector(generator, method="direct")

    @pytest.mark.parametrize(
        "entry_point",
        [
            solve_steady_state,
            lambda model: transient_distribution(model, 1.0),
            lambda model: mean_time_to_absorption(model, ["Down"]),
            steady_state_availability,
            mean_first_passage_matrix,
            lambda model: passage_time_cdf(model, ["Down"], 1.0),
            lambda model: outage_duration_cdf(model, 1.0),
        ],
        ids=[
            "steady_state", "transient", "absorption", "rewards", "mfpt",
            "passage", "outage",
        ],
    )
    def test_model_without_values_rejected(
        self, two_state_model, entry_point
    ):
        with pytest.raises(SolverError, match="values are required"):
            entry_point(two_state_model)


class TestVectorApi:
    def test_vector_ordering_matches_state_names(
        self, three_state_model
    ):
        g = build_generator(three_state_model, {})
        pi = steady_state_vector(g)
        assert pi.shape == (3,)
        assert pi.sum() == pytest.approx(1.0)
        mapping = solve_steady_state(g)
        for i, name in enumerate(g.state_names):
            assert mapping[name] == pytest.approx(pi[i])

    def test_probabilities_non_negative(self, three_state_model):
        g = build_generator(three_state_model, {})
        pi = steady_state_vector(g)
        assert (pi >= 0.0).all()

    def test_generator_accepted_directly(
        self, two_state_model, two_state_values
    ):
        g = build_generator(two_state_model, two_state_values)
        pi = solve_steady_state(g)
        assert pi["Up"] > 0.9
