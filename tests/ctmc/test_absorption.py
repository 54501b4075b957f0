"""Unit tests for absorption analysis (MTTA, MTTF, hitting probabilities)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.core.model import MarkovModel
from repro.ctmc.absorption import (
    _require_targets_reachable,
    absorption_probabilities,
    mean_time_to_absorption,
    mean_time_to_failure,
)
from repro.ctmc.generator import GeneratorMatrix
from repro.exceptions import SolverError, StructureError


class TestMeanTimeToAbsorption:
    def test_single_exponential_step(self, two_state_model, two_state_values):
        times = mean_time_to_absorption(
            two_state_model, ["Down"], two_state_values
        )
        assert times["Up"] == pytest.approx(1.0 / two_state_values["La"])

    def test_series_system(self):
        """A -> B -> C: MTTA(A) = 1/r1 + 1/r2."""
        m = MarkovModel("series")
        m.add_state("A")
        m.add_state("B")
        m.add_state("C", reward=0.0)
        m.add_transition("A", "B", 2.0)
        m.add_transition("B", "C", 4.0)
        times = mean_time_to_absorption(m, ["C"], {})
        assert times["A"] == pytest.approx(0.5 + 0.25)
        assert times["B"] == pytest.approx(0.25)

    def test_with_feedback_loop(self):
        """Up <-> Degraded, Degraded -> Down; verify by hand-solved system."""
        m = MarkovModel("loop")
        m.add_state("Up")
        m.add_state("Deg")
        m.add_state("Down", reward=0.0)
        m.add_transition("Up", "Deg", 1.0)
        m.add_transition("Deg", "Up", 3.0)
        m.add_transition("Deg", "Down", 1.0)
        times = mean_time_to_absorption(m, ["Down"], {})
        # m_up = 1 + m_deg ; m_deg = 1/4 + (3/4) m_up  =>  m_up = 5
        assert times["Up"] == pytest.approx(5.0)
        assert times["Deg"] == pytest.approx(4.0)

    def test_unknown_target(self, two_state_model, two_state_values):
        with pytest.raises(SolverError, match="unknown target"):
            mean_time_to_absorption(two_state_model, ["X"], two_state_values)

    def test_empty_targets(self, two_state_model, two_state_values):
        with pytest.raises(SolverError, match="at least one"):
            mean_time_to_absorption(two_state_model, [], two_state_values)

    def test_unreachable_target_detected(self):
        m = MarkovModel("trap")
        m.add_state("A")
        m.add_state("B")
        m.add_state("Goal", reward=0.0)
        m.add_transition("A", "B", 1.0)
        m.add_transition("B", "A", 1.0)
        m.add_transition("Goal", "A", 1.0)  # reachable FROM goal only
        with pytest.raises(StructureError, match="cannot reach"):
            mean_time_to_absorption(m, ["Goal"], {})

    def test_all_states_are_targets(self, two_state_model, two_state_values):
        assert (
            mean_time_to_absorption(
                two_state_model, ["Up", "Down"], two_state_values
            )
            == {}
        )


class TestMeanTimeToFailure:
    def test_mttf_from_default_start(self, three_state_model):
        mttf = mean_time_to_failure(three_state_model, {})
        # m_up = 10 + m_deg... solve: from Up exit 0.1 to Deg;
        # m_deg = 1/2.05 + (2/2.05) m_up; m_up = 10 + m_deg.
        m_up = (10.0 + 1.0 / 2.05) / (1.0 - 2.0 / 2.05)
        assert mttf == pytest.approx(m_up, rel=1e-9)

    def test_no_down_states(self):
        m = MarkovModel("updown")
        m.add_state("A")
        m.add_state("B")
        m.add_transition("A", "B", 1.0)
        m.add_transition("B", "A", 1.0)
        with pytest.raises(StructureError, match="no down states"):
            mean_time_to_failure(m, {})

    def test_start_in_down_state_rejected(self, two_state_model, two_state_values):
        with pytest.raises(SolverError, match="down state"):
            mean_time_to_failure(
                two_state_model, two_state_values, from_state="Down"
            )


class TestAbsorptionProbabilities:
    def test_competing_risks(self):
        """From S, race between rates 1 and 3 to two sinks."""
        m = MarkovModel("race")
        m.add_state("S")
        m.add_state("A", reward=0.0)
        m.add_state("B", reward=0.0)
        m.add_transition("S", "A", 1.0)
        m.add_transition("S", "B", 3.0)
        m.add_transition("A", "S", 1.0)
        m.add_transition("B", "S", 1.0)
        probs = absorption_probabilities(m, ["A", "B"], {})
        assert probs["S"]["A"] == pytest.approx(0.25)
        assert probs["S"]["B"] == pytest.approx(0.75)

    def test_multi_hop(self):
        m = MarkovModel("hops")
        m.add_state("S")
        m.add_state("M")
        m.add_state("Win", reward=0.0)
        m.add_state("Lose", reward=0.0)
        m.add_transition("S", "M", 1.0)
        m.add_transition("M", "Win", 2.0)
        m.add_transition("M", "Lose", 2.0)
        m.add_transition("Win", "S", 1.0)
        m.add_transition("Lose", "S", 1.0)
        probs = absorption_probabilities(m, ["Win", "Lose"], {})
        assert probs["S"]["Win"] == pytest.approx(0.5)
        assert probs["M"]["Win"] == pytest.approx(0.5)

    def test_rows_sum_to_one(self, three_state_model):
        probs = absorption_probabilities(three_state_model, ["Down"], {})
        for state, row in probs.items():
            assert sum(row.values()) == pytest.approx(1.0)


def first_state_missing_targets(q, transient, targets):
    """The per-state definition: a forward search from each transient
    state in turn; the first that reaches no target."""
    n = q.shape[0]
    for start in transient:
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and q[i, j] > 0.0 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if not seen & targets:
            return start
    return None


@st.composite
def chains_with_targets(draw):
    n = draw(st.integers(2, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = draw(
        st.lists(
            pair.filter(lambda p: p[0] != p[1]),
            max_size=draw(st.sampled_from([n, 3 * n])),
            unique=True,
        )
    )
    targets = draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)
    )
    q = np.zeros((n, n))
    for i, j in arcs:
        q[i, j] = 1.0
    np.fill_diagonal(q, -q.sum(axis=1))
    return q, targets


class TestTargetReachability:
    """One reverse search from the target set gives the per-state
    definition's verdict and names the same first state."""

    @pytest.mark.parametrize("sparse", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(chain=chains_with_targets())
    def test_matches_per_state_search(self, chain, sparse):
        q, targets = chain
        n = q.shape[0]
        names = tuple(f"s{i}" for i in range(n))
        generator = GeneratorMatrix(
            matrix=sp.csr_matrix(q) if sparse else q,
            state_names=names,
            rewards=np.ones(n),
        )
        transient = [i for i in range(n) if i not in targets]
        target_names = {names[i] for i in targets}
        offender = first_state_missing_targets(q, transient, targets)
        if offender is None:
            _require_targets_reachable(
                generator, [names[i] for i in transient], target_names
            )
            return
        with pytest.raises(StructureError) as excinfo:
            _require_targets_reachable(
                generator, [names[i] for i in transient], target_names
            )
        assert str(excinfo.value) == (
            f"state {names[offender]!r} cannot reach any target state "
            f"{sorted(target_names)}; hitting time is infinite"
        )
