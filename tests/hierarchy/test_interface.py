"""The submodel (Lambda, Mu) interface a hierarchical solve reports."""

import pytest

from repro.core.model import MarkovModel
from repro.ctmc.rewards import steady_state_availability
from repro.hierarchy import HierarchicalModel


def interface_of(model, values, abstraction="mttf", name=None):
    """``model``'s interface in the solve of a one-submodel hierarchy."""
    key = name or model.name
    top = MarkovModel("top")
    top.add_state("Ok", reward=1.0)
    top.add_state("Fail", reward=0.0)
    top.add_transition("Ok", "Fail", "La_sub")
    top.add_transition("Fail", "Ok", "Mu_sub")
    hierarchy = HierarchicalModel(top)
    hierarchy.add_submodel(model, attribute_states=("Fail",), name=name)
    hierarchy.bind("La_sub", key, "failure_rate")
    hierarchy.bind("Mu_sub", key, "recovery_rate")
    result = hierarchy.solve(values, abstraction=abstraction)
    return result.submodels[key].interface


class TestAbstractSubmodel:
    def test_two_state_exact(self, two_state_model, two_state_values):
        interface = interface_of(two_state_model, two_state_values)
        la, mu = two_state_values["La"], two_state_values["Mu"]
        assert interface.failure_rate == pytest.approx(la)
        assert interface.recovery_rate == pytest.approx(mu)
        assert interface.availability == pytest.approx(mu / (la + mu))
        assert interface.name == "component"

    def test_name_override(self, two_state_model, two_state_values):
        interface = interface_of(
            two_state_model, two_state_values, name="alias"
        )
        assert interface.name == "alias"

    def test_availability_is_true_availability_not_approximation(
        self, three_state_model
    ):
        """With the mttf abstraction, Mu/(La+Mu) is approximate; the
        interface must still report the true availability."""
        interface = interface_of(three_state_model, {}, abstraction="mttf")
        truth = steady_state_availability(three_state_model, {}).availability
        assert interface.availability == pytest.approx(truth, rel=1e-12)

    def test_flow_abstraction_identity(self, three_state_model):
        interface = interface_of(three_state_model, {}, abstraction="flow")
        lam, mu = interface.failure_rate, interface.recovery_rate
        assert mu / (lam + mu) == pytest.approx(
            interface.availability, rel=1e-12
        )

    def test_detail_carries_full_result(self, two_state_model, two_state_values):
        interface = interface_of(two_state_model, two_state_values)
        assert interface.detail.state_probabilities.keys() == {"Up", "Down"}
        assert interface.detail.mtbf_hours == pytest.approx(
            1.0 / two_state_values["La"]
        )
        assert interface.detail.mttr_hours == pytest.approx(
            1.0 / two_state_values["Mu"]
        )
