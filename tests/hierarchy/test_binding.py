"""Rate bindings: a submodel output, scaled, becomes a top-model rate."""

import pytest

from repro.core.model import MarkovModel
from repro.exceptions import ModelError
from repro.hierarchy import HierarchicalModel, RateBinding
from repro.hierarchy.binding import OUTPUTS
from tests.ctmc.test_exact_oracle import kernel_path  # noqa: F401


def solve_bound(submodel, values, output, scale=1.0):
    """Solve a hierarchy whose top model fails at ``X``, bound to
    ``output * scale`` of ``submodel``, and recovers at ``Y``, bound to
    its recovery rate."""
    top = MarkovModel("top")
    top.add_state("Ok", reward=1.0)
    top.add_state("Fail", reward=0.0)
    top.add_transition("Ok", "Fail", "X")
    top.add_transition("Fail", "Ok", "Y")
    hierarchy = HierarchicalModel(top)
    hierarchy.add_submodel(submodel, attribute_states=("Fail",))
    hierarchy.bind("X", submodel.name, output, scale)
    hierarchy.bind("Y", submodel.name, "recovery_rate")
    return hierarchy.solve(values)


@pytest.fixture
def bound(two_state_model, two_state_values):
    """The value bound to ``X`` from one output of the two-state
    ``component`` submodel (La = 0.01, Mu = 1)."""

    def value(output, scale=1.0):
        result = solve_bound(two_state_model, two_state_values, output, scale)
        return result.bound_parameters["X"]

    return value


class TestRateBinding:
    def test_failure_rate_output(self, bound):
        assert bound("failure_rate") == pytest.approx(0.01)

    def test_recovery_rate_output(self, bound):
        assert bound("recovery_rate") == pytest.approx(1.0)

    def test_availability_output(self, bound):
        assert bound("availability") == pytest.approx(1.0 / 1.01)

    def test_unavailability_output(self, bound):
        assert bound("unavailability") == pytest.approx(0.01 / 1.01)

    def test_scale_applied(self, bound):
        assert bound("failure_rate", scale=4.0) == pytest.approx(0.04)

    def test_unknown_output_rejected(self):
        with pytest.raises(ModelError, match="unknown output"):
            RateBinding("x", "m", "magic")

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ModelError, match="scale"):
            RateBinding("x", "m", "failure_rate", scale=0.0)


class TestResolveBindings:
    def test_resolution(self, two_state_model, two_state_values):
        """Every binding is resolved into ``bound_parameters``."""
        result = solve_bound(
            two_state_model, two_state_values, "failure_rate"
        )
        assert result.bound_parameters == {
            "X": pytest.approx(0.01),
            "Y": pytest.approx(1.0),
        }


@pytest.mark.parametrize("scale", [1.0, 4.0])
@pytest.mark.parametrize("output", OUTPUTS)
def test_bound_value_is_the_scaled_output(
    kernel_path, two_state_model, two_state_values, output, scale
):
    """On both kernel paths the bound value is the interface's output
    times the scale, and the top model runs on it."""
    result = solve_bound(two_state_model, two_state_values, output, scale)
    interface = result.submodels["component"].interface
    if output == "unavailability":
        value = 1.0 - interface.availability
    else:
        value = getattr(interface, output)
    assert result.bound_parameters == {
        "X": value * scale, "Y": interface.recovery_rate,
    }
    # The top model leaves Ok at rate X alone, so its Lambda is X.
    assert result.system.failure_rate == pytest.approx(
        value * scale, rel=1e-15, abs=0.0
    )
