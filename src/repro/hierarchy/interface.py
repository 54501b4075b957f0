"""The (Lambda, Mu) abstraction of a solved submodel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.model import MarkovModel
from repro.ctmc.rewards import (
    steady_state_availability,
    AvailabilityResult,
)


@dataclass(frozen=True)
class SubmodelInterface:
    """What a parent model sees of a solved submodel.

    Attributes:
        name: Submodel name.
        failure_rate: Equivalent failure rate Lambda (per hour).
        recovery_rate: Equivalent recovery rate Mu (per hour).
        availability: The submodel's own steady-state availability
            (``Mu / (Lambda + Mu)``, exactly).
        detail: Full :class:`~repro.ctmc.rewards.AvailabilityResult` for
            reporting (per-state probabilities, downtime attribution).
    """

    name: str
    failure_rate: float
    recovery_rate: float
    availability: float
    detail: AvailabilityResult

    @property
    def mean_up_time_hours(self) -> float:
        return 1.0 / self.failure_rate if self.failure_rate > 0 else float("inf")

    @property
    def mean_down_time_hours(self) -> float:
        return (
            1.0 / self.recovery_rate
            if self.recovery_rate not in (0.0, float("inf"))
            else 0.0
        )


def abstract_submodel(
    model: MarkovModel,
    values: Mapping[str, float],
    method: str = "direct",
    name: Optional[str] = None,
    abstraction: str = "mttf",
) -> SubmodelInterface:
    """Solve a submodel and return its (Lambda, Mu) interface.

    With ``abstraction="flow"`` the identity
    ``availability == Mu / (Lambda + Mu)`` holds exactly; with the
    default ``"mttf"`` (RAScad semantics) it holds to
    O(unavailability^2).  The reported ``availability`` is always the
    submodel's true steady-state availability, independent of the
    abstraction chosen for the rates.
    """
    detail = steady_state_availability(
        model, values, method=method, abstraction=abstraction
    )
    return SubmodelInterface(
        name=name or model.name,
        failure_rate=detail.failure_rate,
        recovery_rate=detail.recovery_rate,
        availability=detail.availability,
        detail=detail,
    )
