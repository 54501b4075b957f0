"""The (Lambda, Mu) abstraction of a solved submodel."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ctmc.rewards import AvailabilityResult


@dataclass(frozen=True)
class SubmodelInterface:
    """What a parent model sees of a solved submodel.

    Attributes:
        name: Submodel name.
        failure_rate: Equivalent failure rate Lambda (per hour).
        recovery_rate: Equivalent recovery rate Mu (per hour).
        availability: The submodel's own steady-state availability,
            whichever abstraction gives the rates (under ``"flow"`` it
            equals ``Mu / (Lambda + Mu)``).
        detail: Full :class:`~repro.ctmc.rewards.AvailabilityResult` for
            reporting (per-state probabilities, downtime attribution,
            MTBF and MTTR).
    """

    name: str
    failure_rate: float
    recovery_rate: float
    availability: float
    detail: AvailabilityResult
