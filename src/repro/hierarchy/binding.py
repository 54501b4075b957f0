"""Bindings: wiring submodel outputs into parent-model parameters.

A :class:`RateBinding` says "parameter ``La_appl`` of the parent takes the
value of submodel ``appserver``'s equivalent failure rate, optionally
scaled" — exactly the ``La_appl = $Lambda`` annotations in the paper's
Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ModelError

#: Which submodel output a binding draws from.
OUTPUTS = ("failure_rate", "recovery_rate", "availability", "unavailability")


@dataclass(frozen=True)
class RateBinding:
    """Bind one parent parameter to one submodel output.

    Attributes:
        parameter: Parent-model parameter name to set.
        submodel: Name of the submodel supplying the value.
        output: One of :data:`OUTPUTS`.
        scale: Multiplier applied to the output (e.g. the paper's top
            model multiplies the HADB pair failure rate by ``N_pair``).
    """

    parameter: str
    submodel: str
    output: str = "failure_rate"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.output not in OUTPUTS:
            raise ModelError(
                f"binding for {self.parameter!r} uses unknown output "
                f"{self.output!r}; expected one of {OUTPUTS}"
            )
        if self.scale <= 0.0:
            raise ModelError(
                f"binding for {self.parameter!r} has non-positive scale "
                f"{self.scale}"
            )
