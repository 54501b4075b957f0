"""Markov reward measures: availability, downtime, MTBF, equivalent rates.

This module turns a stationary distribution into the metrics the paper
reports (availability, yearly downtime, MTBF) and into the (Lambda, Mu)
pair that the hierarchical composition consumes.

Equivalent-rate abstraction (RAScad's submodel interface).  Two variants
of the equivalent failure rate Lambda are supported:

* ``"mttf"`` (default, the semantics RAScad uses — reverse-engineered
  from the paper's published MTBF figures): ``Lambda = 1 / MTTF`` where
  MTTF is the mean first-passage time from the model's initial state
  (its first state, conventionally the all-up state) into the down set.
* ``"flow"``: the steady-state rate of entering the down set conditioned
  on being up::

      Lambda = (sum_{i in U} sum_{j in D} pi_i * q_ij) / (sum_{i in U} pi_i)

The equivalent recovery rate Mu is the same under both variants — the
reciprocal of the mean duration of a down period::

      Mu = (sum_{j in D} sum_{i in U} pi_j * q_ji) / (sum_{j in D} pi_j)

(by flow balance this equals ``flow_into_down / P(down)``, i.e. the
renewal-reward mean down time per visit, which is also what a
first-passage computation weighted by the down-entry distribution gives).

With the ``"flow"`` variant the identity ``A = Mu / (Lambda + Mu)`` holds
exactly; with ``"mttf"`` it is the standard hierarchical approximation,
accurate to O(unavailability) for highly available systems — the paper's
Table 2/3 values are reproduced with ``"mttf"``.

The dense and banded engines read the MTTF off a renewal closure, which
never subtracts: the dense kernel collapses the down set into one state
(:mod:`repro.kernels.dense`), and the banded engine runs
:class:`RenewalClosure` through its own kernel.  Only ``"sparse"``
solves ``Q_UU m = -1``, and it falls back to the flow rate when that
system is numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.model import MarkovModel
from repro.ctmc.absorption import _require_targets_reachable
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.ctmc.sparse import (
    SparseUpBlockSolver,
    _generator_coo,
    detect_banded_structure,
)
from repro.ctmc.steady_state import (
    Interface,
    _resolve_method,
    _solve,
    steady_state_vector,
)
from repro.exceptions import SolverError, StructureError
from repro.kernels.banded import BandedKernelPlan, banded_steady_state
from repro.kernels.dense import DenseKernelPlan, dense_gth
from repro.units import unavailability_to_yearly_downtime_minutes

#: The equivalent-rate abstractions every solver accepts.
ABSTRACTIONS = ("mttf", "flow")


@dataclass(frozen=True)
class AvailabilityResult:
    """Steady-state availability metrics for one model.

    Attributes:
        availability: Steady-state probability of being in an up state.
        yearly_downtime_minutes: ``(1 - availability) * minutes_per_year``.
        mtbf_hours: Mean up time between entries into the down set
            (``1 / Lambda``); ``inf`` when the down set is unreachable.
        mttr_hours: Mean duration of a down period (``1 / Mu``).
        failure_rate: Equivalent failure rate Lambda (per hour).
        recovery_rate: Equivalent recovery rate Mu (per hour).
        state_probabilities: Full stationary distribution.
        downtime_by_state: Yearly downtime minutes attributed to each
            down state (sums to ``yearly_downtime_minutes``).
    """

    availability: float
    yearly_downtime_minutes: float
    mtbf_hours: float
    mttr_hours: float
    failure_rate: float
    recovery_rate: float
    state_probabilities: Dict[str, float]
    downtime_by_state: Dict[str, float]

    @property
    def unavailability(self) -> float:
        return 1.0 - self.availability

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"availability={self.availability:.7%}  "
            f"yearly downtime={self.yearly_downtime_minutes:.3g} min  "
            f"MTBF={self.mtbf_hours:,.0f} h  MTTR={self.mttr_hours:.3g} h"
        )


def expected_steady_state_reward(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
    method: str = "auto",
) -> float:
    """Expected reward rate under the stationary distribution.

    For availability models (rewards in {0, 1}) this *is* the steady-state
    availability; for performability models it is the long-run average
    reward rate.
    """
    generator = as_generator(model_or_generator, values)
    pi = steady_state_vector(generator, method=method)
    return float(np.dot(pi, generator.rewards))


def equivalent_failure_recovery_rates(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
    pi: Optional[np.ndarray] = None,
    method: str = "auto",
    abstraction: str = "mttf",
) -> Tuple[float, float]:
    """The (Lambda, Mu) abstraction of a submodel (see module docstring).

    Args:
        abstraction: ``"mttf"`` (RAScad semantics, default) or ``"flow"``.

    Returns:
        ``(Lambda, Mu)`` in per-hour units.  If the model has no down
        states, returns ``(0.0, inf)``.

    Raises:
        StructureError: If the stationary probability of the up set is
            zero (the model is never up — Lambda is undefined).
    """
    _check_abstraction(abstraction)
    generator = as_generator(model_or_generator, values)
    interface: Interface = None
    if pi is None:
        pi, resolved, interface = _solve(
            generator, method, mttf=abstraction == "mttf"
        )
    else:
        resolved = _resolve_method(generator, method)[0]
    return _equivalent_rates(generator, pi, resolved, interface, abstraction)


def _check_abstraction(abstraction: str) -> None:
    if abstraction not in ABSTRACTIONS:
        raise SolverError(
            f"unknown abstraction {abstraction!r}; expected 'mttf' or 'flow'"
        )


def _equivalent_rates(
    generator: GeneratorMatrix,
    pi: np.ndarray,
    resolved: str,
    interface: Interface,
    abstraction: str,
) -> Tuple[float, float]:
    """(Lambda, Mu) from a solved vector; ``interface`` when the kernel
    already computed them."""
    up = generator.up_mask()
    if not up.any():
        raise StructureError(
            f"model {generator.model_name!r} has no up states"
        )
    if up.all():
        return 0.0, float("inf")
    p_up = float(pi[up].sum())
    p_down = float(pi[~up].sum())
    if p_up <= 0.0:
        raise StructureError(
            f"model {generator.model_name!r} is never up in steady state"
        )
    if abstraction == "mttf" and not up[0]:
        raise StructureError(
            f"model {generator.model_name!r} starts in a down state; "
            "the MTTF abstraction requires an up initial state"
        )
    if interface is not None:
        return interface[0], interface[1]
    q = generator.dense()
    flow_down = float(pi[up] @ q[np.ix_(up, ~up)].sum(axis=1))
    if abstraction == "flow":
        lam = flow_down / p_up
    elif flow_down <= 0.0:
        lam = 0.0
    else:
        lam = _mttf_failure_rate(generator, up, resolved, flow_down / p_up)
    if p_down <= 0.0:
        # Down states exist but are unreachable for this parameterization.
        return lam, float("inf")
    flow_up = float(pi[~up] @ q[np.ix_(~up, up)].sum(axis=1))
    mu = flow_up / p_down
    return lam, mu


def _mttf_failure_rate(
    generator: GeneratorMatrix, up: np.ndarray, resolved: str,
    flow_rate: float,
) -> float:
    """``1 / MTTF`` from the initial state, on the engine that solved pi.

    The banded and dense engines read it off the :class:`RenewalClosure`
    (the dense kernel's closure built explicitly, for chains whose
    stationary vector came from a recurrent-class restriction).  The
    sparse engine solves ``Q_UU m = -1``; when that fails (hitting times
    beyond ~1e16 hours overwhelm float64) the flow abstraction coincides
    with 1/MTTF to O(unavailability), so it falls back to ``flow_rate``.
    """
    names = generator.state_names
    _require_targets_reachable(
        generator,
        [name for name, is_up in zip(names, up) if is_up],
        {name for name, is_up in zip(names, up) if not is_up},
    )
    sources, targets, rates = _generator_coo(generator)
    if resolved == "sparse":
        mtta0 = SparseUpBlockSolver(
            generator.n_states, sources, targets, np.flatnonzero(up)
        ).mtta_initial(rates)
        return 1.0 / mtta0 if mtta0 is not None and mtta0 > 0.0 else flow_rate
    closure = RenewalClosure(generator.n_states, sources, targets, up)
    try:
        lam = closure.failure_rates(rates[None, :], resolved == "banded")
    except SolverError as exc:
        raise SolverError(
            f"renewal closure failed for model {generator.model_name!r}"
        ) from exc
    return float(lam[0])


class RenewalClosure:
    """The chain whose stationary vector gives ``Lambda = 1 / MTTF``.

    Keeps every arc that leaves an up state and sends each down state
    back to the initial state (state 0, which must be up) at rate 1.
    Each up period of the closure then starts in the initial state and
    ends at the first entry into the down set, and each down period
    lasts one hour on average, so ``P(D) / P(U) = 1 / MTTF``.  GTH never
    subtracts, so the rate's relative accuracy does not depend on how
    long the hitting time is (~1e14 h for the large AS submodels),
    unlike a solve of ``Q_UU m = -1``.

    The new arcs enter state 0, the spike column of a banded chain, so
    the closure of a banded-plus-spike chain keeps its band and the
    banded kernel runs it unchanged.  Built from a transition list: once
    per compiled model for batch solves, per call from a generator's
    arcs for scalar ones.
    """

    __slots__ = ("n", "up", "sources", "targets", "_leaving", "_banded")

    def __init__(
        self,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        up: np.ndarray,
    ) -> None:
        up = np.asarray(up, dtype=bool)
        leaving = np.flatnonzero(up[sources])
        down = np.flatnonzero(~up)
        self.n = int(n)
        self.up = up
        self.sources = np.concatenate([sources[leaving], down])
        self.targets = np.concatenate(
            [targets[leaving], np.zeros(down.size, dtype=np.intp)]
        )
        self._leaving = leaving
        self._banded: Optional[BandedKernelPlan] = None

    def banded_plan(self) -> Optional[BandedKernelPlan]:
        """The closure's banded kernel plan, or ``None`` without a band."""
        if self._banded is None:
            structure = detect_banded_structure(
                self.n, self.sources, self.targets
            )
            if structure is not None:
                self._banded = BandedKernelPlan(
                    structure, self.sources, self.targets
                )
        return self._banded

    def failure_rates(self, rates: np.ndarray, banded: bool) -> np.ndarray:
        """``1 / MTTF`` for each row of the chain's ``(k, n_arcs)`` rates.

        Solved by the banded kernel when ``banded`` and the closure has a
        band, else by the dense GTH kernel.

        Raises:
            SolverError: When the closure's elimination fails (an up
                state cannot reach the down set).
        """
        k = rates.shape[0]
        closure_rates = np.concatenate(
            [
                rates[:, self._leaving],
                np.ones((k, self.sources.size - self._leaving.size)),
            ],
            axis=1,
        )
        plan = self.banded_plan() if banded else None
        if plan is not None:
            pis = banded_steady_state(plan, closure_rates)
        else:
            dense = DenseKernelPlan(
                self.n, self.sources, self.targets, self.up
            )
            pis, _, _, status, _, _ = dense_gth(
                dense, closure_rates, mttf=False
            )
            if status.any():
                raise SolverError("renewal closure elimination failed")
        p_up = np.ascontiguousarray(pis[:, self.up]).sum(axis=1)
        p_down = np.ascontiguousarray(pis[:, ~self.up]).sum(axis=1)
        return p_down / p_up


def steady_state_availability(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
    method: str = "auto",
    abstraction: str = "mttf",
) -> AvailabilityResult:
    """Full steady-state availability report for one model.

    This is the workhorse used by every benchmark: it solves the chain
    once and derives availability, yearly downtime (with per-down-state
    attribution), MTBF and MTTR.

    Note on availability vs. reward: the *availability* reported here
    counts a state as up iff its reward is strictly positive; fractional
    rewards only affect :func:`expected_steady_state_reward`.
    """
    _check_abstraction(abstraction)
    generator = as_generator(model_or_generator, values)
    pi, resolved, interface = _solve(
        generator, method, mttf=abstraction == "mttf"
    )
    up = generator.up_mask()
    if interface is not None:
        availability, unavailability = interface[2], interface[3]
    else:
        availability = float(pi[up].sum())
        unavailability = float(pi[~up].sum()) if (~up).any() else 0.0
    # Guard against tiny negative round-off.
    availability = min(1.0, max(0.0, availability))
    lam, mu = _equivalent_rates(
        generator, pi, resolved, interface, abstraction
    )
    downtime_total = unavailability_to_yearly_downtime_minutes(unavailability)
    downtime_by_state = {
        name: unavailability_to_yearly_downtime_minutes(float(pi[i]))
        for i, name in enumerate(generator.state_names)
        if not up[i]
    }
    return AvailabilityResult(
        availability=availability,
        yearly_downtime_minutes=downtime_total,
        mtbf_hours=(1.0 / lam) if lam > 0.0 else float("inf"),
        mttr_hours=(1.0 / mu) if mu not in (0.0, float("inf")) else (
            0.0 if mu == float("inf") else float("inf")
        ),
        failure_rate=lam,
        recovery_rate=mu,
        state_probabilities=dict(zip(generator.state_names, pi.tolist())),
        downtime_by_state=downtime_by_state,
    )
