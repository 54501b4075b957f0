"""First-passage-time distributions (phase-type analysis).

Availability work needs more than mean times: an SLA cares about the
*distribution* of an outage's duration ("what fraction of outages exceed
five minutes?") and of the time to first failure.  Both are first-passage
times of the CTMC, i.e. phase-type distributed: make the target states
absorbing and evaluate the absorption probability at time t.

``P(T <= t) = 1 - alpha e^{S t} 1`` where S is the transient-block
generator and alpha the initial distribution over transient states.
Evaluated by uniformization on the modified chain, so it inherits the
robustness of the transient engine.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.model import MarkovModel
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.ctmc.structure import reachable_from
from repro.ctmc.transient import _initial_vector, _uniformization
from repro.exceptions import SolverError, StructureError


def _absorbing_copy(
    generator: GeneratorMatrix, targets: Sequence[str]
) -> GeneratorMatrix:
    """The chain with all target states merged conceptually: their
    outgoing rates removed (made absorbing)."""
    q = generator.dense()
    for name in targets:
        index = generator.index_of(name)
        q[index, :] = 0.0
    return GeneratorMatrix(
        matrix=q,
        state_names=generator.state_names,
        rewards=generator.rewards,
        model_name=f"{generator.model_name}[absorbing]",
    )


def passage_time_cdf(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    targets: Sequence[str],
    t: float,
    values: Optional[Mapping[str, float]] = None,
    initial: Union[str, Mapping[str, float], None] = None,
    tol: float = 1e-12,
) -> float:
    """``P(first hit of any target within time t)``.

    Args:
        model_or_generator: Model (with ``values``) or bound generator.
        targets: Target state names (non-empty).
        t: Time horizon (hours), >= 0.
        initial: Starting state/distribution over *non-target* states;
            defaults to the model's first state.
        tol: Uniformization tolerance.
    """
    generator = as_generator(model_or_generator, values)
    target_set = set(targets)
    if not target_set:
        raise SolverError("at least one target state is required")
    unknown = target_set - set(generator.state_names)
    if unknown:
        raise SolverError(f"unknown target state(s) {sorted(unknown)}")
    if t < 0.0:
        raise SolverError(f"time must be non-negative, got {t}")

    p0 = _initial_vector(generator, initial)
    for name in target_set:
        if p0[generator.index_of(name)] > 0.0:
            raise SolverError(
                f"initial distribution puts mass on target state {name!r}"
            )
    # Guard: targets must be reachable, else the CDF is identically 0 and
    # the caller almost certainly made a modeling error.
    start_states = [
        generator.state_names[i] for i in np.nonzero(p0)[0]
    ]
    reachable = set(reachable_from(generator, start_states))
    if not (reachable & target_set):
        raise StructureError(
            f"no target state is reachable from {start_states}"
        )
    if t == 0.0:
        return 0.0
    absorbed = _absorbing_copy(generator, sorted(target_set))
    pt = _uniformization(absorbed, p0, t, tol)
    mass = sum(
        pt[generator.index_of(name)] for name in target_set
    )
    return float(min(1.0, max(0.0, mass)))


def passage_time_survival(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    targets: Sequence[str],
    t: float,
    **kwargs,
) -> float:
    """``P(no target hit by time t)`` — reliability at mission time t."""
    return 1.0 - passage_time_cdf(model_or_generator, targets, t, **kwargs)


def passage_time_quantile(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    targets: Sequence[str],
    q: float,
    values: Optional[Mapping[str, float]] = None,
    initial: Union[str, Mapping[str, float], None] = None,
    tol: float = 1e-9,
    max_doublings: int = 200,
) -> float:
    """The q-quantile of the first-passage time (bisection on the CDF).

    Useful for statements like "95% of outages end within X minutes".
    """
    if not 0.0 < q < 1.0:
        raise SolverError(f"quantile must be in (0, 1), got {q}")

    def cdf(t: float) -> float:
        return passage_time_cdf(
            model_or_generator, targets, t, values=values, initial=initial
        )

    # Bracket by doubling.
    high = 1e-3
    for _ in range(max_doublings):
        if cdf(high) >= q:
            break
        high *= 2.0
    else:
        raise SolverError(
            f"could not bracket the {q} quantile below t={high:.3e}; "
            "the passage may have substantial defect (unreachable mass)"
        )
    low = 0.0
    while high - low > tol * max(1.0, high):
        mid = 0.5 * (low + high)
        if cdf(mid) >= q:
            high = mid
        else:
            low = mid
    return 0.5 * (low + high)


def outage_duration_cdf(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    t: float,
    values: Optional[Mapping[str, float]] = None,
    entry_state: Optional[str] = None,
) -> float:
    """``P(an outage lasts <= t)`` for an availability model.

    The outage starts when the chain enters a down state and ends on the
    first return to any up state: a first-passage time from the down set
    into the up set.

    Args:
        entry_state: The down state the outage starts in; defaults to
            the model's single down state and must be given explicitly
            when there are several.
    """
    generator = as_generator(model_or_generator, values)
    up = generator.up_mask()
    down_states = [
        name for name, is_up in zip(generator.state_names, up) if not is_up
    ]
    up_states = [
        name for name, is_up in zip(generator.state_names, up) if is_up
    ]
    if not down_states:
        raise StructureError("the model has no down states")
    if entry_state is None:
        if len(down_states) > 1:
            raise SolverError(
                f"multiple down states {down_states}; pass entry_state"
            )
        entry_state = down_states[0]
    elif entry_state not in down_states:
        raise SolverError(f"{entry_state!r} is not a down state")
    return passage_time_cdf(
        generator, up_states, t, initial=entry_state
    )
