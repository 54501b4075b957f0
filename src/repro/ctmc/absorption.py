"""Absorption analysis: mean time to failure and hitting probabilities.

Availability models in this library are irreducible, but two absorption
questions still arise constantly:

* **MTTF-style questions** — "starting from all-up, how long until the
  system first enters a down state?"  Answered by making the down states
  absorbing and computing the mean time to absorption.
* **Hitting probabilities** — "from a degraded state, is the next terminal
  event a repair or a second failure?"

Both reduce to linear systems over the transient (non-target) block of
the generator.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.model import MarkovModel
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.ctmc.structure import _reaching
from repro.exceptions import SolverError, StructureError


def mean_time_to_absorption(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    target_states: Sequence[str],
    values: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Expected time to first reach any target state, from every other state.

    The target states are treated as absorbing; the function solves
    ``Q_TT m = -1`` over the transient block T (all non-target states).

    Returns:
        ``{state_name: mean_hitting_time}`` for every non-target state.

    Raises:
        StructureError: If some non-target state cannot reach any target
            (its hitting time would be infinite).
    """
    generator = as_generator(model_or_generator, values)
    targets = set(target_states)
    unknown = targets - set(generator.state_names)
    if unknown:
        raise SolverError(f"unknown target state(s) {sorted(unknown)}")
    if not targets:
        raise SolverError("at least one target state is required")
    transient = [n for n in generator.state_names if n not in targets]
    if not transient:
        return {}
    _require_targets_reachable(generator, transient, targets)

    block = generator.restricted(transient)
    n = block.n_states
    rhs = -np.ones(n)
    if block.is_sparse:
        from scipy.sparse.linalg import spsolve

        try:
            m = spsolve(block.matrix.tocsr(), rhs)
        except Exception as exc:  # pragma: no cover
            raise SolverError(f"sparse MTTA solve failed: {exc}") from exc
    else:
        try:
            m = np.linalg.solve(block.dense(), rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"MTTA system is singular for model "
                f"{generator.model_name!r}: {exc}"
            ) from exc
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)) or m.min() < 0.0:
        raise SolverError(
            f"MTTA solve produced invalid times for model "
            f"{generator.model_name!r}"
        )
    return dict(zip(transient, m.tolist()))


def mean_time_to_failure(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
    from_state: Optional[str] = None,
) -> float:
    """Mean time until the chain first enters a down (reward-0) state.

    Args:
        from_state: Starting state; defaults to the first state (the
            conventional all-up state).
    """
    generator = as_generator(model_or_generator, values)
    down = [
        name
        for name, reward in zip(generator.state_names, generator.rewards)
        if reward == 0.0
    ]
    if not down:
        raise StructureError(
            f"model {generator.model_name!r} has no down states; "
            "MTTF is infinite"
        )
    start = from_state or generator.state_names[0]
    if start in down:
        raise SolverError(f"starting state {start!r} is itself a down state")
    times = mean_time_to_absorption(generator, down)
    return times[start]


def absorption_probabilities(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    target_states: Sequence[str],
    values: Optional[Mapping[str, float]] = None,
) -> Dict[str, Dict[str, float]]:
    """Probability of hitting each target first, from every other state.

    All target states are made absorbing simultaneously; the function
    returns, for each non-target state s, the distribution over which
    target is reached first: ``result[s][target] = P(hit target first | start s)``.
    """
    generator = as_generator(model_or_generator, values)
    targets = list(dict.fromkeys(target_states))
    unknown = set(targets) - set(generator.state_names)
    if unknown:
        raise SolverError(f"unknown target state(s) {sorted(unknown)}")
    transient = [n for n in generator.state_names if n not in set(targets)]
    if not transient:
        return {}
    _require_targets_reachable(generator, transient, set(targets))

    block = generator.restricted(transient)
    # R[i, k] = rate from transient state i into target k.
    r = np.zeros((len(transient), len(targets)))
    for i, source in enumerate(transient):
        for k, target in enumerate(targets):
            r[i, k] = generator.rate(source, target)
    if block.is_sparse:
        from scipy.sparse.linalg import spsolve

        a = block.matrix.tocsc()
        try:
            x = spsolve(a, -r)
        except Exception as exc:  # pragma: no cover
            raise SolverError(f"sparse absorption solve failed: {exc}") from exc
        x = np.asarray(x, dtype=float).reshape(len(transient), len(targets))
    else:
        try:
            x = np.linalg.solve(block.dense(), -r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"absorption system is singular: {exc}") from exc
    out: Dict[str, Dict[str, float]] = {}
    for i, source in enumerate(transient):
        row = np.clip(x[i], 0.0, None)
        total = row.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
            raise SolverError(
                f"absorption probabilities from {source!r} sum to {total!r}"
            )
        out[source] = dict(zip(targets, (row / total).tolist()))
    return out


def _require_targets_reachable(
    generator: GeneratorMatrix, transient: Sequence[str], targets: set
) -> None:
    """Raise for the first transient state that cannot reach a target.

    One reverse search from the whole target set answers for every
    state at once.
    """
    reaches = _reaching(generator, targets)
    for name in transient:
        if not reaches[generator.index_of(name)]:
            raise StructureError(
                f"state {name!r} cannot reach any target state "
                f"{sorted(targets)}; hitting time is infinite"
            )
