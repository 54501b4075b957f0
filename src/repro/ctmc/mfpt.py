"""Mean first-passage times and visit statistics for ergodic chains.

Classical quantities from the fundamental matrix of an irreducible CTMC:

* the **mean first-passage time matrix** ``M[i, j]`` — expected time to
  first reach state j starting from state i (diagonal = 0);
* the **mean return time** of each state (``1 / (pi_j * q_j)`` in the
  embedded sense; here the continuous-time return time
  ``E[return to j | leave j]``);
* the **Kemeny constant** — the pi-weighted mean first-passage time
  ``sum_j pi_j M[i, j]``, famously independent of the starting state i
  (which the tests verify — a stringent end-to-end check of the solver
  stack).

These are reporting/diagnostic tools: e.g. "starting from a fresh
deployment, how long until the system first visits the degraded state?"
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.model import MarkovModel
from repro.ctmc.absorption import mean_time_to_absorption
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.ctmc.steady_state import steady_state_vector
from repro.ctmc.structure import classify_states
from repro.exceptions import SolverError, StructureError


def _require_irreducible(generator: GeneratorMatrix) -> None:
    classification = classify_states(generator)
    if (
        not classification.has_single_recurrent_class
        or classification.transient_states
    ):
        raise StructureError(
            f"model {generator.model_name!r} is not irreducible; "
            "first-passage matrices need every state recurrent"
        )


def mean_first_passage_matrix(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
) -> Dict[str, Dict[str, float]]:
    """``M[i][j]`` = expected time to first hit j from i (0 on diagonal).

    Computed column by column via the absorption solver (make j
    absorbing, solve the transient block) — O(n^4) overall, fine for
    availability-model sizes and numerically robust.
    """
    generator = as_generator(model_or_generator, values)
    _require_irreducible(generator)
    names = generator.state_names
    matrix: Dict[str, Dict[str, float]] = {name: {} for name in names}
    for target in names:
        times = mean_time_to_absorption(generator, [target])
        for source in names:
            matrix[source][target] = (
                0.0 if source == target else times[source]
            )
    return matrix


def mean_return_times(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Expected time between successive visits to each state.

    For a CTMC the mean return cycle of state j (from entering j, through
    its sojourn, until the next entry into j) is
    ``1 / (pi_j * q_j) * E[sojourn] + ...`` — most cleanly computed as
    ``sojourn_j + sum_k P_jump(j -> k) * M[k][j]``.
    """
    generator = as_generator(model_or_generator, values)
    _require_irreducible(generator)
    names = generator.state_names
    q = generator.dense()
    exit_rates = generator.exit_rates()
    passage = mean_first_passage_matrix(generator)
    out: Dict[str, float] = {}
    for i, name in enumerate(names):
        rate = exit_rates[i]
        if rate <= 0.0:  # pragma: no cover - irreducible chains always exit
            raise StructureError(f"state {name!r} has no exits")
        sojourn = 1.0 / rate
        expected = sojourn
        for j, other in enumerate(names):
            if j == i:
                continue
            jump_probability = q[i, j] / rate
            if jump_probability > 0.0:
                expected += jump_probability * passage[other][name]
        out[name] = expected
    return out


def kemeny_constant(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
) -> float:
    """The pi-weighted mean first-passage time (start-state independent).

    ``K = sum_j pi_j * M[i, j]`` for any i.  A single scalar measure of
    how quickly the chain mixes; the start-state independence is
    verified by the tests from two different starting states.
    """
    generator = as_generator(model_or_generator, values)
    _require_irreducible(generator)
    pi = steady_state_vector(generator)
    passage = mean_first_passage_matrix(generator)
    names = generator.state_names
    source = names[0]
    return float(
        sum(
            pi[j] * passage[source][target]
            for j, target in enumerate(names)
        )
    )


def expected_visits(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    horizon: float,
    values: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Long-run expected number of *entries* into each state over a horizon.

    Steady-state entry frequency of j is ``sum_{i != j} pi_i q_ij``;
    multiplied by the horizon this estimates visit counts for long
    windows (e.g. "how many restarts per year does the model predict" —
    a number the testbed's logs can be compared against).
    """
    generator = as_generator(model_or_generator, values)
    _require_irreducible(generator)
    if horizon <= 0.0:
        raise SolverError(f"horizon must be positive, got {horizon}")
    pi = steady_state_vector(generator)
    q = generator.dense()
    names = generator.state_names
    out: Dict[str, float] = {}
    for j, name in enumerate(names):
        inflow = float(
            sum(pi[i] * q[i, j] for i in range(len(names)) if i != j)
        )
        out[name] = inflow * horizon
    return out
