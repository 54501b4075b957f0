"""Compile a reachability graph into a Markov model and solve it."""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np
import scipy.sparse as sp

from repro.core.model import MarkovModel
from repro.ctmc.generator import SPARSE_THRESHOLD, GeneratorMatrix
from repro.ctmc.rewards import AvailabilityResult, steady_state_availability
from repro.exceptions import PetriNetError
from repro.spn.marking import Marking
from repro.spn.net import PetriNet
from repro.spn.reachability import build_reachability_graph

#: Maps a marking to its reward rate (1.0 = up, 0.0 = down, or any
#: non-negative performability reward).
RewardFunction = Callable[[Marking], float]


def petri_net_to_markov_model(
    net: PetriNet,
    values: Mapping[str, float],
    reward: Optional[RewardFunction] = None,
    max_markings: int = 100_000,
) -> MarkovModel:
    """Build the CTMC over tangible markings.

    Args:
        net: The Petri net.
        values: Parameter values for symbolic rates.
        reward: Reward rate per marking; defaults to "everything is up",
            which is rarely what an availability study wants — supply the
            predicate encoding the paper's system-up definition.
        max_markings: Reachability exploration cap.

    Returns:
        A :class:`~repro.core.model.MarkovModel` whose state names are
        marking labels (``"Down=0,Up=2"``), with the initial marking as
        the first state, ready for any :mod:`repro.ctmc` solver.
    """
    graph = build_reachability_graph(net, values, max_markings=max_markings)
    reward = reward or (lambda marking: 1.0)
    model = MarkovModel(
        f"spn:{net.name}",
        f"CTMC compiled from Petri net {net.name!r} "
        f"({graph.n_markings} tangible markings)",
    )
    # Insert the initial marking first so solvers default to it.
    order = [graph.initial_index] + [
        i for i in range(graph.n_markings) if i != graph.initial_index
    ]
    names = {}
    for i in order:
        marking = graph.markings[i]
        value = float(reward(marking))
        if value < 0.0:
            raise PetriNetError(
                f"reward function returned negative value {value} for "
                f"marking {marking.label()!r}"
            )
        names[i] = marking.label()
        model.add_state(names[i], reward=value)
    for (source, target), rate in sorted(graph.edges.items()):
        model.add_transition(names[source], names[target], rate)
    return model


def petri_net_to_generator(
    net: PetriNet,
    values: Mapping[str, float],
    reward: Optional[RewardFunction] = None,
    max_markings: int = 100_000,
    sparse: Optional[bool] = None,
) -> GeneratorMatrix:
    """Build the generator matrix over tangible markings directly.

    Skips the :class:`~repro.core.model.MarkovModel` round-trip (which
    re-parses every numeric rate into an expression and re-validates the
    model) and assembles the generator straight from the reachability
    graph's edge list.  For SPN-derived chains with 10^4–10^5 markings
    this is the only practical route: the model round-trip is quadratic
    in bookkeeping, the direct assembly is linear in edges.

    Args:
        net: The Petri net.
        values: Parameter values for symbolic rates.
        reward: Reward rate per marking; defaults to "everything is up".
        max_markings: Reachability exploration cap.
        sparse: Force sparse (True) or dense (False) assembly; by default
            sparse at or above :data:`~repro.ctmc.generator.SPARSE_THRESHOLD`
            states, matching ``build_generator``.

    Returns:
        A :class:`~repro.ctmc.generator.GeneratorMatrix` with the initial
        marking as state 0 and marking labels as state names, ready for
        any :mod:`repro.ctmc` solver (the structured/sparse steady-state
        methods and uniformization included).
    """
    graph = build_reachability_graph(net, values, max_markings=max_markings)
    reward = reward or (lambda marking: 1.0)
    n = graph.n_markings
    # The explorer interns the initial tangible marking first, so the
    # "initial marking is state 0" convention holds by construction.
    order = [graph.initial_index] + [
        i for i in range(n) if i != graph.initial_index
    ]
    position = {old: new for new, old in enumerate(order)}
    names = []
    rewards = np.empty(n, dtype=float)
    for new, old in enumerate(order):
        marking = graph.markings[old]
        value = float(reward(marking))
        if value < 0.0:
            raise PetriNetError(
                f"reward function returned negative value {value} for "
                f"marking {marking.label()!r}"
            )
        names.append(marking.label())
        rewards[new] = value
    rows = np.empty(len(graph.edges), dtype=np.intp)
    cols = np.empty(len(graph.edges), dtype=np.intp)
    data = np.empty(len(graph.edges), dtype=float)
    for k, ((source, target), rate) in enumerate(graph.edges.items()):
        rows[k] = position[source]
        cols[k] = position[target]
        data[k] = rate
    use_sparse = n >= SPARSE_THRESHOLD if sparse is None else sparse
    if use_sparse:
        off = sp.coo_matrix(
            (data, (rows, cols)), shape=(n, n)
        ).tocsr()
        matrix = off - sp.diags(np.asarray(off.sum(axis=1)).ravel())
        matrix = matrix.tocsr()
    else:
        matrix = np.zeros((n, n), dtype=float)
        np.add.at(matrix, (rows, cols), data)
        matrix[np.arange(n), np.arange(n)] = -matrix.sum(axis=1)
    return GeneratorMatrix(
        matrix=matrix,
        state_names=tuple(names),
        rewards=rewards,
        model_name=f"spn:{net.name}",
    )


def solve_petri_net(
    net: PetriNet,
    values: Mapping[str, float],
    reward: Optional[RewardFunction] = None,
    method: str = "auto",
) -> AvailabilityResult:
    """One-call GSPN availability solve (compile + steady state)."""
    model = petri_net_to_markov_model(net, values, reward=reward)
    return steady_state_availability(model, values={}, method=method)
