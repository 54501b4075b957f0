"""Numerical engine for continuous-time Markov chains (CTMCs).

The public surface of this package:

* :func:`~repro.ctmc.generator.build_generator` — assemble the infinitesimal
  generator matrix Q from a :class:`~repro.core.model.MarkovModel` and a
  parameter mapping.
* :func:`~repro.ctmc.steady_state.solve_steady_state` — stationary
  distribution, with selectable algorithm (GTH elimination, banded GTH,
  sparse LU; ``"auto"`` by default).
* :func:`~repro.ctmc.transient.transient_distribution` — state
  probabilities at time t (uniformization or matrix exponential).
* :func:`~repro.ctmc.absorption.mean_time_to_absorption` and friends.
* :func:`~repro.ctmc.rewards.steady_state_availability` and the other
  reward measures.
"""

from repro.ctmc.batch import (
    BATCH_METHODS,
    BatchAvailability,
    batch_availability,
    batch_steady_state,
)
from repro.ctmc.generator import GeneratorMatrix, build_generator
from repro.ctmc.sparse import (
    BandedStructure,
    SparseSteadyStateSolver,
    detect_banded_structure,
    generator_banded_structure,
)
from repro.ctmc.steady_state import solve_steady_state, steady_state_vector
from repro.ctmc.transient import (
    transient_distribution,
    transient_reward,
    interval_availability,
)
from repro.ctmc.absorption import (
    absorption_probabilities,
    mean_time_to_absorption,
    mean_time_to_failure,
)
from repro.ctmc.rewards import (
    AvailabilityResult,
    equivalent_failure_recovery_rates,
    expected_steady_state_reward,
    steady_state_availability,
)
from repro.ctmc.structure import (
    classify_states,
    communicating_classes,
    is_irreducible,
)
from repro.ctmc.passage import (
    outage_duration_cdf,
    passage_time_cdf,
    passage_time_quantile,
    passage_time_survival,
)
from repro.ctmc.mfpt import (
    expected_visits,
    kemeny_constant,
    mean_first_passage_matrix,
    mean_return_times,
)

__all__ = [
    "BATCH_METHODS",
    "BatchAvailability",
    "batch_availability",
    "batch_steady_state",
    "GeneratorMatrix",
    "build_generator",
    "BandedStructure",
    "SparseSteadyStateSolver",
    "detect_banded_structure",
    "generator_banded_structure",
    "solve_steady_state",
    "steady_state_vector",
    "transient_distribution",
    "transient_reward",
    "interval_availability",
    "absorption_probabilities",
    "mean_time_to_absorption",
    "mean_time_to_failure",
    "AvailabilityResult",
    "equivalent_failure_recovery_rates",
    "expected_steady_state_reward",
    "steady_state_availability",
    "classify_states",
    "communicating_classes",
    "is_irreducible",
    "outage_duration_cdf",
    "passage_time_cdf",
    "passage_time_quantile",
    "passage_time_survival",
    "expected_visits",
    "kemeny_constant",
    "mean_first_passage_matrix",
    "mean_return_times",
]
