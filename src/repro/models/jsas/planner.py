"""Deployment planner: smallest configuration meeting an availability target.

Turns the paper's Table 3 insight into an API.  Because HADB pairs add
data-loss exposure, availability is *not* monotone in size — the planner
therefore searches the (instances, pairs) lattice explicitly rather than
bisecting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration


@dataclass(frozen=True)
class PlannerRecommendation:
    """The planner's answer.

    Attributes:
        configuration: The chosen shape, or None if no searched shape
            meets the target.
        availability: Its availability (when found).
        candidates_evaluated: How many shapes were solved.
        best_infeasible: The best shape seen when nothing meets the
            target (so the caller can report how far off it is).
    """

    configuration: Optional[JsasConfiguration]
    availability: float
    candidates_evaluated: int
    best_infeasible: Optional[JsasConfiguration] = None

    @property
    def feasible(self) -> bool:
        return self.configuration is not None


def plan_configuration(
    target_availability: float,
    values: Optional[Mapping[str, float]] = None,
    max_instances: int = 12,
    pair_choices: Optional[Sequence[int]] = None,
    require_redundancy: bool = True,
    method: str = "auto",
) -> PlannerRecommendation:
    """Find the smallest deployment meeting an availability target.

    "Smallest" orders shapes by total node count (instances + 2*pairs),
    breaking ties by instance count — the natural hardware-cost order.

    Args:
        target_availability: e.g. ``0.99999`` for five 9s.
        values: Model parameters; defaults to the paper's.
        max_instances: Search bound on the AS tier.  Large bounds are
            fine: ``method="auto"`` keeps big AS submodels on the O(n)
            banded solver instead of the dense O(n^3) path.
        pair_choices: HADB pair counts to consider; defaults to matching
            the instance count (the paper's convention) plus the
            smaller half-count option.
        require_redundancy: Skip single-instance shapes (no failover),
            which can never be HA anyway.
        method: Steady-state method passed to each candidate solve.
    """
    if not 0.0 < target_availability < 1.0:
        raise ReproError(
            f"target availability must be in (0, 1), got {target_availability}"
        )
    if max_instances < 1:
        raise ReproError(f"max_instances must be >= 1, got {max_instances}")
    values = dict(values) if values is not None else PAPER_PARAMETERS.to_dict()

    candidates = []
    start = 2 if require_redundancy else 1
    for n_instances in range(start, max_instances + 1):
        if pair_choices is not None:
            pairs_options = pair_choices
        elif n_instances == 1:
            pairs_options = (0,)
        else:
            half = max(2, n_instances // 2)
            pairs_options = sorted({n_instances, half})
        for n_pairs in pairs_options:
            if n_instances > 1 and n_pairs == 0:
                continue  # stateful sessions need the HADB tier
            candidates.append(
                JsasConfiguration(n_instances=n_instances, n_pairs=n_pairs)
            )
    candidates.sort(
        key=lambda c: (c.n_instances + 2 * c.n_pairs, c.n_instances)
    )

    best_seen: Optional[Tuple[float, JsasConfiguration]] = None
    evaluated = 0
    for configuration in candidates:
        availability = configuration.solve(values, method=method).availability
        evaluated += 1
        if best_seen is None or availability > best_seen[0]:
            best_seen = (availability, configuration)
        if availability >= target_availability:
            return PlannerRecommendation(
                configuration=configuration,
                availability=availability,
                candidates_evaluated=evaluated,
            )
    assert best_seen is not None
    return PlannerRecommendation(
        configuration=None,
        availability=best_seen[0],
        candidates_evaluated=evaluated,
        best_infeasible=best_seen[1],
    )
