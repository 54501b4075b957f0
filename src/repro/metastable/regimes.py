"""Regime mapping: sweep (load × retry-policy) grids, classify, render.

Three regimes, decided from two congestion numbers per grid cell
(congestion = expected orbit occupancy as a fraction of the orbit
cap):

``stable``
    Neither number crosses the threshold: the retry storm is not the
    long-run behaviour, *and* a triggered storm (queue and orbit
    slammed full) dissipates before the observation horizon.
``vulnerable``
    Steady state is clear, but the triggered storm is still above the
    threshold at the horizon: the feedback loop sustains the storm
    long after the trigger ends.  The system works until something —
    a load spike, a slow restart — pushes it over, which is the
    defining signature of a metastable failure.
``metastable``
    The storm *is* the steady state: stationary congestion crosses the
    threshold, no trigger needed.

Steady-state congestion for the whole grid comes from **one**
:func:`~repro.ctmc.batch.batch_steady_state` call (the lattice model
keeps ``Lambda``/``p_retry`` symbolic); triggered congestion is a
Fox–Glynn transient solve per cell, run in the calling process:
forking workers for them costs more than the solves (default 5×5
grid on a 2-vCPU VM: 63 ms serial against 83 ms over two workers).

The artifact follows the repo's determinism idiom: everything derived
from the configuration lives in the ``"deterministic"`` sub-document
(diffed bit-for-bit by CI), wall-clock timings outside it.  A regime
map has no seed at all — same configuration, same bytes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts import SCHEMAS
from repro.ctmc.batch import batch_steady_state
from repro.ctmc.generator import build_generator
from repro.ctmc.transient import transient_distribution
from repro.exceptions import ModelError
from repro.metastable.model import (
    orbit_marking,
    orbit_model,
    orbit_states,
    orbit_values,
    retry_probability,
)

#: Artifact ``kind`` discriminator.
REGIME_MAP_KIND = "metastable-regime-map"

#: The taxonomy, mildest first.
REGIMES = ("stable", "vulnerable", "metastable")

#: Default (load × retry-budget) grid — spans all three regimes under
#: the default model constants below.
DEFAULT_LOADS = (0.3, 0.45, 0.6, 0.75, 0.9)
DEFAULT_BUDGETS = (1, 2, 3, 4, 6)

#: Default model constants (rates relative to ``mu = 1``).  These
#: mirror the default live-campaign knobs exactly:
#: ``queue_depth = queue_limit``, ``delta = (2 / backoff_cap) / mu``,
#: ``theta = (1 / deadline) / mu``.
DEFAULT_QUEUE_DEPTH = 6
DEFAULT_ORBIT_SIZE = 8
DEFAULT_DELTA = 4.0
DEFAULT_THETA = 0.8

#: Default transient horizon (time units of ``1 / mu``) and the orbit
#: fill fraction counted as a storm.
DEFAULT_HORIZON = 10.0
DEFAULT_THRESHOLD = 0.3

#: Digits kept in artifact floats — well above solver noise, stable
#: across re-runs of the same configuration.
_ARTIFACT_DIGITS = 12


def classify(
    congestion_steady: float,
    congestion_triggered: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """One cell's regime from its two congestion numbers."""
    if congestion_steady >= threshold:
        return "metastable"
    if congestion_triggered >= threshold:
        return "vulnerable"
    return "stable"


def predicted_outcome(regime: str) -> str:
    """Live-campaign outcome a regime predicts after a trigger.

    A stable cell sheds the storm within the horizon (``"recovered"``);
    vulnerable and metastable cells are still storming when the
    observation window closes (``"pinned"``).
    """
    if regime not in REGIMES:
        raise ModelError(f"unknown regime {regime!r}; expected {REGIMES}")
    return "recovered" if regime == "stable" else "pinned"


def _round(value: float) -> float:
    return round(float(value), _ARTIFACT_DIGITS)


def map_regimes(
    loads: Sequence[float] = DEFAULT_LOADS,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    orbit_size: int = DEFAULT_ORBIT_SIZE,
    mu: float = 1.0,
    delta: float = DEFAULT_DELTA,
    theta: float = DEFAULT_THETA,
    horizon: float = DEFAULT_HORIZON,
    threshold: float = DEFAULT_THRESHOLD,
    method: str = "auto",
) -> Dict[str, Any]:
    """Sweep the (load × retry-budget) grid and classify every cell.

    Args:
        loads: Offered loads ``rho = Lambda / Mu`` (grid columns).
        budgets: Client retry budgets (grid rows).
        queue_depth / orbit_size: Lattice dimensions.
        mu / delta / theta: Service, orbit-retry and timeout rates.
        horizon: Transient horizon for the triggered solve, in units
            of ``1 / mu`` when ``mu = 1``.
        threshold: Orbit fill fraction counted as a storm.
        method: Batch engine — ``"auto"``, ``"gth"``, ``"banded"`` or
            ``"sparse"``.

    Returns:
        The regime-map artifact (see module docstring).
    """
    started = time.perf_counter()
    loads = [float(load) for load in loads]
    budgets = [int(budget) for budget in budgets]
    if not loads or not budgets:
        raise ModelError("regime grid needs at least one load and budget")
    if sorted(loads) != loads or len(set(loads)) != len(loads):
        raise ModelError(f"loads must be strictly increasing, got {loads}")
    if sorted(budgets) != budgets or len(set(budgets)) != len(budgets):
        raise ModelError(
            f"budgets must be strictly increasing, got {budgets}"
        )
    if threshold <= 0 or threshold >= 1:
        raise ModelError(f"threshold must be in (0, 1), got {threshold}")
    if horizon <= 0:
        raise ModelError(f"horizon must be positive, got {horizon}")

    model = orbit_model(queue_depth, orbit_size)
    coords = orbit_states(queue_depth, orbit_size)
    orbit_counts = np.array([o for _, o in coords], dtype=float)
    served_reward = np.array(
        [1.0 if q < queue_depth else 0.0 for q, _ in coords]
    )
    points: List[Tuple[float, int]] = [
        (load, budget) for budget in budgets for load in loads
    ]

    # Steady state for the whole grid: one stacked solve.
    columns = {
        "Lambda": np.array([load * mu for load, _ in points]),
        "p_retry": np.array(
            [retry_probability(budget) for _, budget in points]
        ),
        "Mu": mu,
        "Delta": delta,
        "Theta": theta,
    }
    pis = batch_steady_state(
        model, columns, n_samples=len(points), method=method
    )

    # Triggered transient per cell.
    trigger_label = orbit_marking(
        queue_depth, orbit_size, queue_depth, orbit_size
    ).label()
    orbit_of_label = {
        orbit_marking(queue_depth, orbit_size, q, o).label(): o
        for q, o in coords
    }

    def triggered_congestion(point: Tuple[float, int]) -> float:
        load, budget = point
        values = orbit_values(
            load, budget, mu=mu, delta=delta, theta=theta
        )
        generator = build_generator(model, values)
        distribution = transient_distribution(
            generator, horizon, initial=trigger_label
        )
        mean_orbit = sum(
            probability * orbit_of_label[state]
            for state, probability in distribution.items()
        )
        return mean_orbit / orbit_size

    triggered = [triggered_congestion(point) for point in points]

    cells: List[Dict[str, Any]] = []
    for i, (load, budget) in enumerate(points):
        congestion_steady = float(pis[i] @ orbit_counts) / orbit_size
        congestion_triggered = float(triggered[i])
        regime = classify(
            congestion_steady, congestion_triggered, threshold
        )
        cells.append(
            {
                "load": load,
                "budget": budget,
                "p_retry": _round(retry_probability(budget)),
                "congestion_steady": _round(congestion_steady),
                "congestion_triggered": _round(congestion_triggered),
                "availability": _round(float(pis[i] @ served_reward)),
                "regime": regime,
                "predicted_outcome": predicted_outcome(regime),
            }
        )

    # Trigger boundary: per budget row, the lowest load whose cell has
    # left the stable regime (None when the whole row is stable).
    boundary: List[Dict[str, Any]] = []
    for budget in budgets:
        row = [cell for cell in cells if cell["budget"] == budget]
        unstable = [
            cell["load"] for cell in row if cell["regime"] != "stable"
        ]
        boundary.append(
            {
                "budget": budget,
                "trigger_load": min(unstable) if unstable else None,
            }
        )

    counts = {regime: 0 for regime in REGIMES}
    for cell in cells:
        counts[cell["regime"]] += 1

    elapsed = time.perf_counter() - started
    return {
        "schema": SCHEMAS[REGIME_MAP_KIND],
        "kind": REGIME_MAP_KIND,
        "deterministic": {
            "schema": SCHEMAS[REGIME_MAP_KIND],
            "kind": REGIME_MAP_KIND,
            "model": {
                "queue_depth": queue_depth,
                "orbit_size": orbit_size,
                "n_states": len(coords),
                "mu": mu,
                "delta": delta,
                "theta": theta,
            },
            "grid": {
                "loads": loads,
                "budgets": budgets,
                "horizon": horizon,
                "congestion_threshold": threshold,
                "method": method,
            },
            "cells": cells,
            "boundary": boundary,
            "regime_counts": counts,
        },
        "timing": {"elapsed_seconds": elapsed},
    }


def find_cell(
    artifact: Mapping[str, Any],
    load: float,
    budget: int,
    tolerance: float = 1e-9,
) -> Optional[Dict[str, Any]]:
    """The grid cell at ``(load, budget)``, or None if unmapped."""
    for cell in artifact["deterministic"]["cells"]:
        if (
            cell["budget"] == int(budget)
            and abs(cell["load"] - float(load)) <= tolerance
        ):
            return dict(cell)
    return None


def render_regime_map(artifact: Mapping[str, Any]) -> List[str]:
    """ASCII rendering: budgets down, loads across, one letter a cell."""
    det = artifact["deterministic"]
    loads = det["grid"]["loads"]
    budgets = det["grid"]["budgets"]
    by_key = {
        (cell["budget"], cell["load"]): cell for cell in det["cells"]
    }
    symbol = {"stable": ".", "vulnerable": "v", "metastable": "M"}
    lines = [
        "regime map (rows: retry budget, cols: offered load)",
        "  . stable   v vulnerable   M metastable",
        "budget | " + " ".join(f"{load:>5.2f}" for load in loads),
    ]
    lines.append("-" * len(lines[-1]))
    for budget in reversed(budgets):
        row = " ".join(
            f"{symbol[by_key[(budget, load)]['regime']]:>5}"
            for load in loads
        )
        lines.append(f"{budget:>6} | {row}")
    boundary = {
        entry["budget"]: entry["trigger_load"]
        for entry in det["boundary"]
    }
    edge = ", ".join(
        f"budget {budget}: "
        + (
            f"load >= {boundary[budget]:g}"
            if boundary[budget] is not None
            else "never"
        )
        for budget in budgets
    )
    lines.append(f"trigger boundary: {edge}")
    return lines
