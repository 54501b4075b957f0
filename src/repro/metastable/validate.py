"""Predicted-vs-observed verdict: join a regime map to a campaign.

The regime map predicts, per grid cell, what a live trigger campaign
should observe after the load spike releases: ``"recovered"`` for
stable cells, ``"pinned"`` for vulnerable and metastable ones (see
:func:`repro.metastable.regimes.predicted_outcome`).  The campaign
records what the monitor probes actually decided.  This module joins
the two artifacts cell-by-cell and renders a verdict:

``"agree"``
    Every campaign cell was found on the map and its observed outcome
    matches the prediction.
``"disagree"``
    At least one matched cell observed the opposite outcome — the
    model's trigger boundary is drawn in the wrong place for the live
    deployment, or the knob correspondence (``mu = 1 / stall``,
    ``delta = (2 / backoff_cap) / mu``, ``theta = (1 / deadline) / mu``,
    ``queue_depth = queue_limit``) was not respected.

A campaign cell missing from the map is an error, not a disagreement:
the comparison is meaningless if the artifacts cover different grids.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro import artifacts
from repro.exceptions import ModelError
from repro.metastable.campaign import CAMPAIGN_KIND
from repro.metastable.regimes import (
    REGIME_MAP_KIND,
    find_cell,
    predicted_outcome,
)

#: Validation-report schema version.
VALIDATION_SCHEMA = 1

#: Artifact ``kind`` discriminator.
VALIDATION_KIND = "metastable-validation"

#: Possible report verdicts.
VERDICTS = ("agree", "disagree")


def validate_boundary(
    regime_map: Mapping[str, Any],
    campaign: Mapping[str, Any],
    tolerance: float = 1e-9,
) -> Dict[str, Any]:
    """Compare a campaign's observed outcomes against map predictions.

    Args:
        regime_map: Artifact from
            :func:`repro.metastable.regimes.map_regimes`.
        campaign: Artifact from
            :func:`repro.metastable.campaign.run_trigger_campaign`.
        tolerance: Load-matching tolerance for the cell join.

    Returns:
        A validation report: per-cell comparison rows and an overall
        ``"verdict"`` of ``"agree"`` or ``"disagree"``.

    Raises:
        ArtifactError: If either artifact has the wrong kind or schema.
        ModelError: If the campaign observed no cells, or a campaign
            cell is not on the map's grid.
    """
    regime_map = artifacts.load(regime_map, REGIME_MAP_KIND)
    campaign = artifacts.load(campaign, CAMPAIGN_KIND)
    observed_cells = campaign["observed"]["cells"]
    if not observed_cells:
        raise ModelError("campaign observed no cells; nothing to check")
    comparisons: List[Dict[str, Any]] = []
    agreements = 0
    for observed in observed_cells:
        load = observed["cell"]["load"]
        budget = observed["cell"]["budget"]
        mapped = find_cell(regime_map, load, budget, tolerance=tolerance)
        if mapped is None:
            raise ModelError(
                f"campaign cell (load={load}, budget={budget}) is not "
                f"on the regime map's grid; re-map with matching "
                f"loads/budgets before validating"
            )
        predicted = predicted_outcome(mapped["regime"])
        agree = predicted == observed["outcome"]
        agreements += agree
        comparisons.append(
            {
                "load": load,
                "budget": budget,
                "regime": mapped["regime"],
                "predicted": predicted,
                "observed": observed["outcome"],
                "agree": agree,
            }
        )
    report = {
        "schema": VALIDATION_SCHEMA,
        "kind": VALIDATION_KIND,
        "cells": comparisons,
        "agreements": agreements,
        "disagreements": len(comparisons) - agreements,
        "verdict": (
            "agree" if agreements == len(comparisons) else "disagree"
        ),
    }
    return report


def render_validation(report: Mapping[str, Any]) -> List[str]:
    """Human-readable lines for one validation report."""
    lines = ["predicted vs observed (live trigger campaign)"]
    for cell in report["cells"]:
        marker = "ok " if cell["agree"] else "XX "
        lines.append(
            f"  {marker}load={cell['load']:<5g} "
            f"budget={cell['budget']:<2d} "
            f"regime={cell['regime']:<10s} "
            f"predicted={cell['predicted']:<9s} "
            f"observed={cell['observed']}"
        )
    lines.append(
        f"verdict: {report['verdict']} "
        f"({report['agreements']} agree, "
        f"{report['disagreements']} disagree)"
    )
    return lines
