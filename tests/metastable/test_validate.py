"""Validation: joining a regime map to a campaign, verdict semantics."""

import pytest

from repro import artifacts
from repro.exceptions import ArtifactError, ModelError
from repro.metastable.campaign import CAMPAIGN_KIND
from repro.metastable.regimes import map_regimes, predicted_outcome
from repro.metastable.validate import (
    VALIDATION_KIND,
    VALIDATION_SCHEMA,
    render_validation,
    validate_boundary,
)


@pytest.fixture(scope="module")
def regime_map():
    return map_regimes(loads=(0.3, 0.9), budgets=(1, 6))


def _campaign_with(outcomes):
    """A synthetic campaign artifact observing the given outcomes."""
    return {
        "kind": CAMPAIGN_KIND,
        "schema": artifacts.SCHEMAS[CAMPAIGN_KIND],
        "seed": 2004,
        "observed": {
            "cells": [
                {
                    "cell": {"load": load, "budget": budget},
                    "outcome": outcome,
                }
                for (load, budget), outcome in outcomes
            ]
        },
    }


class TestValidateBoundary:
    def test_matching_outcomes_agree(self, regime_map):
        campaign = _campaign_with(
            [((0.3, 1), "recovered"), ((0.9, 6), "pinned")]
        )
        report = validate_boundary(regime_map, campaign)
        assert report["kind"] == VALIDATION_KIND
        assert report["schema"] == VALIDATION_SCHEMA
        assert report["verdict"] == "agree"
        assert report["agreements"] == 2
        assert report["disagreements"] == 0
        assert all(cell["agree"] for cell in report["cells"])

    def test_flipped_outcome_disagrees(self, regime_map):
        campaign = _campaign_with(
            [((0.3, 1), "pinned"), ((0.9, 6), "pinned")]
        )
        report = validate_boundary(regime_map, campaign)
        assert report["verdict"] == "disagree"
        assert report["agreements"] == 1
        assert report["disagreements"] == 1
        flipped = [c for c in report["cells"] if not c["agree"]]
        assert flipped[0]["load"] == 0.3
        assert flipped[0]["predicted"] == "recovered"
        assert flipped[0]["observed"] == "pinned"

    def test_rows_carry_map_regime(self, regime_map):
        campaign = _campaign_with([((0.9, 6), "pinned")])
        (row,) = validate_boundary(regime_map, campaign)["cells"]
        assert row["regime"] == "metastable"
        assert row["predicted"] == predicted_outcome("metastable")

    def test_unmapped_cell_is_an_error(self, regime_map):
        campaign = _campaign_with([((0.5, 6), "pinned")])
        with pytest.raises(ModelError, match="not\\s+on the regime map"):
            validate_boundary(regime_map, campaign)

    def test_empty_campaign_is_an_error(self, regime_map):
        with pytest.raises(ModelError, match="no cells"):
            validate_boundary(regime_map, _campaign_with([]))

    def test_wrong_map_kind_rejected(self, regime_map):
        campaign = _campaign_with([((0.3, 1), "recovered")])
        with pytest.raises(ArtifactError, match="kind"):
            validate_boundary({**regime_map, "kind": "x"}, campaign)

    def test_wrong_campaign_kind_rejected(self, regime_map):
        campaign = _campaign_with([((0.3, 1), "recovered")])
        with pytest.raises(ArtifactError, match="kind"):
            validate_boundary(regime_map, {**campaign, "kind": "x"})


class TestRenderValidation:
    def test_agree_rendering(self, regime_map):
        campaign = _campaign_with(
            [((0.3, 1), "recovered"), ((0.9, 6), "pinned")]
        )
        lines = render_validation(
            validate_boundary(regime_map, campaign)
        )
        text = "\n".join(lines)
        assert "verdict: agree (2 agree, 0 disagree)" in text
        assert text.count("ok ") == 2

    def test_disagreement_is_marked(self, regime_map):
        campaign = _campaign_with([((0.9, 6), "recovered")])
        lines = render_validation(
            validate_boundary(regime_map, campaign)
        )
        text = "\n".join(lines)
        assert "XX " in text
        assert "verdict: disagree" in text
