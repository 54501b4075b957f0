"""Regime mapping: classification, grid sweep, artifact, rendering."""

import json

import pytest

from repro import artifacts
from repro.exceptions import ModelError
from repro.metastable.regimes import (
    DEFAULT_THRESHOLD,
    REGIME_MAP_KIND,
    REGIMES,
    classify,
    find_cell,
    map_regimes,
    predicted_outcome,
    render_regime_map,
)

#: A 2x2 corner of the default grid: spans stable and metastable while
#: keeping the sweep fast enough for every test to re-run it.
SMALL_GRID = {"loads": (0.3, 0.9), "budgets": (1, 6)}


@pytest.fixture(scope="module")
def small_map():
    return map_regimes(**SMALL_GRID)


class TestClassify:
    def test_three_regimes(self):
        t = DEFAULT_THRESHOLD
        assert classify(t + 0.1, t + 0.1) == "metastable"
        assert classify(t - 0.1, t + 0.1) == "vulnerable"
        assert classify(t - 0.1, t - 0.1) == "stable"

    def test_threshold_is_inclusive(self):
        assert classify(DEFAULT_THRESHOLD, 0.0) == "metastable"
        assert classify(0.0, DEFAULT_THRESHOLD) == "vulnerable"

    def test_predicted_outcomes(self):
        assert predicted_outcome("stable") == "recovered"
        assert predicted_outcome("vulnerable") == "pinned"
        assert predicted_outcome("metastable") == "pinned"

    def test_unknown_regime_rejected(self):
        with pytest.raises(ModelError):
            predicted_outcome("wobbly")


class TestMapRegimes:
    def test_artifact_envelope(self, small_map):
        assert small_map["kind"] == REGIME_MAP_KIND
        assert small_map["schema"] == artifacts.SCHEMAS[REGIME_MAP_KIND]
        det = small_map["deterministic"]
        assert det["kind"] == REGIME_MAP_KIND
        assert set(det) >= {
            "model", "grid", "cells", "boundary", "regime_counts",
        }
        assert "elapsed_seconds" in small_map["timing"]

    def test_one_cell_per_grid_point(self, small_map):
        cells = small_map["deterministic"]["cells"]
        assert len(cells) == 4
        keys = {(c["load"], c["budget"]) for c in cells}
        assert keys == {
            (load, budget)
            for load in SMALL_GRID["loads"]
            for budget in SMALL_GRID["budgets"]
        }

    def test_cells_are_fully_populated(self, small_map):
        for cell in small_map["deterministic"]["cells"]:
            assert cell["regime"] in REGIMES
            assert cell["predicted_outcome"] in ("recovered", "pinned")
            assert 0.0 <= cell["availability"] <= 1.0
            assert 0.0 <= cell["congestion_steady"] <= 1.0
            assert 0.0 <= cell["congestion_triggered"] <= 1.0
            assert 0.0 <= cell["p_retry"] < 1.0

    def test_regime_counts_cover_the_grid(self, small_map):
        counts = small_map["deterministic"]["regime_counts"]
        assert sum(counts.values()) == 4
        assert set(counts) == set(REGIMES)

    def test_default_campaign_cells_span_the_taxonomy(self, small_map):
        # The default live campaign triggers exactly these two cells;
        # the map must predict opposite outcomes for them.
        calm = find_cell(small_map, 0.3, 1)
        storm = find_cell(small_map, 0.9, 6)
        assert calm["regime"] == "stable"
        assert storm["regime"] == "metastable"

    def test_trigger_makes_congestion_no_worse(self, small_map):
        # The triggered transient starts from the slammed-full corner;
        # at the horizon it can only have decayed toward (or still
        # exceed) the stationary level, never dropped below it.
        for cell in small_map["deterministic"]["cells"]:
            assert (
                cell["congestion_triggered"]
                >= cell["congestion_steady"] - 1e-9
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loads": ()},
            {"loads": (0.5, 0.5)},
            {"loads": (0.9, 0.3)},
            {"budgets": (2, 2)},
            {"budgets": (4, 2)},
            {"threshold": 0.0},
            {"threshold": 1.0},
        ],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ModelError):
            map_regimes(**{**SMALL_GRID, **kwargs})


class TestFindCell:
    def test_exact_hit(self, small_map):
        cell = find_cell(small_map, 0.9, 6)
        assert cell["load"] == 0.9
        assert cell["budget"] == 6

    def test_tolerant_load_match(self, small_map):
        assert find_cell(small_map, 0.9 + 1e-12, 6) is not None

    def test_miss_returns_none(self, small_map):
        assert find_cell(small_map, 0.5, 6) is None
        assert find_cell(small_map, 0.9, 3) is None


class TestRendering:
    def test_render_shows_grid_and_boundary(self, small_map):
        lines = render_regime_map(small_map)
        text = "\n".join(lines)
        assert "regime map" in text
        assert "budget" in text
        assert "trigger boundary" in text
        # One row per budget, highest first.
        rows = [line for line in lines if line.lstrip().startswith(("6", "1"))]
        assert len(rows) == 2


class TestArtifactIO:
    def test_write_load_roundtrip(self, small_map, tmp_path):
        path = artifacts.write(small_map, tmp_path / "map.json")
        assert artifacts.load(path, REGIME_MAP_KIND) == small_map


class TestDeterminism:
    def test_same_config_same_bytes(self, small_map):
        again = map_regimes(**SMALL_GRID)
        assert json.dumps(
            again["deterministic"], sort_keys=True
        ) == json.dumps(small_map["deterministic"], sort_keys=True)
