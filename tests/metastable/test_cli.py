"""CLI: ``repro-avail metastable map | campaign | validate``."""

import json

import pytest

from repro import artifacts
from repro.cli import build_parser, main
from repro.metastable.campaign import CAMPAIGN_KIND
from repro.metastable.regimes import REGIME_MAP_KIND, map_regimes

MAP_FLAGS = ["--loads", "0.3,0.9", "--budgets", "1,6"]


def _campaign_artifact(outcomes):
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


class TestParsing:
    def test_map_defaults(self):
        args = build_parser().parse_args(["metastable", "map"])
        assert args.loads == (0.3, 0.45, 0.6, 0.75, 0.9)
        assert args.budgets == (1, 2, 3, 4, 6)
        assert args.queue_depth == 6 and args.orbit_size == 8
        assert args.delta == 4.0 and args.theta == 0.8

    def test_campaign_defaults_mirror_the_model(self):
        args = build_parser().parse_args(["metastable", "campaign"])
        # mu = 1000/stall_ms; the map defaults are delta = (2/cap)/mu
        # and theta = (1/deadline)/mu — these knobs must stay in sync.
        mu = 1000.0 / args.stall_ms
        assert (2.0 / (args.backoff_cap_ms / 1000.0)) / mu == 4.0
        assert (1.0 / args.deadline) / mu == 0.8
        assert args.queue_limit == 6
        assert args.cells is None and args.seed == 2004

    def test_cells_are_parsed_at_the_parser(self):
        args = build_parser().parse_args(
            ["metastable", "campaign", "--cells", "0.5:2"]
        )
        (cell,) = args.cells
        assert cell.load == 0.5 and cell.budget == 2

    def test_bad_cells_exit_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metastable", "campaign", "--cells", "nope"])
        assert excinfo.value.code == 2
        assert "load:budget" in capsys.readouterr().err

    def test_bad_loads_exit_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["metastable", "map", "--loads", "fast,faster"])
        assert excinfo.value.code == 2
        assert "comma-separated numbers" in capsys.readouterr().err

    def test_serve_gains_stall_rate_flag(self):
        args = build_parser().parse_args(
            ["serve", "--chaos", "--chaos-stall-rate", "1.0"]
        )
        assert args.chaos_stall_rate == 1.0

    def test_serve_stall_rate_requires_chaos(self, capsys):
        assert main(["serve", "--chaos-stall-rate", "0.5"]) == 2
        assert "--chaos" in capsys.readouterr().out


class TestMapCommand:
    def test_renders_and_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "map.json"
        assert main(
            ["metastable", "map", *MAP_FLAGS, "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "regime map" in stdout
        assert "trigger boundary" in stdout
        artifact = artifacts.load(out, REGIME_MAP_KIND)
        assert len(artifact["deterministic"]["cells"]) == 4

    def test_json_mode_emits_one_document(self, capsys):
        assert main(["metastable", "map", *MAP_FLAGS, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "metastable-map"
        assert document["regime_counts"]["stable"] >= 1


class TestValidateCommand:
    @pytest.fixture(scope="class")
    def map_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifacts") / "map.json"
        artifacts.write(
            map_regimes(loads=(0.3, 0.9), budgets=(1, 6)), path
        )
        return path

    def test_agreement_exits_zero(self, capsys, map_file, tmp_path):
        campaign = tmp_path / "campaign.json"
        artifacts.write(
            _campaign_artifact(
                [((0.3, 1), "recovered"), ((0.9, 6), "pinned")]
            ),
            campaign,
        )
        assert main([
            "metastable", "validate",
            "--map", str(map_file), "--campaign", str(campaign),
        ]) == 0
        assert "verdict: agree" in capsys.readouterr().out

    def test_disagreement_exits_nonzero(self, capsys, map_file, tmp_path):
        campaign = tmp_path / "campaign.json"
        artifacts.write(
            _campaign_artifact([((0.9, 6), "recovered")]), campaign
        )
        assert main([
            "metastable", "validate",
            "--map", str(map_file), "--campaign", str(campaign),
        ]) == 1
        assert "verdict: disagree" in capsys.readouterr().out

    def test_broken_campaign_file_exits_two(
        self, capsys, map_file, tmp_path
    ):
        # A broken input is exit 2, distinct from exit 1 for "disagree".
        campaign = tmp_path / "campaign.json"
        campaign.write_text("{not json", encoding="utf-8")
        assert main([
            "metastable", "validate",
            "--map", str(map_file), "--campaign", str(campaign),
        ]) == 2
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("error: ") and str(campaign) in line
        assert "Traceback" not in err


class TestCampaignCommand:
    def test_live_campaign_writes_artifact(self, capsys, tmp_path):
        # One calm cell and a reduced probe schedule keep the live run
        # to roughly the duration of one trigger arc.
        out = tmp_path / "campaign.json"
        assert main([
            "metastable", "campaign",
            "--cells", "0.3:1", "--probes", "6", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "load=0.3 budget=1 ->" in stdout
        artifact = artifacts.load(out, CAMPAIGN_KIND)
        (cell,) = artifact["observed"]["cells"]
        assert cell["probes_ok"] + cell["probes_failed"] == 6
