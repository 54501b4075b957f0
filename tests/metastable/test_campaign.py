"""Trigger campaign: cell parsing, verdicts, seeds, live artifact."""

import pytest

from repro import artifacts
from repro.exceptions import ModelError
from repro.metastable.campaign import (
    CAMPAIGN_KIND,
    DEFAULT_CELLS,
    OUTCOMES,
    CampaignCell,
    _classify_tail,
    _derived_seed,
    parse_cells,
    run_trigger_campaign,
)

#: One stable cell with compressed phases: the full burst -> sustain ->
#: release arc in about a second, for tests that need a real artifact.
FAST = dict(
    cells=[CampaignCell(0.3, 1)],
    seed=2004,
    baseline_seconds=0.2,
    burst_seconds=0.15,
    sustain_seconds=0.15,
    observe_probes=6,
    # The release leaves ~queue_limit zombies draining at mu = 12.5/s
    # (~0.5 s); space the probes so the decisive tail lands after the
    # drain, like the full-size campaign's 0.3 s cadence does. A
    # 3-probe tail tolerates one deadline hiccup on a loaded box
    # (pinned needs a failed majority, i.e. 2 of 3).
    probe_interval_seconds=0.3,
    tail_window=3,
)


@pytest.fixture(scope="module")
def fast_campaign():
    return run_trigger_campaign(**FAST)


class TestCells:
    def test_parse_cells(self):
        cells = parse_cells("0.3:1, 0.9:6")
        assert cells == [CampaignCell(0.3, 1), CampaignCell(0.9, 6)]

    @pytest.mark.parametrize("spec", ["", "0.3", "0.3:x", "load:2"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ModelError):
            parse_cells(spec)

    @pytest.mark.parametrize(
        "load,budget", [(-0.1, 1), (0.5, 0)]
    )
    def test_invalid_cell_rejected(self, load, budget):
        with pytest.raises(ModelError):
            CampaignCell(load, budget)


class TestDerivedSeeds:
    def test_stable_for_same_inputs(self):
        assert _derived_seed(2004, "cell0:chaos") == _derived_seed(
            2004, "cell0:chaos"
        )

    def test_distinct_labels_distinct_streams(self):
        seeds = {
            _derived_seed(2004, label)
            for label in ("cell0:chaos", "cell0:probe", "cell1:chaos")
        }
        assert len(seeds) == 3

    def test_seed_changes_every_stream(self):
        assert _derived_seed(1, "cell0:chaos") != _derived_seed(
            2, "cell0:chaos"
        )


class TestTailVerdict:
    def test_all_ok_recovers(self):
        verdict = _classify_tail([True] * 8, 6)
        assert verdict["outcome"] == "recovered"
        assert verdict["tail_failures"] == 0

    def test_all_failed_pins(self):
        assert _classify_tail([False] * 8, 6)["outcome"] == "pinned"

    def test_half_failed_tail_pins(self):
        # Exactly half the window failing is already a pin: recovery
        # means the tail is clean, not merely intermittent.
        assert (
            _classify_tail([True, True, False, True, False, True, False],
                           6)["outcome"]
            == "pinned"
        )

    def test_early_failures_outside_tail_ignored(self):
        probes = [False, False] + [True] * 6
        assert _classify_tail(probes, 6)["outcome"] == "recovered"

    def test_window_wider_than_trace_uses_whole_trace(self):
        verdict = _classify_tail([True, False], 6)
        assert verdict["tail_window"] == 2
        assert verdict["outcome"] == "pinned"


class TestCampaignArtifact:
    def test_envelope(self, fast_campaign):
        assert fast_campaign["kind"] == CAMPAIGN_KIND
        assert fast_campaign["schema"] == artifacts.SCHEMAS[CAMPAIGN_KIND]
        assert fast_campaign["seed"] == 2004
        assert set(fast_campaign) == {
            "kind", "schema", "seed",
            "deterministic", "schedule", "observed", "timing",
        }

    def test_deterministic_block_is_config_pure(self, fast_campaign):
        det = fast_campaign["deterministic"]
        assert det["cells"] == [{"load": 0.3, "budget": 1}]
        assert det["phases"]["observe_probes"] == 6
        assert det["server"]["queue_limit"] == 6
        assert det["workload"]["client_threads"] == 24

    def test_model_correspondence_arithmetic(self, fast_campaign):
        corr = fast_campaign["deterministic"]["model_correspondence"]
        mu = corr["mu"]
        assert mu == pytest.approx(1.0 / 0.08)
        assert corr["delta"] == pytest.approx((2.0 / 0.04) / mu)
        assert corr["theta"] == pytest.approx((1.0 / 0.1) / mu)
        assert corr["queue_depth"] == 6

    def test_schedule_block_names_every_stream(self, fast_campaign):
        (cell,) = fast_campaign["schedule"]["cells"]
        assert cell["cell"] == {"load": 0.3, "budget": 1}
        assert len(cell["thread_seeds"]) == 24
        assert len(cell["probe_trace_ids"]) == 6
        assert len(set(cell["thread_seeds"])) == 24

    def test_observed_block_shape(self, fast_campaign):
        (cell,) = fast_campaign["observed"]["cells"]
        assert cell["outcome"] in OUTCOMES
        assert cell["probes_ok"] + cell["probes_failed"] == 6
        assert len(cell["probe_ok_sequence"]) == 6
        assert set(cell["workload"]) == {
            "ok", "shed", "timeout", "error",
        }
        assert sum(cell["workload"].values()) > 0

    def test_stable_cell_recovers(self, fast_campaign):
        # Load 0.3 with no retries is deep inside the stable regime:
        # even a compressed trigger must not pin it.
        (cell,) = fast_campaign["observed"]["cells"]
        assert cell["outcome"] == "recovered"

    def test_default_cells_used_when_none_given(self):
        # Only inspect the argument default, not a full live run.
        assert DEFAULT_CELLS == ((0.3, 1), (0.9, 6))

    def test_probe_window_must_cover_tail(self):
        with pytest.raises(ModelError):
            run_trigger_campaign(
                **{**FAST, "observe_probes": 2, "tail_window": 4}
            )


class TestCampaignIO:
    def test_write_load_roundtrip(self, fast_campaign, tmp_path):
        path = artifacts.write(fast_campaign, tmp_path / "campaign.json")
        assert artifacts.load(path, CAMPAIGN_KIND) == fast_campaign
