"""Availability measurement: probes, episode detection, the report."""

import json

import pytest

from repro import artifacts
from repro.obs.monitor import (
    EstimationInputs,
    PROBE_PARAMETER,
    build_measurement_report,
    detect_service_episodes,
    join_shard_episodes,
    probe_trace_id,
    probe_value,
    recovery_phase_samples,
    render_measurement_report,
)

MEASUREMENT_SCHEMA = artifacts.SCHEMAS["measurement"]


def _probe(index, ok=True, t=None, duration=0.01, seed=2004):
    return {
        "index": index,
        "trace_id": probe_trace_id(seed, index),
        "t": float(index) if t is None else t,
        "duration_s": duration,
        "ok": ok,
        "error": None if ok else "boom",
        "value": probe_value(index),
    }


def _event(name, shard, t, **extra):
    return {
        "kind": "event",
        "name": name,
        "t": t,
        "fields": dict({"shard": shard}, **extra),
    }


class TestProbeIdentity:
    def test_trace_ids_deterministic(self):
        assert probe_trace_id(7, 3) == probe_trace_id(7, 3)
        assert probe_trace_id(7, 3) != probe_trace_id(7, 4)
        assert probe_trace_id(7, 3) != probe_trace_id(8, 3)
        assert len(probe_trace_id(7, 3)) == 32

    def test_probe_values_outside_drill_range(self):
        # Drill workloads sweep 0.5 + 0.05 i; probes must never collide
        # with those cache entries.
        drill = {round(0.5 + 0.05 * i, 12) for i in range(200)}
        for index in range(64):
            assert probe_value(index) not in drill


class TestServiceEpisodes:
    def test_no_failures_no_episodes(self):
        assert detect_service_episodes([_probe(i) for i in range(5)]) == []

    def test_single_failure_below_threshold(self):
        probes = [_probe(0), _probe(1, ok=False), _probe(2)]
        assert detect_service_episodes(probes, min_failures=2) == []

    def test_consecutive_failures_form_episode(self):
        probes = [
            _probe(0),
            _probe(1, ok=False),
            _probe(2, ok=False),
            _probe(3, ok=False),
            _probe(4),
        ]
        episodes = detect_service_episodes(probes, min_failures=2)
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode["down_at"] == 1.0
        assert episode["detected_at"] == pytest.approx(2.01)
        assert episode["restored_at"] == 4.0
        assert episode["complete"] is True
        assert episode["probe_indices"] == [1, 2, 3]

    def test_open_ended_outage_marked_incomplete(self):
        probes = [_probe(0), _probe(1, ok=False), _probe(2, ok=False)]
        (episode,) = detect_service_episodes(probes, min_failures=2)
        assert episode["restored_at"] is None
        assert episode["complete"] is False

    def test_min_failures_validated(self):
        with pytest.raises(ValueError):
            detect_service_episodes([], min_failures=0)


class TestShardEpisodes:
    def test_kill_dead_ready_joined(self):
        records = [
            _event("cluster.shard.ready", "shard-0", 0.0),  # boot: ignored
            _event("cluster.shard.killed", "shard-0", 10.0, pid=123),
            _event("cluster.shard.dead", "shard-0", 10.2),
            _event("cluster.shard.ready", "shard-0", 11.0, generation=2),
        ]
        complete, incomplete = join_shard_episodes(records)
        assert incomplete == []
        (episode,) = complete
        assert episode["shard"] == "shard-0"
        assert episode["killed_at"] == 10.0
        assert episode["dead_at"] == 10.2
        assert episode["ready_at"] == 11.0
        assert episode["generation"] == 2

    def test_unrecovered_kill_is_incomplete(self):
        records = [
            _event("cluster.shard.killed", "shard-1", 5.0),
            _event("cluster.shard.dead", "shard-1", 5.5),
        ]
        complete, incomplete = join_shard_episodes(records)
        assert complete == []
        assert len(incomplete) == 1
        assert incomplete[0]["ready_at"] is None

    def test_shards_tracked_independently(self):
        records = [
            _event("cluster.shard.killed", "shard-0", 1.0),
            _event("cluster.shard.killed", "shard-1", 2.0),
            _event("cluster.shard.dead", "shard-1", 2.1),
            _event("cluster.shard.ready", "shard-1", 2.5),
            _event("cluster.shard.dead", "shard-0", 3.0),
            _event("cluster.shard.ready", "shard-0", 3.5),
        ]
        complete, incomplete = join_shard_episodes(records)
        assert incomplete == []
        assert [episode["shard"] for episode in complete] == [
            "shard-0", "shard-1",
        ]

    def test_non_lifecycle_records_ignored(self):
        records = [
            {"kind": "span", "name": "cluster.shard.killed"},
            {"kind": "event", "name": "monitor.probe", "t": 1.0},
        ]
        assert join_shard_episodes(records) == ([], [])

    def test_phase_samples_clamped_positive(self):
        episodes = [
            {"killed_at": 1.0, "dead_at": 1.0, "ready_at": 1.0},
        ]
        phases = recovery_phase_samples(episodes)
        assert phases["detect"][0] > 0
        assert phases["respawn"][0] > 0
        assert phases["restore"][0] > 0

    def test_partial_episodes_skip_missing_phases(self):
        episodes = [{"killed_at": 1.0, "dead_at": None, "ready_at": None}]
        phases = recovery_phase_samples(episodes)
        assert phases == {"detect": [], "respawn": [], "restore": []}


class TestReport:
    def _records(self):
        return [
            _event("cluster.shard.killed", "shard-2", 1.5),
            _event("cluster.shard.dead", "shard-2", 1.7),
            _event("cluster.shard.ready", "shard-2", 2.5, generation=2),
        ]

    def test_deterministic_block_is_seed_pure(self):
        probes_a = [_probe(i) for i in range(4)]
        probes_b = [
            _probe(i, t=100.0 + i, duration=0.5) for i in range(4)
        ]
        report_a = build_measurement_report(
            probes_a, self._records(), seed=2004, n_shards=4
        )
        report_b = build_measurement_report(
            probes_b, self._records(), seed=2004, n_shards=4
        )
        assert json.dumps(report_a["deterministic"], sort_keys=True) == (
            json.dumps(report_b["deterministic"], sort_keys=True)
        )

    def test_deterministic_block_contents(self):
        report = build_measurement_report(
            [_probe(i, seed=11) for i in range(3)],
            self._records(),
            seed=11,
            n_shards=4,
        )
        block = report["deterministic"]
        assert block["schema"] == MEASUREMENT_SCHEMA
        assert block["seed"] == 11
        assert block["n_shards"] == 4
        assert block["n_probes"] == 3
        assert block["probe_parameter"] == PROBE_PARAMETER
        assert block["probe_trace_ids"] == [
            probe_trace_id(11, i) for i in range(3)
        ]
        assert block["shard_episode_count"] == 1
        assert block["shard_episode_victims"] == ["shard-2"]

    def test_episode_count_matches_kills(self):
        records = self._records() + [
            _event("cluster.shard.killed", "shard-0", 3.0),
            _event("cluster.shard.dead", "shard-0", 3.1),
            _event("cluster.shard.ready", "shard-0", 3.9, generation=2),
        ]
        report = build_measurement_report(
            [_probe(i) for i in range(4)], records
        )
        assert report["deterministic"]["shard_episode_count"] == 2
        assert len(report["shard_episodes"]) == 2

    def test_availability_accounts_downtime(self):
        probes = [
            _probe(0, t=0.0),
            _probe(1, ok=False, t=1.0),
            _probe(2, ok=False, t=2.0),
            _probe(3, t=3.0),
        ]
        report = build_measurement_report(probes, min_failures=2)
        assert report["probe_failures"] == 2
        assert report["probe_availability"] == pytest.approx(0.5)
        # downtime 1.0→3.0 over a 0.0→3.01 campaign
        assert report["empirical_availability"] == pytest.approx(
            1.0 - 2.0 / 3.01
        )
        assert len(report["service_episodes"]) == 1

    def test_mttr_and_mtbf(self):
        report = build_measurement_report(
            [_probe(i) for i in range(4)], self._records()
        )
        assert report["mttr_seconds"] == pytest.approx(1.0)
        assert report["mtbf_seconds"] == pytest.approx(
            report["campaign"]["duration_s"]
        )

    def test_write_and_render_roundtrip(self, tmp_path):
        report = build_measurement_report(
            [_probe(0)], self._records(), seed=5
        )
        path = artifacts.write(report, tmp_path / "m.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["deterministic"] == report["deterministic"]
        text = render_measurement_report(report)
        assert (
            f"availability measurement (schema {MEASUREMENT_SCHEMA}, seed 5)"
            in text
        )
        assert "restore:" in text

    def test_exposure_block(self):
        probes = [_probe(i, t=float(i)) for i in range(4)]
        report = build_measurement_report(
            probes, self._records(), n_shards=4
        )
        exposure = report["exposure"]
        # campaign runs 0.0 .. 3.01 (last probe + duration)
        assert exposure["campaign_seconds"] == pytest.approx(3.01)
        assert exposure["shard_seconds"] == pytest.approx(4 * 3.01)
        assert exposure["kill_count"] == 1
        assert report["deterministic"]["kill_count"] == 1

    def test_kill_count_counts_killed_events_not_episodes(self):
        # A kill whose shard never comes back still counts: the life
        # test cares about failures, not completed recoveries.
        records = self._records() + [
            _event("cluster.shard.killed", "shard-0", 3.0),
        ]
        report = build_measurement_report(
            [_probe(i) for i in range(4)], records, n_shards=4
        )
        assert report["exposure"]["kill_count"] == 2
        assert report["deterministic"]["kill_count"] == 2
        assert report["deterministic"]["shard_episode_count"] == 2


class TestEstimationBridge:
    def test_summaries_feed_estimation_unchanged(self):
        records = [
            _event("cluster.shard.killed", "shard-0", 0.0),
            _event("cluster.shard.dead", "shard-0", 0.25),
            _event("cluster.shard.ready", "shard-0", 1.25, generation=2),
            _event("cluster.shard.killed", "shard-1", 5.0),
            _event("cluster.shard.dead", "shard-1", 5.35),
            _event("cluster.shard.ready", "shard-1", 6.45, generation=2),
        ]
        report = build_measurement_report(
            [_probe(i) for i in range(4)], records
        )
        inputs = EstimationInputs.from_report(report)
        assert inputs.detect == pytest.approx((0.25, 0.35))
        summaries = inputs.summaries()
        assert set(summaries) == {"detect", "respawn", "restore"}
        assert summaries["detect"].mean == pytest.approx(0.3)
        assert summaries["restore"].n == 2

    def test_report_json_roundtrip_keeps_shape(self, tmp_path):
        # The written file must be consumable without reshaping.
        records = [
            _event("cluster.shard.killed", "shard-0", 0.0),
            _event("cluster.shard.dead", "shard-0", 0.5),
            _event("cluster.shard.ready", "shard-0", 1.0, generation=2),
        ]
        report = build_measurement_report([_probe(0)], records)
        path = artifacts.write(report, tmp_path / "m.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        summaries = EstimationInputs.from_report(loaded).summaries()
        assert summaries["restore"].mean == pytest.approx(1.0)

    def test_empty_phases_yield_no_summaries(self):
        report = build_measurement_report([_probe(0)])
        assert EstimationInputs.from_report(report).summaries() == {}

    def test_rates_expose_intervals(self):
        records = [
            _event("cluster.shard.killed", "shard-0", 0.0),
            _event("cluster.shard.dead", "shard-0", 0.2),
            _event("cluster.shard.ready", "shard-0", 1.0, generation=2),
        ]
        report = build_measurement_report(
            [_probe(i, t=float(i)) for i in range(4)], records, n_shards=2
        )
        inputs = EstimationInputs.from_report(report)
        rates = inputs.rates()
        assert set(rates) == {"detect", "respawn", "restore"}
        detect = rates["detect"]
        # n=1 sample of 0.2 s: MLE 5/s, and the exact chi2 interval is
        # wide but brackets it.
        assert detect.rate == pytest.approx(5.0)
        assert detect.n == 1
        assert detect.lower < detect.rate < detect.upper
        assert rates["restore"].rate == pytest.approx(1.0)

    def test_failure_rate_uses_exposure(self):
        records = [
            _event("cluster.shard.killed", "shard-0", 0.0),
            _event("cluster.shard.dead", "shard-0", 0.2),
            _event("cluster.shard.ready", "shard-0", 1.0, generation=2),
        ]
        report = build_measurement_report(
            [_probe(i, t=float(i)) for i in range(4)], records, n_shards=2
        )
        inputs = EstimationInputs.from_report(report)
        estimate = inputs.failure_rate()
        assert estimate.n_failures == 1
        assert estimate.exposure == pytest.approx(2 * 3.01)
        assert estimate.point == pytest.approx(1 / (2 * 3.01))
        assert estimate.lower < estimate.point < estimate.upper

    def test_zero_duration_campaign_has_zero_exposure(self):
        # A single probe with zero duration: exposure degenerates to 0
        # and the bridge carries that through without inventing time.
        report = build_measurement_report([_probe(0, duration=0.0)])
        inputs = EstimationInputs.from_report(report)
        assert inputs.shard_exposure_seconds == 0.0
        from repro.exceptions import EstimationError

        with pytest.raises(EstimationError):
            inputs.failure_rate()


class TestLoaderShim:
    def _records(self):
        return [
            _event("cluster.shard.killed", "shard-2", 1.5),
            _event("cluster.shard.dead", "shard-2", 1.7),
            _event("cluster.shard.ready", "shard-2", 2.5, generation=2),
        ]

    def test_v2_passes_through(self, tmp_path):
        report = build_measurement_report(
            [_probe(i) for i in range(3)], self._records(), n_shards=4
        )
        path = artifacts.write(report, tmp_path / "m.json")
        loaded = artifacts.load(path, "measurement")
        assert loaded["schema"] == MEASUREMENT_SCHEMA
        assert loaded["exposure"] == report["exposure"]

    def test_v1_artifact_upgraded(self, tmp_path):
        report = build_measurement_report(
            [_probe(i, t=float(i)) for i in range(3)],
            self._records(),
            n_shards=4,
        )
        # Regress the artifact to its v1 layout by hand.
        v1 = dict(report)
        del v1["exposure"]
        v1["schema"] = 1
        deterministic = dict(v1["deterministic"])
        del deterministic["kill_count"]
        deterministic["schema"] = 1
        v1["deterministic"] = deterministic
        path = artifacts.write(v1, tmp_path / "v1.json")
        upgraded = artifacts.load(path, "measurement")
        assert upgraded["schema"] == MEASUREMENT_SCHEMA
        exposure = upgraded["exposure"]
        assert exposure["campaign_seconds"] == pytest.approx(
            report["campaign"]["duration_s"]
        )
        assert exposure["shard_seconds"] == pytest.approx(
            4 * report["campaign"]["duration_s"]
        )
        # v1 reconstruction counts episodes (complete + incomplete).
        assert exposure["kill_count"] == 1
        assert upgraded["deterministic"]["kill_count"] == 1
        assert upgraded["deterministic"]["schema"] == MEASUREMENT_SCHEMA

    def test_accepts_parsed_mapping(self):
        report = build_measurement_report([_probe(0)], self._records())
        assert artifacts.load(report, "measurement")["schema"] == (
            MEASUREMENT_SCHEMA
        )

    def test_v1_estimation_inputs_fallback(self):
        # EstimationInputs must also cope with a raw (un-upgraded) v1
        # mapping, deriving the same exposure the shim would.
        report = build_measurement_report(
            [_probe(i, t=float(i)) for i in range(3)],
            self._records(),
            n_shards=4,
        )
        v1 = dict(report)
        del v1["exposure"]
        v1["schema"] = 1
        inputs = EstimationInputs.from_report(v1)
        assert inputs.shard_exposure_seconds == pytest.approx(
            4 * report["campaign"]["duration_s"]
        )
        assert inputs.kill_count == 1
