"""Failover drill: seeded kills, zero failed requests, reproducibility."""

import random

import pytest

from repro.chaos.failover import (
    FailoverReport,
    _kill_schedule,
    run_failover_drill,
)
from repro.chaos.injector import ChaosError
from repro.cli import main


class TestKillSchedule:
    def test_seeded_schedule_reproduces(self):
        a = _kill_schedule(random.Random("s"), 32, 2, 4)
        b = _kill_schedule(random.Random("s"), 32, 2, 4)
        assert a == b

    def test_kills_land_mid_workload(self):
        schedule = _kill_schedule(random.Random(0), 30, 3, 4)
        assert len(schedule) == 3
        for index, victim in schedule.items():
            assert 30 // 5 <= index < (4 * 30) // 5
            assert victim in {f"shard-{i}" for i in range(4)}


class TestValidation:
    def test_rejects_single_shard(self):
        with pytest.raises(ChaosError, match="at least 2 shards"):
            run_failover_drill(n_shards=1)

    def test_rejects_tiny_workload(self):
        with pytest.raises(ChaosError, match="at least 4 requests"):
            run_failover_drill(requests=2)

    def test_rejects_excessive_kills(self):
        with pytest.raises(ChaosError, match="kills"):
            run_failover_drill(requests=8, kills=5)

    def test_cli_measurement_without_probes_is_usage_error(
        self, tmp_path, capsys
    ):
        # A probe-free drill builds no measurement report, so asking for
        # one is refused before any cluster boots.
        out = tmp_path / "m.json"
        rc = main([
            "failover", "--shards", "2", "--requests", "4",
            "--kills", "0", "--measurement", str(out),
        ])
        assert rc == 2
        assert "--probes" in capsys.readouterr().out
        assert not out.exists()


class TestReport:
    def test_deterministic_dict_excludes_timing(self):
        report = FailoverReport(
            seed=1, n_shards=2, requests=4, succeeded=4, failed=0,
            kills=1,
            kill_events=[
                {"shard": "shard-0", "request_index": 2,
                 "respawns": 1, "generation": 2}
            ],
            client_retries=3, ring_size_after=2, duration_ms=123.4,
        )
        deterministic = report.deterministic_dict()
        assert "duration_ms" not in deterministic
        assert "client_retries" not in deterministic
        # Lifecycle counters depend on monitor timing, so the
        # deterministic view keeps only the seeded schedule.
        assert deterministic["kill_events"] == [
            {"shard": "shard-0", "request_index": 2}
        ]
        full = report.to_dict()
        assert full["duration_ms"] == 123.4
        assert full["kill_events"][0]["respawns"] == 1


class TestDrill:
    def test_drill_completes_with_zero_failures(self):
        """Acceptance: a seeded shard-kill drill finishes with zero
        failed client requests and a fully re-admitted ring."""
        report = run_failover_drill(
            n_shards=2, requests=8, kills=1, seed=11
        )
        assert report.failed == 0
        assert report.succeeded == report.requests == 8
        assert report.kills == 1
        assert report.ring_size_after == 2
        assert report.kill_events[0]["respawns"] >= 1
        artifact = report.to_dict()
        assert artifact["kind"] == "failover-drill"
        assert artifact["failed"] == 0

    def test_same_seed_reproduces_the_drill(self):
        first = run_failover_drill(
            n_shards=2, requests=8, kills=1, seed=11
        )
        second = run_failover_drill(
            n_shards=2, requests=8, kills=1, seed=11
        )
        assert first.deterministic_dict() == second.deterministic_dict()
        assert first.kill_events[0]["shard"] == second.kill_events[0]["shard"]
