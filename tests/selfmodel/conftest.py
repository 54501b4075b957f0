"""Shared fixtures: synthetic measurement reports (no cluster boot)."""

import pytest

from repro.artifacts import SCHEMAS


def synthetic_measurement(
    kills=2,
    detect=(0.05, 0.07),
    respawn=(0.2, 0.3),
    n_probes=8,
    probe_failures=0,
    campaign_seconds=12.0,
    n_shards=4,
    seed=77,
):
    """A hand-built schema-2 measurement report.

    Shaped like :func:`repro.obs.monitor.build_measurement_report`
    output but with chosen numbers, so fits are analytically checkable.
    """
    restore = tuple(d + r for d, r in zip(detect, respawn))
    mttr = sum(restore) / len(restore) if restore else None
    return {
        "kind": "measurement",
        "schema": SCHEMAS["measurement"],
        "seed": seed,
        "n_shards": n_shards,
        "n_probes": n_probes,
        "probe_failures": probe_failures,
        "probe_availability": (
            (n_probes - probe_failures) / n_probes if n_probes else None
        ),
        "empirical_availability": 0.99,
        "mttr_seconds": mttr,
        "mtbf_seconds": 100.0,
        "recovery_phases": {
            "detect": list(detect),
            "respawn": list(respawn),
            "restore": list(restore),
        },
        "exposure": {
            "campaign_seconds": campaign_seconds,
            "shard_seconds": campaign_seconds * n_shards,
            "kill_count": kills,
        },
        "deterministic": {
            "schema": SCHEMAS["measurement"],
            "seed": seed,
            "n_shards": n_shards,
            "n_probes": n_probes,
            "kill_count": kills,
        },
        "campaign": {"duration_s": campaign_seconds},
    }


@pytest.fixture
def measurement():
    return synthetic_measurement()
