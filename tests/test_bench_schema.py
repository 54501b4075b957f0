"""Schema check for the committed BENCH_*.json artifacts.

The benchmark payloads are consumed outside this repo (CI artifact
diffing, perf dashboards), so their shape is versioned:
``benchmarks/conftest.py`` owns ``BENCH_SCHEMA_VERSION`` and the
required metadata keys, and this test holds the committed artifacts to
them.  Regenerate with ``python -m pytest benchmarks -k <name>`` after
changing the payload shape.
"""

import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def _bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_conftest():
    return _bench_conftest()


@pytest.mark.parametrize(
    "path", BENCH_FILES, ids=[p.name for p in BENCH_FILES]
)
def test_artifact_matches_schema(path, bench_conftest):
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == bench_conftest.BENCH_SCHEMA_VERSION
    for key in bench_conftest.BENCH_REQUIRED_KEYS:
        assert key in payload, f"{path.name} is missing {key!r}"
    assert payload["kernel_backend"] in ("cext", "numpy")
    assert isinstance(payload["n_workers"], int)
    assert payload["n_workers"] >= 1
    assert isinstance(payload["n_shards"], int)
    assert payload["n_shards"] >= 1


def test_artifacts_exist():
    names = {p.name for p in BENCH_FILES}
    assert {
        "BENCH_solve.json", "BENCH_scale.json", "BENCH_serve.json"
    } <= names


def test_serve_artifact_has_sustained_throughput():
    payload = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
    sustained = payload["sustained"]
    assert sustained["throughput_rps"] > 0.0
    assert sustained["n_workers"] >= 1
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert sustained[key] > 0.0
    assert sustained["p50_ms"] <= sustained["p95_ms"] <= sustained["p99_ms"]


def test_serve_artifact_has_cluster_section():
    """The committed serve artifact must carry the cluster
    cache-capacity experiment and meet the issue's 3x throughput bar."""
    payload = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
    cluster = payload["cluster"]
    single, sharded = cluster["single"], cluster["sharded"]
    assert single["n_shards"] == 1
    assert sharded["n_shards"] >= 2
    # The experiment's premise: the working set overflows one shard's
    # cache but fits in the sharded ring's aggregate capacity.
    assert single["working_set"] > single["shard_cache_size"]
    assert (
        sharded["working_set"]
        <= sharded["n_shards"] * sharded["shard_cache_size"]
    )
    assert single["hit_rate"] < sharded["hit_rate"]
    assert cluster["speedup"] >= 3.0
    assert cluster["speedup"] == pytest.approx(
        sharded["throughput_rps"] / single["throughput_rps"]
    )
