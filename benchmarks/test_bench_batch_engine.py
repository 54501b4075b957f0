"""Benchmark the compiled batch-solve engine against per-snapshot solves.

Times the Fig. 7 workload (Config 1 hierarchical uncertainty analysis)
both ways: a one-point solve of a freshly built hierarchy once per
snapshot on a small subset, and the compiled vectorized path on the
full 1,000 samples.
Writes ``BENCH_solve.json`` at the repo root with per-sample timings and
the speedup, and asserts the engine delivers at least a 10x win.
"""

import json
import pathlib
import time

import pytest

from conftest import bench_metadata
from repro.models.jsas.configs import build_uncertainty_analysis
from repro.models.jsas.system import CONFIG_1
from repro.uncertainty import UncertaintyAnalysis

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 2004
N_BATCHED = 1000
N_SCALAR = 60  # enough for a stable per-sample figure without minutes of wall
REPS = 3


def _median_per_sample_ms(run, n_samples: int) -> float:
    timings = []
    for _ in range(REPS):
        start = time.perf_counter()
        run()
        timings.append((time.perf_counter() - start) * 1000.0 / n_samples)
    timings.sort()
    return timings[len(timings) // 2]


def _scalar_analysis(analysis: UncertaintyAnalysis) -> UncertaintyAnalysis:
    """``analysis`` with a plain-callable metric (no ``evaluate_batch``):
    each snapshot rebuilds Config 1's hierarchy and solves it with
    ``HierarchicalModel.solve``, which compiles it and makes the
    per-snapshot one-point solve."""

    def yearly_downtime(values):
        result = CONFIG_1.build_hierarchy().solve(
            CONFIG_1.merged_values(values)
        )
        return result.yearly_downtime_minutes

    return UncertaintyAnalysis(
        metric=yearly_downtime,
        distributions=analysis.distributions,
        base_values=analysis.base_values,
        metric_name=analysis.metric_name,
    )


@pytest.mark.benchmark(group="batch-engine")
def test_bench_batch_engine(benchmark, save_artifact):
    analysis = build_uncertainty_analysis(CONFIG_1)
    scalar = _scalar_analysis(analysis)

    scalar_ms = _median_per_sample_ms(
        lambda: scalar.run(n_samples=N_SCALAR, seed=SEED),
        N_SCALAR,
    )
    batched_ms = _median_per_sample_ms(
        lambda: analysis.run(n_samples=N_BATCHED, seed=SEED),
        N_BATCHED,
    )
    # The headline timing pytest-benchmark records is the batched run.
    result = benchmark.pedantic(
        lambda: analysis.run(n_samples=N_BATCHED, seed=SEED),
        rounds=1,
        iterations=1,
    )

    # Same seed, same sampler: the engines must agree exactly on the
    # overlap, not just statistically.
    subset = scalar.run(n_samples=N_SCALAR, seed=SEED)
    assert result.values[:N_SCALAR] == subset.values

    speedup = scalar_ms / batched_ms
    payload = {
        **bench_metadata(engine="compiled", method="auto"),
        "workload": "fig7 Config 1 hierarchical uncertainty analysis",
        "seed": SEED,
        "scalar_samples": N_SCALAR,
        "batched_samples": N_BATCHED,
        "scalar_per_sample_ms": scalar_ms,
        "batched_per_sample_ms": batched_ms,
        "speedup": speedup,
    }
    (REPO_ROOT / "BENCH_solve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    save_artifact(
        "batch_engine",
        "\n".join(
            [
                "Compiled batch engine vs scalar loop (fig7 workload)",
                "",
                f"scalar:  {scalar_ms:.4f} ms/sample ({N_SCALAR} samples)",
                f"batched: {batched_ms:.4f} ms/sample ({N_BATCHED} samples)",
                f"speedup: {speedup:.1f}x",
            ]
        ),
    )

    assert speedup >= 10.0
