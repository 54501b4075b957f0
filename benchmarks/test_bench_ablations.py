"""Ablation benches: quantify the design choices DESIGN.md calls out.

* FIR (imperfect recovery) on/off — the dominant HADB risk path.
* Workload acceleration (Acc) on/off — the paper's failure-rate doubling.
* Scheduled maintenance on/off.
* Sequential vs parallel AS restart policy (the generalized model's
  undocumented degree of freedom).
* Steady-state solver choice (GTH vs sparse LU, against an exact
  rational solve) on the same chain,
  and the banded solve's two paths (C GTH, LAPACK band-LU) against the
  reference GTH on the N-instance AS chain, plus the scalar
  ``steady_state_vector(method="banded")`` call that runs the same
  kernel on one generator, and the dense GTH kernel (what ``auto``
  runs below the banded cutover) at the cutover size.
"""

import functools
import statistics
import time

import numpy as np
import pytest

from repro.analysis.report import render_table
from repro.core.compiled import compile_model
from repro.ctmc import (
    build_generator,
    solve_steady_state,
    steady_state_availability,
    steady_state_vector,
)
from repro.ctmc.batch import banded_structure_of
from repro.ctmc.sparse import gth_banded_batch
from repro.ctmc.steady_state import _gth_reference
from repro.kernels import cext
from repro.kernels.banded import banded_kernel_plan, banded_steady_state
from repro.kernels.dense import dense_gth, dense_kernel_plan
from repro.models.jsas import (
    CONFIG_1,
    PAPER_PARAMETERS,
    JsasConfiguration,
    build_appserver_model,
    build_hadb_pair_model,
)

BASE = PAPER_PARAMETERS.to_dict()


def run_model_ablations():
    variants = {
        "paper defaults": BASE,
        "FIR = 0": dict(BASE, FIR=0.0),
        "no acceleration (Acc = 1)": dict(BASE, Acc=1.0),
        "no maintenance": dict(BASE, La_mnt=0.0),
    }
    return {
        label: CONFIG_1.solve(values).yearly_downtime_minutes
        for label, values in variants.items()
    }


@pytest.mark.benchmark(group="ablations")
def test_bench_model_ablations(benchmark, save_artifact):
    downtimes = benchmark(run_model_ablations)

    table = render_table(
        ["variant", "Config 1 yearly downtime (min)"],
        [(label, f"{value:.3f}") for label, value in downtimes.items()],
        title="Ablations on the Config 1 model",
    )
    save_artifact("ablations_model", table)

    base = downtimes["paper defaults"]
    assert downtimes["FIR = 0"] < base  # imperfect recovery costs downtime
    assert downtimes["no acceleration (Acc = 1)"] < base
    assert downtimes["no maintenance"] < base
    # FIR is the single largest HADB contributor: switching it off
    # removes more downtime than switching off maintenance.
    assert (base - downtimes["FIR = 0"]) > (
        base - downtimes["no maintenance"]
    )


def run_policy_ablation():
    out = {}
    for n in (2, 4, 6):
        for policy in ("sequential", "parallel"):
            model = build_appserver_model(n, repair_policy=policy)
            result = steady_state_availability(model, BASE)
            out[(n, policy)] = result.yearly_downtime_minutes * 60.0
    return out


@pytest.mark.benchmark(group="ablations")
def test_bench_repair_policy_ablation(benchmark, save_artifact):
    downtimes = benchmark(run_policy_ablation)

    rows = [
        (str(n), policy, f"{downtimes[(n, policy)]:.4g} s")
        for n, policy in sorted(downtimes)
    ]
    table = render_table(
        ["instances", "restart policy", "AS yearly downtime"],
        rows,
        title="AS restart policy ablation (downtime in seconds/year)",
    )
    save_artifact("ablations_policy", table)

    # Identical at n=2 (single restart in flight either way)...
    assert downtimes[(2, "sequential")] == pytest.approx(
        downtimes[(2, "parallel")], rel=1e-9
    )
    # ...parallel strictly better for larger clusters.
    for n in (4, 6):
        assert downtimes[(n, "parallel")] < downtimes[(n, "sequential")]
    # The paper's published Config 2 numbers match the sequential policy:
    # ~0.0073 s/yr (prints as the paper's "0.01 sec").
    assert downtimes[(4, "sequential")] == pytest.approx(0.0073, rel=0.1)


def run_solver_comparison():
    model = build_hadb_pair_model()
    return {
        method: solve_steady_state(model, BASE, method=method)["2_Down"]
        for method in ("gth", "sparse")
    }


def exact_down_probability() -> float:
    """P(2_Down) of the HADB pair chain from an exact ``Fraction`` solve."""
    from tests.ctmc.test_exact_oracle import exact_interface

    generator = build_generator(build_hadb_pair_model(), BASE)
    pi = exact_interface(generator)[0]
    return float(pi[generator.index_of("2_Down")])


BANDED_INSTANCES = (11, 64, 256)
BANDED_SAMPLES = (1, 100)
BANDED_REPS = 7
BANDED_PATHS = (
    "C GTH", "LAPACK band-LU", "reference GTH", "scalar banded",
    "dense GTH kernel",
)


def _median_ms(run) -> float:
    timings = []
    for _ in range(BANDED_REPS):
        start = time.perf_counter()
        run()
        timings.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(timings)


def run_banded_paths(monkeypatch):
    """Time and check each banded path on a ``Tstart_long_as`` sweep.

    Rows are ``(N, states, samples, path, median ms, max rel error)``;
    the error is against dense GTH on every sample.  The LAPACK path is
    reached by faking the C kernel unavailable, as ``tests/kernels``
    does; the C rows are left out on a host that cannot build it.  The
    "scalar banded" row (one sample only) times a scalar solve of the
    first sweep point's generator, on whichever path the host takes.
    The "dense GTH kernel" row (the smallest N only: a dense work matrix
    is O(n^2) memory per sample) times the dense kernel on the same
    rates, on whichever path the host takes.
    """
    paths = BANDED_PATHS if cext.load() is not None else BANDED_PATHS[1:]
    rows = []
    for n in BANDED_INSTANCES:
        model = build_appserver_model(n)
        compiled = compile_model(model)
        structure = banded_structure_of(compiled)
        sweep = np.linspace(5.0, 60.0, max(BANDED_SAMPLES))
        dense = np.stack([
            _gth_reference(
                build_generator(
                    model, dict(BASE, Tstart_long_as=float(x)), sparse=False
                ).dense()
            )
            for x in sweep
        ])
        for k in BANDED_SAMPLES:
            rates = compiled.rate_matrix(
                dict(BASE, Tstart_long_as=sweep[:k]), k
            )
            for path in paths:
                if path == "scalar banded":
                    if k != 1:
                        continue
                    run = functools.partial(
                        steady_state_vector,
                        build_generator(
                            model, dict(BASE, Tstart_long_as=float(sweep[0]))
                        ),
                        method="banded",
                        check_structure=False,
                    )
                elif path == "reference GTH":
                    run = functools.partial(gth_banded_batch, structure, rates)
                elif path == "dense GTH kernel":
                    if n != BANDED_INSTANCES[0]:
                        continue

                    def run(plan=dense_kernel_plan(compiled), rates=rates):
                        return dense_gth(plan, rates, mttf=False)[0]
                else:
                    run = functools.partial(
                        banded_steady_state,
                        banded_kernel_plan(compiled),
                        rates,
                    )
                with monkeypatch.context() as patch:
                    if path == "LAPACK band-LU":
                        patch.setattr(cext, "load", lambda: None)
                    # Also the warm-up: plan and C build.  A scalar
                    # solve returns one vector; compare it as one row.
                    pis = np.atleast_2d(run())
                    ms = _median_ms(run)
                np.testing.assert_allclose(
                    pis, dense[:k], rtol=1e-10, atol=1e-14, err_msg=path
                )
                error = float(np.max(np.abs(pis - dense[:k]) / dense[:k]))
                rows.append((n, compiled.n_states, k, path, ms, error))
    return rows


@pytest.mark.benchmark(group="solvers")
def test_bench_solver_agreement(benchmark, save_artifact, monkeypatch):
    probabilities = benchmark(run_solver_comparison)
    banded = run_banded_paths(monkeypatch)
    reference = exact_down_probability()

    table = render_table(
        ["solver", "P(2_Down)", "rel err vs exact"],
        [
            (m, f"{p:.6e}", f"{abs(p - reference) / reference:.1e}")
            for m, p in probabilities.items()
        ],
        title="Steady-state solver agreement on the HADB pair chain",
    )
    banded_table = render_table(
        ["N", "states", "samples", "path", "median ms",
         "max rel err vs dense GTH"],
        [
            (str(n), str(states), str(k), path, f"{ms:.3f}", f"{err:.1e}")
            for n, states, k, path, ms, err in banded
        ],
        title=(
            "Banded steady-state paths and the dense GTH kernel on "
            "build_appserver_model(N), "
            f"Tstart_long_as sweep (median of {BANDED_REPS})"
        ),
    )
    save_artifact("ablations_solvers", table + "\n\n" + banded_table)

    for probability in probabilities.values():
        assert probability == pytest.approx(reference, rel=1e-9)
