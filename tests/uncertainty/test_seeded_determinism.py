"""Seeded-determinism regression tests for the uncertainty analysis.

The service caches seeded ``/v1/uncertainty`` responses by fingerprint
and the chaos campaign replays seeded runs, so seeded
:meth:`UncertaintyAnalysis.run` must be **bit-identical** across repeats
of the same engine.  Across *different* engines (GTH vs sparse LU, or
scalar vs batch) the results agree to solver tolerance but are NOT
required to match bit-for-bit — pinning that distinction down keeps a
future refactor from accidentally weakening (or over-promising) either
guarantee.
"""

import numpy as np
import pytest

from repro.models.jsas import JsasConfiguration
from repro.models.jsas.configs import build_uncertainty_analysis
from tests.uncertainty.conftest import scalar_reference

SAMPLES = 64
SEED = 2004


def _run(method: str, batch: bool, seed: int = SEED):
    analysis = build_uncertainty_analysis(
        JsasConfiguration(n_instances=2, n_pairs=2), method=method
    )
    if not batch:
        analysis = scalar_reference(analysis)
    return analysis.run(n_samples=SAMPLES, seed=seed)


class TestSameEngineBitIdentity:
    @pytest.mark.parametrize("method", ["gth", "sparse"])
    def test_batch_engine_repeats_bit_identical(self, method):
        first = _run(method, batch=True)
        second = _run(method, batch=True)
        assert first.values == second.values  # exact, not approx
        assert first.mean == second.mean
        assert first.std == second.std

    def test_scalar_engine_repeats_bit_identical(self):
        first = _run("gth", batch=False)
        second = _run("gth", batch=False)
        assert first.values == second.values

    def test_different_seeds_differ(self):
        first = _run("gth", batch=True, seed=SEED)
        second = _run("gth", batch=True, seed=SEED + 1)
        assert first.values != second.values


class TestCrossEngineCloseness:
    def test_gth_vs_sparse_close_to_solver_tolerance(self):
        gth = _run("gth", batch=True)
        sparse = _run("sparse", batch=True)
        np.testing.assert_allclose(
            gth.values, sparse.values, rtol=1e-9, atol=0.0
        )

    def test_scalar_vs_batch_close_to_solver_tolerance(self):
        scalar = _run("gth", batch=False)
        batched = _run("gth", batch=True)
        np.testing.assert_allclose(
            scalar.values, batched.values, rtol=1e-9, atol=0.0
        )

    def test_same_seed_same_sampled_inputs_across_engines(self):
        """The RNG draw is engine-independent; only the solve differs.

        Summary statistics agreeing to ~1e-9 while the seeds drive
        uniform draws over ranges spanning orders of magnitude is only
        possible if both engines consumed the identical sample stream.
        """
        gth = _run("gth", batch=True)
        sparse = _run("sparse", batch=True)
        assert gth.mean == pytest.approx(sparse.mean, rel=1e-9)
        assert gth.std == pytest.approx(sparse.std, rel=1e-9)
