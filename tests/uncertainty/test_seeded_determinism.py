"""Seeded-determinism regression tests for the uncertainty analysis.

The service caches seeded ``/v1/uncertainty`` responses by fingerprint
and the chaos campaign replays seeded runs, so seeded
:meth:`UncertaintyAnalysis.run` must be **bit-identical** across repeats
of the same engine.  Across *different* engines (direct vs sparse, or
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
    @pytest.mark.parametrize("method", ["direct", "sparse"])
    def test_batch_engine_repeats_bit_identical(self, method):
        first = _run(method, batch=True)
        second = _run(method, batch=True)
        assert first.values == second.values  # exact, not approx
        assert first.mean == second.mean
        assert first.std == second.std

    def test_scalar_engine_repeats_bit_identical(self):
        first = _run("direct", batch=False)
        second = _run("direct", batch=False)
        assert first.values == second.values

    def test_different_seeds_differ(self):
        first = _run("direct", batch=True, seed=SEED)
        second = _run("direct", batch=True, seed=SEED + 1)
        assert first.values != second.values


class TestCrossEngineCloseness:
    def test_direct_vs_sparse_close_to_solver_tolerance(self):
        direct = _run("direct", batch=True)
        sparse = _run("sparse", batch=True)
        np.testing.assert_allclose(
            direct.values, sparse.values, rtol=1e-9, atol=0.0
        )

    def test_scalar_vs_batch_close_to_solver_tolerance(self):
        scalar = _run("direct", batch=False)
        batched = _run("direct", batch=True)
        np.testing.assert_allclose(
            scalar.values, batched.values, rtol=1e-9, atol=0.0
        )

    def test_same_seed_same_sampled_inputs_across_engines(self):
        """The RNG draw is engine-independent; only the solve differs.

        Summary statistics agreeing to ~1e-9 while the seeds drive
        uniform draws over ranges spanning orders of magnitude is only
        possible if both engines consumed the identical sample stream.
        """
        direct = _run("direct", batch=True)
        sparse = _run("sparse", batch=True)
        assert direct.mean == pytest.approx(sparse.mean, rel=1e-9)
        assert direct.std == pytest.approx(sparse.std, rel=1e-9)
