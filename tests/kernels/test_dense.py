"""Dense GTH kernel: path parity, arc-order independence, flags, threads.

Every property runs on both paths a host can take: the C kernel, and
the NumPy twin a host without a working compiler falls back to.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.compiled import compile_model
from repro.kernels import cext
from repro.kernels.dense import (
    DenseKernelPlan,
    _dense_gth_numpy,
    dense_gth,
    dense_kernel_plan,
)
from repro.models.jsas import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration


@pytest.fixture(params=["c", "numpy"])
def dense_path(request, monkeypatch):
    """Run on the C kernel, then with it faked unavailable (NumPy)."""
    if request.param == "c":
        if cext.load() is None:
            pytest.skip("the C kernel cannot be built on this host")
    else:
        monkeypatch.setattr(cext, "load", lambda: None)
    return request.param


def _appserver_rates(n_samples, n_instances=10, seed=0):
    config = JsasConfiguration(n_instances, n_instances)
    compiled = compile_model(config.build_appserver_submodel())
    values = config.merged_values(PAPER_PARAMETERS.to_dict())
    rates = compiled.rate_matrix(values, 1)
    rng = np.random.default_rng(seed)
    return compiled, rates * rng.uniform(0.5, 2.0, (n_samples, rates.shape[1]))


@pytest.mark.parametrize("mttf", [True, False])
def test_c_and_numpy_paths_agree_bit_for_bit(mttf):
    if cext.load() is None:
        pytest.skip("the C kernel cannot be built on this host")
    compiled, rates = _appserver_rates(64)
    plan = dense_kernel_plan(compiled)
    c_out = dense_gth(plan, rates, mttf)
    numpy_out = _dense_gth_numpy(plan, rates, mttf)
    for c_value, numpy_value in zip(c_out, numpy_out):
        assert (c_value == numpy_value).all()


def test_arc_order_cannot_move_a_bit(dense_path):
    compiled, rates = _appserver_rates(16)
    plan = dense_kernel_plan(compiled)
    order = np.random.default_rng(1).permutation(rates.shape[1])
    shuffled = DenseKernelPlan(
        plan.n, plan.sources[order], plan.targets[order], plan.up == 1
    )
    for listed, reordered in zip(
        dense_gth(plan, rates, True), dense_gth(shuffled, rates[:, order], True)
    ):
        assert (listed == reordered).all()


def test_non_positive_rate_is_flagged(dense_path):
    compiled, rates = _appserver_rates(3)
    rates[1, 0] = 0.0
    status = dense_gth(dense_kernel_plan(compiled), rates, True)[3]
    assert status.tolist() == [0.0, 3.0, 0.0]


def test_reducible_chain_is_flagged(dense_path):
    # 0 <-> 1, and 2 is absorbing: no unique stationary vector.
    plan = DenseKernelPlan(3, [0, 1, 1], [1, 0, 2], [True, True, False])
    status = dense_gth(plan, np.ones((1, 3)), False)[3]
    assert status.tolist() == [1.0]


def test_concurrent_calls_match_serial(dense_path):
    """The GIL is released inside the C call; scratch is per call."""
    compiled, rates = _appserver_rates(8)
    plan = dense_kernel_plan(compiled)
    expected = dense_gth(plan, rates, True)
    mismatches = []

    def worker():
        for _ in range(50):
            got = dense_gth(plan, rates, True)
            if not all((g == e).all() for g, e in zip(got, expected)):
                mismatches.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not mismatches
