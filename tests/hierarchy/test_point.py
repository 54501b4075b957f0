"""One-point solves: ``solve_point`` equals the one-sample batch solve.

``CompiledHierarchy.solve_point`` answers one sample on Python floats
and one C kernel call per model, or hands it to
``solve_batch(values, n_samples=1).result_at(0)``.  These tests check
that both routes give equal results (dataclass equality, so every float
bit for bit), that the kernel route really answered where it should,
that it makes no NumPy call, and that each fallback case gives the
batch path's result or exception.
"""

import os
import random
import sys
import threading

import pytest

import repro.kernels.cext
from repro import obs
from repro.core.model import MarkovModel
from repro.exceptions import SolverError
from repro.hierarchy import HierarchicalModel
from repro.hierarchy.composer import POINT_SOLVES_COUNTER
from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS, JsasConfiguration
from repro.models.jsas.configs import TABLE3_CONFIGURATIONS
from repro.models.jsas.parameters import UNCERTAINTY_RANGES

#: On a host that cannot build the C kernel every one-point solve takes
#: the batch path: the parity tests still run, the rest skip.
needs_kernel = pytest.mark.skipif(
    not repro.kernels.cext.probe(), reason="needs the C kernel"
)

SHAPES = [JsasConfiguration(n, p) for n, p in TABLE3_CONFIGURATIONS]
SHAPE_IDS = [f"{c.n_instances}as{c.n_pairs}p" for c in SHAPES]


def section7_points(config, n, seed):
    """``n`` seeded points of the paper's Section 7 uncertainty box."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        values = PAPER_PARAMETERS.to_dict()
        for name, (low, high) in sorted(UNCERTAINTY_RANGES.items()):
            values[name] = rng.uniform(low, high)
        points.append(config.merged_values(values))
    return points


def batch_result(compiled, values, **kwargs):
    return compiled.solve_batch(values, n_samples=1, **kwargs).result_at(0)


def point_counts(recorder):
    return {
        path: recorder.metrics.counter(POINT_SOLVES_COUNTER, path=path).value
        for path in ("kernel", "batch")
    }


def answered(calls):
    """The counts of ``calls`` solves that the kernel path must answer
    wherever the host has loaded the C kernel."""
    if repro.kernels.cext.load() is None:
        return {"kernel": 0, "batch": calls}
    return {"kernel": calls, "batch": 0}


def outcome(call):
    """A call's result, or its exception as ``(type, message)``."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("config", SHAPES, ids=SHAPE_IDS)
def test_point_equals_one_sample_batch(config):
    compiled = config.compiled_hierarchy()
    points = section7_points(config, 50, seed=config.n_instances)
    calls = 0
    with obs.observe() as recorder:
        for method in ("auto", "gth"):
            for abstraction in ("mttf", "flow"):
                for values in points:
                    got = compiled.solve_point(
                        values, method=method, abstraction=abstraction
                    )
                    calls += 1
                    assert got == batch_result(
                        compiled, values,
                        method=method, abstraction=abstraction,
                    )
    assert point_counts(recorder) == answered(calls)


@pytest.mark.parametrize("config", SHAPES, ids=SHAPE_IDS)
def test_batch_samples_equal_their_points(config):
    import numpy as np

    compiled = config.compiled_hierarchy()
    points = section7_points(config, 8, seed=100 + config.n_instances)
    columns = {
        name: np.array([values[name] for values in points])
        for name in points[0]
    }
    solution = compiled.solve_batch(columns, n_samples=len(points))
    with obs.observe() as recorder:
        for i, values in enumerate(points):
            assert compiled.solve_point(values) == solution.result_at(i)
    assert point_counts(recorder) == answered(len(points))


class TestCounter:
    @needs_kernel
    def test_paper_point_takes_the_kernel(self):
        with obs.observe() as recorder:
            CONFIG_1.solve(PAPER_PARAMETERS)
        assert point_counts(recorder) == {"kernel": 1, "batch": 0}

    def test_direct_takes_the_batch_path(self):
        """Stacked LU (``direct``) is gone: the batch path refuses it,
        naming the methods that remain, from both entry points."""
        hierarchy = CONFIG_1.hierarchy()
        values = CONFIG_1.merged_values(PAPER_PARAMETERS.to_dict())
        with obs.observe() as recorder:
            for solve in (
                lambda: CONFIG_1.solve(PAPER_PARAMETERS, method="direct"),
                lambda: HierarchicalModel.solve(
                    hierarchy, values, method="direct"
                ),
            ):
                with pytest.raises(
                    SolverError,
                    match=r"'direct'; expected one of "
                    r"\('gth', 'auto', 'banded', 'sparse'\)",
                ):
                    solve()
        assert point_counts(recorder) == {"kernel": 0, "batch": 2}

    def test_no_c_kernel_takes_the_batch_path(self, monkeypatch):
        monkeypatch.setattr(repro.kernels.cext, "load", lambda: None)
        with obs.observe() as recorder:
            CONFIG_1.solve(PAPER_PARAMETERS)
        assert point_counts(recorder) == {"kernel": 0, "batch": 1}

    @needs_kernel
    def test_point_spans(self):
        """The ledger's spans stay; the point path opens no
        ``ctmc.batch_availability``."""
        with obs.observe() as recorder:
            CONFIG_1.solve(PAPER_PARAMETERS)
        names = [r["name"] for r in recorder.records if r["kind"] == "span"]
        assert sorted(names) == sorted([
            "jsas.solve_batch", "hierarchy.solve_batch",
            "hierarchy.submodel", "hierarchy.submodel", "hierarchy.top",
        ])
        solve = next(
            r for r in recorder.records
            if r["kind"] == "span" and r["name"] == "hierarchy.solve_batch"
        )
        assert solve["fields"]["n_samples"] == 1


def reducible_hierarchy():
    """A submodel whose initial state is transient: its all-positive
    pattern is reducible, so every sample needs the batch path's
    classification."""
    sub = MarkovModel("warmup")
    sub.add_state("Boot", reward=1.0)
    sub.add_state("Up", reward=1.0)
    sub.add_state("Down", reward=0.0)
    sub.add_transition("Boot", "Up", "Ls")
    sub.add_transition("Up", "Down", "La")
    sub.add_transition("Down", "Up", "Mu")
    top = MarkovModel("top")
    top.add_state("Ok", reward=1.0)
    top.add_state("Fail", reward=0.0)
    top.add_transition("Ok", "Fail", "La_w")
    top.add_transition("Fail", "Ok", "Mu_w")
    hierarchy = HierarchicalModel(top)
    hierarchy.add_submodel(sub, attribute_states=("Fail",))
    hierarchy.bind("La_w", "warmup", "failure_rate")
    hierarchy.bind("Mu_w", "warmup", "recovery_rate")
    return hierarchy


PAPER_POINT = CONFIG_1.merged_values(PAPER_PARAMETERS.to_dict())


def with_value(name, value):
    values = dict(PAPER_POINT)
    values[name] = value
    return values


def without(name):
    return {k: v for k, v in PAPER_POINT.items() if k != name}


FALLBACKS = {
    "direct": (CONFIG_1, PAPER_POINT, {"method": "direct"}),
    "unknown-method": (CONFIG_1, PAPER_POINT, {"method": "cholesky"}),
    "unknown-abstraction": (CONFIG_1, PAPER_POINT, {"abstraction": "x"}),
    "zero-rate": (CONFIG_1, with_value("FIR", 0.0), {}),
    "negative-rate": (CONFIG_1, with_value("Tstart_long_as", -1.0), {}),
    "zero-division": (CONFIG_1, with_value("Trecovery", 0.0), {}),
    "non-numeric-value": (CONFIG_1, with_value("La_as", "1e-4"), {}),
    "missing-value": (CONFIG_1, without("La_as"), {}),
    "bound-value": (CONFIG_1, with_value("La_appl", 1e-3), {}),
    "banded-11as2p": (
        JsasConfiguration(11, 2),
        JsasConfiguration(11, 2).merged_values(PAPER_PARAMETERS.to_dict()),
        {},
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_matches_batch(case):
    config, values, kwargs = FALLBACKS[case]
    compiled = config.compiled_hierarchy()
    with obs.observe() as recorder:
        got = outcome(lambda: compiled.solve_point(values, **kwargs))
    assert got == outcome(lambda: batch_result(compiled, values, **kwargs))
    assert point_counts(recorder) == {"kernel": 0, "batch": 1}


def test_reducible_pattern_matches_batch():
    compiled = reducible_hierarchy().compile()
    values = {"Ls": 2.0, "La": 0.01, "Mu": 1.0}
    with obs.observe() as recorder:
        got = outcome(lambda: compiled.solve_point(values))
    assert got == outcome(lambda: batch_result(compiled, values))
    assert point_counts(recorder) == {"kernel": 0, "batch": 1}


def test_no_c_kernel_matches_batch(monkeypatch):
    compiled = CONFIG_1.compiled_hierarchy()
    expected = compiled.solve_point(PAPER_POINT)
    monkeypatch.setattr(repro.kernels.cext, "load", lambda: None)
    with obs.observe() as recorder:
        got = compiled.solve_point(PAPER_POINT)
    assert got == batch_result(compiled, PAPER_POINT) == expected
    assert point_counts(recorder) == {"kernel": 0, "batch": 1}


def test_threads_match_sequential():
    """4 threads x 200 points: the kernel runs without the GIL on
    per-call ctypes buffers, so concurrent solves share nothing."""
    config = JsasConfiguration(4, 4)
    compiled = config.compiled_hierarchy()
    points = section7_points(config, 800, seed=44)
    expected = [compiled.solve_point(values) for values in points]
    got = [None] * len(points)

    def run(offset):
        for i in range(offset, len(points), 4):
            got[i] = compiled.solve_point(points[i])

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def numpy_calls(call):
    """Python frames of the numpy package, and C calls whose function
    or owner belongs to numpy, seen while ``call`` runs."""
    marker = os.sep + "numpy" + os.sep
    seen = []

    def owner_module(function):
        owner = getattr(function, "__self__", None)
        if owner is None:
            return ""
        return getattr(owner, "__name__", None) if isinstance(
            owner, type(sys)
        ) else type(owner).__module__

    def profile(frame, event, arg):
        if event == "call" and marker in frame.f_code.co_filename:
            seen.append(frame.f_code.co_filename)
        elif event == "c_call":
            names = (getattr(arg, "__module__", None), owner_module(arg))
            if any((name or "").split(".")[0] == "numpy" for name in names):
                seen.append(repr(arg))

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, seen


def floats_of(result):
    """Every number a :class:`HierarchicalResult` carries."""
    def of(detail):
        yield from (
            detail.availability, detail.yearly_downtime_minutes,
            detail.mtbf_hours, detail.mttr_hours,
            detail.failure_rate, detail.recovery_rate,
        )
        yield from detail.state_probabilities.values()
        yield from detail.downtime_by_state.values()

    yield from of(result.system)
    yield from result.bound_parameters.values()
    for report in result.submodels.values():
        yield report.downtime_minutes
        yield report.downtime_fraction
        interface = report.interface
        yield from (
            interface.failure_rate, interface.recovery_rate,
            interface.availability,
        )
        yield from of(interface.detail)


@needs_kernel
@pytest.mark.parametrize("config", SHAPES, ids=SHAPE_IDS)
def test_success_path_calls_no_numpy(config):
    compiled = config.compiled_hierarchy()
    values = section7_points(config, 1, seed=7)[0]
    compiled.solve_point(values)  # warm: plans built
    result, seen = numpy_calls(lambda: compiled.solve_point(values))
    assert seen == []
    assert {type(x) for x in floats_of(result)} == {float}


def test_profiler_sees_numpy():
    """The probe is live: it reports the calls a NumPy path makes."""
    import numpy as np

    def numpy_work():
        with np.errstate(divide="ignore"):
            return np.empty(3).min()

    _, seen = numpy_calls(numpy_work)
    assert any("errstate" in s or "_ufunc_config" in s for s in seen)
    assert any("empty" in s for s in seen)
    assert any("min" in s for s in seen)
