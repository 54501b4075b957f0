"""The dense GTH kernel against an exact rational oracle.

The oracle is a test-only ``Fraction`` solve of small chains: pi from the
balance equations, and the MTTF from ``Q_UU m = -1``.  Every float rate
is exact as a Fraction, and each diagonal entry is the exact sum of the
row's off-diagonal rates, exits included, so the oracle carries no
rounding at all.  (A reference built on the float generator's diagonal
inherits its last-bit rounding, which moves the near-singular MTTF
system of a large AS submodel by ~1e-3.)

pi, Lambda and Mu are checked on both kernel paths (C, and the NumPy
path a host without a compiler takes) at the paper's parameters and at
sample 250 of the seed-0, 1,000-sample draw of the 10/10 configuration,
the sample whose stacked-LU down mass came out 0 and crashed the
paper's Section 7 protocol.  From 32 states (AS 11/2 and up) ``auto``
runs the banded kernel, and the AS submodels of 11/2, 12/2 and 16/2
check its pi and its renewal-closure Lambda under both repair policies.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.compiled import compile_model
from repro.ctmc.batch import batch_availability
from repro.ctmc.generator import build_generator
from repro.ctmc.rewards import steady_state_availability
from repro.kernels import cext
from repro.models.jsas.configs import build_uncertainty_analysis
from repro.models.jsas.parameters import PAPER_PARAMETERS
from repro.models.jsas.system import JsasConfiguration
from repro.uncertainty.sampling import monte_carlo_matrix

#: Relative bounds, set from measurement: the worst kernel error on the
#: cases below is 1.3e-15 for pi (AS 9/9), 8.6e-16 for Lambda (sample
#: 250) and 0 for Mu, on the C and NumPy paths alike.  Stacked LU, which
#: ``auto`` ran on these chains before, misses pi by 3.0e-9 and Lambda
#: by 7.6e-9 at AS 4/4, pi by 2.2e-3 and Lambda by 8.5e-5 at 10/10, and
#: sample 250's down mass entirely.
PI_RTOL = 1e-14
LAMBDA_RTOL = 1e-14
MU_RTOL = 1e-15

#: Lambda of the banded engine (renewal closure through the banded
#: kernel), set from measurement on the banded cases below: worst
#: 5.6e-16 on the C path and 1.3e-15 on the LAPACK path (pi 1.3e-15,
#: Mu exact).  The up-block solve it replaced missed by 2.5e-3 at
#: sequential 11/2 and by a factor of 19.8 at parallel 16/2.
BANDED_LAMBDA_RTOL = 4e-15


@pytest.fixture(params=["c", "numpy"])
def kernel_path(request, monkeypatch):
    """Run on the C kernel, then with it faked unavailable (NumPy)."""
    if request.param == "c":
        if cext.load() is None:
            pytest.skip("the C kernel cannot be built on this host")
    else:
        monkeypatch.setattr(cext, "load", lambda: None)
    return request.param


def _solve_exact(a, b):
    """Gaussian elimination over Fractions (any non-zero pivot is exact)."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / head[col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = rows[r][n] - sum(rows[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / rows[r][r]
    return x


def exact_interface(generator):
    """Exact ``(pi, Lambda, Mu)`` of a generator (MTTF abstraction)."""
    q = generator.dense()
    n = q.shape[0]
    rate = [
        [Fraction(float(q[i, j])) if i != j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        rate[i][i] = -sum(rate[i][j] for j in range(n) if j != i)
    # pi Q = 0 with the last balance equation replaced by sum(pi) = 1.
    a = [[rate[j][i] for j in range(n)] for i in range(n - 1)]
    a.append([Fraction(1)] * n)
    pi = _solve_exact(a, [Fraction(0)] * (n - 1) + [Fraction(1)])
    up = [bool(u) for u in generator.up_mask()]
    ups = [i for i in range(n) if up[i]]
    downs = [i for i in range(n) if not up[i]]
    flow_up = sum(pi[j] * rate[j][i] for j in downs for i in ups)
    mu = flow_up / sum(pi[j] for j in downs)
    # Mean time to the down set from every up state: Q_UU m = -1.
    m = _solve_exact(
        [[rate[i][j] for j in ups] for i in ups], [Fraction(-1)] * len(ups)
    )
    return pi, 1 / m[0], mu


def _as_floats(pi):
    return np.array([float(p) for p in pi])


def _shapes():
    values = PAPER_PARAMETERS.to_dict()
    cases = []
    for n in range(2, 11):
        config = JsasConfiguration(n, n)
        cases.append(
            (f"as{n}", config.build_appserver_submodel(),
             config.merged_values(values))
        )
    hadb = JsasConfiguration(2, 2).hierarchy().submodel("hadb")
    cases.append(("hadb", hadb, JsasConfiguration(2, 2).merged_values(values)))
    return cases


def _sample_250_values():
    """Sample 250 of ``uncertainty --instances 10 --pairs 10 --samples
    1000 --seed 0`` (the analysis draws all its columns up front)."""
    config = JsasConfiguration(10, 10)
    analysis = build_uncertainty_analysis(config)
    columns = monte_carlo_matrix(
        analysis.distributions, 1000, np.random.default_rng(0)
    )
    values = PAPER_PARAMETERS.to_dict()
    values.update({name: float(col[250]) for name, col in columns.items()})
    return config.build_appserver_submodel(), config.merged_values(values)


CASES = _shapes() + [("as10-seed0-sample250", *_sample_250_values())]


def _assert_matches(pi, lam, mu, exact):
    exact_pi, exact_lam, exact_mu = exact
    expected = _as_floats(exact_pi)
    np.testing.assert_allclose(pi, expected, rtol=PI_RTOL, atol=0.0)
    # abs=0: pytest's default absolute tolerance (1e-12) would swamp
    # Lambda (4.6e-10 at AS 4/4, 6.2e-15 at 10/10).
    assert lam == pytest.approx(float(exact_lam), rel=LAMBDA_RTOL, abs=0.0)
    assert mu == pytest.approx(float(exact_mu), rel=MU_RTOL, abs=0.0)


@pytest.mark.parametrize(
    "name,model,values", CASES, ids=[case[0] for case in CASES]
)
def test_kernel_matches_exact_oracle(kernel_path, name, model, values):
    exact = exact_interface(build_generator(model, values))
    batch = batch_availability(
        compile_model(model), values, n_samples=1, method="auto"
    )
    _assert_matches(
        batch.pis[0], batch.failure_rate[0], batch.recovery_rate[0], exact
    )
    scalar = steady_state_availability(model, values, method="auto")
    assert scalar.failure_rate == batch.failure_rate[0]
    assert scalar.recovery_rate == batch.recovery_rate[0]
    assert scalar.availability == batch.availability[0]


def _banded_shapes():
    values = PAPER_PARAMETERS.to_dict()
    for policy in ("sequential", "parallel"):
        for n in (11, 12, 16):
            config = JsasConfiguration(n, 2, repair_policy=policy)
            yield (
                f"{policy}-as{n}", config.build_appserver_submodel(),
                config.merged_values(values),
            )


BANDED_CASES = list(_banded_shapes())


@pytest.mark.parametrize(
    "name,model,values", BANDED_CASES, ids=[case[0] for case in BANDED_CASES]
)
def test_banded_engine_matches_exact_oracle(kernel_path, name, model, values):
    """``auto`` on 32 states or more: the banded kernel's pi and its
    renewal-closure Lambda, batch and scalar; the two agree bit for bit
    on the C path."""
    exact_pi, exact_lam, exact_mu = exact_interface(
        build_generator(model, values)
    )
    batch = batch_availability(
        compile_model(model), values, n_samples=1, method="auto"
    )
    scalar = steady_state_availability(model, values, method="auto")
    scalar_pi = [scalar.state_probabilities[s] for s in batch.state_names]
    for pi, lam, mu in (
        (batch.pis[0], batch.failure_rate[0], batch.recovery_rate[0]),
        (scalar_pi, scalar.failure_rate, scalar.recovery_rate),
    ):
        np.testing.assert_allclose(
            pi, _as_floats(exact_pi), rtol=PI_RTOL, atol=0.0
        )
        assert lam == pytest.approx(
            float(exact_lam), rel=BANDED_LAMBDA_RTOL, abs=0.0
        )
        assert mu == pytest.approx(float(exact_mu), rel=MU_RTOL, abs=0.0)
    if kernel_path == "c":
        assert scalar.failure_rate == batch.failure_rate[0]
        assert scalar.availability == batch.availability[0]


def test_sample_250_down_mass_is_positive():
    """Stacked LU returned exactly 0 here, read as "down states
    unreachable", which made ``Mu_appl`` infinite."""
    model, values = _sample_250_values()
    batch = batch_availability(model, values, n_samples=1, method="auto")
    assert batch.unavailability[0] > 0.0
    assert np.isfinite(batch.recovery_rate[0])


def test_section7_protocol_answers_at_10_10():
    """``uncertainty --instances 10 --pairs 10 --samples 1000 --seed 0``
    raised ``ModelError`` on ``Mu_appl`` at sample 250."""
    analysis = build_uncertainty_analysis(JsasConfiguration(10, 10))
    result = analysis.run(n_samples=1000, seed=0)
    values = np.asarray(result.values)
    assert values.shape == (1000,)
    assert np.isfinite(values).all() and (values > 0.0).all()
