"""Transient analysis: state probabilities and rewards at finite times.

Two complementary algorithms:

* **Uniformization** (a.k.a. Jensen's method / randomization): expresses
  ``pi(t) = pi(0) e^{Qt}`` as a Poisson-weighted mixture of DTMC powers.
  Numerically robust (all quantities non-negative) with a computable
  truncation error; the default.
* **Matrix exponential** via ``scipy.linalg.expm``; an independent
  implementation used to cross-check uniformization in the tests.

Also provides *interval availability* — the expected fraction of [0, t]
spent in up states — computed by integrating the transient reward with
the standard augmented-uniformization recurrence.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.model import MarkovModel
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.exceptions import SolverError

Method = str  # "uniformization" | "expm"


def _initial_vector(
    generator: GeneratorMatrix,
    initial: Union[str, Mapping[str, float], Sequence[float], None],
) -> np.ndarray:
    """Normalize the many accepted initial-distribution spellings."""
    n = generator.n_states
    if initial is None:
        # Default: start in the first state (conventionally the all-up state).
        vec = np.zeros(n)
        vec[0] = 1.0
        return vec
    if isinstance(initial, str):
        vec = np.zeros(n)
        vec[generator.index_of(initial)] = 1.0
        return vec
    if isinstance(initial, Mapping):
        vec = np.zeros(n)
        for name, mass in initial.items():
            vec[generator.index_of(name)] = float(mass)
    else:
        vec = np.asarray(initial, dtype=float)
        if vec.shape != (n,):
            raise SolverError(
                f"initial distribution has length {vec.shape}, expected {n}"
            )
    if vec.min() < 0.0 or abs(vec.sum() - 1.0) > 1e-9:
        raise SolverError(
            "initial distribution must be non-negative and sum to 1"
        )
    return vec


def transient_distribution(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    t: float,
    values: Optional[Mapping[str, float]] = None,
    initial: Union[str, Mapping[str, float], Sequence[float], None] = None,
    method: Method = "uniformization",
    tol: float = 1e-12,
) -> Dict[str, float]:
    """State probabilities at time ``t``.

    Args:
        model_or_generator: Model (with ``values``) or bound generator.
        t: Time horizon (hours), ``>= 0``.
        values: Parameter values if a model was passed.
        initial: Initial distribution: a state name, a mapping, a vector,
            or None for "first state with probability one".
        method: ``"uniformization"`` (default) or ``"expm"``.
        tol: Truncation error bound for uniformization.

    Returns:
        ``{state_name: probability}`` at time ``t``.
    """
    generator = as_generator(model_or_generator, values)
    if t < 0.0:
        raise SolverError(f"time must be non-negative, got {t}")
    p0 = _initial_vector(generator, initial)
    if t == 0.0:
        return dict(zip(generator.state_names, p0.tolist()))
    if method == "uniformization":
        pt = _uniformization(generator, p0, t, tol)
    elif method == "expm":
        from scipy.linalg import expm

        pt = p0 @ expm(generator.dense() * t)
    else:
        raise SolverError(
            f"unknown transient method {method!r}; "
            "expected 'uniformization' or 'expm'"
        )
    pt = np.clip(pt, 0.0, None)
    pt /= pt.sum()
    return dict(zip(generator.state_names, pt.tolist()))


def transient_reward(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    t: float,
    values: Optional[Mapping[str, float]] = None,
    initial: Union[str, Mapping[str, float], Sequence[float], None] = None,
    method: Method = "uniformization",
) -> float:
    """Expected instantaneous reward rate at time ``t``.

    For a pure availability model (rewards in {0, 1}) this is the
    *point availability* A(t).
    """
    generator = as_generator(model_or_generator, values)
    distribution = transient_distribution(
        generator, t, initial=initial, method=method
    )
    return float(
        sum(
            distribution[name] * reward
            for name, reward in zip(generator.state_names, generator.rewards)
        )
    )


def interval_availability(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    t: float,
    values: Optional[Mapping[str, float]] = None,
    initial: Union[str, Mapping[str, float], Sequence[float], None] = None,
    tol: float = 1e-12,
) -> float:
    """Expected fraction of [0, t] spent earning reward.

    Computed as ``(1/t) * E[∫_0^t r(X_s) ds]`` using the uniformization
    integral recurrence.  For rewards in {0, 1} this is the classic
    interval availability studied in the RAScad companion paper [18].
    """
    generator = as_generator(model_or_generator, values)
    if t <= 0.0:
        raise SolverError(f"interval length must be positive, got {t}")
    p0 = _initial_vector(generator, initial)
    accumulated = _uniformization_integral(generator, p0, t, tol)
    reward = float(np.dot(accumulated, generator.rewards))
    return reward / t


# Uniformization internals ---------------------------------------------------


def _uniformized_dtmc(generator: GeneratorMatrix):
    exit_rates = generator.exit_rates()
    lam = float(exit_rates.max())
    if lam <= 0.0:
        raise SolverError("generator has no transitions; chain is degenerate")
    lam *= 1.02  # slack keeps diagonal entries strictly positive (aperiodic)
    n = generator.n_states
    if generator.is_sparse:
        import scipy.sparse as sp

        p = sp.identity(n, format="csr") + generator.matrix / lam
    else:
        p = np.eye(n) + generator.dense() / lam
    return p, lam


#: Uniformization cost is O(lambda * t) matrix-vector products; beyond
#: this many terms a transient question is better answered by the
#: steady-state solver (the chain has long since mixed).
MAX_UNIFORMIZATION_TERMS = 20_000_000


def _poisson_truncation(rate: float, tol: float) -> int:
    """Truncation point with Poisson(rate) tail mass far below tol.

    ``rate + 8 sqrt(rate) + 20`` puts the tail at ~1e-15 for any rate
    (8-sigma normal tail plus slack for small rates), comfortably below
    the default 1e-12 tolerance.
    """
    if rate <= 0.0:
        return 0
    k_max = int(rate + 8.0 * math.sqrt(rate) + 20.0)
    if k_max > MAX_UNIFORMIZATION_TERMS:
        raise SolverError(
            f"uniformization would need ~{k_max:.2e} terms "
            f"(lambda*t = {rate:.2e}); the horizon is far past the "
            "chain's mixing time — use the steady-state solver instead, "
            "or split the horizon"
        )
    return k_max


def _poisson_window(rate: float, tol: float):
    """Fox–Glynn-style Poisson weight window.

    Returns ``(left, right, weights)`` where ``weights[k - left]`` is the
    Poisson(rate) pmf at ``k`` for ``k`` in ``[left, right]``.  The mass
    outside the window is below ~1e-15 on each side (8-sigma bounds), so
    the uniformization loop can skip accumulation below ``left`` and stop
    at ``right``.  Weights are evaluated in one vectorized ``gammaln``
    pass instead of a per-term log/exp recurrence.
    """
    from scipy.special import gammaln

    right = _poisson_truncation(rate, tol)
    left = max(0, int(rate - 8.0 * math.sqrt(rate) - 20.0))
    ks = np.arange(left, right + 1, dtype=float)
    log_weights = ks * math.log(rate) - rate - gammaln(ks + 1.0)
    with np.errstate(under="ignore"):
        weights = np.exp(log_weights)
    return left, right, weights


def _uniformization(
    generator: GeneratorMatrix, p0: np.ndarray, t: float, tol: float
) -> np.ndarray:
    p, lam = _uniformized_dtmc(generator)
    rate = lam * t
    left, right, weights = _poisson_window(rate, tol)
    cum_weights = np.cumsum(weights)
    vector = p0.copy()
    result = np.zeros_like(vector)
    cumulative = 0.0
    if left == 0:
        result += weights[0] * vector
        cumulative = cum_weights[0]
    # Run to the analytic truncation point; stop early once the Poisson
    # mass is accounted for.  Floating-point summation of ~1e3 weights can
    # plateau a hair below 1 - tol, so the window's right edge (tail <
    # 1e-15) is the authoritative stop, not the cumulative check.  Below
    # the window's left edge only the DTMC powers advance — the weights
    # there are negligible by construction.
    for k in range(1, right + 1):
        vector = vector @ p
        if hasattr(vector, "ravel"):
            vector = np.asarray(vector).ravel()
        if k < left:
            continue
        weight = weights[k - left]
        if weight > 0.0:
            result = result + weight * vector
            cumulative = cum_weights[k - left]
            if cumulative >= 1.0 - tol and k >= rate:
                break
    # Renormalize the truncated mixture so truncation error cannot leak
    # probability mass.
    if cumulative > 0.0:
        result = result / cumulative
    return np.asarray(result, dtype=float)


def _uniformization_integral(
    generator: GeneratorMatrix, p0: np.ndarray, t: float, tol: float
) -> np.ndarray:
    """``∫_0^t p(s) ds`` via the standard augmented recurrence.

    Uses the identity
    ``∫_0^t p(s) ds = (1/lam) * sum_{k>=0} P_tail(k) * p0 P^k``
    where ``P_tail(k) = P(Poisson(lam t) > k)``.  Below the Fox–Glynn
    window the tail is 1 to within the truncation error, so those terms
    add the DTMC power unweighted.
    """
    p, lam = _uniformized_dtmc(generator)
    rate = lam * t
    left, right, weights = _poisson_window(rate, tol)
    cum_weights = np.cumsum(weights)
    vector = p0.copy()
    tail0 = 1.0 if left > 0 else max(0.0, 1.0 - cum_weights[0])
    integral = tail0 * vector
    for k in range(1, right + 1):
        vector = vector @ p
        if hasattr(vector, "ravel"):
            vector = np.asarray(vector).ravel()
        if k < left:
            tail = 1.0
        else:
            tail = max(0.0, 1.0 - cum_weights[k - left])
        if tail == 0.0 and k >= rate:
            break
        integral = integral + tail * vector
    return np.asarray(integral, dtype=float) / lam
