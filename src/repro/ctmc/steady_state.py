"""Steady-state (stationary) distribution solvers.

Two general algorithms are provided:

* ``"direct"`` — replace one balance equation with the normalization
  constraint and solve the dense/sparse linear system with LU.  Fast and
  accurate for the model sizes in this library.
* ``"gth"`` — the Grassmann–Taksar–Heyman elimination, which avoids
  subtractions entirely and is numerically robust for *stiff* chains where
  rates span many orders of magnitude (availability models routinely mix
  per-year failure rates with per-minute repair rates — eight orders of
  magnitude in this paper's models).

A structure-exploiting method extends the reach to large state spaces:

* ``"banded"`` — the batch engine's banded kernel
  (:mod:`repro.kernels.banded`: C GTH elimination restricted to the
  generator's band plus the column-0 repair spike, or LAPACK band-LU on
  a host with no C compiler); O(n b^2) instead of O(n^3).  Only valid
  for banded-plus-spike chains (the generalized N-instance AS model,
  birth-death chains; see :mod:`repro.ctmc.sparse`).

``"auto"`` picks for you: banded when the structure is detected on a
chain of :data:`~repro.ctmc.sparse.BANDED_MIN_STATES` states or more
(the batch engine's cutover too), otherwise direct.  All methods agree
to tight tolerances on the paper's models; the property tests in
``tests/ctmc/test_steady_state.py`` and ``tests/ctmc/test_sparse.py``
enforce this on random chains.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.core.model import MarkovModel
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.ctmc.sparse import (
    BANDED_MIN_STATES,
    MAX_BANDWIDTH,
    BandedStructure,
    _generator_coo,
    detect_banded_structure,
)
from repro.ctmc.structure import classify_states
from repro.exceptions import SolverError, StructureError
from repro.kernels.banded import BandedKernelPlan, banded_steady_state

Method = str  # "direct" | "gth" | "banded" | "auto"


def steady_state_vector(
    generator: GeneratorMatrix,
    method: Method = "direct",
    check_structure: bool = True,
) -> np.ndarray:
    """Solve ``pi Q = 0``, ``sum(pi) = 1`` for an irreducible generator.

    Args:
        generator: The bound generator matrix.
        method: One of ``"direct"``, ``"gth"``, ``"banded"`` or
            ``"auto"``.
        check_structure: Verify the chain has a single recurrent class
            covering all states before solving.  Disable only when the
            caller has already checked.

    Returns:
        The stationary probability vector, in ``generator.state_names``
        order.

    Raises:
        StructureError: If the chain is reducible (no unique stationary
            distribution over the full state space).
        SolverError: If the linear algebra fails or the result is not a
            probability vector.
    """
    if method not in ("direct", "gth", "banded", "auto"):
        raise SolverError(
            f"unknown steady-state method {method!r}; "
            "expected 'direct', 'gth', 'banded' or 'auto'"
        )
    if check_structure:
        classification = classify_states(generator)
        if not classification.has_single_recurrent_class:
            raise StructureError(
                f"model {generator.model_name!r} has "
                f"{len(classification.recurrent_classes)} recurrent "
                "classes; the stationary distribution is not unique"
            )
        if classification.transient_states:
            # A unique stationary distribution still exists: zero mass on
            # the transient states, solve within the recurrent class.
            # This arises naturally when a parameterization switches off
            # a feature (e.g. a maintenance rate of zero makes the
            # Maintenance state unreachable).
            recurrent = list(classification.recurrent_classes[0])
            if len(recurrent) == 1:
                pi = np.zeros(generator.n_states)
                pi[generator.index_of(recurrent[0])] = 1.0
                return pi
            block = generator.restricted(recurrent)
            block_pi = steady_state_vector(
                block, method=method, check_structure=False
            )
            pi = np.zeros(generator.n_states)
            for name, mass in zip(recurrent, block_pi):
                pi[generator.index_of(name)] = mass
            return pi
    requested = method
    arcs = structure = None
    if method == "banded" or (
        method == "auto" and generator.n_states >= BANDED_MIN_STATES
    ):
        arcs = _generator_coo(generator)
        structure = detect_banded_structure(
            generator.n_states, arcs[0], arcs[1]
        )
    if method == "auto":
        method = "direct" if structure is None else "banded"
    if obs.enabled():
        obs.counter("ctmc_steady_state_solves_total", method=method).inc()
        if requested == "auto":
            obs.event(
                "ctmc.method_auto",
                model=generator.model_name,
                chosen=method,
                n_states=generator.n_states,
            )
    if method == "direct":
        pi = _solve_direct(generator)
    elif method == "gth":
        pi = _solve_gth(generator)
    else:
        pi = _solve_banded(generator, arcs, structure)
    _check_probability_vector(pi, generator, tol=1e-8)
    return pi


def solve_steady_state(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
    method: Method = "direct",
    **kwargs,
) -> Dict[str, float]:
    """Convenience wrapper returning ``{state_name: probability}``.

    Accepts either a :class:`~repro.core.model.MarkovModel` plus parameter
    values, or an already-built :class:`GeneratorMatrix`.
    """
    generator = as_generator(model_or_generator, values)
    pi = steady_state_vector(generator, method=method, **kwargs)
    return dict(zip(generator.state_names, pi.tolist()))


# Implementations ----------------------------------------------------------


def _solve_direct(generator: GeneratorMatrix) -> np.ndarray:
    """Replace the last balance equation with normalization and LU-solve."""
    n = generator.n_states
    if generator.is_sparse:
        a = sp.lil_matrix(generator.matrix.T)
        a[n - 1, :] = 1.0
        b = np.zeros(n)
        b[n - 1] = 1.0
        try:
            pi = spla.spsolve(a.tocsr(), b)
        except Exception as exc:  # pragma: no cover - scipy error paths vary
            raise SolverError(f"sparse steady-state solve failed: {exc}") from exc
    else:
        a = generator.dense().T
        a[n - 1, :] = 1.0
        b = np.zeros(n)
        b[n - 1] = 1.0
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"steady-state system is singular for model "
                f"{generator.model_name!r}: {exc}"
            ) from exc
    return np.asarray(pi, dtype=float)


def _solve_banded(
    generator: GeneratorMatrix,
    arcs: Tuple[np.ndarray, np.ndarray, np.ndarray],
    structure: Optional[BandedStructure],
) -> np.ndarray:
    """The batch engine's banded kernel on one generator's arcs."""
    if structure is None:
        raise SolverError(
            f"model {generator.model_name!r} has no banded-plus-spike "
            f"structure (bandwidth over {MAX_BANDWIDTH} or too few "
            "states); use method='direct' or 'gth'"
        )
    sources, targets, rates = arcs
    plan = BandedKernelPlan(structure, sources, targets)
    return banded_steady_state(plan, rates[None, :])[0]


def _solve_gth(generator: GeneratorMatrix) -> np.ndarray:
    """Grassmann–Taksar–Heyman elimination (subtraction-free, O(n^3)).

    The classic formulation works on dense matrices; availability models
    are small enough (tens to hundreds of states) that densifying is fine.
    """
    return _gth_reference(generator.dense())


def _gth_reference(q: np.ndarray) -> np.ndarray:
    """Textbook GTH on a dense generator; returns the stationary vector."""
    n = q.shape[0]
    a = q.copy().astype(float)
    np.fill_diagonal(a, 0.0)
    for k in range(n - 1, 0, -1):
        total = a[k, :k].sum()
        if total <= 0.0:
            raise SolverError(
                "GTH elimination failed: no transition from eliminated "
                "state back into the remaining block (reducible chain?)"
            )
        # Scale the column entering state k (not the row): the update then
        # adds the exact probability flow through the eliminated state,
        # and the scaled column is what back substitution needs.
        a[:k, k] /= total
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = float(np.dot(pi[:k], a[:k, k]))
    pi /= pi.sum()
    return pi


def _check_probability_vector(
    pi: np.ndarray, generator: GeneratorMatrix, tol: float
) -> None:
    if not np.all(np.isfinite(pi)):
        raise SolverError(
            f"steady-state solve produced non-finite probabilities for "
            f"model {generator.model_name!r}"
        )
    if pi.min() < -tol:
        raise SolverError(
            f"steady-state solve produced negative probability "
            f"{pi.min():.3e} for model {generator.model_name!r}"
        )
    if abs(pi.sum() - 1.0) > 1e-6:
        raise SolverError(
            f"steady-state probabilities sum to {pi.sum()!r}, not 1, for "
            f"model {generator.model_name!r}"
        )
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
