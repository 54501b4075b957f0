"""Steady-state (stationary) distribution solvers.

Every method runs one of the batch engine's solvers on the generator's
arcs, so a scalar solve and a batch solve of the same chain agree: bit
for bit on the dense kernel and on the C band path, to rounding on the
LAPACK band path and in sparse LU.

* ``"gth"`` — the Grassmann–Taksar–Heyman elimination, which avoids
  subtractions entirely and is numerically robust for *stiff* chains
  where rates span many orders of magnitude (availability models
  routinely mix per-year failure rates with per-minute repair rates —
  eight orders of magnitude in this paper's models).  It runs the dense
  kernel (:mod:`repro.kernels.dense`) with one sample.
* ``"banded"`` — the banded kernel (:mod:`repro.kernels.banded`: C GTH
  elimination restricted to the generator's band plus the column-0
  repair spike, or LAPACK band-LU on a host with no C compiler);
  O(n b^2) instead of O(n^3).  Only valid for banded-plus-spike chains
  (the generalized N-instance AS model, birth-death chains; see
  :mod:`repro.ctmc.sparse`).
* ``"sparse"`` — sparse LU with a symbolic pattern
  (:class:`~repro.ctmc.sparse.SparseSteadyStateSolver`), for large
  chains without a band.

``"auto"`` (the default) picks for you: banded when the structure is
detected on a chain of :data:`~repro.ctmc.sparse.BANDED_MIN_STATES`
states or more (the batch engine's cutover too), sparse on a sparse
generator without that structure, otherwise gth.  The property tests in
``tests/ctmc/test_steady_state.py`` and ``tests/ctmc/test_sparse.py``
check the methods against closed forms and each other, and
``tests/ctmc/test_exact_oracle.py`` checks ``auto`` against an exact
rational solve.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.model import MarkovModel
from repro.ctmc.generator import GeneratorMatrix, as_generator
from repro.ctmc.sparse import (
    BANDED_MIN_STATES,
    MAX_BANDWIDTH,
    BandedStructure,
    SparseSteadyStateSolver,
    _generator_coo,
    detect_banded_structure,
)
from repro.ctmc.structure import classify_states
from repro.exceptions import SolverError, StructureError
from repro.kernels.banded import BandedKernelPlan, banded_steady_state
from repro.kernels.dense import DenseKernelPlan, dense_gth

Method = str  # one of BATCH_METHODS

#: Methods every steady-state solver accepts, scalar and batch.  "gth"
#: and "auto" keep the dense kernel below the cutovers, "banded" and
#: "sparse" force a structured engine at any size.
BATCH_METHODS = ("gth", "auto", "banded", "sparse")

#: ``(Lambda, Mu, P(up), P(down))`` as the dense kernel computed them
#: alongside the vector.
Interface = Optional[Tuple[float, float, float, float]]


def steady_state_vector(
    generator: GeneratorMatrix,
    method: Method = "auto",
    check_structure: bool = True,
) -> np.ndarray:
    """Solve ``pi Q = 0``, ``sum(pi) = 1`` for an irreducible generator.

    Args:
        generator: The bound generator matrix.
        method: One of :data:`BATCH_METHODS`.
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
    return _solve(generator, method, check_structure)[0]


def _solve(
    generator: GeneratorMatrix,
    method: Method,
    check_structure: bool = True,
    mttf: bool = False,
) -> Tuple[np.ndarray, Method, Interface]:
    """:func:`steady_state_vector`, plus what the reward layer needs.

    Returns ``(pi, resolved, interface)``: the vector, the method that
    ran (``"auto"`` resolved), and the dense kernel's :data:`Interface`
    when it solved the whole chain (``mttf`` picks Lambda's semantics),
    else ``None``.
    """
    if method not in BATCH_METHODS:
        raise SolverError(
            f"unknown steady-state method {method!r}; "
            f"expected one of {BATCH_METHODS}"
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
            pi = np.zeros(generator.n_states)
            if len(recurrent) == 1:
                # No flow leaves a lone recurrent state: no MTTF needed.
                pi[generator.index_of(recurrent[0])] = 1.0
                return pi, method, None
            block = generator.restricted(recurrent)
            block_pi, resolved, _ = _solve(
                block, method, check_structure=False
            )
            for name, mass in zip(recurrent, block_pi):
                pi[generator.index_of(name)] = mass
            return pi, resolved, None
    requested = method
    method, arcs, structure = _resolve_method(generator, method)
    if obs.enabled():
        obs.counter("ctmc_steady_state_solves_total", method=method).inc()
        if requested == "auto":
            obs.event(
                "ctmc.method_auto",
                model=generator.model_name,
                chosen=method,
                n_states=generator.n_states,
            )
    if method == "gth":
        # GTH output is non-negative and normalized by construction.
        pi, interface = _solve_gth(generator, arcs, mttf)
        return pi, method, interface
    if method == "banded":
        pi = _solve_banded(generator, arcs, structure)
    else:
        sources, targets, rates = arcs
        pi = SparseSteadyStateSolver(
            generator.n_states, sources, targets
        ).solve(rates)
    _check_probability_vector(pi, generator, tol=1e-8)
    return pi, method, None


def _resolve_method(
    generator: GeneratorMatrix, method: Method
) -> Tuple[Method, Optional[Tuple], Optional[BandedStructure]]:
    """The method ``method`` runs on ``generator`` (``"auto"`` resolved).

    Returns ``(method, arcs, structure)``; ``arcs`` and the banded
    ``structure`` are filled when the choice needed them.  ``"auto"``
    takes the banded kernel at or above the cutover when the chain is
    banded-plus-spike, sparse LU on other sparse generators, and the
    dense GTH kernel otherwise (the batch engine's choices too).
    """
    n = generator.n_states
    if method == "gth" or (method == "auto" and n < BANDED_MIN_STATES):
        return "gth", None, None
    arcs = _generator_coo(generator)
    structure = None
    if method != "sparse":
        structure = detect_banded_structure(n, arcs[0], arcs[1])
    if method == "auto":
        if structure is not None:
            method = "banded"
        elif generator.is_sparse:
            method = "sparse"
        else:
            method = "gth"
    return method, arcs, structure


def solve_steady_state(
    model_or_generator: Union[MarkovModel, GeneratorMatrix],
    values: Optional[Mapping[str, float]] = None,
    method: Method = "auto",
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
            "states); use method='sparse' or 'auto'"
        )
    sources, targets, rates = arcs
    plan = BandedKernelPlan(structure, sources, targets)
    return banded_steady_state(plan, rates[None, :])[0]


def _solve_gth(
    generator: GeneratorMatrix,
    arcs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    mttf: bool,
) -> Tuple[np.ndarray, Tuple[float, float, float, float]]:
    """The dense GTH kernel (subtraction-free, O(n^3)) on one generator.

    Returns the stationary vector and the kernel's :data:`Interface`.
    """
    sources, targets, rates = (
        arcs if arcs is not None else _generator_coo(generator)
    )
    plan = DenseKernelPlan(
        generator.n_states, sources, targets, generator.up_mask()
    )
    pis, *interface, = dense_gth(plan, rates[None, :], mttf)
    lam, mu, status, p_up, p_down = (float(v[0]) for v in interface)
    if status == 2.0:
        raise SolverError(
            "the MTTF renewal closure failed: an up state cannot return "
            f"to the initial state for model {generator.model_name!r}"
        )
    if status != 0.0:
        raise SolverError(
            "GTH elimination failed: no transition from eliminated "
            "state back into the remaining block (reducible chain?) "
            f"for model {generator.model_name!r}"
        )
    return pis[0], (lam, mu, p_up, p_down)


def _gth_reference(q: np.ndarray) -> np.ndarray:
    """Textbook GTH on a dense generator; returns the stationary vector.

    The NumPy reference the kernels are tested against.
    """
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
