"""Batched CTMC solvers: many parameter samples, one compiled model.

This is the numerical half of the compile-once / evaluate-many engine
(:mod:`repro.core.compiled` is the symbolic half).  Given a compiled
model and parameter columns it:

* evaluates the ``(n_samples, n_transitions)`` rate matrix in one
  vectorized program,
* classifies the state space **once per transition zero-pattern** (not
  once per sample) with results cached on the compiled model — a sampled
  rate hitting exactly 0 changes the pattern and therefore gets its own
  classification, so feature-switch-off parameterizations stay correct,
* solves all steady-state systems of a dense ``"gth"`` / ``"auto"``
  batch in one call of the dense GTH kernel
  (:mod:`repro.kernels.dense`), which also returns the (Lambda, Mu)
  interface,
* mirrors the scalar reward pipeline (availability, equivalent
  (Lambda, Mu) rates, yearly downtime, MTBF/MTTR) element-wise.

The arithmetic is *bit-identical* to the scalar path on arithmetic-only
rate expressions: scalar ``"gth"`` / ``"auto"`` run the same kernel on
one generator's arcs.  The property tests in ``tests/ctmc/test_batch.py``
enforce exact equality on random chains and on the paper's models.

**Large state spaces.**  The dense kernel is O(n^2) memory per sample,
so models at or above :data:`~repro.ctmc.generator.SPARSE_THRESHOLD`
states are routed through the structure-exploiting engines instead: the
banded kernel (:mod:`repro.kernels.banded`, the same solve scalar
``steady_state_vector`` runs) when the generator is banded-plus-spike
(the generalized N-instance AS model), sparse LU with symbolic-pattern
reuse (:mod:`repro.ctmc.sparse`) otherwise.  ``method="auto"``
additionally picks the banded engine for banded models of
:data:`~repro.ctmc.sparse.BANDED_MIN_STATES` states or more, the same
cutover scalar ``auto`` uses.  The banded engine takes the MTTF Lambda
from its own kernel too, through the
:class:`~repro.ctmc.rewards.RenewalClosure` (the same bits as a scalar
banded solve on the C path); only sparse LU solves ``Q_UU m = -1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.compiled import ColumnLike, CompiledModel, compile_model
from repro.core.model import MarkovModel
from repro.ctmc.generator import SPARSE_THRESHOLD, GeneratorMatrix
from repro.ctmc.sparse import (
    BANDED_MIN_STATES,
    MAX_BANDWIDTH,
    BandedStructure,
    SparseSteadyStateSolver,
    SparseUpBlockSolver,
    detect_banded_structure,
)
from repro.kernels.banded import banded_kernel_plan, banded_steady_state
from repro.kernels.dense import dense_gth, dense_kernel_plan
from repro.ctmc.rewards import (
    RenewalClosure,
    _check_abstraction,
    _equivalent_rates,
)
from repro.ctmc.steady_state import (
    BATCH_METHODS,
    _solve,
    steady_state_vector,
)
from repro.ctmc.structure import _reachable_mask, classify_states
from repro.exceptions import SolverError, StructureError
from repro.units import unavailability_to_yearly_downtime_minutes

ModelLike = Union[MarkovModel, CompiledModel]


@dataclass(frozen=True)
class PatternStructure:
    """Cached structural classification for one transition zero-pattern.

    Attributes:
        n_recurrent_classes: Number of recurrent communicating classes.
        covers_all: True when the single recurrent class spans the whole
            state space (the common irreducible case).
        mtta_error: Error message when some up state cannot reach the
            down set (the MTTF abstraction would raise); ``None`` if the
            mean-time-to-absorption system is well posed or irrelevant.
    """

    n_recurrent_classes: int
    covers_all: bool
    mtta_error: Optional[str]


def _pattern_generator(
    compiled: CompiledModel, pattern: np.ndarray
) -> GeneratorMatrix:
    """A unit-rate generator with the pattern's adjacency (for structure)."""
    n = compiled.n_states
    if n >= SPARSE_THRESHOLD:
        import scipy.sparse as sp

        src = compiled.transition_sources[pattern]
        tgt = compiled.transition_targets[pattern]
        off = sp.coo_matrix(
            (np.ones(src.size), (src, tgt)), shape=(n, n)
        ).tocsr()
        diagonal = -np.asarray(off.sum(axis=1)).ravel()
        matrix = (off + sp.diags(diagonal)).tocsr()
    else:
        matrix = np.zeros((n, n), dtype=float)
        if compiled.n_transitions:
            src = compiled.transition_sources[pattern]
            tgt = compiled.transition_targets[pattern]
            matrix[src, tgt] = 1.0
        np.fill_diagonal(matrix, -matrix.sum(axis=1))
    return GeneratorMatrix(
        matrix=matrix,
        state_names=compiled.state_names,
        rewards=compiled.rewards.copy(),
        model_name=compiled.model_name,
    )


def _first_mtta_offender(
    compiled: CompiledModel, pattern: np.ndarray
) -> Optional[int]:
    """Lowest-index up state that cannot reach the down set, or ``None``.

    One reverse search from the whole down set over the pattern's arcs
    — O(E) instead of O(n_up * E), which matters once SPN-derived
    chains reach 10^4+ states.  Sparse-sized models search with
    csgraph, as :func:`_pattern_generator` splits.
    """
    n = compiled.n_states
    can_reach = _reachable_mask(
        n,
        compiled.transition_targets[pattern],
        compiled.transition_sources[pattern],
        compiled.down_idx,
        sparse=n >= SPARSE_THRESHOLD,
    )
    blocked = np.flatnonzero(~can_reach[compiled.up_idx])
    if blocked.size:
        return int(compiled.up_idx[blocked[0]])
    return None


def pattern_structure(
    compiled: CompiledModel, pattern: np.ndarray
) -> PatternStructure:
    """Classify (and cache) the state space for one zero-pattern.

    Classification depends only on which transition rates are non-zero,
    so the (comparatively expensive) reachability analysis runs once per
    distinct pattern across an entire batch.
    """
    key = np.asarray(pattern, dtype=bool).tobytes()
    cached = compiled.structure_cache.get(key)
    if cached is not None:
        obs.counter("ctmc_pattern_cache_total", outcome="hit").inc()
        return cached  # type: ignore[return-value]
    obs.counter("ctmc_pattern_cache_total", outcome="miss").inc()

    generator = _pattern_generator(compiled, pattern)
    classification = classify_states(generator)
    covers_all = (
        classification.has_single_recurrent_class
        and len(classification.recurrent_classes[0]) == compiled.n_states
    )

    mtta_error: Optional[str] = None
    if compiled.down_idx.size and compiled.up_idx.size:
        offender = _first_mtta_offender(compiled, np.asarray(pattern, bool))
        if offender is not None:
            targets = {compiled.state_names[i] for i in compiled.down_idx}
            name = compiled.state_names[offender]
            mtta_error = (
                f"state {name!r} cannot reach any target state "
                f"{sorted(targets)}; hitting time is infinite"
            )

    info = PatternStructure(
        n_recurrent_classes=len(classification.recurrent_classes),
        covers_all=covers_all,
        mtta_error=mtta_error,
    )
    compiled.structure_cache[key] = info
    return info


def _pattern_groups(
    n_transitions: int, rates: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Group samples by transition zero-pattern.

    Returns ``(pattern, member_indices)`` pairs in first-seen order.
    Replaces ``np.unique(patterns, axis=0)``, whose lexicographic sort
    costs more than the entire banded solve on wide models; the
    overwhelmingly common all-positive batch takes the O(k·T) fast path
    (one vectorized comparison, no per-row hashing).
    """
    k = rates.shape[0]
    if not n_transitions:
        return [(np.zeros(0, dtype=bool), np.arange(k, dtype=np.intp))]
    patterns = rates > 0.0
    first = patterns[0]
    if not (patterns != first).any():
        return [(first, np.arange(k, dtype=np.intp))]
    # Mixed batch: hash packed pattern bytes per row.
    packed = np.packbits(patterns, axis=1)
    members: Dict[bytes, List[int]] = {}
    rows: Dict[bytes, int] = {}
    for s in range(k):
        key = packed[s].tobytes()
        group = members.get(key)
        if group is None:
            members[key] = [s]
            rows[key] = s
        else:
            group.append(s)
    return [
        (patterns[rows[key]], np.asarray(idx, dtype=np.intp))
        for key, idx in members.items()
    ]


def _kernel_solve(
    compiled: CompiledModel, rates: np.ndarray, abstraction: Optional[str]
) -> Tuple[np.ndarray, ...]:
    """``(pis, lam, mu, p_up, p_down)`` from the dense GTH kernel.

    One kernel call answers the batch.  A sample with a rate at exactly
    0 (its chain may be reducible), or one the kernel flags, is handed
    to the scalar library on its own generator — the same kernel after
    the library's structural checks — so its result, or its error, is
    the scalar path's whatever else shares the batch.  A model whose
    all-positive pattern is itself reducible hands over every sample.
    With ``abstraction=None`` only ``pis`` is meaningful.
    """
    k = rates.shape[0]
    mttf = abstraction == "mttf"
    if _all_positive_regular(compiled):
        pis, lam, mu, status, p_up, p_down = dense_gth(
            dense_kernel_plan(compiled), rates, mttf
        )
        irregular = np.flatnonzero(status) if status.any() else ()
    else:
        pis = np.empty((k, compiled.n_states))
        lam, mu, p_up, p_down = (np.empty(k) for _ in range(4))
        irregular = np.arange(k)
    for s in irregular:
        generator = GeneratorMatrix(
            matrix=compiled.generator_batch(rates[s: s + 1])[0],
            state_names=compiled.state_names,
            rewards=compiled.rewards.copy(),
            model_name=compiled.model_name,
        )
        try:
            pis[s], resolved, interface = _solve(generator, "gth", mttf=mttf)
            if interface is None and abstraction is not None:
                interface = _equivalent_rates(
                    generator, pis[s], resolved, None, abstraction
                ) + _masses(generator.up_mask(), pis[s])
        except (SolverError, StructureError) as exc:
            raise type(exc)(f"{exc} (sample {int(s)})") from exc
        if interface is not None:
            lam[s], mu[s], p_up[s], p_down[s] = interface
    return pis, lam, mu, p_up, p_down


def _all_positive_regular(compiled: CompiledModel) -> bool:
    """Whether the all-positive pattern is irreducible.

    Classified once per compiled model; every later solve reuses the
    verdict, and counts as a pattern-cache hit.
    """
    cache = compiled.solver_cache
    regular = cache.get("dense_regular")
    if regular is None:
        pattern = np.ones(compiled.n_transitions, dtype=bool)
        regular = cache["dense_regular"] = pattern_structure(
            compiled, pattern
        ).covers_all
    else:
        obs.counter("ctmc_pattern_cache_total", outcome="hit").inc()
    return regular  # type: ignore[return-value]


# Structured / sparse engines -----------------------------------------------


def banded_structure_of(compiled: CompiledModel) -> Optional[BandedStructure]:
    """Detect (and cache) the model's banded-plus-spike structure."""
    cache = compiled.solver_cache
    if "banded" not in cache:
        cache["banded"] = detect_banded_structure(
            compiled.n_states,
            compiled.transition_sources,
            compiled.transition_targets,
        )
    return cache["banded"]  # type: ignore[return-value]


def _sparse_solver_of(compiled: CompiledModel) -> SparseSteadyStateSolver:
    cache = compiled.solver_cache
    if "sparse_steady" not in cache:
        cache["sparse_steady"] = SparseSteadyStateSolver(
            compiled.n_states,
            compiled.transition_sources,
            compiled.transition_targets,
        )
    return cache["sparse_steady"]  # type: ignore[return-value]


def _renewal_closure_of(compiled: CompiledModel) -> RenewalClosure:
    cache = compiled.solver_cache
    if "renewal_closure" not in cache:
        cache["renewal_closure"] = RenewalClosure(
            compiled.n_states,
            compiled.transition_sources,
            compiled.transition_targets,
            compiled.up_mask,
        )
    return cache["renewal_closure"]  # type: ignore[return-value]


def _upblock_solver_of(compiled: CompiledModel) -> SparseUpBlockSolver:
    cache = compiled.solver_cache
    if "sparse_upblock" not in cache:
        cache["sparse_upblock"] = SparseUpBlockSolver(
            compiled.n_states,
            compiled.transition_sources,
            compiled.transition_targets,
            compiled.up_idx,
        )
    return cache["sparse_upblock"]  # type: ignore[return-value]


def _resolve_engine(compiled: CompiledModel, method: str) -> str:
    """Map a requested method to the engine that will actually run.

    Returns one of ``"gth"`` (the dense kernel; ``"auto"`` below the
    cutover) or ``"banded"``, ``"sparse"`` (structured engines).
    ``"gth"`` on models at or above SPARSE_THRESHOLD states is redirected
    to a structured engine — mirroring the scalar path, which switches
    to sparse assembly at the same size — instead of materializing an
    O(n^2)-per-sample dense work matrix.
    """
    if method not in BATCH_METHODS:
        raise SolverError(
            f"unknown batch steady-state method {method!r}; "
            f"expected one of {BATCH_METHODS}"
        )
    n = compiled.n_states
    if method == "gth":
        if n < SPARSE_THRESHOLD:
            return method
        if banded_structure_of(compiled) is not None:
            return "banded"
        return "sparse"
    if method == "auto":
        if (
            n >= BANDED_MIN_STATES
            and banded_structure_of(compiled) is not None
        ):
            return "banded"
        if n >= SPARSE_THRESHOLD:
            return "sparse"
        return "gth"
    if method == "banded":
        if banded_structure_of(compiled) is None:
            raise SolverError(
                f"model {compiled.model_name!r} has no banded-plus-spike "
                f"structure (bandwidth over {MAX_BANDWIDTH} or too few "
                "states); use method='sparse' or 'auto'"
            )
        return "banded"
    return "sparse"


def _sample_generator(
    compiled: CompiledModel, rates_row: np.ndarray
) -> GeneratorMatrix:
    """One sample's sparse generator (zero rates dropped, as scalar)."""
    import scipy.sparse as sp

    n = compiled.n_states
    mask = rates_row > 0.0
    src = compiled.transition_sources[mask]
    tgt = compiled.transition_targets[mask]
    off = sp.coo_matrix((rates_row[mask], (src, tgt)), shape=(n, n)).tocsr()
    diagonal = -np.asarray(off.sum(axis=1)).ravel()
    matrix = (off + sp.diags(diagonal)).tocsr()
    return GeneratorMatrix(
        matrix=matrix,
        state_names=compiled.state_names,
        rewards=compiled.rewards.copy(),
        model_name=compiled.model_name,
    )


def _structured_solve_block(
    compiled: CompiledModel,
    rates: np.ndarray,
    engine: str,
    sample_ids: np.ndarray,
) -> np.ndarray:
    """Solve one irreducible zero-pattern group with a structured engine."""
    if engine == "banded":
        pis = banded_steady_state(banded_kernel_plan(compiled), rates)
    else:
        solver = _sparse_solver_of(compiled)
        pis = np.empty((rates.shape[0], compiled.n_states))
        for i in range(rates.shape[0]):
            try:
                pis[i] = solver.solve(rates[i])
            except SolverError as exc:
                raise SolverError(
                    f"{exc} (model {compiled.model_name!r}, "
                    f"sample {int(sample_ids[i])})"
                ) from exc
    finite = np.isfinite(pis).all(axis=1)
    ok = finite & (pis.min(axis=1) >= -1e-8)
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise SolverError(
            f"structured steady-state solve produced an invalid "
            f"probability vector for model {compiled.model_name!r} "
            f"(sample {int(sample_ids[bad[0]])})"
        )
    np.clip(pis, 0.0, None, out=pis)
    pis /= pis.sum(axis=1, keepdims=True)
    return pis


def _structured_steady_state(
    compiled: CompiledModel, rates: np.ndarray, engine: str
) -> np.ndarray:
    """Grouped steady-state solve through a structured engine.

    Samples are grouped by transition zero-pattern and classified once
    per pattern.  Irreducible groups go through the batched banded GTH
    or the pattern-reusing sparse LU; the (rare) reducible-but-unique
    patterns fall back to the scalar ``auto`` solve per sample, which
    handles the recurrent-class restriction.
    """
    k = rates.shape[0]
    pis = np.empty((k, compiled.n_states))
    for pattern, members in _pattern_groups(compiled.n_transitions, rates):
        info = pattern_structure(compiled, pattern)
        if info.n_recurrent_classes != 1:
            raise StructureError(
                f"model {compiled.model_name!r} has "
                f"{info.n_recurrent_classes} recurrent classes; the "
                f"stationary distribution is not unique "
                f"(sample {int(members[0])})"
            )
        if info.covers_all:
            pis[members] = _structured_solve_block(
                compiled, rates[members], engine, members
            )
        else:
            for s in members:
                pis[s] = steady_state_vector(
                    _sample_generator(compiled, rates[s]), method="auto"
                )
    return pis


def _masses(up: np.ndarray, pis: np.ndarray) -> Tuple:
    """Up and down mass of solved vectors (one vector gives scalars)."""
    # ascontiguousarray before reducing: mixed basic/advanced indexing
    # returns F-ordered copies whose strided row sums accumulate in a
    # different order than the scalar path's contiguous sums (ulp drift).
    p_up = np.ascontiguousarray(pis[..., up]).sum(axis=-1)
    if up.all():
        return p_up, np.zeros_like(p_up)
    return p_up, np.ascontiguousarray(pis[..., ~up]).sum(axis=-1)


def _require_interface(
    compiled: CompiledModel, p_up: np.ndarray, abstraction: str
) -> bool:
    """Check the (Lambda, Mu) preconditions; False without a down set."""
    if not compiled.up_idx.size:
        raise StructureError(
            f"model {compiled.model_name!r} has no up states"
        )
    if not compiled.down_idx.size:
        return False
    never_up = np.flatnonzero(p_up <= 0.0) if p_up.min() <= 0.0 else ()
    if len(never_up):
        raise StructureError(
            f"model {compiled.model_name!r} is never up in steady state "
            f"(sample {int(never_up[0])})"
        )
    if abstraction == "mttf" and not compiled.up_mask[0]:
        raise StructureError(
            f"model {compiled.model_name!r} starts in a down state; "
            "the MTTF abstraction requires an up initial state"
        )
    return True


def _structured_equivalent_rates(
    compiled: CompiledModel,
    rates: np.ndarray,
    pis: np.ndarray,
    p_up: np.ndarray,
    p_down: np.ndarray,
    abstraction: str,
    engine: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Equivalent (Lambda, Mu) rates of a structured engine's vectors.

    The scalar library's semantics, with every flow contracted directly
    over the transition list (O(T) per sample).  The banded engine takes
    the MTTF from its own kernel through the model's
    :class:`~repro.ctmc.rewards.RenewalClosure`; the sparse engine
    solves ``Q_UU m = -1`` with the pattern-reusing up-block solver.
    """
    k = rates.shape[0]
    up = compiled.up_mask
    src, tgt = compiled.transition_sources, compiled.transition_targets
    ud = up[src] & ~up[tgt]
    if ud.any():
        flow_down = np.einsum(
            "kt,kt->k", rates[:, ud], pis[:, src[ud]]
        )
    else:
        flow_down = np.zeros(k)

    if abstraction == "mttf":
        lam = np.zeros(k)
        need = np.flatnonzero(flow_down > 0.0)
        for s in need:
            info = pattern_structure(compiled, rates[s] > 0.0)
            if info.mtta_error is not None:
                raise StructureError(f"{info.mtta_error} (sample {int(s)})")
        if need.size and engine == "banded":
            lam[need] = _renewal_closure_of(compiled).failure_rates(
                rates[need], banded=True
            )
        elif need.size:
            solver = _upblock_solver_of(compiled)
            for s in need:
                mtta0 = solver.mtta_initial(rates[s])
                if mtta0 is not None and mtta0 > 0.0:
                    lam[s] = 1.0 / mtta0
                else:
                    # Hitting times beyond float64 reach: the flow
                    # abstraction coincides with 1/MTTF to
                    # O(unavailability), exactly the scalar fallback.
                    lam[s] = flow_down[s] / p_up[s]
    else:
        lam = flow_down / p_up

    mu = np.full(k, np.inf)
    du = ~up[src] & up[tgt]
    reachable_down = np.flatnonzero(p_down > 0.0)
    if reachable_down.size:
        if du.any():
            flow_up = np.einsum("kt,kt->k", rates[:, du], pis[:, src[du]])
        else:
            flow_up = np.zeros(k)
        mu[reachable_down] = (
            flow_up[reachable_down] / p_down[reachable_down]
        )
    return lam, mu


# Public API ----------------------------------------------------------------


def batch_steady_state(
    model: ModelLike,
    values: Mapping[str, ColumnLike],
    n_samples: Optional[int] = None,
    method: str = "auto",
) -> np.ndarray:
    """Stationary distributions for a whole batch of parameter samples.

    Args:
        model: A :class:`MarkovModel` (compiled on the fly, with the
            compilation cached on the model) or a ready
            :class:`CompiledModel`.
        values: Parameter columns — scalars broadcast, arrays supply one
            value per sample.
        n_samples: Number of samples; inferred from the first array
            column when omitted.
        method: ``"auto"`` (the default: ``"gth"``, switching to the
            banded engine for medium/large banded models), ``"gth"``
            (the dense GTH kernel), ``"banded"`` (force the batched
            banded GTH; raises when the model has no banded-plus-spike
            structure) or ``"sparse"`` (force the pattern-reusing sparse
            LU).  ``"gth"`` on models at or above SPARSE_THRESHOLD
            states is transparently redirected to a structured engine.

    Returns:
        ``(n_samples, n_states)`` array of stationary vectors in the
        compiled state order.
    """
    with obs.span(
        "ctmc.batch_solve", model=_model_name(model), method=method
    ) as span:
        compiled = compile_model(model)
        n_samples = _infer_samples(values, n_samples)
        engine = _resolve_engine(compiled, method)
        span.set(engine=engine, n_samples=n_samples)
        rates = compiled.rate_matrix(values, n_samples)
        if engine == "gth":
            return _kernel_solve(compiled, rates, None)[0]
        return _structured_steady_state(compiled, rates, engine)


@dataclass(frozen=True)
class BatchAvailability:
    """Struct-of-arrays availability report for a batch of samples.

    Each attribute is a ``(n_samples,)`` array mirroring one field of the
    scalar :class:`~repro.ctmc.rewards.AvailabilityResult`; ``pis`` keeps
    the full stationary vectors for per-state reporting.
    """

    state_names: Tuple[str, ...]
    up_mask: np.ndarray
    pis: np.ndarray
    availability: np.ndarray
    unavailability: np.ndarray
    yearly_downtime_minutes: np.ndarray
    failure_rate: np.ndarray
    recovery_rate: np.ndarray
    mtbf_hours: np.ndarray
    mttr_hours: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.pis.shape[0]


def batch_availability(
    model: ModelLike,
    values: Mapping[str, ColumnLike],
    n_samples: Optional[int] = None,
    method: str = "auto",
    abstraction: str = "mttf",
) -> BatchAvailability:
    """Batched equivalent of :func:`repro.ctmc.rewards.steady_state_availability`.

    Solves every sample's stationary distribution with the engine
    ``method`` resolves to (see :func:`batch_steady_state`), then
    derives availability, the (Lambda, Mu) equivalent-rate
    abstraction (``"mttf"`` or ``"flow"`` semantics, matching the scalar
    path branch for branch), yearly downtime and MTBF/MTTR — all as
    arrays over the batch.
    """
    _check_abstraction(abstraction)
    with obs.span(
        "ctmc.batch_availability",
        model=_model_name(model),
        method=method,
        abstraction=abstraction,
    ) as span:
        compiled = compile_model(model)
        n_samples = _infer_samples(values, n_samples)
        engine = _resolve_engine(compiled, method)
        span.set(engine=engine, n_samples=n_samples)
        rates = compiled.rate_matrix(values, n_samples)
        if engine == "gth":
            pis, lam, mu, p_up, unavailability = _kernel_solve(
                compiled, rates, abstraction
            )
        else:
            pis = _structured_steady_state(compiled, rates, engine)
            p_up, unavailability = _masses(compiled.up_mask, pis)
        if not _require_interface(compiled, p_up, abstraction):
            lam, mu = np.zeros(n_samples), np.full(n_samples, np.inf)
        elif engine != "gth":
            lam, mu = _structured_equivalent_rates(
                compiled, rates, pis, p_up, unavailability, abstraction,
                engine,
            )
    # Both rates are >= 0, so the IEEE reciprocal is the scalar path's
    # MTBF / MTTR: inf for a zero rate and 0 for an infinite one.
    with np.errstate(divide="ignore"):
        mtbf, mttr = 1.0 / lam, 1.0 / mu
    return BatchAvailability(
        state_names=compiled.state_names,
        up_mask=compiled.up_mask.copy(),
        pis=pis,
        availability=np.minimum(1.0, np.maximum(0.0, p_up)),
        unavailability=unavailability,
        yearly_downtime_minutes=unavailability_to_yearly_downtime_minutes(
            unavailability
        ),
        failure_rate=lam,
        recovery_rate=mu,
        mtbf_hours=mtbf,
        mttr_hours=mttr,
    )


def _model_name(model: ModelLike) -> str:
    name = getattr(model, "model_name", None)
    if name is None:
        name = getattr(model, "name", "?")
    return str(name)


def _infer_samples(
    values: Mapping[str, ColumnLike], n_samples: Optional[int]
) -> int:
    if n_samples is not None:
        return int(n_samples)
    for value in values.values():
        if isinstance(value, np.ndarray) and np.asarray(value).ndim == 1:
            return int(np.asarray(value).shape[0])
    raise SolverError(
        "cannot infer the sample count: no array-valued parameter column "
        "was supplied; pass n_samples explicitly"
    )
