"""Two-level hierarchical model: submodels feeding a top-level model.

The composer solves each submodel for its (Lambda, Mu) interface, binds
those values into the top model's parameters, solves the top model, and
assembles a :class:`HierarchicalResult` that also *attributes* the
system's yearly downtime to each submodel — the decomposition reported in
the paper's Table 2 ("YD due to AS Submodel" / "YD due to HADB
Submodel").

Attribution convention: each down state of the top model is associated
with the submodel whose binding feeds the transition *into* that state.
For the paper's Fig. 2 this is exact: ``AS_Fail`` is entered only via
``La_appl`` (the AS submodel) and ``HADB_Fail`` only via
``N_pair * La_hadb`` (the HADB submodel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro import obs
from repro.core.compiled import ColumnLike, CompiledModel, compile_model
from repro.core.model import MarkovModel
from repro.ctmc.batch import (
    BatchAvailability,
    _all_positive_regular,
    _resolve_engine,
    batch_availability,
)
from repro.ctmc.rewards import ABSTRACTIONS, AvailabilityResult
from repro.exceptions import ModelError
from repro.hierarchy.binding import RateBinding
from repro.hierarchy.interface import SubmodelInterface
from repro.kernels.dense import PointKernel, dense_kernel_plan
from repro.units import unavailability_to_yearly_downtime_minutes

#: One-point solves (:meth:`CompiledHierarchy.solve_point`) by the path
#: that answered: ``path="kernel"`` (floats and the C kernel) or
#: ``path="batch"`` (the one-sample batch solve).
POINT_SOLVES_COUNTER = "hierarchy_point_solves_total"


@dataclass(frozen=True)
class SubmodelReport:
    """A solved submodel plus the share of system downtime it explains."""

    interface: SubmodelInterface
    downtime_minutes: float
    downtime_fraction: float


@dataclass(frozen=True)
class HierarchicalResult:
    """Complete result of a hierarchical solve.

    Attributes:
        system: Availability metrics of the top-level model.
        submodels: Per-submodel report including downtime attribution.
        bound_parameters: The parameter values injected into the top model.
    """

    system: AvailabilityResult
    submodels: Dict[str, SubmodelReport]
    bound_parameters: Dict[str, float]

    @property
    def availability(self) -> float:
        return self.system.availability

    @property
    def yearly_downtime_minutes(self) -> float:
        return self.system.yearly_downtime_minutes

    @property
    def mtbf_hours(self) -> float:
        return self.system.mtbf_hours

    def summary(self) -> str:
        lines = [f"system: {self.system.summary()}"]
        for name, report in self.submodels.items():
            lines.append(
                f"  {name}: downtime {report.downtime_minutes:.3g} min/yr "
                f"({report.downtime_fraction:.1%}), "
                f"Lambda={report.interface.failure_rate:.3e}/h, "
                f"Mu={report.interface.recovery_rate:.3e}/h"
            )
        return "\n".join(lines)


class HierarchicalModel:
    """A top-level Markov model whose rates come from solved submodels.

    Example (the paper's Fig. 2 wiring)::

        top = MarkovModel("JSAS")
        top.add_state("Ok", reward=1)
        top.add_state("AS_Fail", reward=0)
        top.add_state("HADB_Fail", reward=0)
        top.add_transition("Ok", "AS_Fail", "La_appl")
        top.add_transition("AS_Fail", "Ok", "Mu_appl")
        top.add_transition("Ok", "HADB_Fail", "N_pair * La_hadb")
        top.add_transition("HADB_Fail", "Ok", "Mu_hadb")

        hm = HierarchicalModel(top)
        hm.add_submodel(appserver_model, attribute_states=["AS_Fail"])
        hm.add_submodel(hadb_pair_model, attribute_states=["HADB_Fail"])
        hm.bind("La_appl", appserver_model.name, "failure_rate")
        hm.bind("Mu_appl", appserver_model.name, "recovery_rate")
        hm.bind("La_hadb", hadb_pair_model.name, "failure_rate")
        hm.bind("Mu_hadb", hadb_pair_model.name, "recovery_rate")
        result = hm.solve(parameters)
    """

    def __init__(self, top: MarkovModel) -> None:
        self.top = top
        self._submodels: Dict[str, MarkovModel] = {}
        self._attributions: Dict[str, Tuple[str, ...]] = {}
        self._bindings: Dict[str, RateBinding] = {}
        self._compiled: Optional["CompiledHierarchy"] = None

    def add_submodel(
        self,
        model: MarkovModel,
        attribute_states: Tuple[str, ...] = (),
        name: Optional[str] = None,
    ) -> None:
        """Register a submodel.

        Args:
            model: The submodel.
            attribute_states: Down states of the *top* model whose
                stationary probability should be attributed to this
                submodel in the downtime decomposition.
            name: Override the registration name (defaults to model.name).
        """
        key = name or model.name
        if key in self._submodels:
            raise ModelError(f"duplicate submodel {key!r}")
        for state in attribute_states:
            self.top.state(state)  # validates existence
            if self.top.state(state).is_up:
                raise ModelError(
                    f"attribution state {state!r} is an up state of the "
                    "top model; downtime attribution only covers down states"
                )
        self._submodels[key] = model
        self._attributions[key] = tuple(attribute_states)
        self._compiled = None

    def bind(
        self,
        parameter: str,
        submodel: str,
        output: str = "failure_rate",
        scale: float = 1.0,
    ) -> None:
        """Bind a top-model parameter to a submodel output."""
        if parameter in self._bindings:
            raise ModelError(f"parameter {parameter!r} is already bound")
        if submodel not in self._submodels:
            raise ModelError(
                f"unknown submodel {submodel!r}; add_submodel first"
            )
        self._bindings[parameter] = RateBinding(
            parameter=parameter, submodel=submodel, output=output, scale=scale
        )
        self._compiled = None

    @property
    def submodel_names(self) -> Tuple[str, ...]:
        return tuple(self._submodels)

    def submodel(self, name: str) -> MarkovModel:
        """The registered submodel called ``name``."""
        try:
            return self._submodels[name]
        except KeyError:
            raise ModelError(f"unknown submodel {name!r}") from None

    @property
    def bindings(self) -> Tuple[RateBinding, ...]:
        """The rate bindings, in registration order."""
        return tuple(self._bindings.values())

    @property
    def attributions(self) -> Dict[str, Tuple[str, ...]]:
        """Downtime-attribution states per submodel (copy)."""
        return dict(self._attributions)

    def solve(
        self,
        values: Mapping[str, float],
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> HierarchicalResult:
        """Solve submodels, bind, solve the top model, attribute downtime.

        The compiled one-point solve,
        :meth:`CompiledHierarchy.solve_point`.  ``values`` must cover
        every free parameter of every submodel and every top-model
        parameter that is not produced by a binding; it may be a plain
        dict or a :class:`~repro.core.parameters.ParameterSet`.

        Args:
            method: Steady-state method for every constituent solve, one
                of :data:`repro.ctmc.batch.BATCH_METHODS`.  The default
                ``"auto"`` runs the dense GTH kernel (which also gives
                each submodel's Lambda and Mu) on small submodels and
                switches to the structured banded solver when a large
                submodel (a generalized N-instance AS chain, say)
                exposes the banded-plus-spike topology.
            abstraction: Equivalent-rate semantics for the submodels,
                ``"mttf"`` (RAScad, default) or ``"flow"`` (exact
                steady-state flow).  See
                :func:`repro.ctmc.rewards.equivalent_failure_recovery_rates`.
        """
        return self.compile().solve_point(values, method, abstraction)

    def compile(self) -> "CompiledHierarchy":
        """Compile-once form for repeated solves (see :meth:`solve_batch`).

        The compilation is cached and invalidated when submodels or
        bindings are added, or when any constituent model is mutated.
        """
        cached = self._compiled
        if cached is not None and cached.is_current():
            return cached
        compiled = CompiledHierarchy(self)
        self._compiled = compiled
        return compiled

    def solve_batch(
        self,
        values: Mapping[str, ColumnLike],
        n_samples: Optional[int] = None,
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> "BatchHierarchicalSolution":
        """Solve the hierarchy for a whole batch of parameter samples.

        ``values`` maps parameter names to scalars (shared by all
        samples) or ``(n_samples,)`` arrays.  Equivalent to calling
        :meth:`solve` once per sample, but compiled once and solved with
        one batched kernel call per model — see
        ``docs/performance_guide.md``.  The
        default ``method="auto"`` routes large structured submodels
        through the banded/sparse engines (see
        :data:`repro.ctmc.batch.BATCH_METHODS`).
        """
        return self.compile().solve_batch(
            values, n_samples=n_samples, method=method, abstraction=abstraction
        )

    def interval_availability(
        self,
        values: Mapping[str, float],
        t: float,
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> float:
        """Expected interval availability of the composed system over [0, t].

        The hierarchical analogue of the steady-state solve (and the
        capability the authors' companion DSN-2004 paper adds to
        RAScad): :meth:`solve` gives the bound (Lambda, Mu) parameters,
        then the *top* model's interval availability is evaluated
        transiently from its initial state.

        For t -> infinity this converges to the steady-state
        availability (tested); for short horizons it reflects the
        deployment starting healthy.
        """
        from repro.ctmc.transient import interval_availability

        result = self.solve(values, method, abstraction)
        return interval_availability(
            self.top, t, _with_bound(values, result.bound_parameters)
        )


class CompiledHierarchy:
    """Compile-once / evaluate-many form of a :class:`HierarchicalModel`.

    Every submodel and the top model are compiled (validated, frozen,
    rates vectorized) exactly once; :meth:`solve_batch` then maps a whole
    matrix of parameter samples through submodel abstraction, binding
    resolution and the top-model solve, one batched kernel call per
    model.

    :meth:`solve_point`, which :meth:`HierarchicalModel.solve` returns,
    answers one sample without NumPy where it can and equals the
    one-sample :meth:`solve_batch` (``tests/hierarchy/test_point.py``);
    ``tests/hierarchy/test_exact_oracle.py`` checks both against an
    exact rational solve of every stage.
    """

    def __init__(self, hierarchy: HierarchicalModel) -> None:
        self.hierarchy = hierarchy
        self.top: CompiledModel = compile_model(hierarchy.top)
        self.submodels: Dict[str, CompiledModel] = {
            key: compile_model(model)
            for key, model in hierarchy._submodels.items()
        }
        self._bindings: Dict[str, RateBinding] = dict(hierarchy._bindings)
        self._attributions: Dict[str, Tuple[str, ...]] = dict(
            hierarchy._attributions
        )
        # The binding table: (parameter, submodel, output, scale).
        self._binding_table = tuple(
            (parameter, b.submodel, b.output, b.scale)
            for parameter, b in self._bindings.items()
        )
        self._signature = self._current_signature(hierarchy)
        # (method, abstraction) -> one-point plan; None: the batch path.
        self._point_plans: Dict[
            Tuple[str, str], Optional[_HierarchyPlan]
        ] = {}

    @staticmethod
    def _current_signature(hierarchy: HierarchicalModel):
        # Submodels and bindings are only ever added, so their counts
        # and the constituent models' versions identify the state.
        return (
            hierarchy.top.version,
            len(hierarchy._bindings),
            *(model.version for model in hierarchy._submodels.values()),
        )

    def is_current(self) -> bool:
        """True while the source hierarchy has not been mutated."""
        return self._signature == self._current_signature(self.hierarchy)

    def solve_batch(
        self,
        values: Mapping[str, ColumnLike],
        n_samples: Optional[int] = None,
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> "BatchHierarchicalSolution":
        """Solve submodels, bind, and solve the top model for all samples."""
        if n_samples is None:
            n_samples = _infer_batch_size(values)
        with obs.span(
            "hierarchy.solve_batch",
            model=self.top.model_name,
            method=method,
            n_samples=n_samples,
        ):
            interfaces: Dict[str, BatchAvailability] = {}
            for key, compiled in self.submodels.items():
                with obs.span("hierarchy.submodel", submodel=key):
                    interfaces[key] = batch_availability(
                        compiled,
                        values,
                        n_samples=n_samples,
                        method=method,
                        abstraction=abstraction,
                    )
            bound: Dict[str, np.ndarray] = {}
            for parameter, submodel, output, scale in self._binding_table:
                interface = interfaces[submodel]
                if output == "unavailability":
                    column = 1.0 - interface.availability
                else:
                    column = getattr(interface, output)
                bound[parameter] = column * scale
            top_values = _with_bound(values, bound)
            with obs.span("hierarchy.top", model=self.top.model_name):
                system = batch_availability(
                    self.top,
                    top_values,
                    n_samples=n_samples,
                    method=method,
                    abstraction=abstraction,
                )
        return BatchHierarchicalSolution(
            system=system,
            submodels=interfaces,
            bound_parameters=bound,
            attributions=dict(self._attributions),
        )

    def solve_point(
        self,
        values: Mapping[str, float],
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> HierarchicalResult:
        """One sample's result, equal to the one-sample :meth:`solve_batch`.

        ``solve_batch(values, n_samples=1, ...).result_at(0)``, computed
        without NumPy when every model qualifies: its engine is the
        dense GTH kernel (``"auto"`` below
        :data:`~repro.ctmc.sparse.BANDED_MIN_STATES` states, or
        ``"gth"``), its all-positive pattern is irreducible, it has an
        up state (the initial one under ``"mttf"``), its rate program is
        arithmetic only, and the host has loaded the C kernel.  Each
        model's rates are then evaluated on Python floats and solved by
        one kernel call on ctypes buffers.  Any other case goes to the
        batch path, so its errors, messages and edge cases stay the
        batch path's: a missing or non-numeric value, an arithmetic
        error, a rate that is not a finite positive float, or a kernel
        status.  Counted in :data:`POINT_SOLVES_COUNTER`.
        """
        plans = self._point_plans
        key = (method, abstraction)
        if key not in plans:
            plans[key] = self._hierarchy_plan(method, abstraction)
        plan = plans[key]
        floats = None
        if plan is not None and plan.top.kernel.loaded():
            floats = _point_values(plan, values)
        if floats is not None:
            with obs.span(
                "hierarchy.solve_batch",
                model=self.top.model_name,
                method=method,
                n_samples=1,
            ):
                result = self._solve_point(plan, floats)
            if result is not None:
                obs.counter(POINT_SOLVES_COUNTER, path="kernel").inc()
                return result
        obs.counter(POINT_SOLVES_COUNTER, path="batch").inc()
        return self.solve_batch(
            values, n_samples=1, method=method, abstraction=abstraction
        ).result_at(0)

    def _hierarchy_plan(
        self, method: str, abstraction: str
    ) -> Optional["_HierarchyPlan"]:
        """The hierarchy's one-point plan, or ``None`` for the batch path."""
        if method not in ("auto", "gth") or abstraction not in ABSTRACTIONS:
            return None
        mttf = abstraction == "mttf"
        plans: List[_PointPlan] = []
        for compiled in (*self.submodels.values(), self.top):
            if _resolve_engine(compiled, method) != "gth":
                return None
            plan = _point_plan(compiled)
            if plan is None or (mttf and not plan.initial_up):
                return None
            plans.append(plan)
        bound = tuple(self._bindings)
        names = set(self.top.required_parameters).difference(bound)
        for compiled in self.submodels.values():
            names.update(compiled.required_parameters)
        return _HierarchyPlan(
            submodels=tuple(zip(self.submodels, plans[:-1])),
            top=plans[-1],
            parameters=tuple(sorted(names)),
            bound=bound,
            mttf=mttf,
        )

    def _solve_point(
        self, plan: "_HierarchyPlan", floats: Dict[str, float]
    ) -> Optional[HierarchicalResult]:
        """The kernel path of :meth:`solve_point` (``None``: batch path)."""
        details: Dict[str, AvailabilityResult] = {}
        for key, model in plan.submodels:
            with obs.span("hierarchy.submodel", submodel=key):
                detail = model.solve(floats, plan.mttf)
            if detail is None:
                return None
            details[key] = detail
        bound: Dict[str, float] = {}
        for parameter, submodel, output, scale in self._binding_table:
            detail = details[submodel]
            if output == "unavailability":
                value = 1.0 - detail.availability
            else:
                value = getattr(detail, output)
            bound[parameter] = value * scale
        floats.update(bound)
        with obs.span("hierarchy.top", model=self.top.model_name):
            system = plan.top.solve(floats, plan.mttf)
        if system is None:
            return None
        return _hierarchical_result(
            system, details, self._attributions, bound
        )


class _PointPlan:
    """One compiled model's one-point solve, as plain Python objects.

    The rate program, the dense C kernel for one sample, the state names
    and the down states as ``(index, name)`` pairs; built once per
    compiled model by :func:`_point_plan`.
    """

    __slots__ = ("program", "kernel", "n", "state_names", "down",
                 "initial_up")

    def __init__(self, compiled: CompiledModel) -> None:
        self.program = compiled.program
        self.kernel = PointKernel(dense_kernel_plan(compiled))
        self.n = compiled.n_states
        self.state_names = compiled.state_names
        self.down = tuple(
            (int(i), compiled.state_names[i]) for i in compiled.down_idx
        )
        self.initial_up = bool(compiled.up_mask[0])

    def solve(
        self, floats: Dict[str, float], mttf: bool
    ) -> Optional[AvailabilityResult]:
        """The model's availability at ``floats`` (``None``: batch path)."""
        rates = self.program.evaluate_point(floats)
        if rates is None:
            return None
        out = self.kernel(rates, mttf)
        n = self.n
        lam, mu, status, p_up, p_down = out[n:]
        if status != 0.0 or not p_up > 0.0:
            return None
        return _availability_result(
            self.state_names, self.down, out[:n],
            min(1.0, max(0.0, p_up)), p_down, lam, mu,
        )


def _point_plan(compiled: CompiledModel) -> Optional[_PointPlan]:
    """The model's one-point plan, cached in ``solver_cache``.

    ``None`` unless the model has an up state, its rate program is
    arithmetic only and its all-positive pattern is irreducible.
    """
    cache = compiled.solver_cache
    if "point_plan" not in cache:
        eligible = (
            compiled.up_idx.size > 0
            and compiled.program.is_arithmetic(compiled.required_parameters)
            and _all_positive_regular(compiled)
        )
        cache["point_plan"] = _PointPlan(compiled) if eligible else None
    return cache["point_plan"]  # type: ignore[return-value]


class _HierarchyPlan(NamedTuple):
    """A hierarchy's one-point plan for one (method, abstraction)."""

    submodels: Tuple[Tuple[str, _PointPlan], ...]
    top: _PointPlan
    #: Every parameter a model reads, bar the bound ones.
    parameters: Tuple[str, ...]
    bound: Tuple[str, ...]
    mttf: bool


def _point_values(
    plan: _HierarchyPlan, values: Mapping[str, float]
) -> Optional[Dict[str, float]]:
    """The plan's parameters as Python floats.

    ``None`` (the batch path) when one is missing or not a Python
    number, or when ``values`` also supplies a bound parameter.
    """
    for name in plan.bound:
        if name in values:
            return None
    floats: Dict[str, float] = {}
    for name in plan.parameters:
        value = values.get(name)
        if value.__class__ is not float:
            if not isinstance(value, (int, float)):
                return None
            value = float(value)
        floats[name] = value
    return floats


def _with_bound(values: Mapping, bound: Mapping) -> Dict:
    """``values`` plus ``bound``; a name in both is a :class:`ModelError`."""
    top_values = dict(values)
    overlap = [name for name in bound if name in top_values]
    if overlap:
        raise ModelError(
            f"bound parameter(s) {sorted(overlap)} also appear in "
            "the supplied values; remove them from one side to "
            "avoid ambiguity"
        )
    top_values.update(bound)
    return top_values


#: Metrics a batch solution can expose as plain arrays.
BATCH_METRICS = ("availability", "yearly_downtime_minutes", "mtbf_hours")


@dataclass(frozen=True)
class BatchHierarchicalSolution:
    """Struct-of-arrays result of a batched hierarchical solve.

    Attributes:
        system: Batched availability report of the top-level model.
        submodels: Per-submodel batched reports (the (Lambda, Mu)
            interfaces as arrays).
        bound_parameters: Parameter arrays injected into the top model.
        attributions: Down states of the top model attributed to each
            submodel (for full-result reconstruction).
    """

    system: BatchAvailability
    submodels: Dict[str, BatchAvailability]
    bound_parameters: Dict[str, np.ndarray]
    attributions: Dict[str, Tuple[str, ...]]

    @property
    def n_samples(self) -> int:
        return self.system.n_samples

    @property
    def availability(self) -> np.ndarray:
        return self.system.availability

    @property
    def yearly_downtime_minutes(self) -> np.ndarray:
        return self.system.yearly_downtime_minutes

    @property
    def mtbf_hours(self) -> np.ndarray:
        return self.system.mtbf_hours

    def metric_array(self, metric: str) -> np.ndarray:
        """One system metric for every sample, as a ``(n_samples,)`` array."""
        if metric not in BATCH_METRICS:
            raise ModelError(
                f"unknown batch metric {metric!r}; expected one of "
                f"{BATCH_METRICS}"
            )
        return getattr(self.system, metric)

    def result_at(self, sample: int) -> HierarchicalResult:
        """Materialize the full :class:`HierarchicalResult` for one sample.

        Reconstructs exactly what :meth:`HierarchicalModel.solve` would
        have returned for this sample's parameter values, including
        per-state probabilities and the downtime attribution.
        """
        return _hierarchical_result(
            _availability_result_at(self.system, sample),
            {
                key: _availability_result_at(batch, sample)
                for key, batch in self.submodels.items()
            },
            self.attributions,
            {
                name: float(column[sample])
                for name, column in self.bound_parameters.items()
            },
        )

    def results(self) -> Tuple[HierarchicalResult, ...]:
        """Full per-sample results (materializes objects; prefer arrays)."""
        return tuple(self.result_at(s) for s in range(self.n_samples))


def _availability_result_at(
    batch: BatchAvailability, sample: int
) -> AvailabilityResult:
    """Scalar :class:`AvailabilityResult` view of one batched sample."""
    up = batch.up_mask
    return _availability_result(
        batch.state_names,
        [(i, name) for i, name in enumerate(batch.state_names) if not up[i]],
        batch.pis[sample].tolist(),
        float(batch.availability[sample]),
        float(batch.unavailability[sample]),
        float(batch.failure_rate[sample]),
        float(batch.recovery_rate[sample]),
    )


def _availability_result(
    state_names: Sequence[str],
    down: Sequence[Tuple[int, str]],
    pi: Sequence[float],
    availability: float,
    unavailability: float,
    failure_rate: float,
    recovery_rate: float,
) -> AvailabilityResult:
    """One sample's :class:`AvailabilityResult`, from Python floats.

    Shared by the batch view (:func:`_availability_result_at`) and the
    one-point path; ``down`` lists the down states as ``(index, name)``.
    """
    return AvailabilityResult(
        availability=availability,
        yearly_downtime_minutes=unavailability_to_yearly_downtime_minutes(
            unavailability
        ),
        mtbf_hours=_reciprocal(failure_rate),
        mttr_hours=_reciprocal(recovery_rate),
        failure_rate=failure_rate,
        recovery_rate=recovery_rate,
        state_probabilities=dict(zip(state_names, pi)),
        downtime_by_state={
            name: unavailability_to_yearly_downtime_minutes(pi[i])
            for i, name in down
        },
    )


def _reciprocal(rate: float) -> float:
    """``1 / rate`` of a rate >= 0 with NumPy's meaning: 1/0 is ``inf``."""
    return 1.0 / rate if rate else math.inf


def _hierarchical_result(
    system: AvailabilityResult,
    details: Mapping[str, AvailabilityResult],
    attributions: Mapping[str, Tuple[str, ...]],
    bound: Dict[str, float],
) -> HierarchicalResult:
    """Attribute the system's downtime to each solved submodel."""
    reports: Dict[str, SubmodelReport] = {}
    total_downtime = system.yearly_downtime_minutes
    for key, detail in details.items():
        minutes = sum(
            system.downtime_by_state.get(state, 0.0)
            for state in attributions[key]
        )
        fraction = minutes / total_downtime if total_downtime > 0 else 0.0
        reports[key] = SubmodelReport(
            interface=SubmodelInterface(
                name=key,
                failure_rate=detail.failure_rate,
                recovery_rate=detail.recovery_rate,
                availability=detail.availability,
                detail=detail,
            ),
            downtime_minutes=minutes,
            downtime_fraction=fraction,
        )
    return HierarchicalResult(
        system=system, submodels=reports, bound_parameters=bound
    )


def _infer_batch_size(values: Mapping[str, ColumnLike]) -> int:
    for value in values.values():
        if isinstance(value, np.ndarray) and np.asarray(value).ndim == 1:
            return int(np.asarray(value).shape[0])
    raise ModelError(
        "cannot infer the sample count: no array-valued parameter column "
        "was supplied; pass n_samples explicitly"
    )

