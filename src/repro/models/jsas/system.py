"""The top-level JSAS system model (paper Fig. 2) and configuration solver.

The top model has three states:

* ``Ok`` — at least one AS instance up and every HADB pair has a live
  node (up).
* ``AS_Fail`` — all AS instances down (down).
* ``HADB_Fail`` — some HADB pair suffered a double failure (down).

Rates come from the submodels via the hierarchical (Lambda, Mu)
abstraction: ``Ok -> AS_Fail`` at ``La_appl``, ``Ok -> HADB_Fail`` at
``N_pair * La_hadb_pair`` (each pair fails independently and any pair's
loss is a system loss), with the matching recovery rates back to ``Ok``.

:class:`JsasConfiguration` packages the whole stack: it builds the right
submodels for a given instance/pair count, wires the hierarchy, and
solves it for a parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro import obs
from repro.core.compiled import ColumnLike
from repro.core.model import MarkovModel
from repro.exceptions import ModelError
from repro.hierarchy import (
    BatchHierarchicalSolution,
    CompiledHierarchy,
    HierarchicalModel,
    HierarchicalResult,
)
from repro.models.jsas.appserver import (
    build_appserver_model,
    build_single_instance_model,
)
from repro.models.jsas.hadb import build_hadb_pair_model

#: Shared hierarchy instances keyed by configuration shape, so repeated
#: solves of the same configuration (Table 3 sweeps, uncertainty runs)
#: reuse one compiled hierarchy instead of rebuilding and re-validating
#: the models every call.
_HIERARCHY_CACHE: Dict[Tuple[int, int, int, str], HierarchicalModel] = {}


def build_system_model(
    include_hadb: bool = True, name: str = "jsas_system"
) -> MarkovModel:
    """Build the Fig. 2 top-level model.

    Args:
        include_hadb: When False (the 1-instance baseline has no HADB in
            Table 3), the ``HADB_Fail`` branch is omitted.

    Parameters consumed: ``La_appl``, ``Mu_appl`` and, when
    ``include_hadb``, ``La_hadb_pair``, ``Mu_hadb_pair``, ``N_pair``.
    """
    model = MarkovModel(
        name, "JSAS system model (paper Fig. 2): AS cluster + HADB pairs"
    )
    model.add_state("Ok", reward=1.0, description="system serving requests")
    model.add_state(
        "AS_Fail", reward=0.0, description="all AS instances down"
    )
    model.add_transition("Ok", "AS_Fail", "La_appl")
    model.add_transition("AS_Fail", "Ok", "Mu_appl")
    if include_hadb:
        model.add_state(
            "HADB_Fail", reward=0.0,
            description="an HADB pair lost both nodes",
        )
        model.add_transition("Ok", "HADB_Fail", "N_pair * La_hadb_pair")
        model.add_transition("HADB_Fail", "Ok", "Mu_hadb_pair")
    return model


@dataclass
class JsasConfiguration:
    """A deployable JSAS configuration, solvable for availability.

    Attributes:
        n_instances: Number of AS instances (>= 1).
        n_pairs: Number of HADB node pairs (0 disables the HADB tier,
            as in Table 3's single-instance row).
        n_spares: Spare HADB nodes.  Documentary: the Fig. 3 model
            assumes a spare is available whenever a rebuild starts, which
            holds for the paper's configurations (2 spares).
        repair_policy: Restart policy for the generalized AS model
            (``"sequential"`` matches the paper; see
            :mod:`repro.models.jsas.appserver`).
    """

    n_instances: int
    n_pairs: int
    n_spares: int = 2
    repair_policy: str = "sequential"

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ModelError(
                f"need at least one AS instance, got {self.n_instances}"
            )
        if self.n_pairs < 0:
            raise ModelError(f"negative pair count {self.n_pairs}")
        if self.n_spares < 0:
            raise ModelError(f"negative spare count {self.n_spares}")

    @property
    def name(self) -> str:
        return f"jsas_{self.n_instances}as_{self.n_pairs}pairs"

    def build_appserver_submodel(self) -> MarkovModel:
        """The AS submodel appropriate for this instance count."""
        if self.n_instances == 1:
            return build_single_instance_model()
        return build_appserver_model(
            self.n_instances, repair_policy=self.repair_policy
        )

    def build_hierarchy(self) -> HierarchicalModel:
        """Assemble the full two-level hierarchical model."""
        include_hadb = self.n_pairs > 0
        top = build_system_model(include_hadb=include_hadb, name=self.name)
        hierarchy = HierarchicalModel(top)

        appserver = self.build_appserver_submodel()
        hierarchy.add_submodel(
            appserver, attribute_states=("AS_Fail",), name="appserver"
        )
        hierarchy.bind("La_appl", "appserver", "failure_rate")
        hierarchy.bind("Mu_appl", "appserver", "recovery_rate")

        if include_hadb:
            hadb = build_hadb_pair_model()
            hierarchy.add_submodel(
                hadb, attribute_states=("HADB_Fail",), name="hadb"
            )
            hierarchy.bind("La_hadb_pair", "hadb", "failure_rate")
            hierarchy.bind("Mu_hadb_pair", "hadb", "recovery_rate")
        return hierarchy

    def hierarchy(self) -> HierarchicalModel:
        """A shared, cached hierarchy for this configuration shape.

        Unlike :meth:`build_hierarchy` (always fresh), this reuses one
        instance per ``(n_instances, n_pairs, n_spares, repair_policy)``
        so the compiled form survives across solver calls.
        """
        key = (
            self.n_instances,
            self.n_pairs,
            self.n_spares,
            self.repair_policy,
        )
        hierarchy = _HIERARCHY_CACHE.get(key)
        if hierarchy is None:
            hierarchy = self.build_hierarchy()
            _HIERARCHY_CACHE[key] = hierarchy
        return hierarchy

    def compiled_hierarchy(self) -> CompiledHierarchy:
        """The compiled (vectorized, validate-once) form of the hierarchy."""
        return self.hierarchy().compile()

    def merged_values(
        self, values: Mapping[str, ColumnLike]
    ) -> Dict[str, ColumnLike]:
        """``values`` with ``N_pair`` supplied from the configuration."""
        merged: Dict[str, ColumnLike] = dict(values)
        if self.n_pairs > 0:
            merged["N_pair"] = float(self.n_pairs)
        return merged

    def solve(
        self,
        values: Mapping[str, float],
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> HierarchicalResult:
        """Solve the configuration for the given parameter values.

        ``values`` may be :data:`~repro.models.jsas.parameters.PAPER_PARAMETERS`
        or any mapping providing the same names.  ``N_pair`` is supplied
        automatically from the configuration.

        This is the one-point solve
        (:meth:`~repro.hierarchy.CompiledHierarchy.solve_point`) on the
        cached compiled hierarchy, equal to a one-sample
        :meth:`solve_batch`, so repeated solves of one shape (Table 3,
        the planner, sweeps) build, validate and compile the models
        once, and every Table 3 shape solves without NumPy on a host
        with the C kernel.  It is the solve
        :meth:`~repro.hierarchy.HierarchicalModel.solve` of
        :meth:`build_hierarchy` makes on :meth:`merged_values`, without
        compiling a fresh hierarchy.  ``"auto"`` moves large AS
        submodels to the banded GTH solver.
        """
        with obs.span("jsas.solve_batch", config=self.name, method=method):
            return self.compiled_hierarchy().solve_point(
                self.merged_values(
                    {name: float(value) for name, value in values.items()}
                ),
                method=method,
                abstraction=abstraction,
            )

    def solve_batch(
        self,
        values: Mapping[str, ColumnLike],
        n_samples: Optional[int] = None,
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> BatchHierarchicalSolution:
        """Solve the configuration for a whole batch of parameter samples.

        ``values`` maps names to scalars or ``(n_samples,)`` arrays; see
        :meth:`repro.hierarchy.HierarchicalModel.solve_batch`.
        """
        with obs.span("jsas.solve_batch", config=self.name, method=method):
            return self.hierarchy().solve_batch(
                self.merged_values(values),
                n_samples=n_samples,
                method=method,
                abstraction=abstraction,
            )


def build_configuration(
    n_instances: int, n_pairs: int, **kwargs
) -> JsasConfiguration:
    """Convenience factory mirroring the paper's "Config N" wording."""
    return JsasConfiguration(
        n_instances=n_instances, n_pairs=n_pairs, **kwargs
    )


#: The paper's two headline configurations (Section 4).
CONFIG_1 = JsasConfiguration(n_instances=2, n_pairs=2, n_spares=2)
CONFIG_2 = JsasConfiguration(n_instances=4, n_pairs=4, n_spares=2)
