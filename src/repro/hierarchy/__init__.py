"""Hierarchical Markov model composition (RAScad-style).

A complex system model is decomposed into submodels.  Each submodel is
solved for its equivalent failure/recovery rates (Lambda, Mu), and those
values are *bound* to named parameters of the parent model.  The paper's
Fig. 2 top model consumes ``La_appl/Mu_appl`` from the Application Server
submodel (Fig. 4) and ``La_hadb/Mu_hadb`` from the HADB node-pair
submodel (Fig. 3).
"""

from repro.hierarchy.interface import SubmodelInterface
from repro.hierarchy.binding import RateBinding
from repro.hierarchy.composer import (
    BatchHierarchicalSolution,
    CompiledHierarchy,
    HierarchicalModel,
    HierarchicalResult,
    SubmodelReport,
)

__all__ = [
    "SubmodelInterface",
    "RateBinding",
    "BatchHierarchicalSolution",
    "CompiledHierarchy",
    "HierarchicalModel",
    "HierarchicalResult",
    "SubmodelReport",
]
