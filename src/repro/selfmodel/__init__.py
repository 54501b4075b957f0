"""Close the paper's loop on our own cluster.

The paper's thesis is a loop: *measure* a real application server,
*model* it as a hierarchical Markov chain with rates fitted from the
measurements, and show the model *predicts* the measured availability.
:mod:`repro.selfmodel` executes that loop against this library's own
production stack — the consistent-hash sharded cluster of
:mod:`repro.service.cluster` — using the measurement layer of
:mod:`repro.obs.monitor` and the estimation/model/solver engines built
for the paper reproduction:

1. :mod:`~repro.selfmodel.topology` — derive the model topology from
   the cluster's shape (k-of-n shards behind the router; optional
   worker-pool and cache tiers).
2. :mod:`~repro.selfmodel.fit` — fit rates with confidence intervals
   from a measurement report (exponential MLE for recovery phases,
   paper Eq. 2 for the failure rate).
3. :mod:`~repro.selfmodel.predict` — solve the hierarchy at the point
   and propagate the rate CIs through a corner sweep on the compiled
   batch engine.
4. :mod:`~repro.selfmodel.validate` — the agreement verdict against
   the measured probe availability (Clopper-Pearson interval).
5. :mod:`~repro.selfmodel.pipeline` — the one-shot
   drill -> measure -> fit -> predict -> compare loop.
6. :mod:`~repro.selfmodel.whatif` — the fitted model as a catalog
   entry for ``solve`` / ``sweep`` / ``uncertainty`` what-ifs.
"""

from repro.selfmodel.topology import ClusterTopology
from repro.selfmodel.model import (
    build_cache_model,
    build_cluster_hierarchy,
    build_shard_model,
    build_top_model,
    build_worker_pool_model,
    required_parameters,
)
from repro.selfmodel.fit import (
    FittedParameters,
    FittedRate,
    fit_parameters,
)
from repro.selfmodel.predict import (
    predict_availability,
    render_prediction_report,
)
from repro.selfmodel.validate import (
    binomial_interval,
    intervals_overlap,
    validate_prediction,
)
from repro.selfmodel.pipeline import run_selfmodel_drill
from repro.selfmodel.whatif import ClusterSelfModel

from repro.models.catalog import register_model_builder

# The fitted cluster sits in the model catalog next to the paper's
# configurations, so generic CLI paths (solve/sweep/uncertainty
# --fitted) can load it by name.  Idempotent: re-imports re-register.
register_model_builder(
    "cluster", ClusterSelfModel.from_artifact, replace=True
)

__all__ = [
    "ClusterTopology",
    "build_cache_model",
    "build_cluster_hierarchy",
    "build_shard_model",
    "build_top_model",
    "build_worker_pool_model",
    "required_parameters",
    "FittedParameters",
    "FittedRate",
    "fit_parameters",
    "predict_availability",
    "render_prediction_report",
    "binomial_interval",
    "intervals_overlap",
    "validate_prediction",
    "run_selfmodel_drill",
    "ClusterSelfModel",
]
