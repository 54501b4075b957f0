"""One-shot closed loop: drill -> measure -> fit -> predict -> compare.

The paper's whole methodology as a single call: run a seeded failover
drill with probing enabled, fit the cluster model's rates from the
drill's own phase samples and kill exposure, solve the hierarchical
model, and attach the agreement verdict against the measured probe
availability.  Everything seed-pure lands in the prediction report's
deterministic block, so two same-seed runs diff clean — the property
the ``selfmodel-smoke`` CI job asserts.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional, Union

from repro.exceptions import SelfModelError
from repro.selfmodel.fit import fit_parameters
from repro.selfmodel.predict import predict_availability
from repro.selfmodel.topology import ClusterTopology
from repro.selfmodel.validate import validate_prediction


def run_selfmodel_drill(
    n_shards: int = 4,
    requests: int = 32,
    kills: int = 2,
    seed: int = 2004,
    probes: int = 8,
    quorum: int = 1,
    confidence: float = 0.95,
    method: str = "auto",
    trace_dir: Union[str, pathlib.Path, None] = None,
    min_failures: int = 2,
    shard_worker_processes: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the full measurement -> model -> prediction loop once.

    Args:
        n_shards / requests / kills / seed / probes: Drill shape; see
            :func:`repro.chaos.failover.run_failover_drill`.  At least
            one kill and one probe are required — without kills there
            are no recovery phases to fit, without probes no measured
            availability to validate against.
        quorum: Minimum serving shards for "up" in the model (default
            1, matching the router's failover behavior).
        confidence: Level for every fitted interval and the measured
            binomial interval.
        method: Steady-state method for the model solves.
        trace_dir: Optional distributed-trace directory for the drill.
        shard_worker_processes: Pre-forked solver workers per shard
            (drill pass-through; also recorded in the topology).

    Returns:
        ``{"drill": FailoverReport, "topology": ClusterTopology,
        "fitted": FittedParameters, "prediction": dict}`` where the
        prediction report carries the ``"validation"`` verdict.
    """
    from repro.chaos.failover import run_failover_drill

    if kills < 1:
        raise SelfModelError(
            "the selfmodel loop needs kills >= 1 (no kills, no recovery "
            "phases to fit)"
        )
    if probes < 1:
        raise SelfModelError(
            "the selfmodel loop needs probes >= 1 (no probes, no "
            "measured availability to validate against)"
        )
    drill = run_failover_drill(
        n_shards=n_shards,
        requests=requests,
        kills=kills,
        seed=seed,
        probes=probes,
        min_failures=min_failures,
        trace_dir=trace_dir,
        shard_worker_processes=shard_worker_processes,
    )
    measurement = drill.measurement
    if measurement is None:
        raise SelfModelError(
            "drill produced no measurement block despite probes >= 1"
        )
    topology = ClusterTopology(
        n_shards=n_shards,
        quorum=quorum,
        worker_processes=shard_worker_processes or 0,
        cache_size=0,
        source="failover-drill",
    )
    fitted = fit_parameters(measurement, confidence=confidence)
    prediction = predict_availability(
        topology,
        fitted,
        method=method,
        measurement=measurement,
    )
    prediction["validation"] = validate_prediction(
        prediction, measurement, confidence=confidence
    )
    return {
        "drill": drill,
        "topology": topology,
        "fitted": fitted,
        "prediction": prediction,
    }
