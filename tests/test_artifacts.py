"""Report artifacts: one writer, one loader and one error for every kind."""

import json
import re

import pytest

from repro import artifacts
from repro.chaos.campaign import CampaignReport, TrialOutcome
from repro.chaos.failover import FailoverReport
from repro.estimation.coverage import estimate_coverage
from repro.exceptions import ArtifactError
from repro.metastable.regimes import map_regimes
from repro.obs.monitor import build_measurement_report, probe_trace_id
from repro.selfmodel.fit import fit_parameters
from repro.selfmodel.predict import predict_availability
from repro.selfmodel.topology import ClusterTopology

from tests.selfmodel.conftest import synthetic_measurement

KINDS = sorted(artifacts.SCHEMAS)

#: Each malformed input as a function of a valid document: the text of
#: the file to load, or ``None`` for no file at all.
BAD_INPUTS = {
    "missing-file": lambda document: None,
    "not-json": lambda document: "{not json",
    "json-array": lambda document: "[1, 2]",
    "wrong-kind": lambda document: json.dumps(
        {**document, "kind": "other"}
    ),
    "newer-schema": lambda document: json.dumps(
        {**document, "schema": document["schema"] + 1}
    ),
    "non-integer-schema": lambda document: json.dumps(
        {**document, "schema": [document["schema"]]}
    ),
}


def _measurement():
    probes = [
        {
            "index": index,
            "trace_id": probe_trace_id(5, index),
            "t": float(index),
            "duration_s": 0.01,
            "ok": index != 1,
            "error": "boom" if index == 1 else None,
        }
        for index in range(3)
    ]
    return build_measurement_report(probes, seed=5, n_shards=2)


@pytest.fixture(scope="module")
def documents():
    """One document of every kind, from its producer where that needs
    no live server."""
    coverage = estimate_coverage(2, 1, 0.95)
    measured = synthetic_measurement()
    fitted = fit_parameters(measured)
    campaign_schema = artifacts.SCHEMAS["metastable-campaign"]
    return {
        "chaos-campaign": CampaignReport(
            seed=31,
            confidence=0.95,
            url="http://127.0.0.1:1",
            overall=coverage,
            by_point={"solver.exception": coverage},
            trials=[
                TrialOutcome(0, "solver.exception", True, True, "ok", 1, 1.5),
                TrialOutcome(
                    1, "solver.exception", True, False, "wrong-result", 5,
                    2.5,
                ),
            ],
        ).to_dict(),
        "failover-drill": FailoverReport(
            seed=1,
            n_shards=2,
            requests=4,
            succeeded=4,
            failed=0,
            kills=1,
            kill_events=[
                {"shard": "shard-0", "request_index": 2,
                 "respawns": 1, "generation": 2}
            ],
            ring_size_after=2,
            duration_ms=123.4,
            measurement=_measurement(),
        ).to_dict(),
        "measurement": _measurement(),
        "selfmodel-fit": fitted.to_dict(),
        "selfmodel-prediction": predict_availability(
            ClusterTopology(n_shards=4), fitted, measurement=measured
        ),
        "metastable-regime-map": map_regimes(loads=(0.3,), budgets=(1,)),
        # A live trigger campaign boots a server; its envelope and
        # blocks are built by hand here.
        "metastable-campaign": {
            "kind": "metastable-campaign",
            "schema": campaign_schema,
            "seed": 2004,
            "deterministic": {
                "kind": "metastable-campaign",
                "schema": campaign_schema,
                "cells": [{"load": 0.3, "budget": 1}],
            },
            "schedule": {"seed": 2004, "cells": []},
            "observed": {
                "cells": [
                    {
                        "cell": {"load": 0.3, "budget": 1},
                        "outcome": "recovered",
                    }
                ]
            },
            "timing": {"elapsed_seconds": 1.25},
        },
    }


@pytest.mark.parametrize("kind", KINDS)
def test_write_load_write_is_byte_identical(documents, kind, tmp_path):
    document = documents[kind]
    assert document["kind"] == kind
    assert document["schema"] == artifacts.SCHEMAS[kind]
    # The first write goes into directories that do not exist yet.
    first = artifacts.write(document, tmp_path / "new" / "dir" / "a.json")
    assert first.read_text(encoding="utf-8") == (
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )
    second = artifacts.write(artifacts.load(first, kind), tmp_path / "b.json")
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("kind", KINDS)
def test_malformed_input_raises_artifact_error(
    documents, kind, case, tmp_path
):
    path = tmp_path / f"{kind}.json"
    text = BAD_INPUTS[case](documents[kind])
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ArtifactError, match=re.escape(str(path))):
        artifacts.load(path, kind)


def test_mapping_source_is_checked_and_copied(documents):
    document = documents["measurement"]
    loaded = artifacts.load(document, "measurement")
    assert loaded == document and loaded is not document
    with pytest.raises(ArtifactError, match="expected kind 'selfmodel-fit'"):
        artifacts.load(document, "selfmodel-fit")
