"""Report artifacts: one writer, one loader, one schema table.

Seven report kinds leave this library as JSON documents, each an object
carrying its ``"kind"`` and ``"schema"``: ``chaos-campaign`` and
``failover-drill`` (:mod:`repro.chaos`), ``measurement``
(:mod:`repro.obs.monitor`), ``selfmodel-fit`` and
``selfmodel-prediction`` (:mod:`repro.selfmodel`), and
``metastable-regime-map`` and ``metastable-campaign``
(:mod:`repro.metastable`).

:data:`SCHEMAS` declares each kind's current schema; producers stamp
it.  :func:`write` is the only writer and :func:`load` the only reader:
it checks the kind against the kinds the caller accepts, upgrades an
older schema through a registered shim, and raises one
:class:`~repro.exceptions.ArtifactError` naming the source for every
way a document can be unusable.

Model documents (:mod:`repro.core.serialize`), the solve-cache spill
file and trace JSONL are different formats with their own readers.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict, Mapping, Tuple, Union

from repro.exceptions import ArtifactError

#: Current schema of every report kind.
SCHEMAS: Dict[str, int] = {
    "chaos-campaign": 1,
    "failover-drill": 1,
    # v2 added the "exposure" block (total shard exposure + kill count,
    # the inputs of repro.estimation.estimate_failure_rate) and put
    # kill_count in the deterministic block.
    "measurement": 2,
    "selfmodel-fit": 1,
    "selfmodel-prediction": 1,
    "metastable-regime-map": 1,
    "metastable-campaign": 1,
}


def write(
    document: Mapping[str, Any], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write ``document`` as sorted-key JSON; returns the path.

    The bytes are stable (2-space indent, sorted keys, trailing
    newline, UTF-8), so same-seed artifacts diff clean.  Missing parent
    directories are created.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(dict(document), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def load(
    source: Union[str, pathlib.Path, Mapping[str, Any]], *kinds: str
) -> Dict[str, Any]:
    """Read an artifact of one of ``kinds``, upgraded to its current schema.

    Args:
        source: Path to a JSON artifact, or an already-parsed mapping
            (e.g. the ``measurement`` block embedded in a drill report).
        kinds: The ``"kind"`` values the caller accepts.

    Returns:
        A new dict at the schema :data:`SCHEMAS` declares for its kind.

    Raises:
        ArtifactError: If the file cannot be read, is not valid JSON or
            not a JSON object, its kind is not in ``kinds``, or its
            schema is neither current nor upgradable.
    """
    if isinstance(source, Mapping):
        label = "in-memory artifact"
        document: Any = dict(source)
    else:
        label = str(source)
        try:
            document = json.loads(
                pathlib.Path(source).read_text(encoding="utf-8")
            )
        except OSError as exc:
            raise ArtifactError(
                f"{label}: cannot read artifact ({exc.strerror or exc})"
            ) from exc
        except ValueError as exc:
            raise ArtifactError(f"{label}: not valid JSON ({exc})") from exc
        if not isinstance(document, dict):
            raise ArtifactError(
                f"{label}: expected a JSON object, got "
                f"{type(document).__name__}"
            )
    kind = document.get("kind")
    if kind not in kinds:
        raise ArtifactError(
            f"{label}: expected kind {' or '.join(map(repr, kinds))}, "
            f"got {kind!r}"
        )
    schema = document.get("schema")
    if schema == SCHEMAS[kind]:
        return document
    # A JSON list or object here is unhashable; keep it off the lookup.
    upgrade = (
        _UPGRADES.get((kind, schema)) if isinstance(schema, int) else None
    )
    if upgrade is None:
        raise ArtifactError(
            f"{label}: unsupported {kind} schema {schema!r} "
            f"(this library reads {SCHEMAS[kind]})"
        )
    return upgrade(document)


def _measurement_v1(report: Dict[str, Any]) -> Dict[str, Any]:
    """v1 measurement reports predate the ``"exposure"`` block: derive
    it from the campaign duration and the shard-episode count, so
    consumers (:mod:`repro.selfmodel` above all) see one shape."""
    campaign = report.get("campaign", {})
    campaign_seconds = float(campaign.get("duration_s") or 0.0)
    n_shards = int(report.get("n_shards") or 0)
    # v1 had no explicit kill counter; every kill opened a shard
    # episode, so the episode count is the faithful reconstruction.
    kill_count = len(report.get("shard_episodes", ())) + len(
        report.get("incomplete_shard_episodes", ())
    )
    report = dict(report)
    report["schema"] = SCHEMAS["measurement"]
    report["exposure"] = {
        "campaign_seconds": campaign_seconds,
        "shard_seconds": campaign_seconds * max(n_shards, 1),
        "kill_count": kill_count,
    }
    deterministic = dict(report.get("deterministic", {}))
    deterministic.setdefault("kill_count", kill_count)
    deterministic["schema"] = SCHEMAS["measurement"]
    report["deterministic"] = deterministic
    return report


#: ``(kind, old schema) -> upgrade`` to that kind's current schema.
_UPGRADES: Dict[
    Tuple[str, int], Callable[[Dict[str, Any]], Dict[str, Any]]
] = {
    ("measurement", 1): _measurement_v1,
}
