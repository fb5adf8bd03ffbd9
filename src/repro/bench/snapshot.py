"""Snapshot files of the gate benches: recall, cluster and adapt.

Each bench owns its ``repro.bench.<kind>/v1`` schema, and every snapshot
names its kind in its ``schema`` marker, so one writer and one loader
validate all three kinds.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs.schema import SchemaError, validate
from . import adaptbench, clusterbench, recallbench

#: schema marker -> JSON schema, for every gate-bench snapshot kind
SNAPSHOT_SCHEMAS = {
    bench.SCHEMA_ID: bench.SNAPSHOT_SCHEMA
    for bench in (recallbench, clusterbench, adaptbench)
}


def _validate(snapshot: dict) -> None:
    marker = snapshot.get("schema") if isinstance(snapshot, dict) else None
    if marker not in SNAPSHOT_SCHEMAS:
        raise SchemaError(
            [f"$.schema: {marker!r} is not one of {sorted(SNAPSHOT_SCHEMAS)}"]
        )
    validate(snapshot, SNAPSHOT_SCHEMAS[marker])


def write_snapshot(snapshot: dict, path: Path | str) -> Path:
    """Validate and write the snapshot JSON to ``path``."""
    _validate(snapshot)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: Path | str) -> dict:
    """Read and schema-validate a snapshot file of any gate-bench kind."""
    payload = json.loads(Path(path).read_text())
    _validate(payload)
    return payload
