"""One gate harness for the recall, cluster and adapt benches.

Each gate bench measures into a *body* (validated by the bench's own
``BODY_SCHEMA``) and declares its gates as a tuple of :class:`Gate`
records over that body.  This module does the rest for all three:

* :func:`evaluate` turns the declarations into :class:`GateCheck`
  verdicts — name, value, bound, direction and ``ok``;
* :func:`make_snapshot` wraps body and verdicts in one
  ``repro.bench.gates/v1`` envelope (``bench``, ``rev``, ``gpu``,
  ``seed``, ``gates``, ``body``), written and read back by
  :func:`write_snapshot` / :func:`load_snapshot`;
* :func:`finish` is the CLI tail: the bench's table, one line per
  verdict (``GATE FAIL: <name> = <value> (need <op> <bound>)`` on a
  miss), the ``--out`` snapshot, and exit 1 on any failure — or when no
  gate was evaluated at all — else 0.

``repro-topk inspect`` prints the verdicts a snapshot recorded; it never
re-grades the body, so it always agrees with the run that wrote it.
"""

from __future__ import annotations

import importlib
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from ..obs.manifest import git_revision
from ..obs.schema import SchemaError, validate

logger = logging.getLogger(__name__)

SCHEMA_ID = "repro.bench.gates/v1"

#: the gate benches; each is the module ``repro.bench.<name>bench``
BENCHES = ("recall", "cluster", "adapt")

#: ``better`` -> the comparison a passing value satisfies
_OPS = {"max": ">=", "min": "<="}


@dataclass(frozen=True)
class Gate:
    """One declared gate: ``measure(body)`` must reach ``bound``.

    ``better`` is the direction of a good value: ``"max"`` passes at
    ``value >= bound``, ``"min"`` at ``value <= bound``.  ``measure``
    returns None when the gate does not apply to the body; the snapshot
    then leaves it out, so it records exactly which gates were judged.
    """

    name: str
    bound: float
    better: str
    measure: Callable[[dict], float | None]


@dataclass(frozen=True)
class GateCheck:
    """One evaluated gate, as recorded in a snapshot's ``gates`` list."""

    name: str
    value: float
    bound: float
    better: str
    ok: bool

    def line(self) -> str:
        verdict = "gate ok" if self.ok else "GATE FAIL"
        return (
            f"{verdict}: {self.name} = {self.value:.6g} "
            f"(need {_OPS[self.better]} {self.bound:g})"
        )


def _passes(value: float, bound: float, better: str) -> bool:
    return value >= bound if better == "max" else value <= bound


def evaluate(gates: tuple[Gate, ...], body: dict) -> list[GateCheck]:
    """The verdict of every gate that applies to ``body``."""
    verdicts = []
    for gate in gates:
        value = gate.measure(body)
        if value is None:
            continue
        value, bound = float(value), float(gate.bound)
        verdicts.append(
            GateCheck(gate.name, value, bound, gate.better,
                      _passes(value, bound, gate.better))
        )
    return verdicts


def bench_module(name: str):
    """The ``repro.bench.<name>bench`` module of a gate bench."""
    if name not in BENCHES:
        raise ValueError(f"unknown gate bench {name!r}; one of {BENCHES}")
    return importlib.import_module(f"{__package__}.{name}bench")


ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["schema", "bench", "rev", "gpu", "seed", "gates", "body"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "bench": {"enum": list(BENCHES)},
        "rev": {"type": "string"},
        "gpu": {"type": "string"},
        "seed": {"type": "integer"},
        "gates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value", "bound", "better", "ok"],
                "properties": {
                    "name": {"type": "string"},
                    "value": {"type": "number"},
                    "bound": {"type": "number"},
                    "better": {"enum": list(_OPS)},
                    "ok": {"type": "boolean"},
                },
            },
        },
        "body": {"type": "object"},
    },
}


def _validate(snapshot: dict) -> None:
    validate(snapshot, ENVELOPE_SCHEMA)
    body_schema = bench_module(snapshot["bench"]).BODY_SCHEMA
    validate(snapshot, {"properties": {"body": body_schema}})
    for i, g in enumerate(snapshot["gates"]):
        if g["ok"] != _passes(g["value"], g["bound"], g["better"]):
            raise SchemaError(
                [f"$.gates[{i}]: verdict ok={g['ok']} contradicts "
                 f"{g['value']!r} {_OPS[g['better']]} {g['bound']!r}"]
            )


def make_snapshot(
    bench: str, body: dict, *, gpu: str, seed: int, rev: str | None = None
) -> dict:
    """Evaluate ``bench``'s gates over ``body`` into a validated envelope."""
    snapshot = {
        "schema": SCHEMA_ID,
        "bench": bench,
        "rev": rev if rev is not None else git_revision(short=True) or "local",
        "gpu": gpu,
        "seed": int(seed),
        "gates": [
            asdict(c) for c in evaluate(bench_module(bench).GATES, body)
        ],
        "body": body,
    }
    _validate(snapshot)
    return snapshot


def checks(snapshot: dict) -> list[GateCheck]:
    """The verdicts a snapshot recorded."""
    return [GateCheck(**g) for g in snapshot["gates"]]


def write_snapshot(snapshot: dict, path: Path | str) -> Path:
    """Validate and write the snapshot JSON to ``path``."""
    _validate(snapshot)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: Path | str) -> dict:
    """Read and validate a gate-bench snapshot: envelope, the named
    bench's body schema, and each verdict against its own value."""
    payload = json.loads(Path(path).read_text())
    _validate(payload)
    return payload


def render_verdicts(snapshot: dict) -> str:
    """One line per recorded verdict, then the bench's summary line; a
    snapshot that judged no gate at all reads as a failure."""
    found = checks(snapshot)
    if not found:
        return "GATE FAIL: no gate evaluated"
    lines = [c.line() for c in found]
    failed = sum(not c.ok for c in found)
    lines.append(
        f"{snapshot['bench']} gates: "
        + (f"{failed} of {len(found)} FAIL" if failed else f"{len(found)} ok")
    )
    return "\n".join(lines)


def finish(snapshot: dict, out: Path | str | None = None) -> int:
    """CLI tail of the gate benches: report, verdicts, ``--out``, exit code."""
    bench = snapshot["bench"]
    print(
        f"{bench}-bench on {snapshot['gpu']} (rev {snapshot['rev']}, "
        f"seed {snapshot['seed']})"
    )
    print(bench_module(bench).render_table(snapshot["body"]))
    print(render_verdicts(snapshot))
    if out is not None:
        print(f"snapshot: {write_snapshot(snapshot, out)}")
    found = checks(snapshot)
    if not found or not all(c.ok for c in found):
        logger.error("%s-bench: gate failure", bench)
        return 1
    return 0
