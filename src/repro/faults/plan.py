"""Declarative, seeded fault plans.

A :class:`FaultPlan` is the complete description of a chaos experiment:
one seed plus a list of :class:`FaultRule` entries saying which fault
kind fires where, at what rate, and with what parameters.  Plans are
plain frozen dataclasses — picklable across a ``multiprocessing`` pool,
hashable, and round-trippable through the ``repro.faults.plan/v1`` JSON
schema that ``repro-topk serve-bench --faults`` loads.

Determinism is the whole point: a plan does not *roll dice* while the
system runs.  Every injection decision is a pure function of
``(plan seed, fault kind, site, decision key)`` — see
:mod:`repro.faults.injector` — so the same plan produces the same faults
whether the work runs inline, threaded, or across a process pool, and a
re-run reproduces a failure exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.schema import validate

#: every fault kind the injector understands (see docs/faults.md for the
#: site-by-site semantics)
FAULT_KINDS = (
    "shard_failure",
    "straggler",
    "worker_crash",
    "cache_corruption",
    "timeout",
    "node_crash",
    "node_partition",
)

#: the five kinds a single-node service injects (the node_* kinds are
#: router seams — see repro.cluster — and never fire inside a node)
SERVE_FAULT_KINDS = FAULT_KINDS[:5]

#: kinds the cluster router consults at the ``cluster.node`` site:
#: ``node_crash`` makes a replica unreachable (sticky = the node has
#: left the cluster; transient = it crashes for one fault epoch and
#: rejoins), ``node_partition`` lets the node execute the work but
#: drops its reply on the way back to the router
NODE_FAULT_KINDS = FAULT_KINDS[5:]

#: sites at which the seams consult the injector
FAULT_SITES = (
    "serve.shard",
    "serve.batch",
    "serve.cache",
    "cluster.node",
)

FAULT_PLAN_SCHEMA = {
    "type": "object",
    "required": ["schema", "seed", "rules"],
    "properties": {
        "schema": {"const": "repro.faults.plan/v1"},
        "seed": {"type": "integer"},
        "rules": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "rate"],
                "properties": {
                    "kind": {"enum": list(FAULT_KINDS)},
                    "rate": {"type": "number"},
                    "site": {"type": "string"},
                    "factor": {"type": "number"},
                    "sticky": {"type": "boolean"},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class FaultRule:
    """One kind of fault, injected at one (family of) site(s)."""

    #: what goes wrong — one of :data:`FAULT_KINDS`
    kind: str
    #: probability an eligible decision point fires, in [0, 1]
    rate: float
    #: site filter: ``"*"`` matches everywhere the kind applies, otherwise
    #: a prefix of one of :data:`FAULT_SITES` (e.g. ``"serve.shard"``)
    site: str = "*"
    #: slowdown multiplier for ``straggler``/``timeout`` faults (>= 1)
    factor: float = 4.0
    #: when True the fault is *persistent*: once it fires for a decision
    #: key, every retry of the same operation fails too (retries draw
    #: fresh outcomes otherwise — the transient-fault model)
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.site != "*" and not any(
            site.startswith(self.site) for site in FAULT_SITES
        ):
            # a misspelt site would load fine and never fire
            raise ValueError(
                f"site must be '*' or a prefix of one of {FAULT_SITES}, "
                f"got {self.site!r}"
            )

    def matches(self, site: str) -> bool:
        return self.site == "*" or site.startswith(self.site)

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "site": self.site,
            "factor": self.factor,
            "sticky": self.sticky,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultRule":
        return cls(
            kind=payload["kind"],
            rate=payload["rate"],
            site=payload.get("site", "*"),
            factor=payload.get("factor", 4.0),
            sticky=payload.get("sticky", False),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules; empty by default (inject nothing)."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # normalise lists passed by callers into the hashable tuple form
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    @property
    def empty(self) -> bool:
        """True when no rule can ever fire (rate-0 rules count as inert)."""
        return all(rule.rate <= 0.0 for rule in self.rules)

    def injector(self):
        """A fresh :class:`~repro.faults.injector.FaultInjector` over this plan."""
        from .injector import FaultInjector

        return FaultInjector(self)

    # -- JSON round trip ------------------------------------------------- #
    def to_payload(self) -> dict:
        return {
            "schema": "repro.faults.plan/v1",
            "seed": self.seed,
            "rules": [rule.to_payload() for rule in self.rules],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        validate(payload, FAULT_PLAN_SCHEMA)
        rules = tuple(FaultRule.from_payload(r) for r in payload["rules"])
        return cls(seed=payload["seed"], rules=rules)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_payload(json.loads(Path(path).read_text()))


def validate_fault_plan(payload: object) -> None:
    """Raise :class:`repro.obs.SchemaError` unless ``payload`` is a valid
    ``repro.faults.plan/v1`` document (rule fields are range-checked by
    :class:`FaultRule` on construction)."""
    validate(payload, FAULT_PLAN_SCHEMA)
    for rule in payload["rules"]:  # type: ignore[index]
        FaultRule.from_payload(rule)
