"""Deterministic fault injection decisions.

The injector answers one question — *does this fault fire here, now?* —
as a pure function of ``(plan seed, kind, site, decision key)``.  The
uniform draw behind each decision comes from a sha256 hash rather than a
stateful RNG, so the answer does not depend on how many other decisions
were made before it or which thread asked.  That property is what lets
the chaos tests pin ``workers=1 == workers=N`` under the same fault seed.

Sticky semantics: a rule with ``sticky=True`` ignores the ``attempt``
component of the key, so every retry of the same operation sees the same
verdict (a hard fault); non-sticky rules draw fresh per attempt (a
transient fault a retry can clear).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

from .plan import FaultPlan, FaultRule

#: key component the sticky logic strips — callers pass ``attempt=i``
_ATTEMPT_PREFIX = "attempt="


def fault_draw(seed: int, kind: str, site: str, *key: object) -> float:
    """The uniform [0, 1) draw behind one injection decision.

    Pure and stateless: sha256 over the seed, kind, site and key parts.
    """
    text = ":".join([str(seed), kind, site, *[str(part) for part in key]])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") / float(1 << 64)


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault: what, where, and under which rule."""

    kind: str
    site: str
    key: tuple
    rule: FaultRule
    draw: float

    @property
    def factor(self) -> float:
        return self.rule.factor


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the seams that consult it.

    ``decide()`` is deterministic and order-independent; the only mutable
    state is the event log and per-kind tally kept for reporting (list
    append / Counter update, safe under the GIL for the thread fan-out
    the sharder uses).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.events: list[FaultEvent] = []
        self.counts: Counter = Counter()

    def decide(self, kind: str, site: str, *key: object) -> FaultEvent | None:
        """The fault firing at ``(kind, site, key)``, or None.

        The first matching rule whose draw lands under its rate wins.
        ``attempt=<i>`` key parts are dropped for sticky rules so retries
        of a hard fault keep failing.
        """
        for rule in self.plan.rules:
            if rule.kind != kind or not rule.matches(site) or rule.rate <= 0.0:
                continue
            parts = key
            if rule.sticky:
                parts = tuple(
                    p
                    for p in key
                    if not (isinstance(p, str) and p.startswith(_ATTEMPT_PREFIX))
                )
            draw = fault_draw(self.plan.seed, kind, site, *parts)
            if draw < rule.rate:
                event = FaultEvent(
                    kind=kind, site=site, key=tuple(key), rule=rule, draw=draw
                )
                self.events.append(event)
                self.counts[kind] += 1
                return event
        return None

    def fault_counts(self) -> dict[str, int]:
        """Fired faults by kind (reported in ServeStats and manifests)."""
        return dict(sorted(self.counts.items()))
