"""Micro-batcher: coalesce compatible requests into one device launch.

The paper's central batched observation is that one device-resident
launch sequence amortises its fixed cost (kernel launches, final sync)
over every row of the batch — per-query time collapses once requests
ride together.  The batcher groups queued requests by
:class:`GroupKey` (problems must share (n, k, dtype, largest) to stack
into one ``(batch, n)`` buffer) and flushes a group when either

* it reaches ``max_batch`` requests (**size trigger**), or
* its oldest request has waited ``max_delay_s`` (**deadline trigger**),
  bounding the latency cost of waiting for company.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..errors import InputError
from .request import Request

#: ``str(dtype)``, remembered per dtype: NumPy formats a dtype's name in
#: Python (about 6 us), and every queued request needs its group's name.
#: Byte orders stay apart (``'>f4'`` is not ``'float32'``): dtypes of
#: different byte order neither compare nor hash equal
_dtype_name = functools.lru_cache(maxsize=64)(str)


def quality_class(min_recall: float | None) -> float | None:
    """Quantised recall-target bucket for batching and cache keying.

    Requests in the same bucket share a dispatch plan (and may share a
    launch); quantising to 1e-3 keeps the number of distinct groups
    bounded under jittery per-request targets.  None — exact traffic —
    is its own class, never mixed with approximate-eligible requests.
    """
    if min_recall is None:
        return None
    return round(float(min_recall), 3)


@dataclass(frozen=True)
class GroupKey:
    """Everything two requests must agree on to share a launch."""

    n: int
    k: int
    dtype: str
    largest: bool
    #: quantised recall-target class (None = exact-only traffic).  Two
    #: requests with different quality classes may need different plans
    #: (exact vs approximate), so they never share a batch.
    quality: float | None = None

    @classmethod
    def of(cls, request: Request) -> "GroupKey":
        return cls(
            n=request.n,
            k=request.k,
            dtype=_dtype_name(request.data.dtype),
            largest=request.largest,
            quality=quality_class(request.min_recall),
        )


class MicroBatcher:
    """Groups pending requests and decides when each group flushes."""

    def __init__(self, *, max_batch: int, max_delay_s: float) -> None:
        if max_batch < 1:
            raise InputError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise InputError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self._groups: dict[GroupKey, list[Request]] = {}
        #: each group's oldest arrival, and the requests queued in all
        self._oldest: dict[GroupKey, float] = {}
        self._pending = 0
        #: optional ``observer(event, key, pending)`` callback fired after
        #: every mutation ("add" / "pop") — the service hangs its
        #: queue-depth telemetry here so depth is sampled at every
        #: admission and flush, not just between batches
        self.observer = None

    def _notify(self, event: str, key: GroupKey) -> None:
        if self.observer is not None:
            self.observer(event, key, self.pending)

    # -- state ---------------------------------------------------------- #
    def __len__(self) -> int:
        return self._pending

    @property
    def pending(self) -> int:
        """Queued requests across all groups (the queue depth gauge)."""
        return self._pending

    def add(self, request: Request) -> GroupKey:
        key = GroupKey.of(request)
        self._groups.setdefault(key, []).append(request)
        arrival = request.arrival_s
        self._oldest[key] = min(self._oldest.get(key, arrival), arrival)
        self._pending += 1
        self._notify("add", key)
        return key

    # -- flush policy --------------------------------------------------- #
    def size_ready(self) -> GroupKey | None:
        """A group at/over ``max_batch``, if any (size trigger)."""
        for key, group in self._groups.items():
            if len(group) >= self.max_batch:
                return key
        return None

    def next_flush_time(self) -> tuple[float, GroupKey] | None:
        """Earliest (deadline, group) at which a group must flush.

        The deadline of a group is its oldest arrival plus
        ``max_delay_s``; the event loop sleeps (in virtual time) until
        the soonest one unless a size trigger fires first.
        """
        best: tuple[float, GroupKey] | None = None
        for key, oldest in self._oldest.items():
            deadline = oldest + self.max_delay_s
            if best is None or deadline < best[0]:
                best = (deadline, key)
        return best

    def pop(self, key: GroupKey) -> list[Request]:
        """Remove and return up to ``max_batch`` requests of a group, in
        arrival order; the remainder (if any) stays queued."""
        group = self._groups.pop(key)
        del self._oldest[key]
        group.sort(key=lambda r: (r.arrival_s, r.rid))
        take, rest = group[: self.max_batch], group[self.max_batch :]
        if rest:
            self._groups[key] = rest
            self._oldest[key] = min(r.arrival_s for r in rest)
        self._pending -= len(take)
        self._notify("pop", key)
        return take

    def groups(self) -> dict[GroupKey, list[Request]]:
        return self._groups
