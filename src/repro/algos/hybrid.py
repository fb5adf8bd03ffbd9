"""Dr. Top-K-style delegate hybrid (Gaihre et al., SC '21 — paper Sec. 2.2).

The hybrid cuts the input into sub-ranges of size ``g``, computes each
sub-range's best element (its *delegate*) with a cheap reduction, selects
the top-k **delegates**, and runs the final top-k only over the k
sub-ranges those delegates came from — ``k * g`` candidates instead of N.

Soundness: if a sub-range S contains a top-k element x, at most k - 1
other elements are at least as good as x, so fewer than k delegates can
beat min(S) <= x — S's delegate is among the top-k delegates (ties
resolved by selecting with <=, i.e. keeping k delegates).  Hence the k
selected sub-ranges cover every top-k element.

The paper treats Dr. Top-K as orthogonal to its contributions: it *needs*
a base top-k algorithm and benefits from a fast one.  This implementation
accepts any registered algorithm as the base, so the claim is testable
(see benchmarks/test_ext_drtopk_hybrid.py).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .base import RunContext, RunShape, TopKAlgorithm
from ..device import Step, streaming_grid
from ..perf import calibration as cal


class HybridRow(NamedTuple):
    """What one row's steps read of a run (:meth:`DrTopKHybrid.schedule`)."""

    #: the row's sub-ranges, one delegate each; None when the row is too
    #: short to reduce and the base selects it whole
    delegates: int | None
    #: elements of the k winning sub-ranges (None as for ``delegates``)
    candidates: int | None
    #: the base's counts: of the delegate and the final selection, or of
    #: the whole row
    counts: tuple


class DrTopKHybrid(TopKAlgorithm):
    """Delegate-centric hybrid over a configurable base top-k algorithm."""

    name = "drtopk_hybrid"
    library = "Dr.Top-K"
    category = "hybrid"
    max_k = None
    batched_execution = False  # the reference processes one problem at a time

    def __init__(self, *, base: str = "air_topk", delegate_size: int | None = None):
        """``base`` is any exact method with a schedule; ``delegate_size``
        is the sub-range length g; by default it is chosen near
        sqrt(N / k), which balances the two selection phases (N/g
        delegates against k*g final candidates)."""
        # late: the registry imports this module
        from .registry import available_algorithms, get_algorithm

        if delegate_size is not None and delegate_size < 1:
            raise ValueError(f"delegate_size must be >= 1, got {delegate_size}")
        self.base = get_algorithm(base)
        if not self.base.exact or type(self.base).schedule is TopKAlgorithm.schedule:
            valid = [
                info.name for info in available_algorithms()
                if info.exact and info.name != "auto"
            ]
            raise ValueError(
                f"the hybrid's base must be an exact method with a schedule, "
                f"got {base!r}; valid bases: {', '.join(valid)}"
            )
        self.base_name = base
        self.delegate_size = delegate_size

    def supports(self, n: int, k: int) -> str | None:
        # the base only ever selects over min(N/g, k) <= k... its own k cap
        # still applies to the delegate selection (k delegates are selected)
        return self.base.supports(n, k)

    def _choose_g(self, n: int, k: int) -> int:
        if self.delegate_size is not None:
            return self.delegate_size
        return max(1, int(math.sqrt(n / max(1, k))))

    def base_runs(self, run: RunShape, row: HybridRow) -> tuple[RunShape, ...]:
        """The base's run shapes for one row: the delegate and the final
        selection, or the whole row."""
        g = self._choose_g(run.nominal_n, run.nominal_k)

        def base_run(n: int, nominal_n: int) -> RunShape:
            return RunShape(
                1, n, run.k, max(nominal_n, n), run.k, run.scale, run.key_bits
            )

        if row.delegates is None:
            return (base_run(run.n, run.nominal_n),)
        return (
            base_run(row.delegates, max(1, run.nominal_n // g)),
            base_run(row.candidates, max(1, run.nominal_k * g)),
        )

    def schedule(
        self, spec, run: RunShape, counts: tuple[HybridRow, ...]
    ) -> list[Step]:
        """Every step of a run, row by row: the delegate reduction, the
        base's schedule over the delegates, the gather of the winning
        sub-ranges and the base's schedule over them; or, for a row too
        short to reduce, the base's schedule over the whole row.  A row
        that is the previous row's record repeats its steps (the
        predictor's rows are one record)."""
        steps, last, last_steps = [], None, []
        for row in counts:
            if row is not last:
                last, last_steps = row, self._row_steps(spec, run, row)
            steps += last_steps
        return steps

    def _row_steps(self, spec, run: RunShape, row: HybridRow) -> list[Step]:
        runs = self.base_runs(run, row)
        if row.delegates is None:
            return self.base.schedule(spec, runs[0], row.counts[0])
        n, m = run.n, row.candidates
        return [
            Step.launch(
                "ComputeDelegates",
                grid_blocks=streaming_grid(
                    spec, max(1, int(n * run.scale)),
                    items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
                ),
                block_threads=256,
                bytes_read=4.0 * n,
                bytes_written=4.0 * row.delegates,
                flops=1.0 * n,
            ),
            *self.base.schedule(spec, runs[0], row.counts[0]),
            Step.launch(
                "GatherCandidateRanges",
                grid_blocks=streaming_grid(spec, max(1, int(m * run.scale))),
                block_threads=256,
                bytes_read=4.0 * m,
                bytes_written=4.0 * m,
                flops=1.0 * m,
            ),
            *self.base.schedule(spec, runs[1], row.counts[1]),
        ]

    def _select(
        self, ctx: RunContext
    ) -> tuple[np.ndarray, np.ndarray, tuple[HybridRow, ...]]:
        batch, n = ctx.keys.shape
        out_keys = np.empty((batch, ctx.k), dtype=ctx.keys.dtype)
        out_idx = np.empty((batch, ctx.k), dtype=np.int64)
        rows = []
        for row in range(batch):
            # fresh identically-seeded stream per row (the delegated base
            # may consume it): batched == stacked single-shot runs
            ctx.rng = np.random.default_rng(ctx.seed)
            out_keys[row], out_idx[row], record = self._select_row(
                ctx, ctx.keys[row]
            )
            rows.append(record)
        return out_keys, out_idx, tuple(rows)

    def _base_select(
        self, ctx: RunContext, keys: np.ndarray, nominal_n: int
    ) -> tuple[np.ndarray, np.ndarray, object]:
        """Run the base's data work on a key list: its keys, indices and
        counts."""
        child = RunContext(
            device=ctx.device,
            keys=keys[None, :],
            k=ctx.k,
            nominal_n=max(nominal_n, keys.shape[0]),
            nominal_k=ctx.k,
            rng=ctx.rng,
            seed=ctx.seed,
        )
        child_keys, child_idx, counts = self.base._select(child)
        return child_keys[0], child_idx[0], counts

    def _select_row(
        self, ctx: RunContext, row_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, HybridRow]:
        n = row_keys.shape[0]
        k = ctx.k
        g = self._choose_g(ctx.nominal_n, ctx.nominal_k)
        num_ranges = -(-n // g)

        if g <= 1 or num_ranges <= k:
            # no reduction possible: delegate phase would keep everything
            keys, idx, counts = self._base_select(ctx, row_keys, ctx.nominal_n)
            return keys, idx, HybridRow(None, None, (counts,))

        # phase 1: per-sub-range minimum (the delegates) — one reduce kernel
        pad = num_ranges * g - n
        padded = np.concatenate(
            [row_keys, np.full(pad, ~row_keys.dtype.type(0), dtype=row_keys.dtype)]
        )
        ranges = padded.reshape(num_ranges, g)
        delegates = ranges.min(axis=1)

        # phase 2: top-k of the delegates with the base algorithm
        _, delegate_order, delegate_counts = self._base_select(
            ctx, delegates, max(1, ctx.nominal_n // g)
        )

        # phase 3: gather the k winning sub-ranges, final top-k over them
        winners = np.sort(delegate_order)
        candidates = ranges[winners].reshape(-1)
        cand_base = winners * g  # original offset of each gathered range
        final_keys, final_local, final_counts = self._base_select(
            ctx, candidates, max(1, ctx.nominal_k * g)
        )
        # local candidate positions -> original row positions
        final_idx = cand_base[final_local // g] + (final_local % g)
        row = HybridRow(
            num_ranges, candidates.shape[0], (delegate_counts, final_counts)
        )
        return final_keys, final_idx, row
