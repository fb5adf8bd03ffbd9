"""``auto`` — cost-model-driven dispatch to the predicted-fastest method.

The paper's virtual SOTA (Sec. 5.1) is computed *after* a sweep: the best
prior algorithm per (N, K, batch) point.  A serving system needs that
decision *before* running — RadiK (Li et al., 2025) makes the same move
with a workload-aware dispatcher over radix/sort kernels.  ``auto`` turns
the repository's analytic cost model into that dispatcher: given a problem
shape it ranks every concrete algorithm with
:func:`repro.perf.costmodel.rank_algorithms` and delegates the run to the
predicted winner, recording the choice in :attr:`last_choice`.

Dispatch is a pure function of (n, k, batch, GPU spec) — a memoised table
lookup at enqueue time, so it adds no device work to the run.  Predictions
can be corrected with measured data via a
:class:`repro.perf.adaptive.CorrectionStore` (pass ``corrections=``), the
store ``serve-bench --adaptive --corrections`` learns and saves.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, TopKAlgorithm


class AutoTopK(TopKAlgorithm):
    """Meta-algorithm: run the algorithm the cost model predicts fastest."""

    name = "auto"
    library = "this work"
    category = "dispatch"
    max_k = None
    batched_execution = True

    def __init__(self, *, candidates=None, corrections=None) -> None:
        """``candidates`` restricts the dispatch roster (default: every
        predictable concrete algorithm); ``corrections`` is an optional
        :class:`repro.perf.adaptive.CorrectionStore` (or a path to one)
        whose folded drift residuals rescale the analytic predictions
        (docs/adaptive.md)."""
        from ..perf.costmodel import PREDICTABLE_ALGORITHMS

        if candidates is not None:
            candidates = tuple(candidates)
            if not candidates:
                raise ValueError("candidates must not be empty")
            if self.name in candidates:
                raise ValueError("auto cannot dispatch to itself")
        self.candidates = candidates or PREDICTABLE_ALGORITHMS
        if isinstance(corrections, (str, bytes)) or hasattr(
            corrections, "__fspath__"
        ):
            from ..perf.adaptive import CorrectionStore

            corrections = CorrectionStore.load(corrections)
        self.corrections = corrections
        #: registry name of the algorithm the most recent run dispatched to
        self.last_choice: str | None = None
        #: full prediction ranking behind the most recent dispatch
        self.last_ranking = []

    # ------------------------------------------------------------------ #
    def supports(self, n: int, k: int) -> str | None:
        from .registry import get_algorithm

        for name in self.candidates:
            if get_algorithm(name).supports(n, k) is None:
                return None
        return f"no dispatch candidate supports n={n}, k={k}"

    def choose(self, *, n: int, k: int, batch: int = 1, spec=None) -> str:
        """Predicted-fastest candidate for a problem shape (no run)."""
        from ..perf.costmodel import rank_algorithms

        self.last_ranking = rank_algorithms(
            n=n,
            k=k,
            batch=batch,
            spec=spec,
            candidates=self.candidates,
            corrections=self.corrections,
        )
        return self.last_ranking[0].algo

    # ------------------------------------------------------------------ #
    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        from .registry import get_algorithm

        choice = self.choose(
            n=ctx.nominal_n,
            k=ctx.nominal_k,
            batch=ctx.batch,
            spec=ctx.device.spec,
        )
        self.last_choice = choice
        # the dispatch decision is a host-side table lookup made before the
        # launch sequence is enqueued; it adds no device work to the run
        return get_algorithm(choice)._run(ctx)
