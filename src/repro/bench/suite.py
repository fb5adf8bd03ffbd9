"""One-call reproduction of the paper's whole evaluation.

The artifact's ``exp.sh`` turns two sweep outputs into Fig. 6, Fig. 7 and
Table 2; this module is the library equivalent: it runs every experiment
of Section 5 on the simulated device and returns (and optionally writes)
the reproduced tables, series and traces.  The per-figure pytest-benchmark
modules under ``benchmarks/`` drive the same code paths with assertions;
this entry point is for interactive and scripted use
(``python -m repro reproduce``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from .report import format_table, format_time, write_csv
from .runner import SweepResult
from .summary import table2
from ..datagen import distance_array, make_dataset
from ..perf import simulate_topk, sol_report


@dataclass
class PaperSuiteResult:
    """Everything `run_paper_suite` produced, as printable sections."""

    sections: list[tuple[str, str]] = field(default_factory=list)
    #: raw sweep behind Fig. 6 / Fig. 7 / Table 2
    sweep_result: SweepResult | None = None
    elapsed_s: float = 0.0

    def add(self, title: str, body: str) -> None:
        self.sections.append((title, body))

    def render(self) -> str:
        parts = []
        for title, body in self.sections:
            parts.append("=" * 72)
            parts.append(title)
            parts.append("=" * 72)
            parts.append(body)
            parts.append("")
        parts.append(f"(suite completed in {self.elapsed_s:.1f}s of wall time)")
        return "\n".join(parts)


def run_paper_suite(
    *,
    out_dir: str | Path | None = None,
    cap: int = 1 << 18,
    full: bool = False,
    seed: int = 0,
    workers: int = 1,
    timeout: float | None = None,
    progress=None,
) -> PaperSuiteResult:
    """Run every Section-5 experiment; ``full=True`` uses the paper grids.

    ``workers``/``timeout``/``progress`` are forwarded to the sweep engine
    (:func:`repro.exec.sweep`) for the two big grids; the
    single-point experiments (timelines, ablations, devices, ANN) always
    run inline.
    """
    from ..exec import sweep  # lazy: repro.exec imports repro.bench.runner

    t0 = time.perf_counter()
    result = PaperSuiteResult()
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    # ---- the Fig. 6 + Fig. 7 grid, summarised into Table 2 ---------------
    ns = [1 << p for p in ((11, 13, 15, 17, 20, 23, 25, 30) if full else (11, 15, 20, 25, 30))]
    ks = (32, 256, 32768)
    grid = sweep(
        distributions=("uniform", "normal", "adversarial"),
        ns=ns,
        ks=ks,
        batches=(1,),
        cap=cap,
        seed=seed,
        workers=workers,
        timeout=timeout,
        progress=progress,
    )
    b100 = sweep(
        distributions=("uniform", "normal", "adversarial"),
        ns=[n for n in ns if n <= 1 << 24],
        ks=ks,
        batches=(100,),
        cap=cap,
        seed=seed,
        workers=workers,
        timeout=timeout,
        progress=progress,
    )
    for p in b100.points:
        grid.add(p)
    result.sweep_result = grid
    if out is not None:
        write_csv(grid.points, out / "paper_grid.csv")

    rows = table2(grid)
    result.add(
        "Table 2 — speedup ranges",
        format_table(
            ["batch", "distribution", "AIR vs Radix", "Grid vs Block", "AIR vs SOTA"],
            [
                (
                    r.batch,
                    r.distribution,
                    r.air_vs_radix.formatted(),
                    r.grid_vs_block.formatted(),
                    r.air_vs_sota.formatted(),
                )
                for r in rows
            ],
        ),
    )

    # ---- Fig. 8: timelines ------------------------------------------------
    radix = simulate_topk(
        "radix_select", distribution="uniform", n=1 << 23, k=2048, cap=cap, seed=seed
    )
    air = simulate_topk(
        "air_topk", distribution="uniform", n=1 << 23, k=2048, cap=cap, seed=seed
    )
    result.add(
        "Fig. 8 — timelines at N=2^23, K=2048",
        "RadixSelect:\n"
        + radix.device.timeline.render()
        + "\n\nAIR Top-K:\n"
        + air.device.timeline.render(),
    )

    # ---- Table 3: SOL -----------------------------------------------------
    big = simulate_topk(
        "air_topk", distribution="uniform", n=1 << 30, k=2048, cap=cap, seed=seed
    )
    result.add(
        "Table 3 — AIR Top-K kernel SOL at N=2^30, K=2048",
        format_table(
            ["kernel", "time %", "memory SOL", "compute SOL"],
            [r.row() for r in sol_report(big.device)],
        ),
    )

    # ---- Fig. 9 / 10 / 11: ablations ---------------------------------------
    ablation_rows = []
    for m in (10, 20):
        n = 1 << (28 if full else 25)
        on = simulate_topk(
            "air_topk", distribution="adversarial", n=n, k=2048,
            adversarial_m=m, cap=cap, seed=seed,
        )
        off = simulate_topk(
            "air_topk", distribution="adversarial", n=n, k=2048,
            adversarial_m=m, cap=cap, seed=seed, adaptive=False,
        )
        ablation_rows.append(
            (f"adaptive strategy, M={m}", f"{off.time / on.time:.2f}x")
        )
    es_on = simulate_topk(
        "air_topk", distribution="uniform", n=1 << 20, k=1 << 20, cap=cap, seed=seed
    )
    es_off = simulate_topk(
        "air_topk", distribution="uniform", n=1 << 20, k=1 << 20, cap=cap,
        seed=seed, early_stop=False,
    )
    ablation_rows.append(
        (
            "early stopping (K=N=2^20)",
            f"{(es_off.time - es_on.time) / es_off.time * 100:.1f}% faster",
        )
    )
    q_sh = simulate_topk(
        "grid_select", distribution="uniform", n=1 << 26, k=256, cap=cap, seed=seed
    )
    q_th = simulate_topk(
        "grid_select", distribution="uniform", n=1 << 26, k=256, cap=cap,
        seed=seed, queue="thread",
    )
    ablation_rows.append(
        ("shared vs per-thread queue (N=2^26)", f"{q_th.time / q_sh.time:.2f}x")
    )
    result.add(
        "Figs. 9/10/11 — design ablations",
        format_table(["ablation", "benefit"], ablation_rows),
    )

    # ---- Fig. 12: devices ---------------------------------------------------
    from ..device import PRESETS

    device_rows = []
    for name in ("A100", "H100", "A10"):
        run = simulate_topk(
            "air_topk", distribution="uniform", n=1 << 30, k=2048,
            spec=PRESETS[name], cap=cap, seed=seed,
        )
        device_rows.append((name, format_time(run.time)))
    result.add(
        "Fig. 12 — AIR Top-K across boards at N=2^30, K=2048",
        format_table(["GPU", "time"], device_rows),
    )

    # ---- Fig. 13: ANN stand-ins --------------------------------------------
    ann_rows = []
    for ds_name in ("deep1b", "sift"):
        dataset = make_dataset(ds_name, 1 << 17, seed=seed)
        dists = distance_array(dataset, 0)
        for k in (10, 100):
            air_t = simulate_topk(
                "air_topk", distribution="ann", n=dists.shape[0], k=k, data=dists
            ).time
            grid_t = simulate_topk(
                "grid_select", distribution="ann", n=dists.shape[0], k=k, data=dists
            ).time
            ann_rows.append(
                (dataset.name, k, format_time(air_t), format_time(grid_t))
            )
    result.add(
        "Fig. 13 — ANN distance arrays at N=2^17",
        format_table(["dataset", "K", "AIR Top-K", "GridSelect"], ann_rows),
    )

    result.elapsed_s = time.perf_counter() - t0
    if out is not None:
        (out / "paper_suite.txt").write_text(result.render() + "\n")
        from ..obs import build_manifest, get_metrics, write_manifest

        artifacts = {"csv": "paper_grid.csv", "report": "paper_suite.txt"}
        registry = get_metrics()
        if registry is not None:
            registry.write(out / "metrics.json")
            artifacts["metrics"] = "metrics.json"
        write_manifest(
            build_manifest(
                command="suite",
                config={
                    "cap": cap,
                    "full": full,
                    "workers": workers,
                    "timeout": timeout,
                    "ns": list(ns),
                    "ks": list(ks),
                    "distributions": ["uniform", "normal", "adversarial"],
                    "batches": [1, 100],
                },
                seed=seed,
                points=grid.points,
                wall_time_s=result.elapsed_s,
                artifacts=artifacts,
            ),
            out / "manifest.json",
        )
    return result
