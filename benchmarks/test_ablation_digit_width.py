"""Ablation: radix digit width (paper Sec. 3.1).

The paper argues for b = 11 over b = 8: the fused block-level scan makes a
2048-entry histogram affordable, which cuts 32-bit selection from 4 passes
to 3 and the kernel count from 5 to 4.  This ablation sweeps the digit
width of AIR Top-K and confirms:

* the pass count is ceil(32/b), and each extra pass costs a full read of
  the surviving candidates (for uniform data, pass 2 re-reads the input);
* b = 11 beats b = 8 — the paper's choice — and stays on the optimum
  plateau, while very narrow digits (more passes) and very wide digits
  (histograms beyond one block's shared memory, modelled through the scan
  work) lose.
"""

from __future__ import annotations

import csv

import pytest

from repro import topk
from repro.bench import format_table, format_time
from repro.datagen import generate

WIDTHS = (4, 8, 11, 16)
N = 1 << 22


def run_sweep():
    rows = []
    for dist in ("uniform", "adversarial"):
        data = generate(dist, N, seed=6)[0]
        for bits in WIDTHS:
            r = topk(data, 2048, algo="air_topk", params={"digit_bits": bits})
            rows.append(
                (
                    dist,
                    bits,
                    -(-32 // bits),
                    r.device.counters.kernel_launches,
                    r.time,
                    r.device.counters.bytes_total,
                )
            )
    return rows


def test_digit_width_ablation(benchmark, out_dir):
    rows = benchmark.pedantic(run_sweep, iterations=1, rounds=1)
    print(f"\nAblation — AIR Top-K digit width at N=2^22, K=2048")
    print(
        format_table(
            ["distribution", "digit bits", "passes", "kernels", "time", "traffic"],
            [
                (d, b, p, kr, format_time(t), f"{tr / 1e6:.2f}MB")
                for d, b, p, kr, t, tr in rows
            ],
        )
    )
    with (out_dir / "ablation_digit_width.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["distribution", "digit_bits", "passes", "kernels", "time_s", "traffic"]
        )
        writer.writerows(rows)

    by = {(d, b): (p, kr, t, tr) for d, b, p, kr, t, tr in rows}

    # structural claims
    for (d, b), (p, kr, _, _) in by.items():
        assert p == -(-32 // b)
        assert kr == p + 1  # fused kernels + last filter

    for dist in ("uniform", "adversarial"):
        times = {b: by[(dist, b)][2] for b in WIDTHS}
        # the paper's b=11 beats b=8
        assert times[11] <= times[8], dist
        # and very narrow digits (8 passes of everything) lose clearly
        assert times[4] > times[11], dist

    # adversarial data amplifies the pass count: each pass re-reads N
    adv = {b: by[("adversarial", b)][3] for b in WIDTHS}
    assert adv[4] > 1.5 * adv[11]
