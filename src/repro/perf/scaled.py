"""Scaled execution: benchmark the paper's largest problems without 4 GiB arrays.

The paper's evaluation reaches N = 2^30 (4 GiB of float32 per problem,
x100 for batch 100).  A Python process cannot realistically materialise
and churn through that per benchmark point, so above a configurable cap
the driver executes the *same algorithm* on a proportionally scaled
problem — N and K shrunk by the same factor, data drawn from the same
distribution — while the simulated :class:`repro.device.Device` multiplies
every data-dependent quantity (bytes, FLOPs, dependent cycles, workspace)
back up by the scale factor.  Launch counts, PCIe setup latencies and host
synchronisations are intensive quantities and are *not* scaled.

Why this preserves the paper's observable shapes (DESIGN.md Sec. 2):

* radix/bucket/sample trajectories depend on the data distribution and the
  K/N ratio, both preserved exactly (including the adversarial shared-
  prefix property);
* queue-algorithm event counts scale linearly: E[inserts] ~ K ln(N/K), and
  K_s ln(N_s/K_s) = K_s ln(N/K), so counts scale by K_s/K = 1/scale — the
  same factor the device multiplies back;
* everything intensive (iteration counts, kernel launches, round trips)
  is identical by construction.

Correctness tests never use scaled mode; it exists purely for the
performance figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algos import TopKResult, UnsupportedProblem, get_algorithm
from ..datagen import generate
from ..device import Device, GPUSpec, A100
from ..errors import InputError, check_problem

#: default cap on materialised elements per run (batch * n)
DEFAULT_EXACT_CAP = 1 << 20

#: smallest scaled problem we allow per row; below this, discreteness noise
#: (histogram counts of a few dozen elements) would dominate the trajectory
MIN_SCALED_N = 1 << 12


@dataclass(frozen=True)
class SimulatedRun:
    """One benchmark measurement on the simulated device."""

    algo: str
    distribution: str
    n: int
    k: int
    batch: int
    #: simulated wall-clock seconds
    time: float
    #: 'exact' for fully materialised runs, 'scaled' above the cap
    mode: str
    #: the device that accounted the run
    device: Device
    #: present for exact runs (used by integration tests), None when scaled
    result: TopKResult | None = None
    #: concrete algorithm an ``auto`` run dispatched to, None otherwise
    dispatch: str | None = None


def scale_factors(
    n: int, k: int, batch: int, cap: int
) -> tuple[int, int, float]:
    """Choose the scaled (n_s, k_s) and the device scale for a problem.

    Returns ``(n_s, k_s, scale)`` with ``scale = n / n_s`` and ``k_s``
    shrunk by the same ratio (clamped to [1, n_s]).
    """
    check_problem(n, k, batch)
    if cap <= 0:
        raise InputError(f"cap must be positive, got {cap}")
    per_row_cap = max(MIN_SCALED_N, cap // batch)
    if n <= per_row_cap:
        return n, k, 1.0
    n_s = per_row_cap
    scale = n / n_s
    k_s = min(n_s, max(1, round(k / scale)))
    return n_s, k_s, scale


def simulate_topk(
    algo: str,
    *,
    distribution: str,
    n: int,
    k: int,
    batch: int = 1,
    spec: GPUSpec = A100,
    cap: int = DEFAULT_EXACT_CAP,
    seed: int = 0,
    adversarial_m: int = 20,
    largest: bool = False,
    data: np.ndarray | None = None,
    **algo_kwargs,
) -> SimulatedRun:
    """Run one benchmark point, choosing exact or scaled execution.

    ``data`` overrides generation for exact-mode runs (e.g. the ANN
    distance arrays of Fig. 13); it must match ``(batch, n)`` and forces
    exact mode.

    Raises :class:`repro.algos.UnsupportedProblem` when the algorithm
    cannot handle the *nominal* (n, k) — mirroring the gaps in the paper's
    figures.
    """
    algorithm = get_algorithm(algo, params=algo_kwargs)
    if data is not None:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim == 1:
            data = data[None, :]
        if data.shape != (batch, n):
            raise ValueError(
                f"provided data has shape {data.shape}, expected {(batch, n)}"
            )
        n_s, k_s, scale = n, k, 1.0
    else:
        n_s, k_s, scale = scale_factors(n, k, batch, cap)
        data = generate(
            distribution, n_s, batch=batch, seed=seed, adversarial_m=adversarial_m
        )
    device = Device(spec, scale=scale)
    result = algorithm.select(
        data,
        k_s,
        device=device,
        largest=largest,
        seed=seed,
        nominal_n=n,
        nominal_k=k,
    )
    mode = "exact" if scale == 1.0 else "scaled"
    return SimulatedRun(
        algo=algo,
        distribution=distribution,
        n=n,
        k=k,
        batch=batch,
        time=result.time,
        mode=mode,
        device=device,
        result=result if mode == "exact" else None,
        dispatch=getattr(algorithm, "last_choice", None),
    )
