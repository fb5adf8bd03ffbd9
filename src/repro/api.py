"""The public facade: one keyword-only ``topk`` entry point.

Everything user-facing — the CLI, :mod:`repro.serve`, the examples —
funnels through :func:`topk`, with a single signature::

    repro.topk(data, k, *, algo="auto", device=A100, largest=False,
               batch=None, seed=0, params=None,
               mode="auto", min_recall=None)

* ``algo`` defaults to the cost-model ``auto`` dispatcher, so a bare
  call picks the predicted-fastest method for the problem shape;
* ``mode`` and ``min_recall`` (v2.1) opt into the approximate tier:
  ``mode="approx"`` restricts dispatch to approximate methods,
  ``min_recall=`` sets the recall target the quality-aware planner must
  clear, and ``mode="exact"`` asserts the exact tier (rejecting
  approximate ``algo`` names).  A bare call never returns an
  approximate result — ``mode="auto"`` without ``min_recall`` is the
  v2.0 exact path, byte for byte;
* ``device`` accepts a preset name (``"A100"``), a :class:`GPUSpec`, or
  an existing :class:`Device` to account the run against — no separate
  ``spec`` argument;
* ``batch`` reshapes a flat buffer into ``(batch, n)`` rows, the layout
  a serving tier hands over;
* ``params`` is the single dict of algorithm-specific tuning, matching
  the ``tunables`` of the registry's :class:`~repro.algos.AlgorithmInfo`;
  an unknown key raises :class:`ValueError`.

Bad arguments to the facade itself raise :class:`repro.InputError`, a
:class:`ValueError` subclass.
"""

from __future__ import annotations

import numpy as np

from .algos import TopKResult, get_algorithm
from .device import A100, Device, GPUSpec, get_spec
from .errors import InputError

__all__ = ["topk", "resolve_device"]


def resolve_device(
    device: Device | GPUSpec | str | None,
) -> tuple[Device | None, GPUSpec]:
    """Normalise the facade's ``device`` argument to ``(device, spec)``.

    Accepts an existing :class:`Device` (the run is accounted against
    it), a :class:`GPUSpec`, a preset name (``"A100"``, ``"H100"``,
    ``"A10"``), or None for the default A100.
    """
    if device is None:
        return None, A100
    if isinstance(device, Device):
        return device, device.spec
    if isinstance(device, GPUSpec):
        return None, device
    if isinstance(device, str):
        return None, get_spec(device)
    raise TypeError(
        f"device must be a Device, GPUSpec or preset name, got {type(device).__name__}"
    )


def topk(
    data: np.ndarray,
    k: int,
    *,
    algo: str = "auto",
    device: Device | GPUSpec | str | None = None,
    largest: bool = False,
    batch: int | None = None,
    seed: int = 0,
    params: dict | None = None,
    mode: str = "auto",
    min_recall: float | None = None,
) -> TopKResult:
    """Find the k smallest (or largest) elements of each problem row.

    Parameters
    ----------
    data:
        ``(n,)`` or ``(batch, n)`` array, or a flat buffer combined with
        ``batch=``.  float32 is the paper's benchmark dtype; float16/
        float64 and all 16/32/64-bit integer keys are also supported.
    k:
        number of results per problem, ``1 <= k <= n``.
    algo:
        registry name — one of :func:`repro.algorithm_names`.  Defaults
        to ``"auto"``, the cost-model dispatcher that runs the
        predicted-fastest concrete method for the problem shape.
    device:
        where to run: a preset name (``"A100"``), a :class:`GPUSpec`, or
        an existing :class:`Device` to account the run against.
        Defaults to a fresh simulated A100.
    largest:
        select the largest elements instead of the smallest.
    batch:
        reshape a flat ``data`` buffer into ``(batch, n)`` problem rows
        (its size must divide evenly); with 2-d data it must match the
        leading dimension.
    seed:
        deterministic source for algorithmic randomness (pivot sampling).
    params:
        algorithm-specific tuning dict, e.g. ``{"adaptive": False}`` for
        AIR Top-K — the keys are the ``tunables`` of the method's
        :class:`~repro.algos.AlgorithmInfo`.
    mode:
        ``"auto"`` (default) runs exact methods unless ``min_recall``
        opts into quality-aware dispatch; ``"exact"`` asserts the exact
        tier and rejects approximate ``algo`` names; ``"approx"``
        restricts dispatch to the approximate tier (raising when no
        approximate plan can meet ``min_recall``).
    min_recall:
        recall target in [0, 1].  With ``algo="auto"`` the quality-aware
        planner (:func:`repro.approx.choose_plan`) picks the cheapest
        plan clearing the target with a safety margin, falling back to
        exact when no approximate plan qualifies; with an explicit
        approximate ``algo`` the call is rejected when the method's
        analytic expected recall cannot clear the target.

    Returns
    -------
    TopKResult with ``values`` and ``indices`` sorted best-first, the
    simulated ``device`` carrying the run's time, counters and trace,
    and the v2.1 quality fields: ``exact``, ``recall_bound`` and the
    per-method ``meta``.  The result still unpacks as a
    ``(values, indices)`` 2-tuple.
    """
    data = np.asarray(data)
    if batch is not None:
        if batch < 1:
            raise InputError(f"batch must be >= 1, got {batch}")
        if data.ndim == 1:
            if data.size % batch:
                raise InputError(
                    f"cannot split {data.size} elements into {batch} equal rows"
                )
            data = data.reshape(batch, -1)
        elif data.ndim == 2:
            if data.shape[0] != batch:
                raise InputError(
                    f"data has {data.shape[0]} rows but batch={batch} was requested"
                )
        else:
            raise InputError(
                f"data must be 1-d or 2-d (batch, n), got shape {data.shape}"
            )

    run_device, run_spec = resolve_device(device)
    algo, params, dispatch = _plan_quality(
        data, k, algo=algo, params=params, mode=mode, min_recall=min_recall,
        spec=run_spec,
    )
    algorithm = get_algorithm(algo, params=params)
    result = algorithm.select(
        data, k, device=run_device, spec=run_spec, largest=largest, seed=seed
    )
    if dispatch is not None:
        result.meta["dispatch"] = dispatch
    return result


def _plan_quality(
    data: np.ndarray,
    k: int,
    *,
    algo: str,
    params: dict | None,
    mode: str,
    min_recall: float | None,
    spec: GPUSpec,
) -> tuple[str, dict | None, dict | None]:
    """Resolve the v2.1 quality keywords to a concrete (algo, params).

    Returns ``(algo, params, dispatch_meta)`` where ``dispatch_meta`` is
    the annotation attached to ``result.meta["dispatch"]`` when the
    quality-aware planner made the choice, else None.  The fast path —
    ``mode="auto"`` without ``min_recall`` — returns the arguments
    untouched, keeping the default facade byte-identical to v2.0.
    """
    if mode not in ("auto", "exact", "approx"):
        raise InputError(
            f"mode must be 'auto', 'exact' or 'approx', got {mode!r}"
        )
    if min_recall is not None and not 0.0 <= min_recall <= 1.0:
        raise InputError(f"min_recall must be in [0, 1], got {min_recall!r}")
    if mode == "exact":
        if min_recall is not None:
            raise InputError(
                "min_recall conflicts with mode='exact': exact results "
                "always have recall 1.0 — drop one of the two"
            )
        if algo != "auto" and not get_algorithm(algo, params=params).exact:
            raise InputError(
                f"mode='exact' conflicts with approximate algo={algo!r}"
            )
        return algo, params, None
    if mode == "auto" and min_recall is None:
        return algo, params, None  # v2.0 path, untouched

    from .approx import choose_plan  # lazy: planner imports the cost model

    n = int(data.shape[-1])
    rows = int(data.shape[0]) if data.ndim == 2 else 1
    if algo == "auto":
        plan = choose_plan(
            n=n,
            k=k,
            batch=rows,
            spec=spec,
            min_recall=min_recall,
            include_exact=(mode != "approx"),
        )
        merged = {**plan.params, **(params or {})}
        dispatch = {
            "mode": mode,
            "min_recall": min_recall,
            "algo": plan.algo,
            "predicted_time": plan.predicted_time,
            "predicted_recall": plan.predicted_recall,
        }
        return plan.algo, merged or None, dispatch
    instance = get_algorithm(algo, params=params)
    if mode == "approx" and instance.exact:
        raise InputError(
            f"mode='approx' conflicts with exact algo={algo!r}"
        )
    if min_recall is not None and not instance.exact:
        required = 1.0 - (1.0 - min_recall) / 2.0
        expected = instance.expected_recall(n, k)
        if expected < required:
            raise InputError(
                f"algo={algo!r} has expected recall {expected:.4f} for "
                f"n={n}, k={k}, below the min_recall={min_recall} target "
                f"(safety-margin threshold {required:.4f})"
            )
    return algo, params, None

