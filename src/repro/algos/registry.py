"""Name -> algorithm registry covering the paper's full benchmark roster.

The eight baselines of Table 1 plus the paper's two contributions, under
the names the benchmark harness and figures use, plus the ``auto``
dispatcher that picks among them with the cost model.

Construction is uniform across the roster: every algorithm is built via
:func:`get_algorithm` with one optional ``params`` dict of
algorithm-specific tuning (``get_algorithm("air_topk", params={"alpha":
64.0})``), and :func:`available_algorithms` returns structured
:class:`AlgorithmInfo` capability records — supported dtypes, batch
behaviour, k limits and the tunables each constructor accepts — rather
than bare names (use :func:`algorithm_names` for those).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field

from .auto import AutoTopK
from .base import SUPPORTED_DTYPES, TopKAlgorithm
from .bucket_approx import BucketApproxTopK
from .hybrid import DrTopKHybrid
from .twostage_approx import TwoStageApproxTopK
from .sort_topk import SortTopK
from .radix_select import RadixSelect
from .warp_select import BlockSelect, WarpSelect
from .bitonic_topk import BitonicTopK
from .quick_select import QuickSelect
from .bucket_select import BucketSelect
from .sample_select import SampleSelect

_FACTORIES: dict[str, type[TopKAlgorithm] | object] = {}


@dataclass(frozen=True)
class AlgorithmInfo:
    """Structured capability record for one registered algorithm.

    This is what :func:`available_algorithms` returns: enough metadata
    for a caller (the CLI, the serving layer, a dispatcher) to decide
    whether and how to use a method without instantiating it first.
    """

    #: registry name, e.g. ``"air_topk"``
    name: str
    #: provenance per the paper's Table 1
    library: str
    #: taxonomy per Sec. 1 ("sorting", "partial sorting", "partition-based")
    category: str
    #: largest supported k, or None for unlimited
    max_k: int | None
    #: whether a batch runs as one device-resident launch set (True) or
    #: serially per problem on the host (False)
    batched_execution: bool
    #: whether the method can consume data on-the-fly (Sec. 2.2)
    on_the_fly: bool
    #: key dtypes the method accepts (all share the monotone key encoding)
    dtypes: tuple[str, ...] = SUPPORTED_DTYPES
    #: names of the constructor's tuning parameters (valid ``params`` keys)
    tunables: tuple[str, ...] = field(default_factory=tuple)
    #: whether results are guaranteed to equal the exact top-k; the
    #: approximate tier trades bounded recall for parallelism instead
    exact: bool = True
    #: analytic recall model backing non-exact results (None when exact)
    recall_model: str | None = None


def _register(factory) -> None:
    name = factory().name if isinstance(factory, type) else factory.name
    _FACTORIES[name] = factory


@functools.cache
def _tunables(factory) -> tuple[str, ...]:
    """Keyword parameters of the factory's constructor, by inspection."""
    target = factory.__init__ if isinstance(factory, type) else factory
    try:
        sig = inspect.signature(target)
    except (TypeError, ValueError):
        return ()
    return tuple(
        p.name
        for p in sig.parameters.values()
        if p.name not in ("self",)
        and p.kind
        in (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    )


def _info(name: str) -> AlgorithmInfo:
    instance = _FACTORIES[name]()
    return AlgorithmInfo(
        name=instance.name,
        library=instance.library,
        category=instance.category,
        max_k=instance.max_k,
        batched_execution=instance.batched_execution,
        on_the_fly=instance.on_the_fly,
        tunables=_tunables(_FACTORIES[name]),
        exact=instance.exact,
        recall_model=instance.recall_model,
    )


def available_algorithms() -> list[AlgorithmInfo]:
    """Capability records of every registered algorithm, sorted by name.

    Each entry is an :class:`AlgorithmInfo` (supported dtypes, batch
    support, k limits, tunables).  For the plain name list — CLI choices,
    parametrised tests — use :func:`algorithm_names`.
    """
    _ensure_core()
    return [_info(name) for name in sorted(_FACTORIES)]


def algorithm_names() -> list[str]:
    """Registered algorithm names (the paper's 10-method roster + extras)."""
    _ensure_core()
    return sorted(_FACTORIES)


def get_algorithm(name: str, *, params: dict | None = None) -> TopKAlgorithm:
    """Instantiate an algorithm by registry name, with uniform tuning.

    Algorithm-specific tuning goes through the single ``params`` dict
    (``get_algorithm("air_topk", params={"adaptive": False})`` for the
    Fig. 9 ablation); valid keys are the ``tunables`` of the method's
    :class:`AlgorithmInfo`.  An unknown key raises :class:`ValueError`
    naming the algorithm and its tunables.
    """
    _ensure_core()
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {algorithm_names()}"
        )
    factory = _FACTORIES[name]
    if not params:
        return factory()
    tunables = _tunables(factory)
    unknown = sorted(set(params) - set(tunables))
    if unknown:
        raise ValueError(
            f"{name} has no tunable {', '.join(map(repr, unknown))}; "
            f"valid params: {list(tunables)}"
        )
    return factory(**params)


def _ensure_core() -> None:
    """Register the core contributions lazily (they import algos.base)."""
    if "air_topk" in _FACTORIES:
        return
    from ..core.air_topk import AIRTopK
    from ..core.grid_select import GridSelect

    for factory in (AIRTopK, GridSelect):
        _register(factory)


for _factory in (
    AutoTopK,
    DrTopKHybrid,
    SortTopK,
    RadixSelect,
    WarpSelect,
    BlockSelect,
    BitonicTopK,
    QuickSelect,
    BucketSelect,
    SampleSelect,
    BucketApproxTopK,
    TwoStageApproxTopK,
):
    _register(_factory)
