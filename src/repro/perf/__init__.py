"""Performance model: cost pricing, SOL metrics, scaled execution.

Submodules are exposed lazily (PEP 562): the device layer imports
``repro.perf.costmodel`` while it is itself initialising, so this package
must not eagerly import modules that depend back on ``repro.device``.
"""

from .costmodel import KernelCost, KernelCostModel, LaunchShape
from . import calibration

__all__ = [
    "KernelCost",
    "KernelCostModel",
    "LaunchShape",
    "KernelSol",
    "sol_report",
    "DEFAULT_EXACT_CAP",
    "MIN_SCALED_N",
    "SimulatedRun",
    "scale_factors",
    "simulate_topk",
    "calibration",
    "RooflinePoint",
    "ridge_intensity",
    "roofline_points",
    "render_roofline",
    "AdaptiveDispatcher",
    "CorrectionStore",
    "DispatchDecision",
]

_LAZY = {
    "AdaptiveDispatcher": "adaptive",
    "CorrectionStore": "adaptive",
    "DispatchDecision": "adaptive",
    "RooflinePoint": "roofline",
    "ridge_intensity": "roofline",
    "roofline_points": "roofline",
    "render_roofline": "roofline",
    "KernelSol": "sol",
    "sol_report": "sol",
    "DEFAULT_EXACT_CAP": "scaled",
    "MIN_SCALED_N": "scaled",
    "SimulatedRun": "scaled",
    "scale_factors": "scaled",
    "simulate_topk": "scaled",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
