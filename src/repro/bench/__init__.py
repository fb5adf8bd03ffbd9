"""Benchmark harness: sweeps, SOTA computation, Table 2 summary, reporting."""

from .runner import (
    ALL_ALGORITHMS,
    BASELINE_ALGORITHMS,
    OUR_ALGORITHMS,
    BenchPoint,
    SweepResult,
    run_point,
)
from .clusterbench import (
    ACCEPT_AVAILABILITY,
    ACCEPT_NODES,
    ACCEPT_SPEEDUP,
    DEFAULT_CHAOS_PLAN,
    DEFAULT_NODE_COUNTS,
    crashed_nodes,
    measure_chaos,
    measure_point,
)
from .recallbench import (
    APPROX_VARIANTS,
    DEFAULT_REGIMES,
    TINY_REGIMES,
    RecallCell,
    empirical_recall,
)
from .gates import Gate, GateCheck, load_snapshot, write_snapshot
from .suite import PaperSuiteResult, run_paper_suite
from .summary import SpeedupRange, Table2Row, speedup_range, table2
from .ascii_plot import ascii_plot, plot_sweep
from .report import (
    REPORT_QUANTILES,
    format_dispatch_table,
    format_series_table,
    format_status_summary,
    format_table,
    format_time,
    geomean,
    percentile,
    percentiles,
    read_csv,
    status_counts,
    write_csv,
)

__all__ = [
    "ALL_ALGORITHMS",
    "BASELINE_ALGORITHMS",
    "OUR_ALGORITHMS",
    "BenchPoint",
    "SweepResult",
    "run_point",
    "sweep",
    "ACCEPT_AVAILABILITY",
    "ACCEPT_NODES",
    "ACCEPT_SPEEDUP",
    "DEFAULT_CHAOS_PLAN",
    "DEFAULT_NODE_COUNTS",
    "crashed_nodes",
    "measure_chaos",
    "measure_point",
    "APPROX_VARIANTS",
    "DEFAULT_REGIMES",
    "TINY_REGIMES",
    "RecallCell",
    "empirical_recall",
    "Gate",
    "GateCheck",
    "load_snapshot",
    "write_snapshot",
    "PaperSuiteResult",
    "run_paper_suite",
    "SpeedupRange",
    "Table2Row",
    "speedup_range",
    "table2",
    "ascii_plot",
    "plot_sweep",
    "REPORT_QUANTILES",
    "format_dispatch_table",
    "format_series_table",
    "format_status_summary",
    "format_table",
    "format_time",
    "geomean",
    "percentile",
    "percentiles",
    "read_csv",
    "status_counts",
    "write_csv",
]


def __getattr__(name: str):
    # ``sweep`` lives in the execution engine, which imports
    # ``repro.bench.runner``; importing it lazily breaks the cycle
    if name == "sweep":
        from ..exec.engine import sweep

        return sweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
