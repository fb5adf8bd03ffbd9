"""Measure one workload in this fresh process and print its record.

run.py starts this script with one thread per numeric library and
``src`` on ``PYTHONPATH``::

    python3 benchmarks/e2e/worker.py roster --seed 0 --seconds 5

The last line of standard output is the record :func:`harness.measure`
returns, as JSON.
"""

import time

# set-up time counts from here: before numpy and repro are imported
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    import harness  # loads numpy and repro

    record = harness.measure(
        args.workload,
        seed=args.seed,
        budget_s=args.seconds,
        trace=args.trace,
        started=STARTED,
        trace_path=args.trace_file,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
