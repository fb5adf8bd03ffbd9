"""Golden pins of the command-line surface.

Three things are pinned, so a refactor of ``repro.cli`` cannot change
what a user types or sees unnoticed:

* every subcommand's parser actions — option strings, dest, default,
  choices, nargs, type name and help — rather than the rendered
  ``--help``, whose layout differs between Python versions;
* the stdout of one tiny run per subcommand (temporary paths and the
  git revision and wall-clock figures normalised);
* the artifacts of ``serve-bench --out --report --slo default``, minus
  the manifest's volatile ``created_unix``, ``argv``, ``wall_time_s``
  and ``versions`` fields.

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli"

#: manifest fields that differ between otherwise identical runs
VOLATILE = ("created_unix", "argv", "wall_time_s", "versions")

#: one tiny run per subcommand, in order (later runs read earlier
#: runs' files); ``{tmp}`` is the run directory
RUNS = (
    ("topk", ["topk", "--n", "2^12", "--k", "16", "--largest", "--sol",
              "--timeline", "--roofline"]),
    ("topk-scaled", ["topk", "--n", "2^20", "--k", "64", "--cap", "2^13",
                     "--distribution", "adversarial"]),
    ("compare", ["compare", "--n", "2^12", "--k", "16", "--batch", "2"]),
    ("sweep", ["sweep", "--vary", "k", "--n", "2^12", "--points", "8,64",
               "--cap", "2^12", "--with-auto", "--csv", "{tmp}/s.csv"]),
    ("auto", ["auto", "--n", "2^14", "--k", "32"]),
    ("serve-bench", ["serve-bench", "--qps", "300", "--duration", "0.5",
                     "--seed", "7", "--window-ms", "100", "--slo", "default",
                     "--out", "{tmp}/serve", "--report", "{tmp}/report.json"]),
    ("serve-bench-faults", ["serve-bench", "--qps", "300", "--duration", "0.5",
                            "--seed", "7", "--shards", "4", "--max-batch", "8",
                            "--deadline-ms", "50", "--faults",
                            str(ROOT / "benchmarks/fault_plans/reference.json"),
                            "--min-recall", "0.95", "--approx-fraction", "0.5",
                            "--out", "{tmp}/faults"]),
    ("serve-bench-adaptive", ["serve-bench", "--qps", "300", "--duration", "0.5",
                              "--seed", "7", "--arrival", "uniform", "--pool", "64",
                              "--adaptive", "--corrections", "{tmp}/corr.json",
                              "--metrics", "{tmp}/adaptive/metrics.json",
                              "--out", "{tmp}/adaptive"]),
    ("serve-report", ["serve-report", "{tmp}/report.json"]),
    ("drift", ["drift", "{tmp}/s.csv"]),
    ("recall-bench", ["recall-bench", "--tiny", "--out", "{tmp}/recall.json"]),
    ("cluster-bench", ["cluster-bench", "--tiny"]),
    ("adapt-bench", ["adapt-bench", "--tiny"]),
    ("inspect-csv", ["inspect", "{tmp}/s.csv"]),
    ("inspect-report", ["inspect", "{tmp}/report.json"]),
    ("inspect-gates", ["inspect", "{tmp}/recall.json"]),
    ("inspect-corrections", ["inspect", "{tmp}/corr.json"]),
    ("inspect-slo", ["inspect", str(ROOT / "benchmarks/slo/default.json")]),
)

#: the two slow runs (about 10 s each): their golden stdout is checked
#: by the tests that already make them, ``tests/test_cli.py`` (table2)
#: and ``tests/test_suite_runner.py`` (reproduce), via :func:`golden_stdout`
REUSED_RUNS = (
    ("table2", ["table2", "--cap", "2^14"]),
    ("reproduce", ["reproduce", "--cap", "2^13", "--out", "{tmp}/suite"]),
)

#: the serve-bench files the runs above leave in ``{tmp}``
ARTIFACTS = (
    "serve/manifest.json",
    "serve/serve_report.json",
    "report.json",
    "faults/manifest.json",
    "faults/serve_report.json",
    "adaptive/manifest.json",
    "corr.json",
)


def _type_name(action: argparse.Action) -> str | None:
    return getattr(action.type, "__name__", None if action.type is None else "?")


def parser_pins() -> dict:
    """Every subcommand's help line and argument actions."""
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {a.dest: a.help for a in sub._choices_actions}
    return {
        name: {
            "help": helps.get(name),
            "actions": [
                {
                    "option_strings": a.option_strings,
                    "dest": a.dest,
                    "default": a.default,
                    "choices": None if a.choices is None else list(a.choices),
                    "nargs": a.nargs,
                    "type": _type_name(a),
                    "help": a.help,
                }
                for a in subparser._actions
            ],
        }
        for name, subparser in sub.choices.items()
    }


def normalise(text: str, tmp: str | None = None) -> str:
    """``text`` with the run directory, repo root, git revision and host
    wall-clock figures replaced by placeholders."""
    if tmp is not None:
        text = text.replace(tmp, "{tmp}")
    text = text.replace(str(ROOT), "{root}")
    text = re.sub(r"\(rev [^,]+,", "(rev {rev},", text)
    return re.sub(r"[\d.]+s of wall time", "{wall}s of wall time", text)


def _stable_manifest(path: Path) -> str:
    manifest = json.loads(path.read_text())
    for key in VOLATILE:
        manifest.pop(key)
    return json.dumps(manifest, indent=1) + "\n"


def run_pins(runs=RUNS) -> dict:
    """``{run: {"code", "stdout"}}`` plus the serve-bench artifacts."""
    pins: dict = {"runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs:
            argv = [arg.replace("{tmp}", tmp) for arg in argv] + ["-q"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            pins["runs"][name] = {
                "code": code,
                "stdout": normalise(out.getvalue(), tmp),
            }
        pins["artifacts"] = {
            name: (
                _stable_manifest(Path(tmp, name))
                if name.endswith("manifest.json")
                else Path(tmp, name).read_text()
            )
            for name in ARTIFACTS
        }
    return pins


@pytest.fixture(scope="module")
def runs():
    return run_pins()


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def golden_stdout(name: str) -> str:
    """The pinned stdout of run ``name``, placeholders as :func:`normalise`
    writes them."""
    return _golden("runs.json")["runs"][name]["stdout"]


def test_parser_actions_match_golden():
    assert json.loads(json.dumps(parser_pins())) == _golden("parser.json")


@pytest.mark.parametrize("name", [name for name, _ in RUNS])
def test_run_stdout_matches_golden(runs, name):
    assert runs["runs"][name] == _golden("runs.json")["runs"][name]


@pytest.mark.parametrize("name", ARTIFACTS)
def test_serve_bench_artifacts_match_golden(runs, name):
    assert runs["artifacts"][name] == _golden("runs.json")["artifacts"][name]


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    runs = run_pins(RUNS + REUSED_RUNS)
    for name, payload in (("parser.json", parser_pins()), ("runs.json", runs)):
        (GOLDEN / name).write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
