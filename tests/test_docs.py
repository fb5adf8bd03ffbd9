"""Consistency checks between documentation and the code it describes."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_exists_with_paper_check(self):
        text = read("DESIGN.md")
        assert "Paper check" in text
        assert "3581784.3607062" in text  # the paper's DOI

    def test_bench_targets_exist(self):
        """Every bench target DESIGN.md names is a real file."""
        text = read("DESIGN.md")
        for target in re.findall(r"`benchmarks/([\w.]+\.py)`", text):
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_packages_exist(self):
        text = read("DESIGN.md")
        for pkg in re.findall(r"`repro\.(\w+)`", text):
            assert (
                (ROOT / "src" / "repro" / pkg).exists()
                or (ROOT / "src" / "repro" / f"{pkg}.py").exists()
            ), pkg


class TestExperimentsDoc:
    def test_every_paper_experiment_covered(self):
        text = read("EXPERIMENTS.md")
        for item in (
            "Table 2",
            "Fig. 6",
            "Fig. 7",
            "Fig. 8",
            "Table 3",
            "Fig. 9",
            "Fig. 10",
            "Fig. 11",
            "Fig. 12",
            "Fig. 13",
        ):
            assert item in text, item

    def test_bench_modules_referenced_exist(self):
        text = read("EXPERIMENTS.md")
        for target in re.findall(r"`(test_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / target).exists(), target


class TestReadme:
    def test_roster_matches_registry(self):
        from repro import algorithm_names

        text = read("README.md")
        for algo in algorithm_names():
            if algo == "drtopk_hybrid":
                continue  # extension, documented in docs/ALGORITHMS.md
            assert f"`{algo}`" in text, algo

    def test_quickstart_code_runs(self):
        """The README's quickstart block executes as written."""
        text = read("README.md")
        block = re.search(
            r"## Quickstart\n\n```python\n(.*?)```", text, re.DOTALL
        ).group(1)
        namespace: dict = {}
        exec(block, namespace)  # noqa: S102 - executing our own README

    def test_doc_links_resolve(self):
        text = read("README.md")
        for link in re.findall(r"\]\(([\w/]+\.md)\)", text):
            assert (ROOT / link).exists(), link


class TestExamples:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "ann_search",
            "gradient_compression",
            "virtual_screening",
            "streaming_topk",
            "recommender",
        ],
    )
    def test_example_exists_with_main(self, name):
        text = (ROOT / "examples" / f"{name}.py").read_text()
        assert "def main()" in text
        assert '__main__' in text


class TestApiDoc:
    def test_command_block_lists_every_subcommand(self):
        """docs/API.md's command-line block names every CLI subcommand."""
        from repro.cli import COMMANDS

        text = read("docs/API.md")
        block = re.search(
            r"## Command line\n\n```\n(.*?)```", text, re.DOTALL
        ).group(1)
        listed = set(re.findall(r"python -m repro ([\w-]+)", block))
        assert set(COMMANDS) <= listed, set(COMMANDS) - listed
