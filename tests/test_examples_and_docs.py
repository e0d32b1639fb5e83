"""Deliverable guards: examples run, docs reference real artifacts."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent


class TestExamples:
    """The fast examples must run end-to-end; every other example is
    smoke-checked by compilation."""

    @pytest.mark.parametrize(
        "script", ["paper_walkthrough.py", "online_service.py"]
    )
    def test_fast_example_runs(self, script):
        result = subprocess.run(
            [sys.executable, str(REPO / "examples" / script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip()

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "image_retrieval.py",
            "exact_index_caching.py",
            "cost_model_tuning.py",
            "similarity_join.py",
            "online_service.py",
        ],
    )
    def test_example_compiles(self, script):
        source = (REPO / "examples" / script).read_text()
        compile(source, script, "exec")


class TestDocsConsistency:
    def test_design_bench_targets_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/(test_\w+\.py)", design):
            assert (REPO / "benchmarks" / match.group(1)).exists(), match.group(0)

    def test_experiments_bench_names_exist(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for match in re.finditer(r"`(test_\w+)`", experiments):
            assert (REPO / "benchmarks" / f"{match.group(1)}.py").exists(), (
                match.group(1)
            )

    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.finditer(r"examples/(\w+\.py)", readme):
            assert (REPO / "examples" / match.group(1)).exists(), match.group(0)

    def test_report_sections_have_benchmarks(self):
        from repro.eval.analysis import REPORT_SECTIONS

        for name, _ in REPORT_SECTIONS:
            assert (REPO / "benchmarks" / f"test_{name}.py").exists(), name

    def test_every_benchmark_is_documented(self):
        """Every benchmark file appears in DESIGN.md or EXPERIMENTS.md."""
        docs = (REPO / "DESIGN.md").read_text() + (
            REPO / "EXPERIMENTS.md"
        ).read_text()
        for bench in (REPO / "benchmarks").glob("test_*.py"):
            if bench.stem == "test_throughput":
                continue  # CPU microbenchmarks, not a paper experiment
            assert bench.stem.removeprefix("test_") in docs or bench.stem in docs, (
                bench.name
            )

    def test_architecture_doc_module_pointers(self):
        doc = (REPO / "docs" / "architecture.md").read_text()
        for match in re.finditer(r"`(core|storage|lsh|index|data|eval|extensions)\.(\w+)`", doc):
            module = REPO / "src" / "repro" / match.group(1) / f"{match.group(2)}.py"
            assert module.exists(), match.group(0)
