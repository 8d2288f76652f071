"""The example scripts: compile-time integrity plus one live run."""

from __future__ import annotations

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES}
        assert {
            "quickstart.py",
            "datacenter_colocation.py",
            "heuristic_tuning.py",
            "contention_analysis.py",
            "online_monitoring.py",
        } <= names

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=lambda p: p.name
    )
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=lambda p: p.name
    )
    def test_example_has_main_guard(self, path):
        text = path.read_text()
        assert 'if __name__ == "__main__":' in text
        assert text.startswith("#!/usr/bin/env python3")
        assert '"""' in text  # module docstring

    def test_quickstart_runs_end_to_end(self):
        """The quickstart at a tiny run length, as a real subprocess."""
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py"),
             "0.02"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "CAER rule-based" in result.stdout
        assert "slowdown" in result.stdout

    def test_capacity_planning_runs_end_to_end(self):
        """Both backends through the ``run_*`` helpers, as a real
        subprocess: the statistical screen, then the trace gate."""
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "capacity_planning.py")],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "== Statistical screen" in result.stdout
        assert "== Trace-engine gate" in result.stdout
        assert "co-locate w/ CAER" in result.stdout
