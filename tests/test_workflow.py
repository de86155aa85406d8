"""The CI workflow, read from .github/workflows/tests.yml as text.

Its benchmark gate is the inline script of the step "benchmark answers are
all correct", run here on sample outputs of ``perfbench/run.py --workload
all``. The script is the heredoc between ``<<'PY'`` and ``PY``. It must exit
0 only when all four workloads print a result line that says ``"correct":
true``.

Its Python matrix must start at the floor that pyproject.toml's
``requires-python`` names, so that CI runs the oldest Python the package
claims."""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
WORKLOADS = ("prove", "monitor", "check", "cli")


def gate_script() -> str:
    """The step's inline script, dedented."""
    lines = WORKFLOW.read_text("utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.rstrip().endswith("<<'PY'"))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "PY")
    return textwrap.dedent("\n".join(lines[start + 1:end])) + "\n"


def result_line(name: str, correct: bool) -> str:
    result = {"correct": correct, "attempted": 34, "failed": 0, "metrics": {}}
    return f"# setup_s samples {{\"scaled\": [0.2]}}\n{name} {json.dumps(result)}\n"


SAMPLES = {
    "all_correct": ("".join(result_line(name, True) for name in WORKLOADS), 0),
    "one_wrong": ("".join(result_line(name, name != "check") for name in WORKLOADS), 1),
    "three_workloads": ("".join(result_line(name, True) for name in WORKLOADS[:3]), 1),
    "empty": ("", 1),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_benchmark_gate(name, tmp_path):
    output, status = SAMPLES[name]
    bench = tmp_path / "bench.out"
    bench.write_text(output, "utf-8")
    result = subprocess.run([sys.executable, "-", str(bench)], input=gate_script(),
                            capture_output=True, text=True, timeout=30)
    assert result.stderr == ""
    assert result.returncode == status


def version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def test_the_matrix_starts_at_the_python_floor():
    matrix = re.search(r"python-version: \[(.*)\]", WORKFLOW.read_text("utf-8")).group(1)
    floor = re.search(r'requires-python = ">=([0-9.]+)"',
                      (ROOT / "pyproject.toml").read_text("utf-8")).group(1)
    assert min(version(v.strip(' "')) for v in matrix.split(",")) == version(floor)
