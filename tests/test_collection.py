"""The suite collects the same tests whichever order its directories are named in."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gates_collect_with_beambench_tests_named_last():
    # Both directories have a conftest.py, imported under one module name;
    # with beambench/tests named last, its conftest is the one imported last.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "tests", "beambench/tests"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    numbers = sorted(
        line.split("::test_criterion_")[1][:2]
        for line in proc.stdout.splitlines()
        if line.startswith("tests/test_acceptance.py::test_criterion_")
    )
    assert numbers == [f"{n:02d}" for n in range(1, 13)]
