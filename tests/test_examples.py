"""Smoke tests: the runnable examples must stay runnable."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = sorted(name for name in os.listdir(_EXAMPLES) if name.endswith(".py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_examples_exist():
    present = set(os.listdir(_EXAMPLES))
    expected = {
        "quickstart.py",
        "sinkless_orientation_demo.py",
        "padded_lcl_demo.py",
        "error_proofs_demo.py",
        "complexity_landscape_mini.py",
        "engine_demo.py",
    }
    assert expected <= present
