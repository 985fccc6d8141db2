"""Smoke test of the quick demos: each runs as its own process and prints.

Demos 04-06 train embeddings for several seconds each and are left to
manual runs; the full pipeline they end in is criterion 10's.
"""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_expand_and_match", "02_group_association",
                                  "03_divergence_test"])
def test_demo_runs(name):
    proc = run_python(str(DEMOS / f"{name}.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
