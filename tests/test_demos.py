"""Smoke test of the demos: each runs as its own process and prints.

Demos 04 and 05 train embeddings for about 3 s each.  Demo 06 is left to
manual runs: the full pipeline it runs is criterion 10's.
"""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_expand_and_match", "02_group_association",
                                  "03_divergence_test", "04_embeddings_and_neighborhoods",
                                  "05_affect_induction"])
def test_demo_runs(name):
    proc = run_python(str(DEMOS / f"{name}.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
