"""Smoke test of the demos and of the README's library example.

Each demo runs as its own process and prints.  Demos 04 and 05 train
embeddings for about 3 s each.  Demo 06 is left to manual runs: the full
pipeline it runs is criterion 10's.
"""

import re
import shutil
from pathlib import Path

import pytest

import figlex
from conftest import DATA_DIR, run_python

ROOT = Path(__file__).parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_expand_and_match", "02_group_association",
                                  "03_divergence_test", "04_embeddings_and_neighborhoods",
                                  "05_affect_induction"])
def test_demo_runs(name):
    proc = run_python(str(DEMOS / f"{name}.py"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    shutil.copy(DATA_DIR / "corpus_fixture.jsonl", tmp_path / "corpus.jsonl")
    shutil.copy(DATA_DIR / "lexicon_fixture.jsonl", tmp_path / "lexicon.jsonl")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), names)
    # the space trained on the rewritten streams holds idioms as single tokens
    assert any(figlex.idiom_token(c) in names["space"] for c in names["lexicon"].canonicals())
