import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import figlex
from figlex.corpus import Corpus, Post, tokenize
from figlex.embeddings import EmbeddingSpace

DATA_DIR = Path(__file__).parent / "data"

# A failing property test prints the `@reproduce_failure` line that replays
# it; the example database under .hypothesis/ stays on the machine it ran on.
settings.register_profile("figlex", print_blob=True)
settings.load_profile("figlex")


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C kernels into this session's temporary directory, not the
    user's cache; child processes inherit the variable."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


def make_post(text: str, group: str = "A", author: str = "a0") -> Post:
    return Post(author_id=author, group=group, text=text, tokens=tuple(tokenize(text)))


def make_corpus(texts_by_group: dict[str, list[str]], labels=None) -> Corpus:
    posts = []
    for group, texts in texts_by_group.items():
        for i, text in enumerate(texts):
            posts.append(make_post(text, group=group, author=f"{group}{i}"))
    labels = labels or tuple(texts_by_group)
    return Corpus(posts=tuple(posts), group_labels=tuple(labels))


def make_space(vocab: dict[str, int], rows, epoch_losses=()) -> EmbeddingSpace:
    """An `EmbeddingSpace` whose vector table is `rows`, a (|vocab|, dim)
    array-like, rounded to float32."""
    table = np.asarray(rows, dtype=np.float32)
    return EmbeddingSpace(vocab=vocab, data=array("f", table.tobytes()), dim=table.shape[1],
                          epoch_losses=list(epoch_losses))


def vectors(space: EmbeddingSpace) -> np.ndarray:
    """`space.data` as a (|vocab|, dim) float32 ndarray, a view."""
    return np.frombuffer(space.data, dtype=np.float32).reshape(len(space.vocab), space.dim)


def split_halves(token_counts, rng):
    """The greedy half split as a plain loop, the oracle of the split
    kernel: positions in the order of `rng`'s next permutation, each to
    whichever half has fewer (tokens, posts) so far, ties going to the
    first.  Each half lists its positions in assignment order."""
    if len(token_counts) < 2:
        raise ValueError("fewer than 2 posts to split")
    halves = ([], [])
    totals = [(0, 0), (0, 0)]  # (tokens, posts) per half
    for j in rng.permutation(len(token_counts)).tolist():
        side = 0 if totals[0] <= totals[1] else 1
        halves[side].append(j)
        totals[side] = (totals[side][0] + token_counts[j], totals[side][1] + 1)
    return halves


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def run_python(*args: str, cwd=None, **variables: str) -> subprocess.CompletedProcess:
    """Run a child Python process that imports the figlex under test, in
    `cwd`, with `variables` added to its environment."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(figlex.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
