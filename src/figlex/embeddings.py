"""Skip-gram negative-sampling embeddings trained from scratch, plus a
plain-text vector store and nearest-neighbor queries.

Training is single-threaded and deterministic given the seed: same corpus
+ same params -> the same vectors, byte for byte, whatever the CPU's vector
units or BLAS.  Frequent-token subsampling is deliberately omitted
(corpora here are desk scale).

The arithmetic runs in the C kernel of `_kernels.c`, one center token at a
time in corpus order, in float32 with fixed-order sums and word2vec's
sigmoid and log tables, one kernel call per epoch.  The randomness comes
from three seeded PCG64 streams of `_kernels.Pcg64`, each equal to the
``numpy.random.default_rng`` stream of its seed: the initial vectors, one
window size per center, drawn once as an array, and one double per noise
row, which the kernel draws itself and maps to a token through the
unigram^0.75 CDF.  `cosine`, `nearest_neighbors` and `sentence_embedding`
run their float64 sums in the same kernel file, and nothing here loads
numpy.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import _kernels
from ._kernels import address
from .config import TrainParams


@dataclass
class EmbeddingSpace:
    """A vocabulary and its vectors: token t's vector is row ``vocab[t]`` of
    the (|vocab|, dim) float32 matrix that `data` holds row by row."""

    vocab: dict[str, int]
    data: array  # typecode "f"
    dim: int
    epoch_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.data.typecode != "f" or len(self.data) != len(self.vocab) * self.dim:
            raise ValueError(f"data must be a float32 array of {len(self.vocab)} x {self.dim} "
                             f"entries, got {len(self.data)} of type {self.data.typecode!r}")

    @property
    def tokens(self) -> list[str]:
        out = [""] * len(self.vocab)
        for t, i in self.vocab.items():
            out[i] = t
        return out

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> memoryview:
        """`token`'s row of `data`, a float32 memoryview."""
        if token not in self.vocab:
            raise KeyError(f"token {token!r} not in vocabulary")
        start = self.vocab[token] * self.dim
        return memoryview(self.data)[start:start + self.dim]


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding.

    Both vectors are taken as float64; the three dot products run in
    `_kernels.c` in fixed-order lanes, so the value does not depend on the
    CPU's vector units or BLAS.
    """
    a, b = array("d", u), array("d", v)
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    value = _kernels.load().cosine(address(a), address(b), len(a))
    if math.isnan(value):
        raise ValueError("cosine undefined for zero vector or non-finite entries")
    return value


def train_sgns(sentences: Sequence[Sequence[str]], params: TrainParams) -> EmbeddingSpace:
    """Train embeddings on token sequences, one per sentence.

    An idiom is one token only if the sentences were rewritten first: the
    pipeline passes only `count_usages` streams, `GroupCounts.streams` or a
    group's `streams_for`.  Uses the classic two-matrix formulation: for
    every (center, context) pair, `negatives` noise tokens are drawn from
    the unigram^0.75 distribution and a logistic update is applied with
    linearly decaying learning rate.  Per-epoch mean loss is recorded on
    the returned space.
    """
    return setup_sgns(sentences, params)()


def setup_sgns(sentences: Sequence[Sequence[str]],
               params: TrainParams) -> Callable[[], EmbeddingSpace]:
    """`train_sgns` in two steps: this call does its Python work (the
    vocabulary, the id arrays, the noise and score tables, the generators
    and the vector buffers) and returns the training run, which calls only
    kernels, so it can run on a `_kernels.Beside` thread."""
    counts = Counter(t for sent in sentences for t in sent)
    vocab_tokens = sorted(
        (t for t, c in counts.items() if c >= params.min_count),
        key=lambda t: (-counts[t], t),
    )
    if not vocab_tokens:
        raise ValueError("corpus too small: no token reaches min_count")
    vocab = {t: i for i, t in enumerate(vocab_tokens)}

    id_sentences = [[vocab[t] for t in sent if t in vocab] for sent in sentences]
    id_sentences = [ids for ids in id_sentences if len(ids) >= 2]
    if not id_sentences:
        raise ValueError("corpus too small: no sentence with 2 in-vocabulary tokens")
    lengths = array("q", map(len, id_sentences))
    ids = array("q", [i for sent in id_sentences for i in sent])
    del id_sentences

    noise_cdf, guide = _kernels.noise_table([counts[t] for t in vocab_tokens])
    tables = _kernels.score_tables()
    lib = _kernels.load()

    dim, epochs = params.dim, params.epochs
    syn0 = array("f", [0.0]) * (len(vocab) * dim)
    syn1 = array("f", [0.0]) * (len(vocab) * dim)
    init = _kernels.Pcg64(params.seed)
    # identical draw streams every epoch: the per-epoch mean loss is then
    # measured on the same sampled objective, so it decreases under the
    # decaying learning rate instead of wobbling with sampling noise
    windows = _kernels.Pcg64([params.seed, 0x5E9, 0]).integers(1, params.window + 1, len(ids))
    noise = [_kernels.Pcg64([params.seed, 0x5E9, 1]) for _ in range(epochs)]

    def run() -> EmbeddingSpace:
        lib.sgns_init(address(syn0), len(syn0), dim, init.state)
        epoch_losses: list[float] = []
        for epoch in range(epochs):
            loss = lib.sgns_epoch(
                address(syn0), address(syn1), dim, address(ids), address(lengths), len(lengths),
                address(windows), noise[epoch].state, params.negatives,
                address(noise_cdf), len(vocab), address(guide), address(tables),
                params.initial_lr, params.initial_lr * 1e-4, epoch * len(ids), epochs * len(ids),
            )
            if loss < 0:
                raise MemoryError("SGNS kernel: no memory for its scratch rows")
            epoch_losses.append(loss)
        return EmbeddingSpace(vocab=vocab, data=syn0, dim=dim, epoch_losses=epoch_losses)

    return run


def save_vectors(space: EmbeddingSpace, path: str) -> None:
    """Write the plain-text vector format: a "<vocab> <dim>" header, then
    one token + floats per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.vocab)} {space.dim}\n")
        # a float32 widened to a Python float prints the same digits
        fmt = "{:.9g}".format
        dim, data = space.dim, space.data
        for i, token in enumerate(space.tokens):
            fh.write(token + " " + " ".join(map(fmt, data[i * dim:(i + 1) * dim])) + "\n")


def load_vectors(path: str) -> EmbeddingSpace:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("bad header: expected '<vocab_size> <dim>'")
        try:
            size, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError("bad header: expected two integers") from exc
        if size < 1 or dim < 1:
            raise ValueError(f"bad header: vocabulary size {size} and dimension {dim} "
                             f"must both be positive")

        vocab: dict[str, int] = {}
        data = array("f")
        row = 0
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if row >= size:
                raise ValueError(f"row {lineno}: more rows than header declares ({size})")
            token = parts[0]
            if token in vocab:
                raise ValueError(f"row {lineno}: duplicate token {token!r}")
            if len(parts) - 1 != dim:
                raise ValueError(f"row {lineno}: expected {dim} values, got {len(parts) - 1}")
            vocab[token] = row
            try:  # each value parsed as a double and rounded, as numpy parses it
                values = array("f", map(float, parts[1:]))
            except ValueError as exc:
                raise ValueError(f"row {lineno}: {exc}") from None
            if not math.isfinite(sum(values)):  # finite unless a float32 is inf or nan
                raise ValueError(f"row {lineno}: values must be finite as float32")
            data.extend(values)
            row += 1
        if row != size:
            raise ValueError(f"header declares {size} rows but file has {row}")
    return EmbeddingSpace(vocab=vocab, data=data, dim=dim)


def nearest_neighbors(space: EmbeddingSpace, token: str, k: int) -> list[tuple[str, float]]:
    """Top-k (token, cosine) pairs, cosine descending; ties broken by token.

    The anchor itself is excluded.  One kernel call scores every row with
    `cosine`'s arithmetic, a zero row as -2.
    """
    if token not in space.vocab:
        raise KeyError(f"token {token!r} not in vocabulary")
    if k > len(space.vocab) - 1:
        raise ValueError(f"k={k} exceeds vocabulary size minus one ({len(space.vocab) - 1})")
    if k <= 0:
        return []
    anchor = space.vocab[token]
    sims = array("d", [0.0]) * len(space.vocab)
    if _kernels.load().cosines(address(space.data), len(space.vocab), space.dim, anchor,
                               address(sims)) < 0:
        raise MemoryError("cosine kernel: no memory for its scratch rows")
    if sims[anchor] == -2.0:
        raise ValueError(f"anchor {token!r} has a zero vector")
    sims[anchor] = -math.inf

    # only the top k and every token tied with the k-th need the exact
    # (-cosine, token) sort; k <= |vocab| - 1 keeps the anchor out of it
    kth = heapq.nlargest(k, sims)[-1]
    ranked = sorted(((t, sims[i]) for t, i in space.vocab.items() if sims[i] >= kth),
                    key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def _embedded_rows(space: EmbeddingSpace, tokens: Sequence[str]) -> list[int]:
    """Vocabulary rows of the in-vocabulary, non-stopword tokens; a token
    sequence can be embedded exactly when this is not empty."""
    from .lexicon import STOPWORDS

    return [space.vocab[t] for t in tokens if t not in STOPWORDS and t in space.vocab]


def sentence_embedding(space: EmbeddingSpace, tokens: Sequence[str]) -> array:
    """Bag-of-vectors sentence representation: the mean of in-vocabulary,
    non-stopword token vectors, a float64 array summed in token order."""
    rows = array("q", _embedded_rows(space, tokens))
    if not rows:
        raise ValueError("no in-vocabulary, non-stopword token to embed")
    out = array("d", [0.0]) * space.dim
    _kernels.load().row_mean(address(space.data), space.dim, address(rows), len(rows),
                             address(out))
    return out
