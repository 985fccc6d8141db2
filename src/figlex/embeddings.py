"""Skip-gram negative-sampling embeddings trained from scratch, plus a
plain-text vector store and nearest-neighbor queries.

Training is single-threaded and fully deterministic given the seed: same
corpus + same params -> bitwise-identical vectors.  Frequent-token
subsampling is deliberately omitted (corpora here are desk scale).

The trainer updates one center token at a time, in float32 and corpus
order.  It walks the corpus in blocks of sentences holding up to
`_BLOCK_ROWS` context and noise rows.  For each sentence of a block it
first draws the window sizes, then one double per noise token: the same
generator calls in the same order as one sentence at a time, and the same
stream as drawing per center.  Once per block it maps all the doubles to
noise tokens with one `searchsorted`, lays out every center's rows (its
context, then its noise) in one array, and sums the loss.  That
bookkeeping moves no arithmetic: each center's update and each center's
loss are the same float32 operations on the same values in the same order,
so the block size never changes a bit.

Per center it gathers the context and noise rows of the output matrix
once, for both the scores and the center's gradient, and scatter-adds the
row updates with a 1-D `np.add.at` on the flat matrix, which applies a
repeated row's updates in order.  Updating several centers at once would
change the arithmetic; measured, it broke the non-increasing epoch loss,
diverged at large batches and raised peak memory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# cap on the context and noise rows of one block of sentences (a block holds
# at least one sentence)
_BLOCK_ROWS = 1 << 12


@dataclass
class TrainParams:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    min_count: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        for name in ("window", "negatives", "min_count", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")


@dataclass
class EmbeddingSpace:
    vocab: dict[str, int]
    vectors: np.ndarray  # shape (|vocab|, dim), float32
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def tokens(self) -> list[str]:
        out = [""] * len(self.vocab)
        for t, i in self.vocab.items():
            out[i] = t
        return out

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        if token not in self.vocab:
            raise KeyError(f"token {token!r} not in vocabulary")
        return self.vectors[self.vocab[token]]


@dataclass
class NeighborList:
    anchor: str
    neighbors: list[tuple[str, float]]  # (token, cosine), cosine non-increasing


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: this is 1/(1+exp(-x)) for x >= 0 and
    # exp(x)/(1+exp(x)) below, the same float operations on either side
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


def _center_losses(scores: np.ndarray, ks: np.ndarray, neg: int) -> np.ndarray:
    """Per-center loss -(sum log s_pos + sum log(1 - s_neg)) of centers
    whose scores lie center after center, ks[c] positives then ks[c] * neg
    negatives.

    np.add.reduceat seeds each segment with its first element where
    ndarray.sum starts from 0, so every segment gets a leading 0: each
    float32 sum is then bitwise that segment's own .sum().
    """
    seg_len = np.stack((ks, ks * neg), axis=1).ravel()
    starts = np.cumsum(seg_len) - seg_len
    is_neg = np.repeat(np.tile((False, True), len(ks)), seg_len)
    terms = np.log(np.clip(np.where(is_neg, 1.0 - scores, scores), 1e-10, None))
    sums = np.add.reduceat(np.insert(terms, starts, 0), starts + np.arange(starts.size))
    return -(sums[0::2] + sums[1::2])


def _next_block(
    rng: np.random.Generator,
    id_sentences: list[np.ndarray],
    start: int,
    window: int,
    neg: int,
    noise_cdf: np.ndarray,
    positions: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Draw and lay out the block of sentences from `start` (see the module
    docstring): sentences join until their context and noise rows reach
    `_BLOCK_ROWS`, at least one.

    Returns the index after the block, its center ids, each center's context
    count k, and every center's rows, center after center: its k context
    tokens in sentence order, skipping the center, then its k * neg noise
    tokens.
    """
    n_lefts, n_ctxs, uniforms = [], [], []
    n_rows = 0
    stop = start
    while stop < len(id_sentences) and n_rows < _BLOCK_ROWS:
        n = len(id_sentences[stop])
        windows = rng.integers(1, window + 1, size=n)
        at = positions[:n]
        n_left = np.minimum(windows, at)
        ks = n_left + np.minimum(windows, n - 1 - at)  # >= 1: n >= 2
        n_ctx = int(ks.sum())
        uniforms.append(rng.random(n_ctx * neg))
        n_lefts.append(n_left)
        n_ctxs.append(ks)
        n_rows += n_ctx * (1 + neg)
        stop += 1
    block_ids = np.concatenate(id_sentences[start:stop])
    n_left = np.concatenate(n_lefts)
    ks = np.concatenate(n_ctxs)

    # each context row's position in block_ids
    ctx_pos = np.repeat(np.arange(block_ids.size) - n_left, ks)
    offset = np.arange(ctx_pos.size) - np.repeat(np.cumsum(ks) - ks, ks)
    ctx_pos += offset + (offset >= np.repeat(n_left, ks))
    seg_len = np.stack((ks, ks * neg), axis=1).ravel()
    is_ctx = np.repeat(np.tile((True, False), ks.size), seg_len)
    rows = np.empty(n_rows, dtype=np.int64)
    rows[is_ctx] = block_ids[ctx_pos]
    rows[~is_ctx] = np.searchsorted(noise_cdf, np.concatenate(uniforms))
    return stop, block_ids, ks, rows


def train_sgns(sentences: Sequence[Sequence[str]], params: TrainParams) -> EmbeddingSpace:
    """Train embeddings on token sequences, one per sentence.

    An idiom is one token only if the sentences were rewritten first: the
    pipeline passes `GroupCounts.streams` or `rewrite_with_idiom_tokens`
    output.  Uses the classic two-matrix formulation: for every (center, context)
    pair, `negatives` noise tokens are drawn from the unigram^0.75
    distribution and a logistic update is applied with linearly decaying
    learning rate.  Per-epoch mean loss is recorded on the returned space.
    """
    counts = Counter(t for sent in sentences for t in sent)
    vocab_tokens = sorted(
        (t for t, c in counts.items() if c >= params.min_count),
        key=lambda t: (-counts[t], t),
    )
    if not vocab_tokens:
        raise ValueError("corpus too small: no token reaches min_count")
    vocab = {t: i for i, t in enumerate(vocab_tokens)}

    id_sentences = []
    for sent in sentences:
        ids = np.array([vocab[t] for t in sent if t in vocab], dtype=np.int64)
        if ids.size >= 2:
            id_sentences.append(ids)
    if not id_sentences:
        raise ValueError("corpus too small: no sentence with 2 in-vocabulary tokens")

    freq = np.array([counts[t] for t in vocab_tokens], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(freq / freq.sum())
    noise_cdf[-1] = 1.0

    init_rng = np.random.default_rng(params.seed)
    dim = params.dim
    syn0 = ((init_rng.random((len(vocab), dim)) - 0.5) / dim).astype(np.float32)
    syn1 = np.zeros((len(vocab), dim), dtype=np.float32)

    n_centers = sum(len(ids) for ids in id_sentences)
    total_steps = params.epochs * n_centers
    min_lr = params.initial_lr * 1e-4
    neg = params.negatives

    flat1 = syn1.reshape(-1)
    # column offsets of the widest update, tiled row after row: a prefix of
    # it, plus each row's start, is the flat index of any smaller update
    longest = max(len(ids) for ids in id_sentences)
    max_rows = min(2 * params.window, longest - 1) * (1 + neg)
    tiled_cols = np.tile(np.arange(dim), max_rows)
    positions = np.arange(longest)
    labels_by_k: dict[int, np.ndarray] = {}

    step = 0
    epoch_losses: list[float] = []
    for _ in range(params.epochs):
        # identical draw stream every epoch: the per-epoch mean loss is then
        # measured on the same sampled objective, so it decreases under the
        # decaying learning rate instead of wobbling with sampling noise
        rng = np.random.default_rng([params.seed, 0x5E9])
        loss_sum = 0.0
        n_pairs = 0
        start = 0
        while start < len(id_sentences):
            start, block_ids, ks, all_rows = _next_block(
                rng, id_sentences, start, params.window, neg, noise_cdf, positions
            )
            n_pairs += all_rows.size
            all_flat = all_rows * dim
            ends = np.cumsum(ks * (1 + neg))

            block_scores = []
            for center, b, k in zip(block_ids.tolist(), ends.tolist(), ks.tolist()):
                lr = max(min_lr, params.initial_lr * (1.0 - step / total_steps))
                step += 1
                a = b - k * (1 + neg)
                rows = all_rows[a:b]
                labels = labels_by_k.get(k)
                if labels is None:
                    labels = labels_by_k[k] = np.zeros(rows.size, dtype=np.float32)
                    labels[:k] = 1.0

                v = syn0[center]  # a view: `v +=` updates syn0
                w1 = syn1.take(rows, axis=0)
                scores = _sigmoid(w1 @ v)
                block_scores.append(scores)
                g = (labels - scores) * lr
                grad_center = g @ w1
                # scatter-add on the flat view: numpy's fast 1-D path, applying
                # each element's additions in row order like the 2-D form
                flat_idx = all_flat[a:b].repeat(dim) + tiled_cols[: rows.size * dim]
                np.add.at(flat1, flat_idx, (g[:, None] * v).ravel())
                v += grad_center
            for loss in _center_losses(np.concatenate(block_scores), ks, neg).tolist():
                loss_sum += loss
        epoch_losses.append(loss_sum / max(n_pairs, 1))

    return EmbeddingSpace(vocab=vocab, vectors=syn0, epoch_losses=epoch_losses)


def save_vectors(space: EmbeddingSpace, path: str) -> None:
    """Write the plain-text vector format: a "<vocab> <dim>" header, then
    one token + floats per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(space.vocab)} {space.dim}\n")
        # a float32 widened to a Python float prints the same digits
        fmt = "{:.9g}".format
        for i, token in enumerate(space.tokens):
            fh.write(token + " " + " ".join(map(fmt, space.vectors[i].tolist())) + "\n")


def load_vectors(path: str) -> EmbeddingSpace:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("bad header: expected '<vocab_size> <dim>'")
        try:
            size, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError("bad header: expected two integers") from exc

        vocab: dict[str, int] = {}
        vectors = np.empty((size, dim), dtype=np.float32)
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
            vectors[row] = np.array(parts[1:], dtype=np.float32)
            row += 1
        if row != size:
            raise ValueError(f"header declares {size} rows but file has {row}")
    return EmbeddingSpace(vocab=vocab, vectors=vectors)


def nearest_neighbors(space: EmbeddingSpace, token: str, k: int) -> NeighborList:
    """Top-k most cosine-similar tokens, descending; ties broken by token.

    The anchor itself is excluded.
    """
    if token not in space.vocab:
        raise KeyError(f"token {token!r} not in vocabulary")
    if k > len(space.vocab) - 1:
        raise ValueError(f"k={k} exceeds vocabulary size minus one ({len(space.vocab) - 1})")
    if k <= 0:
        return NeighborList(anchor=token, neighbors=[])

    mat = space.vectors.astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    anchor_idx = space.vocab[token]
    if norms[anchor_idx] == 0.0:
        raise ValueError(f"anchor {token!r} has a zero vector")
    sims = mat @ (mat[anchor_idx] / norms[anchor_idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(norms > 0, sims / np.where(norms > 0, norms, 1.0), -2.0)
    sims = np.clip(sims, -2.0, 1.0)

    # only the top k and every token tied with the k-th need the exact
    # (-cosine, token) sort; k <= |vocab| - 1 keeps the anchor out of it
    keys = -sims
    keys[anchor_idx] = np.inf
    kth = keys[np.argpartition(keys, k - 1)[k - 1]]
    tokens = space.tokens
    ranked = sorted(
        ((tokens[i], float(sims[i])) for i in np.flatnonzero(keys <= kth).tolist()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return NeighborList(anchor=token, neighbors=ranked[:k])


def sentence_embedding(space: EmbeddingSpace, tokens: Sequence[str]) -> np.ndarray:
    """Bag-of-vectors sentence representation: the mean of in-vocabulary,
    non-stopword token vectors."""
    from .lexicon import STOPWORDS

    rows = [space.vocab[t] for t in tokens if t not in STOPWORDS and t in space.vocab]
    if not rows:
        raise ValueError("no in-vocabulary, non-stopword token to embed")
    return space.vectors[rows].astype(np.float64).mean(axis=0)
