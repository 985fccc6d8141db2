from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import figlex.embeddings
from figlex.embeddings import (
    EmbeddingSpace,
    NeighborList,
    TrainParams,
    _center_losses,
    _sigmoid,
    cosine,
    load_vectors,
    nearest_neighbors,
    save_vectors,
    sentence_embedding,
    train_sgns,
)
from figlex.lexicon import load_lexicon
from figlex.matcher import build_matcher, count_usages, rewrite_with_idiom_tokens

from conftest import make_corpus, write_jsonl


def small_corpus(n_sent=120, seed=0):
    rng = np.random.default_rng(seed)
    ctx_a = ["red", "blue", "green", "cold"]
    ctx_b = ["dog", "cat", "bird", "fish"]
    texts = []
    for i in range(n_sent):
        if i % 3 < 2:
            word = ["aa", "bb"][i % 2]
            pool = ctx_a
        else:
            word = "cc"
            pool = ctx_b
        picks = [pool[j] for j in rng.integers(0, len(pool), size=4)]
        texts.append(" ".join(picks[:2] + [word] + picks[2:]))
    return make_corpus({"A": texts, "B": ["filler"]})


def reference_sigmoid(x):
    """The masked two-sided logistic that `_sigmoid` must equal bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_train_sgns(corpus, matcher, params):
    """Plain per-center SGNS loop: one numpy call per step, noise drawn per
    center, 2-D scatter-add.  `train_sgns` must match its vocabulary and
    vectors bit for bit."""
    sentences = []
    for post in corpus.posts:
        tokens = list(post.tokens)
        if matcher is not None:
            tokens = rewrite_with_idiom_tokens(matcher, tokens)
        sentences.append(tokens)

    counts = Counter(t for sent in sentences for t in sent)
    vocab_tokens = sorted(
        (t for t, c in counts.items() if c >= params.min_count),
        key=lambda t: (-counts[t], t),
    )
    vocab = {t: i for i, t in enumerate(vocab_tokens)}
    id_sentences = []
    for sent in sentences:
        ids = np.array([vocab[t] for t in sent if t in vocab], dtype=np.int64)
        if ids.size >= 2:
            id_sentences.append(ids)

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

    step = 0
    epoch_losses = []
    for _ in range(params.epochs):
        rng = np.random.default_rng([params.seed, 0x5E9])
        loss_sum = 0.0
        n_pairs = 0
        for ids in id_sentences:
            n = len(ids)
            windows = rng.integers(1, params.window + 1, size=n)
            for i in range(n):
                lr = max(min_lr, params.initial_lr * (1.0 - step / total_steps))
                step += 1
                b = windows[i]
                lo = max(0, i - b)
                ctx = np.concatenate((ids[lo:i], ids[i + 1 : i + 1 + b]))
                k = ctx.size
                if k == 0:
                    continue
                center = ids[i]
                noise = np.searchsorted(noise_cdf, rng.random(k * neg))
                rows = np.concatenate((ctx, noise))
                labels = np.zeros(rows.size, dtype=np.float32)
                labels[:k] = 1.0

                v = syn0[center]
                scores = reference_sigmoid(syn1[rows] @ v)
                loss_sum += -float(
                    np.log(np.clip(scores[:k], 1e-10, None)).sum()
                    + np.log(np.clip(1.0 - scores[k:], 1e-10, None)).sum()
                )
                n_pairs += rows.size

                g = (labels - scores) * lr
                grad_center = g @ syn1[rows]
                np.add.at(syn1, rows, g[:, None] * v[None, :])
                syn0[center] += grad_center
        epoch_losses.append(loss_sum / max(n_pairs, 1))

    return EmbeddingSpace(vocab=vocab, vectors=syn0, epoch_losses=epoch_losses)


def idiom_corpus_and_matcher(tmp_path):
    lexicon_path = write_jsonl(tmp_path / "lex.jsonl", [
        {"canonical": "under fire", "definition": "criticised"},
        {"canonical": "over the moon", "definition": "delighted"},
    ])
    rng = np.random.default_rng(5)
    filler = ["team", "coach", "was", "again", "after", "match", "fans", "very"]
    texts = []
    for i in range(90):
        idiom = ["under fire", "over the moon", "the moon"][i % 3]
        picks = [filler[j] for j in rng.integers(0, len(filler), size=5)]
        texts.append(" ".join(picks[:2] + [idiom] + picks[2:]))
    return make_corpus({"A": texts, "B": ["filler"]}), build_matcher(load_lexicon(str(lexicon_path)))


class TestTrainParams:
    def test_defaults_valid(self):
        params = TrainParams()
        assert params.dim == 100 and params.window == 5 and params.negatives == 5
        assert params.min_count == 5 and params.epochs == 5
        assert params.initial_lr == pytest.approx(0.025)

    @pytest.mark.parametrize("kwargs", [
        {"dim": 1}, {"window": 0}, {"negatives": 0}, {"min_count": 0},
        {"epochs": 0}, {"initial_lr": 0.0},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            TrainParams(**kwargs)


class TestCosine:
    def test_parallel(self):
        assert cosine(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.7071067, abs=1e-7
        )

    def test_zero_vector_error(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine(np.zeros(2), np.array([1.0, 0.0]))

    def test_symmetry_and_scale(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u, v = rng.normal(size=5), rng.normal(size=5)
            a, b = rng.uniform(0.1, 5.0, size=2)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            assert cosine(a * u, b * v) == pytest.approx(cosine(u, v), abs=1e-9)
            assert cosine(-a * u, b * v) == pytest.approx(-cosine(u, v), abs=1e-9)

    def test_clamped(self):
        u = np.array([1e-30, 1e-30])
        assert -1.0 <= cosine(u, u) <= 1.0


class TestTrainSgns:
    def test_min_count_filters_vocab(self):
        corpus = make_corpus({"A": ["common common common rare"], "B": ["common common"]})
        space = train_sgns([p.tokens for p in corpus.posts],
                           TrainParams(dim=4, min_count=2, epochs=1, seed=0))
        assert "common" in space
        assert "rare" not in space

    def test_deterministic_bitwise(self):
        corpus = small_corpus()
        params = TrainParams(dim=12, window=2, min_count=1, epochs=2, seed=9)
        one = train_sgns([p.tokens for p in corpus.posts], params)
        two = train_sgns([p.tokens for p in corpus.posts], params)
        assert np.array_equal(one.vectors, two.vectors)
        assert one.vocab == two.vocab

    def test_loss_non_increasing(self):
        corpus = small_corpus(n_sent=200)
        space = train_sgns([p.tokens for p in corpus.posts],
                           TrainParams(dim=16, window=2, min_count=1, epochs=5, seed=4))
        for earlier, later in zip(space.epoch_losses, space.epoch_losses[1:]):
            assert later <= earlier

    def test_shared_context_closer_than_disjoint(self):
        corpus = small_corpus(n_sent=240, seed=3)
        space = train_sgns([p.tokens for p in corpus.posts],
                           TrainParams(dim=16, window=2, min_count=1, epochs=4, seed=7))
        same = cosine(space.vector("aa"), space.vector("bb"))
        cross = cosine(space.vector("aa"), space.vector("cc"))
        assert same > cross

    @pytest.mark.parametrize("dim", [2, 100])
    @pytest.mark.parametrize("case", ["window_exceeds_sentence", "tiny_vocab", "matcher_epochs"])
    def test_matches_reference_loop(self, case, dim, tmp_path):
        matcher = None
        if case == "window_exceeds_sentence":
            # 5-token sentences, so every window reaches both sentence ends
            corpus = small_corpus(n_sent=60, seed=2)
            params = TrainParams(dim=dim, window=9, negatives=3, min_count=1, epochs=1, seed=3)
        elif case == "tiny_vocab":
            # 3 tokens and >= 4 rows per update: every update repeats a row
            rng = np.random.default_rng(8)
            texts = [" ".join(rng.choice(["xa", "xb", "xc"], size=6)) for _ in range(40)]
            corpus = make_corpus({"A": texts, "B": ["xa xb"]})
            params = TrainParams(dim=dim, window=2, negatives=3, min_count=1, epochs=2, seed=11)
        else:
            corpus, matcher = idiom_corpus_and_matcher(tmp_path)
            params = TrainParams(dim=dim, window=3, negatives=2, min_count=2, epochs=3, seed=6)
        if matcher is None:
            sentences = [p.tokens for p in corpus.posts]
        else:
            sentences = count_usages(matcher, corpus).streams
        got = train_sgns(sentences, params)
        want = reference_train_sgns(corpus, matcher, params)
        assert got.vocab == want.vocab
        if matcher is not None:
            assert "__idiom__under_fire" in got.vocab
        assert got.vectors.dtype == want.vectors.dtype == np.float32
        assert np.array_equal(got.vectors.view(np.uint32), want.vectors.view(np.uint32))
        np.testing.assert_allclose(got.epoch_losses, want.epoch_losses, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("dim", [2, 100])
    def test_block_size_never_changes_bits(self, dim, monkeypatch):
        # 2-token sentences and long ones: blocks of one sentence, blocks of
        # many, and single sentences larger than the smaller blocks
        rng = np.random.default_rng(12)
        words = [f"w{j}" for j in range(9)]
        texts = [" ".join(rng.choice(words, size=int(rng.choice([2, 2, 3, 30, 80]))))
                 for _ in range(50)]
        corpus = make_corpus({"A": texts, "B": ["w0 w1"]})
        params = TrainParams(dim=dim, window=4, negatives=3, min_count=1, epochs=2, seed=5)
        runs = []
        for block_rows in (1, 7, 64, figlex.embeddings._BLOCK_ROWS):
            monkeypatch.setattr(figlex.embeddings, "_BLOCK_ROWS", block_rows)
            runs.append(train_sgns([p.tokens for p in corpus.posts], params))
        for space in runs[1:]:
            assert space.vocab == runs[0].vocab
            assert np.array_equal(space.vectors.view(np.uint32), runs[0].vectors.view(np.uint32))
            assert ([x.hex() for x in space.epoch_losses]
                    == [x.hex() for x in runs[0].epoch_losses])

    def test_empty_vocab_error(self):
        corpus = make_corpus({"A": ["one two"], "B": ["three"]})
        with pytest.raises(ValueError, match="min_count"):
            train_sgns([p.tokens for p in corpus.posts],
                       TrainParams(dim=4, min_count=99, epochs=1, seed=0))


SIGMOID_EDGES = [0.0, -0.0, 88.0, -88.0, 104.0, -104.0, 1e30, -1e30,
                 1e-45, -1e-45, 1e-40, -1e-40, np.inf, -np.inf, np.nan]


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float32, st.integers(0, 40),
                  elements=st.one_of(st.sampled_from(SIGMOID_EDGES), st.floats(width=32))))
    @example(np.array(SIGMOID_EDGES, dtype=np.float32))
    def test_bitwise_equals_masked_formula(self, x):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _sigmoid(x)
            want = reference_sigmoid(x)
        assert got.dtype == np.float32
        nan = np.isnan(x)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))


def sentence_scores(neg):
    """Per-center positive counts and float32 scores (edges included) of one
    sentence laid out as `_center_losses` expects."""
    scores = st.one_of(st.sampled_from([0.0, 1.0, 1e-12, 1 - 2**-24, 0.5]),
                       st.floats(0, 1, width=32))
    return st.lists(st.integers(1, 6), min_size=1, max_size=12).flatmap(
        lambda ks: st.tuples(
            st.just(np.array(ks, dtype=np.int64)),
            arrays(np.float32, sum(ks) * (1 + neg), elements=scores),
        )
    )


class TestCenterLosses:
    @settings(max_examples=200, deadline=None)
    @given(neg=st.integers(1, 4), data=st.data())
    def test_concatenation_is_bitwise_per_sentence(self, neg, data):
        ks1, sc1 = data.draw(sentence_scores(neg))
        ks2, sc2 = data.draw(sentence_scores(neg))
        joined = _center_losses(np.concatenate((sc1, sc2)), np.concatenate((ks1, ks2)), neg)
        apart = np.concatenate((_center_losses(sc1, ks1, neg), _center_losses(sc2, ks2, neg)))
        assert joined.dtype == apart.dtype == np.float32
        assert np.array_equal(joined.view(np.uint32), apart.view(np.uint32))


class TestVectorFile:
    def test_header_semantics(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\nfoo 1 0 0\nbar 0 1 0\n")
        space = load_vectors(str(path))
        assert len(space.vocab) == 2 and space.dim == 3

    def test_row_width_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\nfoo 1 0 0\nbar 0 1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_vectors(str(path))

    def test_duplicate_token_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nfoo 1 0\nfoo 0 1\n")
        with pytest.raises(ValueError, match="duplicate token"):
            load_vectors(str(path))

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\nfoo 1 0\nbar 0 1\n")
        with pytest.raises(ValueError, match="declares 3 rows"):
            load_vectors(str(path))

    def test_text_matches_float32_scalar_format(self, tmp_path):
        edges = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38, -3.4028235e38,
                 0.1, 1 / 3, np.inf, -np.inf, np.nan]
        bits = np.random.default_rng(2).integers(0, 2**32, size=4 * 12, dtype=np.uint64)
        vectors = np.vstack([np.array(edges, dtype=np.float32),
                             bits.astype(np.uint32).view(np.float32).reshape(4, 12)])
        space = EmbeddingSpace(vocab={f"t{i}": i for i in range(5)}, vectors=vectors)
        path = tmp_path / "v.txt"
        save_vectors(space, str(path))
        want = "5 12\n" + "".join(
            f"t{i} " + " ".join(f"{x:.9g}" for x in row) + "\n" for i, row in enumerate(vectors)
        )
        assert path.read_text() == want

    def test_roundtrip_preserves_cosines(self, tmp_path):
        corpus = small_corpus()
        space = train_sgns([p.tokens for p in corpus.posts],
                           TrainParams(dim=10, window=2, min_count=1, epochs=2, seed=1))
        path = tmp_path / "v.txt"
        save_vectors(space, str(path))
        again = load_vectors(str(path))
        assert again.vocab == space.vocab
        tokens = space.tokens
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.choice(len(tokens), size=2, replace=False)
            assert cosine(space.vector(tokens[a]), space.vector(tokens[b])) == pytest.approx(
                cosine(again.vector(tokens[a]), again.vector(tokens[b])), abs=1e-5
            )


def toy_space():
    return EmbeddingSpace(
        vocab={"apple": 0, "brick": 1, "cloud": 2, "dune": 3},
        vectors=np.array([[1, 0], [0.9, 0.1], [0, 1], [-1, 0]], dtype=np.float32),
    )


class TestNearestNeighbors:
    def test_k_zero(self):
        assert nearest_neighbors(toy_space(), "apple", 0).neighbors == []

    def test_hand_ranked(self):
        ranked = nearest_neighbors(toy_space(), "apple", 3)
        assert [t for t, _ in ranked.neighbors] == ["brick", "cloud", "dune"]
        sims = [s for _, s in ranked.neighbors]
        assert sims == sorted(sims, reverse=True)

    def test_prefix_property(self):
        shorter = nearest_neighbors(toy_space(), "apple", 2).neighbors
        longer = nearest_neighbors(toy_space(), "apple", 3).neighbors
        assert longer[:2] == shorter

    def test_tie_broken_lexicographically(self):
        space = EmbeddingSpace(
            vocab={"a": 0, "z": 1, "m": 2},
            vectors=np.array([[1, 0], [1, 1], [2, 2]], dtype=np.float32),
        )
        ranked = nearest_neighbors(space, "a", 2)
        assert [t for t, _ in ranked.neighbors] == ["m", "z"]

    def test_tie_straddling_rank_k(self):
        space = EmbeddingSpace(
            vocab={"a": 0, "z": 1, "m": 2, "q": 3},
            vectors=np.array([[1, 0], [1, 1], [2, 2], [0, 1]], dtype=np.float32),
        )
        assert [t for t, _ in nearest_neighbors(space, "a", 1).neighbors] == ["m"]
        assert [t for t, _ in nearest_neighbors(space, "a", 2).neighbors] == ["m", "z"]

    def test_matches_full_sort(self):
        # integer vectors on a small grid: many exact cosine ties, zero rows
        rng = np.random.default_rng(4)
        for trial in range(40):
            size = int(rng.integers(3, 60))
            names = [f"t{j:02d}" for j in rng.permutation(size)]
            vectors = rng.integers(-2, 3, size=(size, 3)).astype(np.float32)
            vectors[0] = [1, 1, 0]
            space = EmbeddingSpace(vocab={t: j for j, t in enumerate(names)}, vectors=vectors)
            anchor = names[0]
            mat = vectors.astype(np.float64)
            norms = np.linalg.norm(mat, axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                sims = np.where(norms > 0, mat @ (mat[0] / norms[0]) / np.where(norms > 0, norms, 1.0), -2.0)
            sims = np.clip(sims, -2.0, 1.0)
            full = sorted(((t, float(sims[j])) for t, j in space.vocab.items() if j != 0),
                          key=lambda pair: (-pair[1], pair[0]))
            for k in range(size):
                assert nearest_neighbors(space, anchor, k) == NeighborList(anchor, full[:k])

    def test_oov_error(self):
        with pytest.raises(KeyError):
            nearest_neighbors(toy_space(), "nope", 1)

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            nearest_neighbors(toy_space(), "apple", 4)


class TestSentenceEmbedding:
    def test_single_token(self):
        space = toy_space()
        np.testing.assert_allclose(sentence_embedding(space, ["apple"]),
                                   space.vector("apple"))

    def test_mean_of_two(self):
        space = EmbeddingSpace(
            vocab={"x": 0, "y": 1},
            vectors=np.array([[1, 0], [0, 1]], dtype=np.float32),
        )
        np.testing.assert_allclose(sentence_embedding(space, ["x", "y"]), [0.5, 0.5])

    def test_order_invariant(self):
        space = toy_space()
        one = sentence_embedding(space, ["apple", "brick", "cloud"])
        two = sentence_embedding(space, ["cloud", "apple", "brick"])
        np.testing.assert_allclose(one, two)

    def test_stopwords_ignored(self):
        space = EmbeddingSpace(
            vocab={"the": 0, "fence": 1},
            vectors=np.array([[9, 9], [1, 0]], dtype=np.float32),
        )
        np.testing.assert_allclose(sentence_embedding(space, ["the", "fence"]), [1, 0])

    def test_all_oov_error(self):
        with pytest.raises(ValueError, match="no in-vocabulary"):
            sentence_embedding(toy_space(), ["zz", "the"])
