import hashlib
import math
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figlex import _kernels
from figlex.embeddings import (
    EmbeddingSpace,
    TrainParams,
    cosine,
    load_vectors,
    nearest_neighbors,
    save_vectors,
    sentence_embedding,
    train_sgns,
)
from figlex.lexicon import load_lexicon
from figlex.matcher import build_matcher, count_usages, rewrite_with_idiom_tokens

from conftest import make_corpus, make_space, vectors, write_jsonl
from numpy_oracles import nearest_neighbors as numpy_nearest_neighbors


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


f32 = np.float32
SCORE_ZERO = _kernels.EXP_TABLE_SIZE + 1
SCORE_ONE = _kernels.EXP_TABLE_SIZE + 2


def lane_dot(a, b):
    """float32 dot product in 8 fixed lanes (lane q sums the products at
    j = q mod 8 in order), the lanes summed in a fixed tree."""
    lanes = np.zeros(8, dtype=f32)
    for j in range(0, a.size, 8):
        part = a[j:j + 8] * b[j:j + 8]
        lanes[:part.size] += part
    return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))


def score_index(f):
    """The table entry of sigmoid(f): saturated beyond +-MAX_EXP, else
    word2vec's grid entry under f, computed in float32."""
    if f > _kernels.MAX_EXP:
        return SCORE_ONE
    if not f >= -_kernels.MAX_EXP:
        return SCORE_ZERO
    scale = f32(_kernels.EXP_TABLE_SIZE) / f32(2 * _kernels.MAX_EXP)
    return int((f + f32(_kernels.MAX_EXP)) * scale)


def reference_train_sgns(corpus, matcher, params):
    """Scalar float32 SGNS loop: windows drawn per sentence, noise per
    center through `searchsorted`, one row at a time.  `train_sgns` must
    match its vocabulary, vectors and epoch losses bit for bit."""
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

    freq = np.array([math.pow(counts[t], 0.75) for t in vocab_tokens])
    noise_cdf = np.cumsum(freq / freq.sum())
    noise_cdf[-1] = 1.0
    score, log_score, log_rest = np.frombuffer(_kernels.score_tables(), np.float32).reshape(3, -1)

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
        window_rng = np.random.default_rng([params.seed, 0x5E9, 0])
        noise_rng = np.random.default_rng([params.seed, 0x5E9, 1])
        loss_sum = 0.0
        n_pairs = 0
        for ids in id_sentences:
            n = len(ids)
            windows = window_rng.integers(1, params.window + 1, size=n)
            for i in range(n):
                lr = f32(max(min_lr, params.initial_lr * (1.0 - step / total_steps)))
                step += 1
                b = windows[i]
                ctx = np.concatenate((ids[max(0, i - b):i], ids[i + 1:i + 1 + b]))
                k = ctx.size
                rows = np.concatenate((ctx, np.searchsorted(noise_cdf, noise_rng.random(k * neg))))
                n_pairs += rows.size

                v = syn0[ids[i]]  # a view: `v +=` updates syn0
                g = np.empty(rows.size, dtype=f32)
                grad = np.zeros(dim, dtype=f32)
                loss = f32(0)
                for r, row in enumerate(rows):
                    t = score_index(lane_dot(syn1[row], v))
                    loss = loss + (log_score[t] if r < k else log_rest[t])
                    g[r] = (f32(r < k) - score[t]) * lr
                    grad += g[r] * syn1[row]
                for r, row in enumerate(rows):
                    syn1[row] += g[r] * v
                v += grad
                loss_sum -= float(loss)
        epoch_losses.append(loss_sum / n_pairs)

    return make_space(vocab, syn0, epoch_losses)


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
        {"initial_lr": math.nan}, {"initial_lr": math.inf},
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

    def test_fixed_lane_order(self):
        # the float64 twin of the SGNS kernel's dot: lane q sums the products
        # at j = q mod 8 in order, and the lanes add up in a fixed tree
        def dot(a, b):
            lanes = [0.0] * 8
            for j, (x, y) in enumerate(zip(a, b)):
                lanes[j % 8] += x * y
            return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
                (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))

        rng = np.random.default_rng(3)
        for n in (1, 7, 8, 9, 100, 203):
            u, v = rng.normal(size=n).tolist(), rng.normal(size=n).tolist()
            want = dot(u, v) / (math.sqrt(dot(u, u)) * math.sqrt(dot(v, v)))
            assert cosine(u, v) == max(-1.0, min(1.0, want))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])


class TestEmbeddingSpace:
    def test_rows_are_views_of_the_data(self):
        space = make_space({"a": 0, "b": 1}, [[1, 2, 3], [4, 5, 6]])
        assert space.vector("b").tolist() == [4, 5, 6]
        space.vector("b")[2] = 9
        assert space.data[5] == 9
        assert space.vector("b").tolist() == [4, 5, 9]

    def test_rejects_data_of_another_size_or_type(self):
        with pytest.raises(ValueError, match="float32 array of 2 x 3 entries, got 5"):
            EmbeddingSpace(vocab={"a": 0, "b": 1}, data=array("f", [0.0] * 5), dim=3)
        with pytest.raises(ValueError, match="of type 'd'"):
            EmbeddingSpace(vocab={"a": 0}, data=array("d", [0.0] * 3), dim=3)


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
        assert one.data == two.data
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
    @pytest.mark.parametrize("case", ["window_exceeds_sentence", "tiny_vocab", "matcher_epochs",
                                      "mixed_lengths"])
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
        elif case == "matcher_epochs":
            corpus, matcher = idiom_corpus_and_matcher(tmp_path)
            params = TrainParams(dim=dim, window=3, negatives=2, min_count=2, epochs=3, seed=6)
        else:
            # 2-token sentences next to long ones, over two epochs
            rng = np.random.default_rng(12)
            words = [f"w{j}" for j in range(9)]
            texts = [" ".join(rng.choice(words, size=int(rng.choice([2, 2, 3, 30, 80]))))
                     for _ in range(50)]
            corpus = make_corpus({"A": texts, "B": ["w0 w1"]})
            params = TrainParams(dim=dim, window=4, negatives=3, min_count=1, epochs=2, seed=5)
        if matcher is None:
            sentences = [p.tokens for p in corpus.posts]
        else:
            sentences = count_usages(matcher, corpus).streams
        got = train_sgns(sentences, params)
        want = reference_train_sgns(corpus, matcher, params)
        assert got.vocab == want.vocab
        if matcher is not None:
            assert "__idiom__under_fire" in got.vocab
        assert got.data.typecode == "f"
        assert np.array_equal(vectors(got).view(np.uint32), vectors(want).view(np.uint32))
        assert [x.hex() for x in got.epoch_losses] == [x.hex() for x in want.epoch_losses]

    def test_bytes_are_pinned(self):
        # one set of bytes on every CPU and compiler setting: a dot product
        # summed in another order moves a score across a table cell within
        # this many updates, and so moves the digest
        rng = np.random.default_rng(21)
        words = [f"w{j}" for j in range(400)]
        sentences = [[words[j] for j in np.minimum(rng.integers(0, 400, 40),
                                                   rng.integers(0, 400, 40))]
                     for _ in range(500)]
        space = train_sgns(sentences, TrainParams(dim=100, window=5, negatives=5, min_count=1,
                                                  epochs=2, seed=3))
        assert hashlib.sha256(space.data.tobytes()).hexdigest() == (
            "e0958e0e77665d9dfe315442ae4c86790fe17aa4ce913749b337d99b659395d3")
        assert [x.hex() for x in space.epoch_losses] == ["0x1.1e8d72274666fp-1",
                                                         "0x1.ce2dbe745b9d9p-2"]

    def test_empty_vocab_error(self):
        corpus = make_corpus({"A": ["one two"], "B": ["three"]})
        with pytest.raises(ValueError, match="min_count"):
            train_sgns([p.tokens for p in corpus.posts],
                       TrainParams(dim=4, min_count=99, epochs=1, seed=0))


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

    def test_unparsable_value_names_its_row(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nfoo 1 0\nbar x 3\n")
        with pytest.raises(ValueError, match="row 3: could not convert string to float: 'x'"):
            load_vectors(str(path))

    # 1e300 and 3.5e38 are finite doubles that round to float32 infinity
    @pytest.mark.parametrize("row", ["nan 1", "1 inf", "-inf 0", "1e300 0", "0 -3.5e38"])
    def test_value_not_finite_as_float32_rejected(self, tmp_path, row):
        path = tmp_path / "v.txt"
        path.write_text(f"2 2\nfoo 1 0\nbar {row}\n")
        with pytest.raises(ValueError, match="row 3: values must be finite as float32"):
            load_vectors(str(path))

    def test_largest_float32_loads(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 2\nfoo 3.4028235e38 -3.4028235e38\n")
        assert list(load_vectors(str(path)).data) == [3.4028234663852886e38,
                                                      -3.4028234663852886e38]

    def test_duplicate_token_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nfoo 1 0\nfoo 0 1\n")
        with pytest.raises(ValueError, match="duplicate token"):
            load_vectors(str(path))

    @pytest.mark.parametrize("header", ["0 3", "2 0", "0 0", "-1 3"])
    def test_empty_header_rejected(self, tmp_path, header):
        path = tmp_path / "v.txt"
        path.write_text(f"{header}\n")
        with pytest.raises(ValueError, match="must both be positive"):
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
        space = make_space({f"t{i}": i for i in range(5)}, vectors)
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
    return make_space({"apple": 0, "brick": 1, "cloud": 2, "dune": 3},
                      [[1, 0], [0.9, 0.1], [0, 1], [-1, 0]])


class TestNearestNeighbors:
    def test_k_zero(self):
        assert nearest_neighbors(toy_space(), "apple", 0) == []

    def test_hand_ranked(self):
        ranked = nearest_neighbors(toy_space(), "apple", 3)
        assert [t for t, _ in ranked] == ["brick", "cloud", "dune"]
        sims = [s for _, s in ranked]
        assert sims == sorted(sims, reverse=True)

    def test_prefix_property(self):
        shorter = nearest_neighbors(toy_space(), "apple", 2)
        longer = nearest_neighbors(toy_space(), "apple", 3)
        assert longer[:2] == shorter

    def test_tie_broken_lexicographically(self):
        space = make_space({"a": 0, "z": 1, "m": 2}, [[1, 0], [1, 1], [2, 2]])
        ranked = nearest_neighbors(space, "a", 2)
        assert [t for t, _ in ranked] == ["m", "z"]

    def test_tie_straddling_rank_k(self):
        space = make_space({"a": 0, "z": 1, "m": 2, "q": 3}, [[1, 0], [1, 1], [2, 2], [0, 1]])
        assert [t for t, _ in nearest_neighbors(space, "a", 1)] == ["m"]
        assert [t for t, _ in nearest_neighbors(space, "a", 2)] == ["m", "z"]

    def test_matches_full_sort(self):
        # integer vectors on a small grid: many exact cosine ties, zero rows;
        # every row scored by `cosine`, a zero row as -2
        rng = np.random.default_rng(4)
        for trial in range(40):
            size = int(rng.integers(3, 60))
            names = [f"t{j:02d}" for j in rng.permutation(size)]
            rows = rng.integers(-2, 3, size=(size, 3)).astype(np.float32)
            rows[0] = [1, 1, 0]
            space = make_space({t: j for j, t in enumerate(names)}, rows)
            anchor = names[0]
            sims = [cosine(rows[0], row) if row.any() else -2.0 for row in rows]
            full = sorted(((t, sims[j]) for t, j in space.vocab.items() if j != 0),
                          key=lambda pair: (-pair[1], pair[0]))
            for k in range(size):
                assert nearest_neighbors(space, anchor, k) == full[:k]

    def test_zero_anchor_error(self):
        space = make_space({"a": 0, "b": 1}, [[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="zero vector"):
            nearest_neighbors(space, "a", 1)

    @settings(max_examples=100, deadline=None)
    @given(size=st.integers(2, 40), dim=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_oracle(self, size, dim, seed):
        # the same ranked tokens as the numpy ranking, cosines within 1e-12
        # (ties, which either rounding may break, are test_matches_full_sort's)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(size, dim)).astype(np.float32)
        space = make_space({f"t{j:02d}": j for j in range(size)}, rows)
        for k in range(size):
            got = nearest_neighbors(space, "t00", k)
            want = numpy_nearest_neighbors(space, "t00", k)
            assert [t for t, _ in got] == [t for t, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a == pytest.approx(b, rel=0, abs=1e-12)

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
        space = make_space({"x": 0, "y": 1}, [[1, 0], [0, 1]])
        np.testing.assert_allclose(sentence_embedding(space, ["x", "y"]), [0.5, 0.5])

    def test_order_invariant(self):
        space = toy_space()
        one = sentence_embedding(space, ["apple", "brick", "cloud"])
        two = sentence_embedding(space, ["cloud", "apple", "brick"])
        np.testing.assert_allclose(one, two)

    def test_stopwords_ignored(self):
        space = make_space({"the": 0, "fence": 1}, [[9, 9], [1, 0]])
        np.testing.assert_allclose(sentence_embedding(space, ["the", "fence"]), [1, 0])

    def test_all_oov_error(self):
        with pytest.raises(ValueError, match="no in-vocabulary"):
            sentence_embedding(toy_space(), ["zz", "the"])
