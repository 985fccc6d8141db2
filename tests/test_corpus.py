import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from figlex._kernels import Pcg64
from figlex.corpus import (
    balance_groups,
    load_corpus,
    tokenize,
)
from figlex.lexicon import load_lexicon
from figlex.stats import jsd, split_baseline

from conftest import make_corpus, split_halves, write_jsonl


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Pick a FIGHT!") == ["pick", "a", "fight"]

    def test_apostrophes_and_urls(self):
        assert tokenize("don't give up — see https://x.y") == ["don't", "give", "up", "see"]
        assert tokenize("check www.example.com/page now") == ["check", "now"]

    def test_empty(self):
        assert tokenize("") == []

    def test_curly_apostrophe(self):
        assert tokenize("one’s pride") == ["one's", "pride"]

    def test_edge_apostrophes_stripped(self):
        assert tokenize("'tis the dogs' day") == ["tis", "the", "dogs", "day"]

    def test_idempotent_on_own_output(self):
        texts = [
            "Hello, WORLD! it's 3:45pm http://a.b/c",
            "rock'n'roll -- under_score 'quoted'",
            "multi\nline\ttext  with   spaces",
        ]
        for text in texts:
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_no_empty_or_uppercase_tokens(self):
        rng = np.random.default_rng(42)
        alphabet = list("abcXYZ0 9'!-.@/")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=30))
            for tok in tokenize(text):
                assert tok
                assert tok == tok.lower()


class TestLoadCorpus:
    def test_single_line(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl",
                           [{"author_id": "a1", "group": "F", "text": "over the moon"}])
        corpus = load_corpus(str(path), group_labels=("M", "F"))
        assert len(corpus.posts) == 1
        assert corpus.posts[0].token_count == 3
        assert corpus.token_totals() == {"M": 0, "F": 3}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = load_corpus(str(path), group_labels=("M", "F"))
        assert len(corpus.posts) == 0
        assert corpus.token_totals() == {"M": 0, "F": 0}

    def test_unknown_group(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl",
                           [{"author_id": "a", "group": "X", "text": "hi"}])
        with pytest.raises(ValueError, match="unknown group X"):
            load_corpus(str(path), group_labels=("M", "F"))

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"author_id":"a","group":"M","text":"x"}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            load_corpus(str(path), group_labels=("M", "F"))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('# header\n\n{"author_id":"a","group":"M","text":"x"}\n')
        corpus = load_corpus(str(path), group_labels=("M", "F"))
        assert len(corpus.posts) == 1

    def test_label_inference(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"author_id": "a", "group": "M", "text": "x"},
            {"author_id": "b", "group": "F", "text": "y"},
        ])
        assert load_corpus(str(path)).group_labels == ("M", "F")

    def test_third_label_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            {"author_id": "a", "group": "M", "text": "x"},
            {"author_id": "b", "group": "F", "text": "y"},
            {"author_id": "c", "group": "Z", "text": "z"},
        ])
        with pytest.raises(ValueError, match="line 3: unknown group Z"):
            load_corpus(str(path))


@pytest.mark.parametrize("load", [load_corpus, load_lexicon])
@pytest.mark.parametrize("line", ["5", '"canonical"', "[1]"])
def test_non_object_line_rejected(tmp_path, load, line):
    # both loaders read their lines through one record reader
    path = tmp_path / "records.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=r"^line 1: expected a JSON object$"):
        load(str(path))


_MISSING = object()


@pytest.mark.parametrize("load, record", [
    (load_corpus, {"author_id": "a", "group": "M", "text": "over the moon"}),
    (load_lexicon, {"canonical": "over the moon", "definition": "very happy"}),
], ids=["corpus", "lexicon"])
@pytest.mark.parametrize("value", [_MISSING, None, 3, ["x"]],
                         ids=["missing", "null", "number", "list"])
def test_record_without_a_required_string_rejected(tmp_path, load, record, value):
    # a post keeps no text, but its record must still hold one as a string
    for key in record:
        bad = {k: v for k, v in record.items() if k != key}
        if value is not _MISSING:
            bad[key] = value
        path = write_jsonl(tmp_path / "records.jsonl", [record, bad])
        with pytest.raises(ValueError, match=rf"^line 2: missing or non-string key '{key}'$"):
            load(str(path))


class TestBalanceGroups:
    def test_already_equal_is_noop(self):
        corpus = make_corpus({"A": ["w w w"], "B": ["x x x"]})
        assert balance_groups(corpus, seed=0) is corpus

    def test_fixed_length_downsampling(self):
        corpus = make_corpus({"A": ["w " * 10] * 10, "B": ["w " * 10] * 6})
        balanced = balance_groups(corpus, seed=3)
        assert balanced.token_totals() == {"A": 60, "B": 60}

    def test_deterministic(self):
        corpus = make_corpus({"A": [f"w {'x ' * i}" for i in range(1, 12)],
                              "B": ["y y y y"] * 3})
        one = balance_groups(corpus, seed=9)
        two = balance_groups(corpus, seed=9)
        assert [p.author_id for p in one.posts] == [p.author_id for p in two.posts]

    def test_smaller_group_untouched_and_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            texts_a = [("w " * int(rng.integers(1, 15))).strip() for _ in range(15)]
            texts_b = [("w " * int(rng.integers(1, 15))).strip() for _ in range(8)]
            corpus = make_corpus({"A": texts_a, "B": texts_b})
            totals = corpus.token_totals()
            smaller = "A" if totals["A"] <= totals["B"] else "B"
            balanced = balance_groups(corpus, seed=trial)
            assert ([p for p in balanced.posts if p.group == smaller]
                    == [p for p in corpus.posts if p.group == smaller])
            removed = [p for p in corpus.posts if p not in balanced.posts]
            if removed:
                new_totals = balanced.token_totals()
                gap = abs(new_totals["A"] - new_totals["B"])
                assert gap <= max(p.token_count for p in removed)

    def test_empty_group_error(self):
        corpus = make_corpus({"A": ["w w"], "B": []}, labels=("A", "B"))
        with pytest.raises(ValueError, match="no posts"):
            balance_groups(corpus, seed=0)


def split_jsds(lengths, post_idioms, n_splits, rng):
    """`split_baseline` over posts of the given lengths, post u holding the
    idioms ``post_idioms[u]``."""
    starts = np.cumsum([0] + [len(ids) for ids in post_idioms])
    idioms = [i for ids in post_idioms for i in ids]
    return split_baseline(lengths, starts, idioms, range(len(lengths)),
                          max(idioms, default=-1) + 1, n_splits, rng)


def marked_post_jsds(n):
    """n posts, post 0 holding idiom 0 and the others idiom 1: the JSD of a
    split whose half with post 0 holds k posts, for k = 1..n-1."""
    return {k: jsd(np.array([1, k - 1]), np.array([0, n - k])) for k in range(1, n)}


# The greedy half split runs inside the divergence baseline's kernel, which
# returns each split's JSD: these tests read the halves from JSD values.
class TestRandomHalves:
    def test_too_few_posts(self):
        # the divergence test splits each group's posts on their own
        corpus = make_corpus({"A": ["only one"], "B": ["z z"]})
        lengths = [p.token_count for p in corpus.posts if p.group == "A"]
        with pytest.raises(ValueError, match="fewer than 2"):
            split_jsds(lengths, [[0]], 2, Pcg64(0))


class TestSplitHalves:
    def test_partition_property(self):
        # ten equal posts: five on each side, whatever the permutation; with
        # one post marked, only a 5-post half around it gives this JSD
        by_size = marked_post_jsds(10)
        assert list(by_size.values()).count(by_size[5]) == 1
        values = split_jsds([3] * 10, [[0]] + [[1]] * 9, 20, Pcg64(1))
        assert len(values) == 20 and values.typecode == "d"
        assert values.tolist() == [by_size[5]] * 20

    def test_deterministic(self):
        post_idioms = [[0], [1], [2], [0, 1], [1, 2], [0, 2], [0], [1], [2, 2]]
        three = split_jsds([1] * 9, post_idioms, 3, Pcg64(4))
        assert np.array_equal(split_jsds([1] * 9, post_idioms, 3, Pcg64(4)), three)
        # the splits draw in turn from one generator: a later call goes on
        rng = Pcg64(4)
        parts = [split_jsds([1] * 9, post_idioms, k, rng) for k in (1, 2)]
        assert parts[0] + parts[1] == three

    def test_equal_length_posts_balance(self):
        by_size = marked_post_jsds(1000)
        assert list(by_size.values()).count(by_size[500]) == 1
        values = split_jsds([4] * 1000, [[0]] + [[1]] * 999, 5, Pcg64(2))
        assert values.tolist() == [by_size[500]] * 5

    # few distinct lengths, zeros included, so (tokens, posts) ties are common;
    # the large ones take the walk's int64 key near its range.  Every post
    # holds an idiom, so no half is without one.
    @settings(max_examples=200, deadline=None)
    @given(
        posts=st.lists(st.tuples(st.one_of(st.sampled_from([0, 0, 1, 2, 3, 5, 40]),
                                           st.integers(0, 10**15)),
                                 st.lists(st.integers(0, 5), min_size=1, max_size=3)),
                       min_size=2, max_size=40),
        seed=st.integers(0, 2**64 - 1),
        n_splits=st.integers(1, 8),
    )
    @example(posts=[(7, [0]), (7, [1])], seed=0, n_splits=1)
    @example(posts=[(0, [0]), (0, [1]), (0, [0, 1])], seed=1, n_splits=2)
    def test_batch_equals_reference_loop(self, posts, seed, n_splits):
        # split_halves is the rule as a plain loop, the kernel walk's oracle,
        # driven by numpy's generator as the kernel's splits are by the port
        lengths, post_idioms = (list(column) for column in zip(*posts))
        values = split_jsds(lengths, post_idioms, n_splits, Pcg64(seed))
        assert len(values) == n_splits
        n_support = max(max(ids) for ids in post_idioms) + 1
        rng = np.random.default_rng(seed)
        for value in values:
            halves = split_halves(lengths, rng)
            counts = [np.bincount([i for j in half for i in post_idioms[j]], minlength=n_support)
                      for half in halves]
            assert np.float64(value).tobytes() == np.float64(jsd(*counts)).tobytes()

    @pytest.mark.parametrize("lengths", [[], [3]])
    def test_fewer_than_two_posts(self, lengths):
        with pytest.raises(ValueError, match="fewer than 2 posts to split"):
            split_jsds(lengths, [[0]] * len(lengths), 2, Pcg64(0))

    @pytest.mark.parametrize("idiom", [-1, 2])
    def test_idiom_outside_the_support_rejected(self, idiom):
        # the kernel counts into an array of n_support entries
        with pytest.raises(ValueError, match="span idioms must lie in 0..1"):
            split_baseline([3, 4], [0, 1, 2], [0, idiom], range(2), 2, 1, Pcg64(0))

    # a group's posts as the divergence test lays them out, among the other
    # group's, some of whose runs are empty
    @settings(max_examples=100, deadline=None)
    @given(
        posts=st.lists(st.tuples(st.integers(0, 9), st.lists(st.integers(0, 4), min_size=1,
                                                             max_size=3)),
                       min_size=2, max_size=12),
        others=st.lists(st.tuples(st.integers(0, 9), st.lists(st.integers(0, 4), max_size=3)),
                        max_size=12),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_units_among_other_posts_split_as_alone(self, posts, others, seed):
        def split(layout, units):
            starts = np.cumsum([0] + [len(ids) for _, ids in layout])
            idioms = [i for _, ids in layout for i in ids]
            return split_baseline([length for length, _ in layout], starts, idioms, units,
                                  5, 4, Pcg64(seed))

        layout, units = [], []
        for k in range(max(len(posts), len(others))):
            if k < len(others):
                layout.append(others[k])
            if k < len(posts):
                units.append(len(layout))
                layout.append(posts[k])
        alone = split(posts, range(len(posts)))
        assert split(layout, units).tobytes() == alone.tobytes()

    def test_strided_arrays_read_as_their_values(self):
        # the kernel takes each array's address, so a strided view is copied first
        lengths, starts, idioms, units = [3, 4, 5, 6], [0, 1, 2, 4, 5], [0, 1, 0, 1, 1], [3, 1, 2]
        want = split_baseline(lengths, starts, idioms, units, 2, 6, Pcg64(3))
        strided = (np.repeat(np.array(a, dtype=np.int64), 2)[::2]
                   for a in (lengths, starts, idioms, units))
        got = split_baseline(*strided, 2, 6, Pcg64(3))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lengths, starts, units, message", [
        ([3, 4], [0, 1, 2], [0, 2], "units must"),        # a unit past the last post
        ([3, 4], [0, 1, 2], [-1, 0], "units must"),       # a negative unit
        ([3, 4], [0, 1, 1], [0, 1], "starts must"),       # short of len(idioms)
        ([3, 4, 5], [0, 2, 1, 2], [0, 1], "starts must"),  # decreasing
        ([3, 4], [0, 2], [0, 1], "starts must"),          # one offset too few
        ([3, 4], [1, 1, 2], [0, 1], "starts must"),       # not from 0
    ])
    def test_layout_the_kernel_cannot_read_rejected(self, lengths, starts, units, message):
        with pytest.raises(ValueError, match=message):
            split_baseline(lengths, starts, [0, 1], units, 2, 1, Pcg64(0))

    def test_token_counts_beyond_int64_key_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            split_jsds([2**62, 1], [[0], [1]], 1, Pcg64(0))
