import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import figlex.matcher
from figlex.corpus import Corpus
from figlex.lexicon import IdiomEntry, Lexicon, idiom_token, load_lexicon
from figlex.matcher import (
    GroupCounts,
    Matcher,
    build_matcher,
    count_usages,
    find_matches,
    load_streams,
    recount,
    rewrite_with_idiom_tokens,
    save_streams,
)

from conftest import make_corpus, make_post, write_jsonl


PATTERNS = {
    ("pick", "a", "fight"): "pick a fight",
    ("picked", "a", "fight"): "pick a fight",
    ("kick", "the", "bucket"): "kick the bucket",
    ("the", "bucket", "list"): "the bucket list",
    ("over", "the", "moon"): "over the moon",
}


# every token of PATTERNS, plus two that start none
STREAM_WORDS = sorted({t for pattern in PATTERNS for t in pattern}) + ["x", "y"]


def brute_force_matches(patterns, tokens):
    """Reference leftmost-longest scan: at each position try the longest
    pattern; on a match jump past it."""
    by_len = sorted(patterns, key=len, reverse=True)
    out = []
    pos = 0
    while pos < len(tokens):
        hit = None
        for pat in by_len:
            if tuple(tokens[pos : pos + len(pat)]) == pat:
                hit = pat
                break
        if hit is None:
            pos += 1
        else:
            out.append((pos, pos + len(hit), patterns[hit]))
            pos += len(hit)
    return out


class TestBuildMatcher:
    def test_pattern_count(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "pick a fight", "definition": "x", "verb_index": 0},
            {"canonical": "under fire", "definition": "y"},
        ])
        matcher = build_matcher(load_lexicon(str(path)))
        assert len(matcher) == 5

    def test_empty_lexicon(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text("")
        matcher = build_matcher(load_lexicon(str(path)))
        assert find_matches(matcher, ["any", "tokens"]) == []

    def test_collision_names_both(self):
        from figlex.lexicon import IdiomEntry, Lexicon

        lexicon = Lexicon()
        for key in ("kick the fence", "sit on the fence"):
            entry = IdiomEntry(canonical=tuple(key.split()), definition=("x",))
            shared = ("on", "the", "fence")
            entry.variants = (entry.canonical, shared)
            lexicon.entries[key] = entry
        with pytest.raises(ValueError) as err:
            build_matcher(lexicon)
        assert "kick the fence" in str(err.value)
        assert "sit on the fence" in str(err.value)


class TestFindMatches:
    def test_empty_input(self):
        assert find_matches(Matcher(PATTERNS), []) == []

    def test_simple_span(self):
        matches = find_matches(Matcher(PATTERNS), "he picked a fight yesterday".split())
        assert len(matches) == 1
        assert matches[0].canonical == "pick a fight"
        assert (matches[0].start, matches[0].end) == (1, 4)
        assert matches[0].surface == ("picked", "a", "fight")

    def test_leftmost_longest_policy(self):
        matches = find_matches(Matcher(PATTERNS), "kick the bucket list".split())
        assert [(m.canonical, m.start, m.end) for m in matches] == [
            ("kick the bucket", 0, 3)
        ]

    def test_matches_agree_with_brute_force(self):
        rng = np.random.default_rng(11)
        vocab = ["pick", "picked", "a", "fight", "kick", "the", "bucket",
                 "list", "over", "moon", "x", "y"]
        matcher = Matcher(PATTERNS)
        for _ in range(300):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 25))]
            got = [(m.start, m.end, m.canonical) for m in find_matches(matcher, tokens)]
            assert got == brute_force_matches(PATTERNS, tokens)

    @settings(max_examples=200, deadline=None)
    @given(
        # few words and short patterns, so that prefixes, nested patterns and
        # pattern tails at the end of the stream all occur
        patterns=st.dictionaries(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=4).map(tuple),
            st.sampled_from(["p", "q", "r"]),
            min_size=1, max_size=8,
        ),
        tokens=st.lists(st.sampled_from("abcd"), max_size=15),
    )
    @example(patterns={("a", "b", "c"): "abc", ("a", "b"): "ab"}, tokens=["x", "a", "b"])
    def test_random_patterns_agree_with_brute_force(self, patterns, tokens):
        matcher = Matcher(patterns)
        # posts hold their tokens as tuples
        got = [(m.start, m.end, m.canonical) for m in find_matches(matcher, tuple(tokens))]
        assert got == brute_force_matches(patterns, tokens)
        once = rewrite_with_idiom_tokens(matcher, tokens)
        assert rewrite_with_idiom_tokens(matcher, once) == once

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="at least one token"):
            Matcher({(): "nothing", ("a",): "a"})

    def test_non_overlap_and_order(self):
        rng = np.random.default_rng(3)
        vocab = ["kick", "the", "bucket", "list", "over", "moon"]
        matcher = Matcher(PATTERNS)
        for _ in range(200):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=20)]
            matches = find_matches(matcher, tokens)
            for prev, cur in zip(matches, matches[1:]):
                assert prev.end <= cur.start


class TestCountUsages:
    def make_lexicon(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "over the moon", "definition": "x"},
            {"canonical": "pick a fight", "definition": "y", "verb_index": 0},
        ])
        return load_lexicon(str(path))

    def test_single_usage(self, tmp_path):
        matcher = build_matcher(self.make_lexicon(tmp_path))
        corpus = make_corpus({"M": [], "F": ["over the moon"]}, labels=("M", "F"))
        counts = count_usages(matcher, corpus)
        assert counts.idiom_counts["over the moon"] == {"M": 0, "F": 1}
        assert counts.idiom_counts["pick a fight"] == {"M": 0, "F": 0}

    def test_empty_corpus(self, tmp_path):
        matcher = build_matcher(self.make_lexicon(tmp_path))
        corpus = make_corpus({"M": [], "F": []}, labels=("M", "F"))
        counts = count_usages(matcher, corpus)
        assert all(v == {"M": 0, "F": 0} for v in counts.idiom_counts.values())
        assert {g: sum(counts.tokens_for(g).values()) for g in ("M", "F")} == {"M": 0, "F": 0}

    def test_identical_posts_symmetric(self, tmp_path):
        matcher = build_matcher(self.make_lexicon(tmp_path))
        texts = ["she was over the moon", "they picked a fight again"]
        corpus = make_corpus({"M": texts, "F": texts})
        counts = count_usages(matcher, corpus)
        for per_group in counts.idiom_counts.values():
            assert per_group["M"] == per_group["F"]
        assert sum(counts.tokens_for("M").values()) == sum(counts.tokens_for("F").values())

    def test_matched_span_counts_once_as_idiom_token(self, tmp_path):
        matcher = build_matcher(self.make_lexicon(tmp_path))
        corpus = make_corpus({"M": ["he was over the moon today"], "F": []},
                             labels=("M", "F"))
        counts = count_usages(matcher, corpus)
        assert counts.tokens_for("M")[idiom_token("over the moon")] == 1
        assert "moon" not in counts.tokens_for("M") + counts.tokens_for("F")
        # he, was, <idiom>, today
        assert sum(counts.tokens_for("M").values()) == 4
        assert counts.tokens_for("M") == Counter(
            ["he", "was", idiom_token("over the moon"), "today"]
        )

    def test_counts_match_per_post_matches(self, tmp_path):
        matcher = build_matcher(self.make_lexicon(tmp_path))
        rng = np.random.default_rng(8)
        vocab = ["over", "the", "moon", "pick", "picked", "a", "fight", "w"]
        texts = {
            g: [" ".join(vocab[i] for i in rng.integers(0, len(vocab), size=12))
                for _ in range(30)]
            for g in ("M", "F")
        }
        corpus = make_corpus(texts)
        counts = count_usages(matcher, corpus)
        manual = {c: {"M": 0, "F": 0} for c in counts.idiom_counts}
        for post in corpus.posts:
            for m in find_matches(matcher, list(post.tokens)):
                manual[m.canonical][post.group] += 1
        assert manual == counts.idiom_counts

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["M", "F"]),
                              st.lists(st.sampled_from(STREAM_WORDS), max_size=12)),
                    max_size=12))
    def test_streams_are_the_rewrite_and_what_is_counted(self, posts):
        matcher = Matcher(PATTERNS)
        # groups interleave in the generated order, as in a balanced corpus
        corpus = Corpus(posts=tuple(make_post(" ".join(words), group=g, author=f"a{i}")
                                    for i, (g, words) in enumerate(posts)),
                        group_labels=("M", "F"))
        counts = count_usages(matcher, corpus)
        assert len(counts.streams) == len(corpus.posts)
        for stream, post in zip(counts.streams, corpus.posts):
            assert list(stream) == rewrite_with_idiom_tokens(matcher, list(post.tokens))
            # a post with no match is not copied
            assert (stream is post.tokens) == (not find_matches(matcher, post.tokens))
        want = {g: Counter(t for post in corpus.posts if post.group == g
                           for t in rewrite_with_idiom_tokens(matcher, list(post.tokens)))
                for g in ("M", "F")}
        for g in ("M", "F"):
            assert counts.tokens_for(g) == want[g]
            assert sum(counts.tokens_for(g).values()) == want[g].total()

    @settings(max_examples=200, deadline=None)
    @given(
        patterns=st.dictionaries(
            st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(tuple),
            st.sampled_from(["p", "q", "r"]),
            max_size=6,
        ),
        posts=st.lists(st.tuples(st.sampled_from(["M", "F"]),
                                 st.lists(st.sampled_from("abcdx"), max_size=10)),
                       max_size=10),
    )
    def test_span_runs_hold_each_posts_matches(self, patterns, posts):
        matcher = Matcher(patterns)
        corpus = Corpus(posts=tuple(make_post(" ".join(words), group=g, author=f"a{i}")
                                    for i, (g, words) in enumerate(posts)),
                        group_labels=("M", "F"))
        counts = count_usages(matcher, corpus)
        starts, idioms = list(counts.span_starts), list(counts.span_idioms)
        assert len(starts) == len(corpus.posts) + 1 and starts[0] == 0
        assert all(a <= b for a, b in zip(starts, starts[1:]))
        assert starts[-1] == len(idioms)
        column = list(counts.idiom_counts)
        runs = [idioms[starts[i]:starts[i + 1]] for i in range(len(corpus.posts))]
        for run, post in zip(runs, corpus.posts):
            assert run == [column.index(m.canonical) for m in find_matches(matcher, post.tokens)]
        for g in ("M", "F"):
            used = Counter(j for run, post in zip(runs, corpus.posts) if post.group == g
                           for j in run)
            assert [used[j] for j in range(len(column))] == [
                counts.idiom_counts[c][g] for c in column]

    def test_streams_for_keeps_a_groups_posts_in_corpus_order(self):
        matcher = Matcher(PATTERNS)
        posts = [("M", "over the moon x"), ("F", "y"), ("M", "kick the bucket"),
                 ("F", "x pick a fight")]
        corpus = Corpus(posts=tuple(make_post(text, group=g, author=f"a{i}")
                                    for i, (g, text) in enumerate(posts)),
                        group_labels=("M", "F"))
        counts = count_usages(matcher, corpus)
        moon, bucket, fight = map(idiom_token, ("over the moon", "kick the bucket",
                                                "pick a fight"))
        assert counts.streams_for("M") == [[moon, "x"], [bucket]]
        assert counts.streams_for("F") == [("y",), ["x", fight]]

    def test_variant_counts_sum_to_idiom_counts(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        matcher = build_matcher(lexicon)
        corpus = make_corpus({
            "M": ["he picked a fight", "they pick a fight daily"],
            "F": ["picking a fight now", "we pick a fight"],
        })
        counts = count_usages(matcher, corpus)
        assert counts.variant_counts == {
            ("picked", "a", "fight"): 1,
            ("pick", "a", "fight"): 2,
            ("picking", "a", "fight"): 1,
        }
        entry = lexicon.get("pick a fight")
        total = sum(counts.variant_counts.get(t, 0) for t in entry.variants)
        assert total == sum(counts.idiom_counts["pick a fight"].values()) == 4


def corpus_of(posts, labels=("M", "F")):
    """A corpus of (group, words) posts, in the order given."""
    return Corpus(posts=tuple(make_post(" ".join(words), group=g, author=f"a{i}")
                              for i, (g, words) in enumerate(posts)),
                  group_labels=labels)


def assert_same_counts(got: GroupCounts, want: GroupCounts, surfaces=True):
    """Every field equal, dict key orders included; streams compare as lists.
    Without `surfaces`, ``variant_counts`` and ``span_variants`` must be empty."""
    assert got.groups == want.groups
    assert list(got.idiom_counts.items()) == list(want.idiom_counts.items())
    for name in ("post_groups", "token_counts", "span_starts", "span_idioms"):
        assert getattr(got, name) == getattr(want, name), name
    assert [list(s) for s in got.streams] == [list(s) for s in want.streams]
    if surfaces:
        assert list(got.variant_counts.items()) == list(want.variant_counts.items())
        assert got.span_variants == want.span_variants
    else:
        assert not got.variant_counts and not got.span_variants


# forms of up to three tokens over four words share prefixes and overlap
_patterns = st.dictionaries(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3).map(tuple),
                            st.sampled_from(["p", "q", "r"]), max_size=8)
_posts = st.lists(st.tuples(st.sampled_from(["M", "F"]),
                            st.lists(st.sampled_from("abcdx"), max_size=10)), max_size=12)


class TestRecount:
    @settings(max_examples=300, deadline=None)
    @given(patterns=_patterns, posts=_posts, data=st.data())
    # "a b c" shadows "b c": dropping it must find "b c" in the rematch
    @example(patterns={("a", "b", "c"): "p", ("b", "c"): "q"}, posts=[("M", list("abc"))],
             data=None)
    def test_equals_a_fresh_count_after_dropping_forms_then_entries(self, patterns, posts,
                                                                    data):
        corpus = corpus_of(posts)
        if data is None:
            dropped_forms, dropped_entries = {("a", "b", "c")}, set()
        else:
            dropped_forms = data.draw(st.sets(st.sampled_from(sorted(patterns)))
                                      if patterns else st.just(set()))
            dropped_entries = data.draw(st.sets(st.sampled_from(["p", "q", "r"])))
        before = Matcher(patterns)
        pruned = Matcher({f: c for f, c in patterns.items() if f not in dropped_forms})
        filtered = Matcher({f: c for f, c in pruned.patterns.items()
                            if c not in dropped_entries})
        counts = count_usages(before, corpus)
        for old, new in ((before, pruned), (pruned, filtered)):
            derived = recount(counts, old, new, corpus)
            fresh = count_usages(new, corpus)
            assert_same_counts(derived, fresh)
            # a post without a match keeps its tokens as its stream, uncopied
            assert [s is p.tokens for s, p in zip(derived.streams, corpus.posts)] == \
                [s is p.tokens for s, p in zip(fresh.streams, corpus.posts)]
            counts = derived

    def test_shadowed_form_is_found_once_its_shadow_is_dropped(self):
        corpus = corpus_of([("M", ["x", "a", "b", "c"]), ("F", ["b", "c"])])
        before = Matcher({("a", "b", "c"): "abc", ("b", "c"): "bc"})
        after = Matcher({("b", "c"): "bc"})
        derived = recount(count_usages(before, corpus), before, after, corpus)
        assert derived.streams == [["x", "a", idiom_token("bc")], [idiom_token("bc")]]
        assert derived.idiom_counts == {"bc": {"M": 1, "F": 1}}
        assert derived.variant_counts == {("b", "c"): 2}

    def test_rematches_only_posts_that_selected_a_dropped_form(self, monkeypatch):
        corpus = corpus_of([("M", ["a", "b"]), ("F", ["c", "d"]), ("M", ["x"]),
                            ("F", ["a", "b", "c", "d"])])
        before = Matcher({("a", "b"): "ab", ("c", "d"): "cd"})
        after = Matcher({("a", "b"): "ab"})
        counts = count_usages(before, corpus)
        calls = []
        find = figlex.matcher.find_matches
        monkeypatch.setattr(figlex.matcher, "find_matches",
                            lambda matcher, tokens: calls.append(tokens) or find(matcher, tokens))
        derived = recount(counts, before, after, corpus)
        assert calls == [corpus.posts[1].tokens, corpus.posts[3].tokens]
        assert derived.streams[0] is counts.streams[0]
        assert derived.streams[3] == [idiom_token("ab"), "c", "d"]

    def test_refuses_a_matcher_with_a_pattern_the_count_did_not_have(self):
        corpus = corpus_of([("M", ["a", "b"]), ("F", ["b"])])
        before = Matcher({("a", "b"): "ab"})
        counts = count_usages(before, corpus)
        for after in (Matcher({("a", "b"): "ab", ("b",): "b"}), Matcher({("a", "b"): "ba"})):
            with pytest.raises(ValueError, match="subset"):
                recount(counts, before, after, corpus)


def lexicon_of(patterns):
    """A lexicon with one entry per canonical of `patterns`, in first-seen
    order, holding that canonical's forms."""
    lexicon = Lexicon()
    for canonical in dict.fromkeys(patterns.values()):
        forms = tuple(f for f, c in patterns.items() if c == canonical)
        lexicon.entries[canonical] = IdiomEntry(canonical=(canonical,), definition=("x",),
                                                variants=forms)
    return lexicon


class TestStreamsFile:
    @settings(max_examples=200, deadline=None)
    @given(patterns=_patterns, posts=_posts, labels=st.sampled_from([("M", "F"), ("F", "M")]))
    def test_reads_back_the_counts_in_first_seen_group_order(self, tmp_path_factory,
                                                             patterns, posts, labels):
        path = tmp_path_factory.mktemp("streams") / "streams.tsv"
        lexicon = lexicon_of(patterns)
        corpus = corpus_of(posts, labels)
        counts = count_usages(build_matcher(lexicon), corpus)
        save_streams(counts, str(path))
        got = load_streams(str(path), labels, lexicon)
        # the groups in the order the posts first show them, as load_corpus infers them
        seen = list(dict.fromkeys(p.group for p in corpus.posts))
        seen += [g for g in labels if g not in seen]
        want = count_usages(build_matcher(lexicon), corpus_of(posts, tuple(seen)))
        assert_same_counts(got, want, surfaces=False)

    def test_refuses_labels_that_are_not_two(self, tmp_path):
        path = tmp_path / "streams.tsv"
        path.write_text("0\t1\ta\n")
        for labels in (("M",), ("M", "M"), ("M", "F", "X")):
            with pytest.raises(ValueError, match="two distinct labels"):
                load_streams(str(path), labels, Lexicon())

    @pytest.mark.parametrize("line, message", [
        ("0\t3\ta  b", "the stream holds an empty token"),
        ("0\t2\ta b c", "a stream of 3 tokens cannot come from a post of 2 tokens"),
        ("0\t-1\t", "a stream of 0 tokens cannot come from a post of -1 tokens"),
        ("0\t3\ta b", "a stream of 2 tokens cannot come from a post of 3 tokens"),
        ("0\tthree\ta b c", "expected '<group index>"),
        ("0\t3\ta b c\tx", "expected '<group index>"),
        ("-1\t1\ta", "group index -1 is not 0 or 1"),
        ("1\t1\tnot_an_idiom", "idiom token 'not_an_idiom' is not in the lexicon"),
    ])
    def test_refuses_a_line_that_prepare_cannot_have_written(self, tmp_path, line, message):
        path = tmp_path / "streams.tsv"
        path.write_text(f"0\t1\ta\n{line}\n")
        lexicon = lexicon_of({("a", "b"): "p"})
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}"):
            load_streams(str(path), ("M", "F"), lexicon)


class TestRewrite:
    def test_example(self):
        matcher = Matcher(PATTERNS)
        assert rewrite_with_idiom_tokens(matcher, "he picked a fight".split()) == [
            "he", idiom_token("pick a fight"),
        ]

    def test_identity_without_matches(self):
        matcher = Matcher(PATTERNS)
        tokens = "nothing to see here".split()
        assert rewrite_with_idiom_tokens(matcher, tokens) == tokens

    def test_idempotent(self):
        matcher = Matcher(PATTERNS)
        rng = np.random.default_rng(2)
        vocab = ["pick", "a", "fight", "over", "the", "moon", "kick", "bucket", "w"]
        for _ in range(100):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=15)]
            once = rewrite_with_idiom_tokens(matcher, tokens)
            assert rewrite_with_idiom_tokens(matcher, once) == once

    def test_length_accounting(self):
        matcher = Matcher(PATTERNS)
        rng = np.random.default_rng(6)
        vocab = ["pick", "a", "fight", "over", "the", "moon", "w"]
        for _ in range(100):
            tokens = [vocab[i] for i in rng.integers(0, len(vocab), size=18)]
            matches = find_matches(matcher, tokens)
            rewritten = rewrite_with_idiom_tokens(matcher, tokens)
            shrink = sum((m.end - m.start) - 1 for m in matches)
            assert len(rewritten) == len(tokens) - shrink
