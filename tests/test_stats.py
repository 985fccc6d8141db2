import math
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from scipy.spatial.distance import jensenshannon
from scipy.special import stdtr
from hypothesis import example, given, settings
from hypothesis import strategies as st

import figlex.stats
from figlex.corpus import balance_groups, load_corpus
from figlex.embeddings import TrainParams, nearest_neighbors, train_sgns
from figlex.lexicon import IdiomEntry, Lexicon, idiom_token, load_lexicon
from figlex.matcher import build_matcher, count_usages, find_matches
from figlex.stats import (
    GScore,
    cohens_d,
    divergence_gap_test,
    idiom_scores,
    jsd,
    kde,
    log_odds_dirichlet,
    neighborhood_overlap,
    sim_rbo,
    spearman,
    wilcoxon_ranksum,
    _mean_std,
    _sorted_quantile,
    _t_two_sided_p,
)

import numpy_oracles
from conftest import DATA_DIR, make_corpus, split_halves, write_jsonl


class TestJsd:
    def test_identical_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert jsd(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert jsd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_hand_value(self):
        assert jsd(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(0.311278, abs=1e-6)

    def test_weights_are_normalized(self):
        assert jsd(np.array([3, 1]), np.array([1, 0])) == jsd(np.array([0.75, 0.25]),
                                                              np.array([1.0, 0.0]))

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            forward, backward = jsd(p, q), jsd(q, p)
            assert forward == pytest.approx(backward, abs=1e-12)
            assert 0.0 <= forward <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            jsd(np.array([1.0]), np.array([0.5, 0.5]))

    def test_not_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            jsd(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ValueError, match="q must be finite and nonnegative"):
            jsd(np.array([1.0, 1.0]), np.array([1.0, bad]))

    def test_zero_total(self):
        with pytest.raises(ValueError, match="p has zero idiom usage"):
            jsd(np.array([0, 0]), np.array([1, 0]))

    def test_subnormal_probability(self):
        # the mixture (0 + 5e-324) / 2 underflows to 0
        assert jsd(np.array([1.0, 0.0]), np.array([1.0, 5e-324])) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(*[
        st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.5, 1.0, 3.0]) | st.floats(0.0, 100.0),
                 min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
        for _ in range(2)
    ])))
    @example(weights=([1e-09, 0.0], [1.0, 5e-324]))
    def test_matches_scipy_jensenshannon(self, weights):
        wp, wq = (np.array(w) for w in weights)
        got = jsd(wp, wq)
        # each ratio 2a / (a + b) exact, rounded once before the log
        p, q = wp / np.sum(wp), wq / np.sum(wq)
        exact = sum(
            0.5 * a * math.log2(2 * Fraction(a) / (Fraction(a) + Fraction(b)))
            for x, y in ((p, q), (q, p))
            for a, b in zip(x.tolist(), y.tolist()) if a > 0
        )
        assert got == pytest.approx(exact, abs=1e-12)
        expected = float(jensenshannon(wp, wq, base=2)) ** 2
        # scipy's mixture underflows to 0 beside a subnormal probability (inf)
        if not math.isinf(expected):
            # a divergence that rounds below zero makes scipy's square root nan
            assert got == pytest.approx(np.nan_to_num(expected), abs=1e-12)


class TestDivergenceGapTest:
    def make_inputs(self, tmp_path, texts_m, texts_f):
        lex_path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "over the moon", "definition": "x"},
            {"canonical": "under fire", "definition": "y"},
        ])
        lexicon = load_lexicon(str(lex_path))
        corpus = make_corpus({"M": texts_m, "F": texts_f})
        return corpus, lexicon

    def test_identical_groups_near_baseline(self, tmp_path):
        rng = np.random.default_rng(5)
        texts = []
        for _ in range(80):
            idiom = "over the moon" if rng.random() < 0.5 else "under fire"
            texts.append(f"w{int(rng.integers(0, 9))} {idiom} done")
        corpus, lexicon = self.make_inputs(tmp_path, texts, list(texts))
        result = divergence_gap_test(
            count_usages(build_matcher(lexicon), corpus), n_splits=100, seed=1
        )
        assert result.cross_jsd == pytest.approx(0.0, abs=1e-12)
        assert abs(result.z) < 1.5

    def test_deterministic(self, tmp_path):
        texts_m = ["over the moon today"] * 10 + ["under fire now"] * 30
        texts_f = ["over the moon today"] * 30 + ["under fire now"] * 10
        corpus, lexicon = self.make_inputs(tmp_path, texts_m, texts_f)
        one = divergence_gap_test(
            count_usages(build_matcher(lexicon), corpus), n_splits=50, seed=7
        )
        two = divergence_gap_test(
            count_usages(build_matcher(lexicon), corpus), n_splits=50, seed=7
        )
        assert one.cross_jsd == two.cross_jsd
        assert one.p_value == two.p_value
        np.testing.assert_array_equal(one.baseline_samples["M"], two.baseline_samples["M"])

    def test_zero_usage_group_is_named(self, tmp_path):
        corpus, lexicon = self.make_inputs(
            tmp_path, ["over the moon", "under fire"], ["calm day", "quiet night"]
        )
        with pytest.raises(ValueError, match="group 'F' has zero idiom usage"):
            divergence_gap_test(
                count_usages(build_matcher(lexicon), corpus), n_splits=2, seed=0
            )

    def test_split_half_without_usage_names_the_group(self, tmp_path):
        # all of M's usage sits in one post, so each split leaves a half without it
        corpus, lexicon = self.make_inputs(
            tmp_path, ["over the moon", "calm day", "quiet night"], ["over the moon", "under fire"]
        )
        with pytest.raises(ValueError, match=r"group 'M', split 0: [pq] has zero idiom usage"):
            divergence_gap_test(
                count_usages(build_matcher(lexicon), corpus), n_splits=2, seed=0
            )

    @pytest.mark.parametrize("texts_m, named", [
        (["over the moon", "calm day", "quiet night"], "M"),  # both groups fail
        (["over the moon", "under fire"], "F"),  # only the second group fails
    ], ids=["both", "second"])
    def test_split_failure_names_the_first_failing_group(self, tmp_path, texts_m, named):
        # the second group's splits run on another thread; the error is the
        # one the groups' order gives
        corpus, lexicon = self.make_inputs(tmp_path, texts_m,
                                           ["under fire", "calm day", "quiet night"])
        with pytest.raises(ValueError, match=rf"group '{named}', split 0: [pq] has zero "):
            divergence_gap_test(
                count_usages(build_matcher(lexicon), corpus), n_splits=2, seed=0
            )

    @pytest.mark.parametrize("texts_m, texts_f, sign", [
        # each split puts one idiom in each half (JSD 1); the groups match (JSD 0)
        (["we were over the moon", "he was under fire"],
         ["she was over the moon", "they came under fire"], -1),
        # each split halves one idiom's usage (JSD 0); the groups differ (JSD 1)
        (["over the moon", "over the moon"], ["under fire", "under fire"], 1),
    ], ids=["below", "above"])
    def test_z_sign_without_baseline_spread(self, tmp_path, texts_m, texts_f, sign):
        corpus, lexicon = self.make_inputs(tmp_path, texts_m, texts_f)
        result = divergence_gap_test(
            count_usages(build_matcher(lexicon), corpus), n_splits=4, seed=0
        )
        assert result.baseline_std == {"M": 0.0, "F": 0.0}
        assert result.z == sign * math.inf

    def test_memory_does_not_grow_with_the_splits(self, tmp_path):
        # a split adds its two JSD values (16 bytes) and their pooled copy,
        # not a mask or a count vector
        rng = np.random.default_rng(3)
        idioms = ["over the moon", "under fire"]
        texts = {g: [f"w{int(rng.integers(0, 50))} {idioms[int(rng.integers(0, 2))]} "
                     + " ".join(f"w{int(k)}" for k in rng.integers(0, 50, rng.integers(0, 12)))
                     for _ in range(1500)] for g in ("M", "F")}
        corpus, lexicon = self.make_inputs(tmp_path, texts["M"], texts["F"])
        counts = count_usages(build_matcher(lexicon), corpus)
        divergence_gap_test(counts, n_splits=2, seed=0)  # builds and loads the kernel
        peaks = {}
        for n_splits in (500, 2000):
            tracemalloc.start()
            try:
                divergence_gap_test(counts, n_splits=n_splits, seed=0)
                peaks[n_splits] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[2000] - peaks[500]) / 1500 < 64

    def test_n_splits_validation(self, tmp_path):
        corpus, lexicon = self.make_inputs(
            tmp_path, ["over the moon", "under fire"], ["over the moon", "under fire"]
        )
        with pytest.raises(ValueError, match="n_splits"):
            divergence_gap_test(
                count_usages(build_matcher(lexicon), corpus), n_splits=1, seed=0
            )


ORACLE_IDIOMS = ("over the moon", "under fire", "on the fence", "sit on the fence")
ORACLE_WORDS = ("over", "the", "moon", "under", "fire", "sit", "on", "fence", "calm", "day")


def oracle_lexicon() -> Lexicon:
    lexicon = Lexicon()
    for canonical in ORACLE_IDIOMS:
        tokens = tuple(canonical.split())
        entry = IdiomEntry(canonical=tokens, definition=("x",))
        entry.variants = (tokens,)
        lexicon.entries[canonical] = entry
    return lexicon


def group_halves(corpus, group, rng):
    """One group's posts in corpus order, split into two post lists by
    `split_halves` over their token counts."""
    posts = [p for p in corpus.posts if p.group == group]
    first, second = split_halves([p.token_count for p in posts], rng)
    return [posts[j] for j in first], [posts[j] for j in second]


def reference_divergence(corpus, lexicon, n_splits, seed):
    """Cross JSD and baseline samples by matching every post and splitting
    each group's whole posts with `group_halves`, one generator per group
    drawing its splits' permutations in turn."""
    matcher = build_matcher(lexicon)
    support = lexicon.canonicals()
    per_post = {p: Counter(m.canonical for m in find_matches(matcher, list(p.tokens)))
                for p in corpus.posts}

    def usage(posts):
        agg = Counter()
        for p in posts:
            agg.update(per_post[p])
        raw = np.array([agg.get(c, 0) for c in support], dtype=np.float64)
        if raw.sum() <= 0:
            raise ValueError("zero idiom usage")
        return raw

    ga, gb = corpus.group_labels
    cross = jsd(*(usage([p for p in corpus.posts if p.group == g]) for g in (ga, gb)))
    samples = {}
    for g, child in zip((ga, gb), np.random.SeedSequence(seed).spawn(2)):
        rng = np.random.default_rng(child)
        vals = []
        for _ in range(n_splits):
            h1, h2 = group_halves(corpus, g, rng)
            vals.append(jsd(usage(h1), usage(h2)))
        samples[g] = np.array(vals, dtype=np.float64)
    return cross, samples


_post_texts = st.lists(
    st.lists(st.sampled_from(ORACLE_WORDS + ORACLE_IDIOMS), min_size=1, max_size=6).map(" ".join),
    min_size=2, max_size=10,
)


class TestDivergenceOracle:
    @settings(max_examples=30, deadline=None)
    @given(texts_m=_post_texts, texts_f=_post_texts, seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_per_post_reference(self, texts_m, texts_f, seed):
        lexicon = oracle_lexicon()
        corpus = make_corpus({"M": texts_m, "F": texts_f})
        counts = count_usages(build_matcher(lexicon), corpus)
        try:
            cross, samples = reference_divergence(corpus, lexicon, n_splits=4, seed=seed)
        except ValueError:
            with pytest.raises(ValueError, match="zero idiom usage"):
                divergence_gap_test(counts, n_splits=4, seed=seed)
            return
        result = divergence_gap_test(counts, n_splits=4, seed=seed)
        assert np.float64(result.cross_jsd).tobytes() == np.float64(cross).tobytes()
        for g in ("M", "F"):
            assert result.baseline_samples[g].tobytes() == samples[g].tobytes()


def oracle_log_odds(ya, na, yb, nb, aw, a0):
    delta = math.log((ya + aw) / (na + a0 - ya - aw)) - math.log(
        (yb + aw) / (nb + a0 - yb - aw)
    )
    sigma = math.sqrt(1.0 / (ya + aw) + 1.0 / (yb + aw))
    return delta, sigma, delta / sigma


class TestLogOddsDirichlet:
    def test_identical_corpora_zero(self):
        counts = {"x": 4, "y": 6}
        table = log_odds_dirichlet(counts, dict(counts), {"x": 1.0, "y": 1.0})
        for rec in table.values():
            assert rec.delta == pytest.approx(0.0, abs=1e-14)

    def test_agrees_with_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            vocab = [f"t{k}" for k in range(int(rng.integers(2, 8)))]
            counts_a = {t: int(rng.integers(0, 30)) for t in vocab}
            counts_b = {t: int(rng.integers(0, 30)) for t in vocab}
            prior = {t: float(rng.uniform(0.05, 3.0)) for t in vocab}
            table = log_odds_dirichlet(counts_a, counts_b, prior)
            na, nb, a0 = sum(counts_a.values()), sum(counts_b.values()), sum(prior.values())
            for t in vocab:
                expected = oracle_log_odds(counts_a[t], na, counts_b[t], nb, prior[t], a0)
                rec = table[t]
                assert rec.delta == pytest.approx(expected[0], abs=1e-12)
                assert rec.sigma == pytest.approx(expected[1], abs=1e-12)
                assert rec.z == pytest.approx(expected[2], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 60), min_size=n, max_size=n),
        st.lists(st.integers(0, 60), min_size=n, max_size=n),
        st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n))))
    @example(([5, 5], [1, 9], [0.1, 0.9]))
    @example(([0, 3, 0], [0, 0, 7], [2.0, 1e-6, 1e3]))
    def test_swap_antisymmetry_exact(self, columns):
        # a zero count is left out, so some tokens are scored from the prior alone
        counts_a, counts_b = ({f"t{k}": c for k, c in enumerate(col) if c}
                              for col in columns[:2])
        prior = {f"t{k}": a for k, a in enumerate(columns[2])}
        fwd = log_odds_dirichlet(counts_a, counts_b, prior)
        rev = log_odds_dirichlet(counts_b, counts_a, prior)
        assert fwd.keys() == rev.keys() == prior.keys()
        for t in prior:
            assert fwd[t].delta == -rev[t].delta
            assert fwd[t].z == -rev[t].z

    def test_prior_positivity_required(self):
        with pytest.raises(ValueError, match="strictly positive"):
            log_odds_dirichlet({"x": 1}, {"x": 2}, {"x": 0.0})
        with pytest.raises(ValueError, match="strictly positive"):
            log_odds_dirichlet({"x": 1, "y": 1}, {"x": 2}, {"x": 1.0})

    def test_sign_pattern_invariant_under_count_scaling(self):
        rng = np.random.default_rng(13)
        vocab = [f"t{k}" for k in range(6)]
        counts_a = {t: int(rng.integers(1, 40)) for t in vocab}
        counts_b = {t: int(rng.integers(1, 40)) for t in vocab}
        prior = {t: float(rng.integers(1, 5)) for t in vocab}
        base = log_odds_dirichlet(counts_a, counts_b, prior)
        for factor in (2, 5):
            scaled = log_odds_dirichlet(
                {t: c * factor for t, c in counts_a.items()},
                {t: c * factor for t, c in counts_b.items()},
                {t: c * factor for t, c in prior.items()},
            )
            for t in vocab:
                assert np.sign(scaled[t].delta) == np.sign(base[t].delta)


def table_from_z(scores: dict[str, float]) -> dict[str, GScore]:
    return {t: GScore(delta=z, sigma=1.0, z=z) for t, z in scores.items()}


def scores_of(entry: IdiomEntry, z: dict[str, float]):
    """The (idiom z, surface mean, definition mean) of `entry`'s row of
    `idiom_scores`, over a table that gives each word of `z` its score."""
    lexicon = Lexicon()
    lexicon.entries[entry.key] = entry
    ((canonical, *scores),) = idiom_scores(lexicon, table_from_z(z))
    assert canonical == entry.key
    return tuple(scores)


class TestGscoreAggregation:
    def test_surface_mean(self):
        entry = IdiomEntry(canonical=("pick", "a", "fight"), definition=("x",))
        _, surface, _ = scores_of(entry, {"pick": -1.0, "a": 0.0, "fight": -2.0})
        assert surface == pytest.approx(-1.0)

    def test_all_zero(self):
        entry = IdiomEntry(canonical=("pick", "a", "fight"), definition=("x",))
        assert scores_of(entry, {"pick": 0.0, "a": 0.0, "fight": 0.0})[1] == 0.0

    def test_single_word(self):
        entry = IdiomEntry(canonical=("gutted",), definition=("x",))
        assert scores_of(entry, {"gutted": 1.7})[1] == pytest.approx(1.7)

    def test_definition_examples(self):
        entry = IdiomEntry(canonical=("a", "b"), definition=("happy", "glad"))
        assert scores_of(entry, {"happy": 0.5, "glad": 0.5})[2] == 0.5
        entry2 = IdiomEntry(canonical=("x", "y"), definition=("x", "y"))
        _, surface, definition = scores_of(entry2, {"x": 0.2, "y": 0.9})
        assert definition == surface
        entry3 = IdiomEntry(canonical=("a",), definition=("p", "q", "r"))
        assert scores_of(entry3, {"p": 1.0, "q": -1.0, "r": 0.3})[2] == pytest.approx(0.1)

    def test_missing_words_skipped_or_none(self):
        entry = IdiomEntry(canonical=("pick", "a", "fight"), definition=("x",))
        assert scores_of(entry, {"pick": 2.0}) == (None, 2.0, None)
        assert scores_of(entry, {"unrelated": 1.0}) == (None, None, None)

    def test_mean_over_unique_words(self):
        entry = IdiomEntry(canonical=("an", "eye", "for", "an", "eye"),
                           definition=("pay", "back", "pay"))
        # over every word, repeats included, the means would be 6/5 and 2/3
        _, surface, definition = scores_of(entry, {"an": 0.0, "eye": 3.0, "for": 0.0,
                                                   "pay": 1.0, "back": 0.0})
        assert surface == 1.0
        assert definition == 0.5

    def test_idiom_token_score(self):
        entry = IdiomEntry(canonical=("over", "the", "moon"), definition=("glad",))
        z = {idiom_token(entry.key): -1.5, "glad": 0.25}
        assert scores_of(entry, z) == (-1.5, None, 0.25)
        del z[idiom_token(entry.key)]
        assert scores_of(entry, z) == (None, None, 0.25)

    def test_rows_sorted_by_canonical(self):
        lexicon = Lexicon()
        for words in (("pick", "a", "fight"), ("bite", "the", "dust"), ("over", "the", "moon")):
            entry = IdiomEntry(canonical=words, definition=("x",))
            lexicon.entries[entry.key] = entry
        rows = idiom_scores(lexicon, table_from_z({"the": 1.0}))
        assert [row[0] for row in rows] == ["bite the dust", "over the moon", "pick a fight"]
        assert [row[1:] for row in rows] == [(None, 1.0, None), (None, 1.0, None),
                                             (None, None, None)]

    def test_mean_within_word_score_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            words = tuple(f"w{k}" for k in range(int(rng.integers(1, 6))))
            scores = {w: float(rng.normal()) for w in words}
            entry = IdiomEntry(canonical=words, definition=("x",))
            value = scores_of(entry, scores)[1]
            assert min(scores.values()) - 1e-12 <= value <= max(scores.values()) + 1e-12


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).statistic == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]).statistic == pytest.approx(-1.0)

    def test_hand_value(self):
        result = spearman([1, 2, 3, 4], [1, 3, 2, 4])
        assert result.statistic == pytest.approx(0.8, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            ours = spearman(x, y)
            theirs = scipy.stats.spearmanr(x, y)
            assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 5000), st.floats(min_value=-316.0, max_value=316.0))
    @example(1, 316.0)
    @example(5000, 316.0)  # underflows to 0
    @example(5000, 10.0)
    @example(2, 0.0)
    @example(3, 1e-8)
    @example(1, 1e-8)
    def test_t_tail_matches_scipy(self, df, t):
        if df == 1:
            # the Cauchy tail in closed form: at one degree of freedom and
            # |t| < 1e-5, stdtr is off by up to 5e-9 relative (checked at 40
            # digits with mpmath)
            want = 2.0 / math.pi * math.atan2(1.0, abs(t))
        else:
            want = 2.0 * float(stdtr(df, -abs(t)))
        # below 1e-300 the reference itself is subnormal or has underflowed
        assert math.isclose(_t_two_sided_p(t, df), want, rel_tol=1e-9, abs_tol=1e-300)

    def test_errors(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2])
        with pytest.raises(ValueError):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(ValueError, match="constant"):
            spearman([1, 1, 1], [1, 2, 3])


class TestWilcoxonRanksum:
    def test_identical_multisets_exact_p_one(self):
        result = wilcoxon_ranksum([1, 2, 3], [3, 1, 2])
        assert result.p_value == 1.0

    def test_hand_case(self):
        result = wilcoxon_ranksum([1, 2], [3, 4])
        assert result.p_value == pytest.approx(1 / 3)

    def test_scale_invariance(self):
        x, y = [1.0, 5.0, 2.0], [4.0, 8.0]
        base = wilcoxon_ranksum(x, y)
        scaled = wilcoxon_ranksum([3 * v for v in x], [3 * v for v in y])
        assert scaled.statistic == base.statistic
        assert scaled.p_value == base.p_value

    def test_exact_matches_scipy_mannwhitney(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            x = rng.normal(size=nx)
            y = rng.normal(size=ny)
            ours = wilcoxon_ranksum(x, y, method="exact")
            theirs = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                              method="exact")
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_normal_matches_scipy_mannwhitney(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            nx, ny = int(rng.integers(15, 40)), int(rng.integers(15, 40))
            x = rng.integers(0, 8, size=nx).astype(float)
            y = rng.integers(0, 8, size=ny).astype(float)
            ours = wilcoxon_ranksum(x, y, method="normal")
            theirs = scipy.stats.mannwhitneyu(x, y, alternative="two-sided",
                                              method="asymptotic")
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    def test_normal_matches_scipy_on_small_no_tie_splits(self):
        # Every no-tie split with n_x + n_y <= 12, one sample per rank sum: the
        # sizes where the continuity-corrected normal approximation is far
        # from enumeration (acceptance criterion 04) agree with scipy's.
        for n in range(2, 13):
            ranks = list(range(1, n + 1))
            for nx in range(1, n):
                seen = set()
                for combo in combinations(ranks, nx):
                    if sum(combo) in seen:
                        continue
                    seen.add(sum(combo))
                    y = [r for r in ranks if r not in combo]
                    ours = wilcoxon_ranksum(list(combo), y, method="normal")
                    theirs = scipy.stats.mannwhitneyu(
                        combo, y, alternative="two-sided", method="asymptotic",
                        use_continuity=True,
                    )
                    assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            wilcoxon_ranksum([], [1.0])


class TestCohensD:
    def test_equal_samples_zero(self):
        assert cohens_d([1, 2, 3], [3, 2, 1]) == pytest.approx(0.0)

    def test_hand_value(self):
        assert cohens_d([1, 2, 3], [2, 3, 4]) == pytest.approx(-1.0, abs=1e-12)

    def test_antisymmetric(self):
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=20), rng.normal(loc=0.4, size=25)
        assert cohens_d(x, y) == pytest.approx(-cohens_d(y, x), abs=1e-12)

    def test_zero_pooled_sd_error(self):
        with pytest.raises(ValueError, match="pooled"):
            cohens_d([2, 2, 2], [2, 2])


def brute_force_rbo(list_a, list_b, depth):
    total = 0.0
    for k in range(1, depth + 1):
        total += len(set(list_a[:k]) & set(list_b[:k])) / k
    return total / depth


@st.composite
def ranked_lists(draw):
    """A depth in 1..20 and two random orders of one random pool of at
    least `depth` distinct tokens."""
    depth = draw(st.integers(1, 20))
    pool = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=3), unique=True,
                         min_size=depth, max_size=depth + 10))
    return depth, draw(st.permutations(pool)), draw(st.permutations(pool))


class TestSimRbo:
    @settings(max_examples=100, deadline=None)
    @given(ranked_lists())
    @example((10, [f"t{k}" for k in range(10)], [f"t{k}" for k in range(10)]))
    def test_identical(self, lists):
        depth, a, b = lists
        assert sim_rbo(a, list(a), depth) == sim_rbo(b, list(b), depth) == 1.0

    def test_disjoint(self):
        a = [f"a{k}" for k in range(10)]
        b = [f"b{k}" for k in range(10)]
        assert sim_rbo(a, b, depth=10) == 0.0

    def test_hand_value(self):
        assert sim_rbo(["a", "b", "c"], ["a", "c", "b"], depth=3) == pytest.approx(
            (1 + 0.5 + 1) / 3, abs=1e-9
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            depth = int(rng.integers(1, 21))
            pool = [f"w{k}" for k in range(depth + int(rng.integers(0, 10)))]
            a = list(rng.permutation(pool))
            b = list(rng.permutation(pool))
            assert sim_rbo(a, b, depth) == pytest.approx(
                brute_force_rbo(a, b, depth), abs=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(ranked_lists())
    @example((3, ["a", "b", "c"], ["a", "c", "b"]))
    @example((2, ["a", "b", "c"], ["c", "b", "a"]))
    def test_symmetric(self, lists):
        """Exactly symmetric, and within [0, 1]."""
        depth, a, b = lists
        score = sim_rbo(a, b, depth)
        assert score == sim_rbo(b, a, depth)
        assert 0.0 <= score <= 1.0

    def test_shared_prefix_lower_bound(self):
        a = ["p1", "p2", "p3", "x1", "x2"]
        b = ["p1", "p2", "p3", "y1", "y2"]
        assert sim_rbo(a, b, 5) >= 3 / 5

    def test_short_list_error(self):
        with pytest.raises(ValueError, match="depth"):
            sim_rbo(["a"], ["a", "b"], depth=2)

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            sim_rbo(["a", "a"], ["a", "b"], depth=2)


@pytest.fixture(scope="module")
def fixture_spaces():
    """The shipped fixture's per-group spaces (221 and 233 tokens), as demo
    04 trains them but for one epoch."""
    corpus = balance_groups(load_corpus(str(DATA_DIR / "corpus_fixture.jsonl")), seed=42)
    lexicon = load_lexicon(str(DATA_DIR / "lexicon_fixture.jsonl"))
    counts = count_usages(build_matcher(lexicon), corpus)
    spaces = {g: train_sgns(counts.streams_for(g),
                            TrainParams(dim=32, min_count=2, epochs=1, seed=seed))
              for g, seed in (("M", 1), ("F", 2))}
    return spaces, lexicon.canonicals()


def inline_overlap(spaces, canonicals, depth, nearest):
    """The neighborhood loop as analyze once wrote it inline."""
    ga, gb = spaces
    rows = []
    for canonical in canonicals:
        tok = idiom_token(canonical)
        if any(tok not in spaces[g] or len(spaces[g].vocab) - 1 < depth for g in (ga, gb)):
            continue
        ranked = {g: nearest(spaces[g], tok, depth) for g in (ga, gb)}
        lists = {g: [t for t, _ in ranked[g]] for g in (ga, gb)}
        rows.append((canonical, sim_rbo(lists[ga], lists[gb], depth), ranked))
    return rows


class TestNeighborhoodOverlap:
    def test_matches_the_inline_loop(self, fixture_spaces, monkeypatch):
        spaces, canonicals = fixture_spaces
        assert sorted(len(s.vocab) for s in spaces.values()) == [221, 233]
        calls = []

        def recording(space, token, k):
            calls.append((id(space), token, k))
            return nearest_neighbors(space, token, k)

        monkeypatch.setattr(figlex.stats, "nearest_neighbors", recording)
        # 220 neighbors fill the smaller space; at 221 it is too small
        for depth, n_rows in ((15, len(canonicals)), (20, len(canonicals)),
                              (220, len(canonicals)), (221, 0)):
            calls.clear()
            rows = neighborhood_overlap(spaces, canonicals, depth)
            library_calls = list(calls)
            calls.clear()
            expected = inline_overlap(spaces, canonicals, depth, recording)
            assert [(r.canonical, r.simrbo, r.neighbors) for r in rows] == expected
            assert library_calls == calls
            assert len(rows) == n_rows


class TestKde:
    def test_symmetric_data_symmetric_density(self):
        values = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
        curve = kde(values)
        np.testing.assert_allclose(curve.density, curve.density[::-1], atol=1e-9)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(43)
        values = rng.normal(size=500)
        curve = kde(values)
        assert np.trapezoid(curve.density, curve.x) == pytest.approx(1.0, abs=1e-2)

    def test_mode_near_cluster_mean(self):
        values = [0.499, 0.5, 0.501, 0.5005, 0.4995]
        curve = kde(values)
        step = curve.x[1] - curve.x[0]
        assert abs(curve.x[np.argmax(curve.density)] - 0.5) <= step

    def test_zero_variance_requires_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            kde([1.0, 1.0, 1.0])
        curve = kde([1.0, 1.0, 1.0], bandwidth=0.2)
        assert curve.bandwidth == 0.2

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            kde([1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bandwidth(self, bad):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            kde([0.1, 0.5, 0.9], bandwidth=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bandwidth", [None, 0.2])
    def test_rejects_non_finite_values(self, bad, bandwidth):
        with pytest.raises(ValueError, match="values must be finite"):
            kde([0.1, bad, 0.9], bandwidth=bandwidth)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_data_range_whose_grid_overflows(self):
        # Silverman's bandwidth of this range is infinite
        with pytest.raises(ValueError, match="grid ends .* not finite"):
            kde([-1.7e308, 1.7e308])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_bandwidth_whose_grid_overflows(self):
        with pytest.raises(ValueError, match="grid ends .* not finite"):
            kde([0.0, 1.0], bandwidth=1e308)

    @pytest.mark.parametrize("values, bandwidth", [
        ([0.0, 0.0, 0.0, 1.0, 2.225073858507e-311], None),  # Silverman's rule
        ([0.0, 1.0], 1e-310),
    ], ids=["silverman", "explicit"])
    def test_rejects_a_bandwidth_whose_scale_overflows(self, values, bandwidth):
        # the density would be inf at the data and NaN (0 * inf) elsewhere
        with pytest.raises(ValueError, match="kernel scale is not finite"):
            kde(values, bandwidth=bandwidth)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6),
                    min_size=2, max_size=40))
    def test_quartiles_match_numpy_percentile(self, values):
        data = np.array(values)
        for q in (0.25, 0.75):
            assert _sorted_quantile(np.sort(data), q) == np.percentile(data, 100 * q)

    @pytest.mark.parametrize("n", [50, 1800, 4096, 5000, 9000])
    def test_blocks_match_the_whole_grid_formula_bit_for_bit(self, n):
        # rounded to 3 digits, so values repeat as usage series repeat scores
        values = np.round(np.random.default_rng(n).gamma(2.0, size=n), 3).tolist()
        curve = kde(values)
        assert curve.x.tobytes() == np.linspace(min(values) - 3 * curve.bandwidth,
                                                max(values) + 3 * curve.bandwidth,
                                                256).tobytes()
        # the kernel's sum as a plain loop: sorted runs of equal values, each
        # its length times libm's exp, in ascending order
        h, runs = curve.bandwidth, sorted(Counter(values).items())
        scale = 1.0 / (n * h * math.sqrt(2.0 * math.pi))
        want = [sum_runs(x, runs, h) * scale for x in curve.x]
        assert curve.density.tolist() == want
        np.testing.assert_allclose(curve.density, numpy_oracles.kde_density(values, curve.x, h),
                                   rtol=1e-12, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 0.5, 1.0]), min_size=2,
                    max_size=300))
    def test_density_matches_numpy_oracle(self, values):
        try:
            curve = kde(values)
        except ValueError:  # zero variance
            curve = kde(values, bandwidth=0.25)
        want = numpy_oracles.kde_density(values, curve.x, curve.bandwidth)
        np.testing.assert_allclose(curve.density, want, rtol=1e-12, atol=1e-300)


def sum_runs(x, runs, h):
    acc = 0.0
    for value, count in runs:
        z = (x - value) / h
        acc += count * math.exp(-0.5 * (z * z))
    return acc


class TestMeanStd:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0) | st.floats(-1e6, 1e6), min_size=2, max_size=1200))
    def test_bitwise_equals_numpy(self, values):
        # numpy's pairwise sums, so divergence.json keeps the bytes numpy gave
        data = np.array(values)
        center, std = _mean_std(array("d", values))
        assert (center, std) == (float(data.mean()), float(data.std(ddof=1)))
