import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figlex.corpus import balance_groups, load_corpus
from figlex.embeddings import EmbeddingSpace
from figlex.lexicon import (
    OBJECTIVE_SLOTS,
    POSSESSIVE_SLOTS,
    IdiomEntry,
    Lexicon,
    STOPWORDS,
    expand_entry,
    filter_literal,
    idiom_token,
    inflect_verb,
    literality_score,
    load_lexicon,
    prune_variants,
    save_lexicon,
)
from figlex.matcher import GroupCounts, build_matcher, count_usages

from conftest import make_corpus, make_space, write_jsonl


class TestInflectVerb:
    @pytest.mark.parametrize("lemma,expected", [
        ("pick", {"pick", "picks", "picked", "picking"}),
        ("swallow", {"swallow", "swallows", "swallowed", "swallowing"}),
        ("be", {"be", "is", "was", "been", "being", "am", "are", "were"}),
        ("fight", {"fight", "fights", "fought", "fighting"}),
        ("make", {"make", "makes", "made", "making"}),
        ("stop", {"stop", "stops", "stopped", "stopping"}),
        ("carry", {"carry", "carries", "carried", "carrying"}),
        ("die", {"die", "dies", "died", "dying"}),
        ("go", {"go", "goes", "went", "gone", "going"}),
        ("have", {"have", "has", "had", "having"}),
        ("see", {"see", "sees", "saw", "seen", "seeing"}),
        ("throw", {"throw", "throws", "threw", "thrown", "throwing"}),
    ])
    def test_forms(self, lemma, expected):
        assert inflect_verb(lemma) == expected

    def test_rejects_non_lowercase_alpha(self):
        for bad in ("Pick", "one's", "", "a1"):
            with pytest.raises(ValueError):
                inflect_verb(bad)


class TestExpandEntry:
    def test_verb_only(self):
        entry = IdiomEntry(canonical=("pick", "a", "fight"), definition=("x",), verb_index=0)
        forms = set(expand_entry(entry))
        assert forms == {
            ("pick", "a", "fight"), ("picks", "a", "fight"),
            ("picked", "a", "fight"), ("picking", "a", "fight"),
        }

    def test_no_axes(self):
        entry = IdiomEntry(canonical=("under", "fire"), definition=("x",))
        forms = set(expand_entry(entry))
        assert forms == {("under", "fire")}

    def test_verb_and_possessive_slot(self):
        entry = IdiomEntry(canonical=("swallow", "one's", "pride"), definition=("x",),
                           verb_index=0, slot_index=1, slot_kind="possessive")
        forms = set(expand_entry(entry))
        # 4 verb forms x (original + 7 possessives)
        assert len(forms) == 32
        assert ("swallow", "one's", "pride") in forms
        assert ("swallow", "her", "pride") in forms
        assert ("swallowed", "my", "pride") in forms
        for pron in ("my", "your", "his", "her", "its", "our", "their"):
            for verb in ("swallow", "swallows", "swallowed", "swallowing"):
                assert (verb, pron, "pride") in forms

    def test_objective_slot(self):
        entry = IdiomEntry(canonical=("mean", "the", "world", "to", "someone"),
                           definition=("x",), verb_index=0, slot_index=4,
                           slot_kind="objective")
        forms = set(expand_entry(entry))
        assert ("means", "the", "world", "to", "me") in forms
        assert len(forms) == 4 * 8

    def test_all_outputs_distinct_and_counted(self):
        entry = IdiomEntry(canonical=("hold", "someone's", "hand"), definition=("x",),
                           verb_index=0, slot_index=1, slot_kind="possessive")
        forms = expand_entry(entry)
        assert len(forms) == len(set(forms)) == len(inflect_verb("hold")) * 8


@st.composite
def idiom_entries(draw):
    """Entries of 1-5 tokens with an optional verb position (common and
    irregular lemmas, or random letter strings) and an optional pronoun
    slot, whose fillers sometimes repeat a pronoun the slot expands to."""
    words = draw(st.lists(st.sampled_from(["the", "a", "moon", "her", "my", "it", "off"]),
                          min_size=1, max_size=5))
    positions = range(len(words))
    verb_index = draw(st.none() | st.sampled_from(positions))
    if verb_index is not None:
        words[verb_index] = draw(
            st.sampled_from(["be", "go", "have", "pick", "carry", "die", "stop", "see"])
            | st.text(alphabet="aeiouybcdgknprst", min_size=1, max_size=7)
        )
    free = [i for i in positions if i != verb_index]
    slot_index = draw(st.none() | st.sampled_from(free)) if free else None
    slot_kind = None
    if slot_index is not None:
        words[slot_index] = draw(st.sampled_from(sorted(POSSESSIVE_SLOTS | OBJECTIVE_SLOTS)))
        slot_kind = "possessive" if words[slot_index] in POSSESSIVE_SLOTS else "objective"
    return IdiomEntry(canonical=tuple(words), definition=("x",), verb_index=verb_index,
                      slot_index=slot_index, slot_kind=slot_kind)


class TestVariantsFormat:
    @settings(max_examples=200, deadline=None)
    @given(idiom_entries())
    def test_expansion_is_sorted_and_survives_save_and_load(self, entry):
        forms = expand_entry(entry)
        assert isinstance(forms, tuple)
        assert list(forms) == sorted(set(forms))
        assert entry.canonical in forms

        entry.variants = forms
        lexicon = Lexicon(entries={entry.key: entry})
        with tempfile.TemporaryDirectory() as tmp:
            saved = Path(tmp) / "saved.jsonl"
            save_lexicon(lexicon, str(saved))
            assert load_lexicon(str(saved)).get(entry.key).variants == forms
            # without a variants list, loading expands the entry itself
            rec = {"canonical": entry.key, "definition": "x"}
            if entry.verb_index is not None:
                rec["verb_index"] = entry.verb_index
            if entry.slot_index is not None:
                rec["slot_index"] = entry.slot_index
            bare = write_jsonl(Path(tmp) / "bare.jsonl", [rec])
            assert load_lexicon(str(bare)).get(entry.key).variants == forms

    def test_pruned_fixture_lexicon_roundtrips(self, tmp_path, data_dir):
        lexicon = load_lexicon(str(data_dir / "lexicon_fixture.jsonl"))
        corpus = balance_groups(
            load_corpus(str(data_dir / "corpus_fixture.jsonl"), group_labels=("M", "F")), 42
        )
        pruned = prune_variants(lexicon, count_usages(build_matcher(lexicon), corpus), 25)
        # the fixture has forms on both sides of the threshold
        assert sum(len(e.variants) for e in pruned) < sum(len(e.variants) for e in lexicon)
        save_lexicon(pruned, str(tmp_path / "pruned.jsonl"))
        again = load_lexicon(str(tmp_path / "pruned.jsonl"))
        assert again.canonicals() == pruned.canonicals()
        for entry in pruned:
            assert again.get(entry.key).variants == entry.variants


class TestLoadLexicon:
    def test_basic_entry(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [{
            "canonical": "sit on the fence",
            "definition": "to avoid taking sides in a discussion or argument",
            "verb_index": 0,
        }])
        lexicon = load_lexicon(str(path))
        entry = lexicon.get("sit on the fence")
        assert len(entry.canonical) == 4
        assert ("sat", "on", "the", "fence") in entry.variants

    def test_empty_file(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text("")
        assert len(load_lexicon(str(path))) == 0

    def test_duplicate_canonical(self, tmp_path):
        rec = {"canonical": "at odds", "definition": "in conflict"}
        path = write_jsonl(tmp_path / "lex.jsonl", [rec, rec])
        with pytest.raises(ValueError, match="duplicate canonical"):
            load_lexicon(str(path))

    def test_verb_index_out_of_range(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [{
            "canonical": "at odds", "definition": "x", "verb_index": 5,
        }])
        with pytest.raises(ValueError, match="verb_index 5 out of range"):
            load_lexicon(str(path))

    @pytest.mark.parametrize("key", ["verb_index", "slot_index"])
    @pytest.mark.parametrize("value", [True, False, 0.0, "0", [0]])
    def test_index_must_be_an_integer(self, tmp_path, key, value):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "at odds", "definition": "x"},
            {"canonical": "spill the beans", "definition": "y", key: value},
        ])
        with pytest.raises(ValueError, match=f"line 2: {key} must be an integer"):
            load_lexicon(str(path))

    def test_slot_kind_inferred(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [{
            "canonical": "swallow one's pride", "definition": "x",
            "verb_index": 0, "slot_index": 1,
        }])
        assert load_lexicon(str(path)).get("swallow one's pride").slot_kind == "possessive"

    @pytest.mark.parametrize("rec, message", [
        ({"canonical": "tell someone off", "definition": "y", "slot_index": 1,
          "slot_kind": "possessive"},
         "line 2: slot_kind 'possessive' does not match slot token 'someone' \\(objective\\)"),
        ({"canonical": "tell someone off", "definition": "y", "slot_kind": "objective"},
         "line 2: slot_kind needs a slot_index"),
    ], ids=["mismatch", "no_slot_index"])
    def test_slot_kind_must_match_the_slot(self, tmp_path, rec, message):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "at odds", "definition": "x"}, rec,
        ])
        with pytest.raises(ValueError, match=message):
            load_lexicon(str(path))

    @pytest.mark.parametrize("value", ["very", True, [0.5], float("nan"), float("inf")])
    def test_literality_must_be_a_finite_number(self, tmp_path, value):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "at odds", "definition": "x", "literality": 0.25},
            {"canonical": "over the moon", "definition": "y", "literality": value},
        ])
        with pytest.raises(ValueError, match="line 2: literality must be a finite number"):
            load_lexicon(str(path))

    def test_bad_slot_token(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "at odds", "definition": "x"},
            {"canonical": "kick the bucket", "definition": "x", "slot_index": 1},
        ])
        with pytest.raises(ValueError, match="line 2: slot token 'the' is not an indefinite pronoun"):
            load_lexicon(str(path))

    def test_cross_entry_surface_collision(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "hold one's horses", "definition": "x",
             "slot_index": 1},
            {"canonical": "hold her horses", "definition": "y"},
        ])
        with pytest.raises(ValueError, match="belongs to both"):
            load_lexicon(str(path))

    def test_explicit_variants_roundtrip(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [{
            "canonical": "pick a fight", "definition": "to start a conflict",
            "verb_index": 0,
        }])
        lexicon = load_lexicon(str(path))
        entry = lexicon.get("pick a fight")
        entry.variants = tuple(t for t in entry.variants if t[0] in ("pick", "picked"))
        out = tmp_path / "saved.jsonl"
        save_lexicon(lexicon, str(out))
        again = load_lexicon(str(out))
        assert set(again.get("pick a fight").variants) == {
            ("pick", "a", "fight"), ("picked", "a", "fight"),
        }

    @pytest.mark.parametrize("variants", [["!!!"], [""]])
    def test_variant_without_tokens(self, tmp_path, variants):
        path = write_jsonl(tmp_path / "lex.jsonl", [
            {"canonical": "at odds", "definition": "x"},
            {"canonical": "over the moon", "definition": "y", "variants": variants},
        ])
        with pytest.raises(ValueError, match="line 2: variant .* has no tokens"):
            load_lexicon(str(path))

    def test_variants_must_be_a_list(self, tmp_path):
        # a string would be iterated character by character
        path = write_jsonl(tmp_path / "lex.jsonl", [{
            "canonical": "over the moon", "definition": "y", "variants": "over the moon",
        }])
        with pytest.raises(ValueError, match="line 1: variants must be a list of strings"):
            load_lexicon(str(path))


def counts_with_variants(variant_counts: dict[tuple[str, ...], int]) -> GroupCounts:
    return GroupCounts(
        groups=("A", "B"),
        variant_counts=dict(variant_counts),
    )


class TestPruneVariants:
    def make_lexicon(self, tmp_path):
        path = write_jsonl(tmp_path / "lex.jsonl", [{
            "canonical": "pick a fight", "definition": "x", "verb_index": 0,
        }])
        return load_lexicon(str(path))

    def test_boundary_semantics(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        counts = counts_with_variants({
            ("pick", "a", "fight"): 200,
            ("picked", "a", "fight"): 49,
            ("picks", "a", "fight"): 50,
            ("picking", "a", "fight"): 51,
        })
        pruned = prune_variants(lexicon, counts, min_count=50)
        kept = set(pruned.get("pick a fight").variants)
        assert ("picked", "a", "fight") not in kept
        assert ("picks", "a", "fight") not in kept
        assert ("picking", "a", "fight") in kept

    def test_canonical_always_retained(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        pruned = prune_variants(lexicon, counts_with_variants({}), min_count=50)
        assert ("pick", "a", "fight") in pruned.get("pick a fight").variants

    def test_zero_min_count_disables_pruning(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        counts = counts_with_variants({("pick", "a", "fight"): 3})
        pruned = prune_variants(lexicon, counts, min_count=0)
        assert set(pruned.get("pick a fight").variants) == set(
            lexicon.get("pick a fight").variants
        )

    def test_keeps_by_the_count_over_both_groups(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        # 30 + 30 clears 50 and 25 + 25 does not, though no group alone clears it
        texts = ["he picked a fight"] * 30 + ["now picking a fight"] * 25
        corpus = make_corpus({"A": texts, "B": texts})
        counts = count_usages(build_matcher(lexicon), corpus)
        assert counts.idiom_counts["pick a fight"] == {"A": 55, "B": 55}
        kept = prune_variants(lexicon, counts, min_count=50).get("pick a fight").variants
        assert kept == (("pick", "a", "fight"), ("picked", "a", "fight"))

    def test_monotone_in_min_count(self, tmp_path):
        lexicon = self.make_lexicon(tmp_path)
        rng = np.random.default_rng(5)
        counts = counts_with_variants({
            t: int(rng.integers(0, 120))
            for t in lexicon.get("pick a fight").variants
        })
        previous = None
        for m in (1, 30, 60, 90):
            kept = set(prune_variants(lexicon, counts, m).get("pick a fight").variants)
            if previous is not None:
                assert kept <= previous
            previous = kept


def space_from(vectors: dict[str, list[float]]) -> EmbeddingSpace:
    vocab = {t: i for i, t in enumerate(vectors)}
    return make_space(vocab, list(vectors.values()))


class TestLiterality:
    def test_identical_vectors_score_one(self):
        entry = IdiomEntry(canonical=("wooden", "spoon"), definition=("x",))
        space = space_from({
            idiom_token("wooden spoon"): [1.0, 2.0],
            "wooden": [1.0, 2.0],
            "spoon": [2.0, 4.0],
        })
        assert literality_score(entry, space) == pytest.approx(1.0)

    def test_orthogonal_vectors_score_zero(self):
        entry = IdiomEntry(canonical=("wooden", "spoon"), definition=("x",))
        space = space_from({
            idiom_token("wooden spoon"): [1.0, 0.0],
            "wooden": [0.0, 1.0],
            "spoon": [0.0, -1.0],
        })
        assert literality_score(entry, space) == pytest.approx(0.0, abs=1e-7)

    def test_stopwords_excluded_from_constituents(self):
        entry = IdiomEntry(canonical=("on", "the", "fence"), definition=("x",))
        space = space_from({
            idiom_token("on the fence"): [1.0, 0.0],
            "the": [1.0, 0.0],   # would push the mean to 1 if counted
            "on": [1.0, 0.0],
            "fence": [0.0, 1.0],
        })
        assert literality_score(entry, space) == pytest.approx(0.0, abs=1e-7)

    def test_scale_invariance(self):
        entry = IdiomEntry(canonical=("wooden", "spoon"), definition=("x",))
        base = {
            idiom_token("wooden spoon"): [0.3, 0.7],
            "wooden": [0.5, 0.1],
            "spoon": [0.2, 0.9],
        }
        scaled = {t: [x * s for x in v]
                  for (t, v), s in zip(base.items(), (2.0, 5.0, 0.25))}
        assert literality_score(entry, space_from(base)) == pytest.approx(
            literality_score(entry, space_from(scaled)), abs=1e-6
        )

    def test_missing_idiom_token(self):
        entry = IdiomEntry(canonical=("wooden", "spoon"), definition=("x",))
        with pytest.raises(ValueError, match="absent from embedding space"):
            literality_score(entry, space_from({"wooden": [1.0, 0.0]}))

    def test_all_constituents_oov(self):
        entry = IdiomEntry(canonical=("wooden", "spoon"), definition=("x",))
        space = space_from({idiom_token("wooden spoon"): [1.0, 0.0]})
        with pytest.raises(ValueError, match="no in-vocabulary constituent"):
            literality_score(entry, space)


class TestFilterLiteral:
    def lexicon_and_space(self, scores: dict[str, float]):
        lexicon = Lexicon()
        vectors = {}
        for i, (name, score) in enumerate(scores.items()):
            word = f"word{i}"
            entry = IdiomEntry(canonical=(word, "tail"), definition=("x",))
            entry.variants = (entry.canonical,)
            lexicon.entries[entry.key] = entry
            vectors[idiom_token(entry.key)] = [1.0, 0.0]
            vectors[word] = [score, float(np.sqrt(1.0 - score**2))]
        return lexicon, space_from(vectors)

    def test_boundary(self):
        lexicon, space = self.lexicon_and_space({"a": 0.26, "b": 0.25, "c": 0.1})
        kept, _ = filter_literal(lexicon, space, threshold=0.25)
        names = {e.canonical[0] for e in kept}
        assert names == {"word1", "word2"}
        for entry in kept:
            assert entry.literality is not None

    def test_vacuous_threshold(self):
        lexicon, space = self.lexicon_and_space({"a": 0.9, "b": 0.99})
        assert len(filter_literal(lexicon, space, threshold=1.0)[0]) == 2

    def test_is_stopword_resource_loaded(self):
        assert "the" in STOPWORDS
        assert "fence" not in STOPWORDS
