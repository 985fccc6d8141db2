"""Idiom lexicon: entries with definitions, surface-variant expansion,
frequency pruning, and literal-reading filtering.

Each entry carries a canonical token sequence plus two optional variation
axes declared in the lexicon file: the position of an inflectable verb and
the position of an indefinite-pronoun slot ("one's", "someone",
"someone's").  Expansion takes the Cartesian product of verb forms and
pronoun substitutions; matching downstream is exact on tokens, so all
variation lives here.  An entry's surface forms are a sorted tuple of
token tuples.  Pruning keeps the forms whose count over both groups
together exceeds ``min_count``; the counts themselves are not stored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import TYPE_CHECKING

from .corpus import read_records, tokenize
from .embeddings import EmbeddingSpace, cosine

if TYPE_CHECKING:  # pragma: no cover
    from .matcher import GroupCounts


def _load_stopwords() -> frozenset[str]:
    text = resources.files("figlex").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


STOPWORDS = _load_stopwords()

IDIOM_TOKEN_PREFIX = "__idiom__"

POSSESSIVE_PRONOUNS = ("my", "your", "his", "her", "its", "our", "their")
OBJECTIVE_PRONOUNS = ("me", "you", "him", "her", "it", "us", "them")
POSSESSIVE_SLOTS = frozenset({"one's", "someone's"})
OBJECTIVE_SLOTS = frozenset({"someone"})

_VOWELS = "aeiou"

# lemma -> (past, past participle) for verbs the suffix rules get wrong
_IRREGULAR_PAST: dict[str, tuple[str, str]] = {
    "bear": ("bore", "borne"), "beat": ("beat", "beaten"), "become": ("became", "become"),
    "begin": ("began", "begun"), "bend": ("bent", "bent"), "bet": ("bet", "bet"),
    "bind": ("bound", "bound"), "bite": ("bit", "bitten"), "bleed": ("bled", "bled"),
    "blow": ("blew", "blown"), "break": ("broke", "broken"), "bring": ("brought", "brought"),
    "build": ("built", "built"), "burst": ("burst", "burst"), "buy": ("bought", "bought"),
    "cast": ("cast", "cast"), "catch": ("caught", "caught"), "choose": ("chose", "chosen"),
    "come": ("came", "come"), "cost": ("cost", "cost"), "cut": ("cut", "cut"),
    "deal": ("dealt", "dealt"), "dig": ("dug", "dug"), "do": ("did", "done"),
    "draw": ("drew", "drawn"), "drink": ("drank", "drunk"), "drive": ("drove", "driven"),
    "eat": ("ate", "eaten"), "fall": ("fell", "fallen"), "feed": ("fed", "fed"),
    "feel": ("felt", "felt"), "fight": ("fought", "fought"), "find": ("found", "found"),
    "flee": ("fled", "fled"), "fly": ("flew", "flown"), "forget": ("forgot", "forgotten"),
    "forgive": ("forgave", "forgiven"), "freeze": ("froze", "frozen"), "get": ("got", "gotten"),
    "give": ("gave", "given"), "go": ("went", "gone"), "grow": ("grew", "grown"),
    "hang": ("hung", "hung"), "have": ("had", "had"), "hear": ("heard", "heard"),
    "hide": ("hid", "hidden"), "hit": ("hit", "hit"), "hold": ("held", "held"),
    "hurt": ("hurt", "hurt"), "keep": ("kept", "kept"), "know": ("knew", "known"),
    "lay": ("laid", "laid"), "lead": ("led", "led"), "leave": ("left", "left"),
    "lend": ("lent", "lent"), "let": ("let", "let"), "lie": ("lay", "lain"),
    "lose": ("lost", "lost"), "make": ("made", "made"), "mean": ("meant", "meant"),
    "meet": ("met", "met"), "pay": ("paid", "paid"), "put": ("put", "put"),
    "quit": ("quit", "quit"), "read": ("read", "read"), "ride": ("rode", "ridden"),
    "ring": ("rang", "rung"), "rise": ("rose", "risen"), "run": ("ran", "run"),
    "say": ("said", "said"), "see": ("saw", "seen"), "seek": ("sought", "sought"),
    "sell": ("sold", "sold"), "send": ("sent", "sent"), "set": ("set", "set"),
    "shake": ("shook", "shaken"), "shed": ("shed", "shed"), "shine": ("shone", "shone"),
    "shoot": ("shot", "shot"), "show": ("showed", "shown"), "shut": ("shut", "shut"),
    "sing": ("sang", "sung"), "sink": ("sank", "sunk"), "sit": ("sat", "sat"),
    "sleep": ("slept", "slept"), "slide": ("slid", "slid"), "speak": ("spoke", "spoken"),
    "spend": ("spent", "spent"), "spin": ("spun", "spun"), "split": ("split", "split"),
    "spread": ("spread", "spread"), "spring": ("sprang", "sprung"), "stand": ("stood", "stood"),
    "steal": ("stole", "stolen"), "stick": ("stuck", "stuck"), "strike": ("struck", "struck"),
    "swear": ("swore", "sworn"), "sweep": ("swept", "swept"), "swim": ("swam", "swum"),
    "swing": ("swung", "swung"), "take": ("took", "taken"), "teach": ("taught", "taught"),
    "tear": ("tore", "torn"), "tell": ("told", "told"), "think": ("thought", "thought"),
    "throw": ("threw", "thrown"), "tread": ("trod", "trodden"), "understand": ("understood", "understood"),
    "wake": ("woke", "woken"), "wear": ("wore", "worn"), "weep": ("wept", "wept"),
    "win": ("won", "won"), "write": ("wrote", "written"),
}

# verbs whose full form set cannot be composed from the rules above
_FULL_FORM_OVERRIDES: dict[str, frozenset[str]] = {
    "be": frozenset({"be", "am", "is", "are", "was", "were", "been", "being"}),
}

_THIRD_PERSON_OVERRIDES = {"have": "has"}


def _vowel_groups(word: str) -> int:
    groups = 0
    prev_vowel = False
    for ch in word:
        is_vowel = ch in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    return groups


def _doubles_final_consonant(lemma: str) -> bool:
    # single-syllable consonant-vowel-consonant endings: stop -> stopped
    if len(lemma) < 3:
        return False
    c1, v, c2 = lemma[-3], lemma[-2], lemma[-1]
    if c1 in _VOWELS or v not in _VOWELS or c2 in _VOWELS or c2 in "wxy":
        return False
    return _vowel_groups(lemma) == 1


def _third_person(lemma: str) -> str:
    if lemma in _THIRD_PERSON_OVERRIDES:
        return _THIRD_PERSON_OVERRIDES[lemma]
    if lemma.endswith(("s", "x", "z", "ch", "sh", "o")):
        return lemma + "es"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ies"
    return lemma + "s"


def _gerund(lemma: str) -> str:
    if lemma.endswith("ie"):
        return lemma[:-2] + "ying"
    if lemma.endswith("e") and not lemma.endswith(("ee", "oe", "ye")):
        return lemma[:-1] + "ing"
    if _doubles_final_consonant(lemma):
        return lemma + lemma[-1] + "ing"
    return lemma + "ing"


def _regular_past(lemma: str) -> str:
    if lemma.endswith("e"):
        return lemma + "d"
    if lemma.endswith("y") and len(lemma) > 1 and lemma[-2] not in _VOWELS:
        return lemma[:-1] + "ied"
    if _doubles_final_consonant(lemma):
        return lemma + lemma[-1] + "ed"
    return lemma + "ed"


def inflect_verb(lemma: str) -> set[str]:
    """Return the lemma together with its 3rd-person singular, past, past
    participle and gerund forms.

    Irregulars come from a built-in table; everything else follows the
    usual suffix rules (e-drop, final-consonant doubling, y -> ies).
    """
    if not lemma or not lemma.isalpha() or lemma != lemma.lower():
        raise ValueError(f"verb lemma must be lowercase alphabetic, got {lemma!r}")
    if lemma in _FULL_FORM_OVERRIDES:
        return set(_FULL_FORM_OVERRIDES[lemma])
    past, participle = _IRREGULAR_PAST.get(lemma, (None, None))
    if past is None:
        past = participle = _regular_past(lemma)
    return {lemma, _third_person(lemma), past, participle, _gerund(lemma)}


@dataclass
class IdiomEntry:
    canonical: tuple[str, ...]
    definition: tuple[str, ...]
    verb_index: int | None = None
    slot_index: int | None = None
    slot_kind: str | None = None  # "possessive" | "objective"
    variants: tuple[tuple[str, ...], ...] = ()
    literality: float | None = None

    @property
    def key(self) -> str:
        return " ".join(self.canonical)


def idiom_token(canonical: tuple[str, ...] | str) -> str:
    """Single-token name of an idiom in the rewritten streams."""
    parts = canonical.split() if isinstance(canonical, str) else canonical
    return IDIOM_TOKEN_PREFIX + "_".join(parts)


@dataclass
class Lexicon:
    entries: dict[str, IdiomEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.values())

    def __contains__(self, canonical: str) -> bool:
        return canonical in self.entries

    def get(self, canonical: str) -> IdiomEntry:
        return self.entries[canonical]

    def canonicals(self) -> list[str]:
        return list(self.entries.keys())


def expand_entry(entry: IdiomEntry) -> tuple[tuple[str, ...], ...]:
    """All surface forms of an entry, sorted: verb-form choices crossed with
    pronoun substitutions.  The canonical form is always one of the cells.
    """
    canonical = entry.canonical
    if entry.verb_index is not None:
        verb_choices = sorted(inflect_verb(canonical[entry.verb_index]))
    else:
        verb_choices = [None]

    if entry.slot_index is not None:
        slot = canonical[entry.slot_index]
        pronouns = POSSESSIVE_PRONOUNS if entry.slot_kind == "possessive" else OBJECTIVE_PRONOUNS
        slot_choices: list[str | None] = [slot, *pronouns]
    else:
        slot_choices = [None]

    forms: set[tuple[str, ...]] = set()
    for verb in verb_choices:
        for slot_word in slot_choices:
            tokens = list(canonical)
            if verb is not None:
                tokens[entry.verb_index] = verb
            if slot_word is not None:
                tokens[entry.slot_index] = slot_word
            forms.add(tuple(tokens))
    return tuple(sorted(forms))


def _infer_slot_kind(slot_token: str, lineno: int) -> str:
    if slot_token in POSSESSIVE_SLOTS:
        return "possessive"
    if slot_token in OBJECTIVE_SLOTS:
        return "objective"
    raise ValueError(
        f"line {lineno}: slot token {slot_token!r} is not an indefinite pronoun "
        f"({sorted(POSSESSIVE_SLOTS | OBJECTIVE_SLOTS)})"
    )


def load_lexicon(path: str) -> Lexicon:
    """Read a lexicon from a JSON-lines file and expand every entry.

    Each record (see `read_records`) has the string keys ``canonical`` and
    ``definition``.  Optional: ``verb_index``, ``slot_index``, ``slot_kind``
    (the kind the slot token implies), ``literality`` (a finite number),
    and ``variants`` (a list of surface strings written by a previous
    pruning run; when present it replaces automatic expansion).  Duplicate
    canonicals and surface forms shared across entries are load errors.
    """
    lexicon = Lexicon()
    surface_owner: dict[tuple[str, ...], str] = {}

    for lineno, rec in read_records(path, ("canonical", "definition")):
        for key in ("verb_index", "slot_index"):
            # json booleans are ints to Python, and True would index token 1
            if rec.get(key) is not None and type(rec[key]) is not int:
                raise ValueError(f"line {lineno}: {key} must be an integer")
        literality = rec.get("literality")
        if literality is not None and (type(literality) not in (int, float)
                                       or not math.isfinite(literality)):
            raise ValueError(f"line {lineno}: literality must be a finite number")
        canonical = tuple(tokenize(rec["canonical"]))
        if not canonical:
            raise ValueError(f"line {lineno}: empty canonical form")
        entry = IdiomEntry(
            canonical=canonical,
            definition=tuple(tokenize(rec["definition"])),
            verb_index=rec.get("verb_index"),
            slot_index=rec.get("slot_index"),
            slot_kind=rec.get("slot_kind"),
            literality=literality,
        )
        if entry.key in lexicon.entries:
            raise ValueError(f"line {lineno}: duplicate canonical {entry.key!r}")

        n = len(canonical)
        if entry.verb_index is not None:
            if not 0 <= entry.verb_index < n:
                raise ValueError(f"line {lineno}: verb_index {entry.verb_index} out of range")
            lemma = canonical[entry.verb_index]
            if not lemma.isalpha():
                raise ValueError(f"line {lineno}: verb token {lemma!r} is not alphabetic")
        if entry.slot_index is not None:
            if not 0 <= entry.slot_index < n:
                raise ValueError(f"line {lineno}: slot_index {entry.slot_index} out of range")
            if entry.slot_index == entry.verb_index:
                raise ValueError(f"line {lineno}: verb_index and slot_index coincide")
            slot = canonical[entry.slot_index]
            inferred = _infer_slot_kind(slot, lineno)
            if entry.slot_kind not in (None, inferred):
                raise ValueError(f"line {lineno}: slot_kind {entry.slot_kind!r} does not "
                                 f"match slot token {slot!r} ({inferred})")
            entry.slot_kind = inferred
        elif entry.slot_kind is not None:
            raise ValueError(f"line {lineno}: slot_kind needs a slot_index")

        if "variants" in rec:
            variants = rec["variants"]
            if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
                raise ValueError(f"line {lineno}: variants must be a list of strings")
            forms = {canonical}
            for v in variants:
                surface = tuple(tokenize(v))
                if not surface:
                    raise ValueError(f"line {lineno}: variant {v!r} has no tokens")
                forms.add(surface)
            entry.variants = tuple(sorted(forms))
        else:
            entry.variants = expand_entry(entry)

        for tokens in entry.variants:
            if tokens in surface_owner:
                raise ValueError(
                    f"line {lineno}: surface form {' '.join(tokens)!r} belongs to both "
                    f"{surface_owner[tokens]!r} and {entry.key!r}"
                )
            surface_owner[tokens] = entry.key
        lexicon.entries[entry.key] = entry
    return lexicon


def save_lexicon(lexicon: Lexicon, path: str) -> None:
    """Write a lexicon (with its current variant sets) as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in lexicon:
            rec: dict = {
                "canonical": entry.key,
                "definition": " ".join(entry.definition),
            }
            if entry.verb_index is not None:
                rec["verb_index"] = entry.verb_index
            if entry.slot_index is not None:
                rec["slot_index"] = entry.slot_index
                rec["slot_kind"] = entry.slot_kind
            if entry.literality is not None:
                rec["literality"] = entry.literality
            rec["variants"] = [" ".join(t) for t in sorted(entry.variants)]
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def prune_variants(lexicon: Lexicon, counts: "GroupCounts", min_count: int) -> Lexicon:
    """Drop surface forms whose count over both groups together does not
    exceed `min_count`.

    The canonical form itself is always retained.  ``min_count <= 0``
    disables pruning.
    """
    pruned = Lexicon()
    for entry in lexicon:
        kept = tuple(
            tokens for tokens in entry.variants
            if tokens == entry.canonical or min_count <= 0
            or counts.variant_counts.get(tokens, 0) > min_count
        )
        pruned.entries[entry.key] = replace(entry, variants=kept)
    return pruned


def literality_score(entry: IdiomEntry, space: EmbeddingSpace) -> float:
    """Propensity of the idiom to occur with its literal meaning.

    Mean cosine similarity between the idiom's single-token vector and the
    vectors of its in-vocabulary, non-stopword constituent words, each
    `cosine` taken in float64 in `_kernels.c`'s fixed order.
    """
    token = idiom_token(entry.canonical)
    if token not in space:
        raise ValueError(f"idiom token {token!r} absent from embedding space")
    anchor = space.vector(token)

    constituents = [w for w in dict.fromkeys(entry.canonical) if w not in STOPWORDS]
    in_vocab = [w for w in constituents if w in space]
    if not in_vocab:
        raise ValueError(f"no in-vocabulary constituent for {entry.key!r}")
    sims = [cosine(anchor, space.vector(w)) for w in in_vocab]
    return float(sum(sims) / len(sims))


def filter_literal(
    lexicon: Lexicon, space: EmbeddingSpace, threshold: float
) -> tuple[Lexicon, list[tuple[str, float | None, str, str]]]:
    """Remove entries whose literality score exceeds `threshold`.

    Survivors get their ``literality`` field filled; an entry whose score
    cannot be computed is kept unscored.  Returns the filtered lexicon and
    one (canonical, score, status, note) row per entry, where status is
    "kept", "removed" or "unscored" and the note carries the scoring error.
    """
    filtered = Lexicon()
    rows: list[tuple[str, float | None, str, str]] = []
    for entry in lexicon:
        try:
            score = literality_score(entry, space)
        except (ValueError, KeyError) as exc:
            filtered.entries[entry.key] = replace(entry)
            rows.append((entry.key, None, "unscored", str(exc)))
            continue
        if score > threshold:
            rows.append((entry.key, score, "removed", ""))
        else:
            filtered.entries[entry.key] = replace(entry, literality=score)
            rows.append((entry.key, score, "kept", ""))
    return filtered, rows
