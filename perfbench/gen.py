"""Seeded input generator for the pipeline benchmark.

It imports nothing from figlex, so two revisions of the program receive
byte-identical inputs for one (workload, seed).  Every file it writes is
plain input data: a corpus (JSON lines), an idiom lexicon (JSON lines), a
VAD ratings CSV and a run configuration whose paths are bare file names,
so the subcommands run with the input directory as working directory.

    python3 perfbench/gen.py many_short_posts 1 /tmp/inputs
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

GROUPS = ("F", "M")

# consonant-vowel-consonant-vowel-consonant pseudo-words; no stopword and
# no pronoun has this shape, so filler never collides with either
_CONSONANTS = "bdfgklmpstvz"
_VOWELS = "aeiou"

FUNCTION_WORDS = ("the", "a", "to", "and", "of", "i", "it", "was", "in", "that")
FUNCTION_SHARE = 0.2  # of filler words
# each post keeps to one of TOPICS topics for TOPIC_SHARE of its content
# words, so the embedding spaces have structure
TOPICS = 20
TOPIC_SHARE = 0.7

# lemma, 3rd person, past, past participle, gerund
VERBS = [line.split() for line in """
break breaks broke broken breaking
catch catches caught caught catching
keep keeps kept kept keeping
hold holds held held holding
lose loses lost lost losing
take takes took taken taking
give gives gave given giving
pull pulls pulled pulled pulling
push pushes pushed pushed pushing
turn turns turned turned turning
drop drops dropped dropped dropping
pick picks picked picked picking
kick kicks kicked kicked kicking
bite bites bit bitten biting
spill spills spilled spilled spilling
cut cuts cut cut cutting
throw throws threw thrown throwing
bend bends bent bent bending
burn burns burned burned burning
hit hits hit hit hitting
miss misses missed missed missing
pay pays paid paid paying
raise raises raised raised raising
shake shakes shook shaken shaking
steal steals stole stolen stealing
sweep sweeps swept swept sweeping
walk walks walked walked walking
wear wears wore worn wearing
""".strip().splitlines()]

POSSESSIVES = ("one's", "my", "your", "his", "her", "its", "our", "their")
OBJECTIVES = ("someone", "me", "you", "him", "her", "it", "us", "them")


@dataclass(frozen=True)
class Spec:
    """Shape of one generated workload."""

    posts_per_group: int
    post_len: tuple[int, int]      # inclusive token-length range
    filler_vocab: int              # pseudo-words drawn Zipf-style
    zipf_s: float
    idiom_kinds: dict[str, int]    # kind -> number of idioms
    idiom_post_share: float        # posts carrying idioms
    idioms_per_post: tuple[int, int]
    group_skew: float              # each idiom's log-weight lean to one group
    vad_words: int
    threads: int
    config: dict[str, object]


SPECS: dict[str, Spec] = {
    # many short posts, large lexicon: matching and the split test dominate
    "many_short_posts": Spec(
        posts_per_group=1500, post_len=(6, 10), filler_vocab=2000, zipf_s=1.0,
        idiom_kinds={"verb_slot": 70, "verb": 90, "slot": 30, "plain": 10},
        idiom_post_share=0.6, idioms_per_post=(1, 1), group_skew=1.5,
        vad_words=60, threads=1,
        config={"min_count": 1, "literality_threshold": 0.7, "rbo_depth": 20,
                "n_splits": 500, "baseline_n": 50, "dim": 16, "window": 2,
                "negatives": 2, "epochs": 1, "train_min_count": 2,
                "initial_lr": 0.025},
    ),
    # few long posts with a Zipf tail: SGNS at the real-corpus defaults
    "few_long_posts": Spec(
        posts_per_group=80, post_len=(200, 300), filler_vocab=30000, zipf_s=1.05,
        idiom_kinds={"verb_slot": 2, "verb": 3, "slot": 1, "plain": 2},
        idiom_post_share=0.5, idioms_per_post=(2, 4), group_skew=1.0,
        vad_words=160, threads=2,
        # one epoch on this corpus leaves every vector near one common
        # direction (cosines 0.98-1.0), so the filter scores but keeps all;
        # no variant pruning, so enough idioms reach the neighbour comparison
        config={"min_count": 0, "literality_threshold": 1.0, "rbo_depth": 50,
                "n_splits": 500, "baseline_n": 10, "dim": 100, "window": 5,
                "negatives": 5, "epochs": 1, "train_min_count": 5,
                "initial_lr": 0.025},
    ),
}


def pseudo_word(i: int) -> str:
    """The i-th pseudo-word (0 <= i < 43200), a bijection on that range."""
    i = i * 7919 % 43200  # scramble, so neighbouring ranks look unalike
    letters = []
    for alphabet in (_CONSONANTS, _VOWELS, _CONSONANTS, _VOWELS, _CONSONANTS):
        i, r = divmod(i, len(alphabet))
        letters.append(alphabet[r])
    return "".join(letters)


@dataclass(frozen=True)
class Idiom:
    canonical: tuple[str, ...]
    definition: tuple[str, ...]
    verb_index: int | None
    slot_index: int | None
    forms: tuple[tuple[str, ...], ...]   # surface forms the corpus may use


def _idioms(spec: Spec, rng: np.random.Generator, nouns: list[str],
            definition_pool: list[str]) -> list[Idiom]:
    idioms = []
    noun_iter = iter(nouns)
    for kind, n in spec.idiom_kinds.items():
        for _ in range(n):
            noun = next(noun_iter)
            verb = VERBS[int(rng.integers(len(VERBS)))]
            if kind == "verb_slot":
                slots = POSSESSIVES if rng.random() < 0.5 else OBJECTIVES
                canonical, vi, si = (verb[0], slots[0], noun), 0, 1
                forms = [(v, s, noun) for v in dict.fromkeys(verb) for s in slots]
            elif kind == "verb":
                canonical, vi, si = (verb[0], "the", noun), 0, None
                forms = [(v, "the", noun) for v in dict.fromkeys(verb)]
            elif kind == "slot":
                canonical, vi, si = ("on", POSSESSIVES[0], noun), None, 1
                forms = [("on", s, noun) for s in POSSESSIVES]
            else:
                adjective = next(noun_iter)
                canonical, vi, si = (adjective, noun), None, None
                forms = [canonical]
            size = int(rng.integers(3, 6))
            definition = tuple(rng.choice(definition_pool, size=size, replace=False))
            idioms.append(Idiom(canonical, definition, vi, si, tuple(forms)))
    return idioms


def _post(spec: Spec, rng: np.random.Generator, filler_cdf: np.ndarray,
          idioms: list[Idiom], weights: np.ndarray) -> list[str]:
    length = int(rng.integers(spec.post_len[0], spec.post_len[1] + 1))
    spans: list[tuple[str, ...]] = []
    if rng.random() < spec.idiom_post_share:
        lo, hi = spec.idioms_per_post
        for _ in range(int(rng.integers(lo, hi + 1))):
            idiom = idioms[int(np.searchsorted(weights, rng.random()))]
            if rng.random() < 0.4:
                spans.append(idiom.canonical)
            else:
                spans.append(idiom.forms[int(rng.integers(len(idiom.forms)))])
    n_filler = max(2, length - sum(len(s) for s in spans))
    topic = int(rng.integers(TOPICS))
    words = []
    for u, r in zip(rng.random(n_filler), rng.random(n_filler)):
        if u < FUNCTION_SHARE:
            words.append(FUNCTION_WORDS[int(r * len(FUNCTION_WORDS))])
            continue
        rank = int(np.searchsorted(filler_cdf, r))
        if u > 1.0 - TOPIC_SHARE * (1.0 - FUNCTION_SHARE):
            # same frequency class, but the word of this post's topic
            rank += topic - rank % TOPICS
        words.append(pseudo_word(rank))
    # idioms go between filler words, never inside another span
    cuts = sorted(int(c) for c in rng.integers(0, n_filler + 1, size=len(spans)))
    out: list[str] = []
    prev = 0
    for cut, span in zip(cuts, spans):
        out.extend(words[prev:cut])
        out.extend(span)
        prev = cut
    out.extend(words[prev:])
    return out


def generate(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> dict[str, Path]:
    """Write the inputs of `workload` for `seed` into `out_dir`.

    `smoke` shrinks the workload to seconds, for checking the benchmark
    itself.  Returns the written files by role: corpus, lexicon, vad, config.
    """
    spec = SPECS[workload]
    if smoke:
        spec = replace(spec, posts_per_group=max(40, spec.posts_per_group // 5),
                       config={**spec.config, "n_splits": 20, "dim": 16, "baseline_n": 5})
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    out_dir.mkdir(parents=True, exist_ok=True)

    ranks = np.arange(1, spec.filler_vocab + 1, dtype=np.float64)
    filler_p = ranks ** -spec.zipf_s
    filler_cdf = np.cumsum(filler_p / filler_p.sum())
    filler_cdf[-1] = 1.0

    # idiom words come from the mid-frequency filler band so they also occur
    # literally; definitions and rated words come from the frequent head
    n_nouns = sum(spec.idiom_kinds.values()) + spec.idiom_kinds.get("plain", 0)
    band = rng.permutation(np.arange(50, 50 + 4 * n_nouns))[:n_nouns]
    nouns = [pseudo_word(int(i)) for i in band]
    head = [pseudo_word(i) for i in range(max(60, spec.vad_words))]
    idioms = _idioms(spec, rng, nouns, head[:60])

    base = 1.0 / np.sqrt(np.arange(1, len(idioms) + 1))
    # half the idioms lean to each group
    lean = rng.permutation(np.resize([spec.group_skew, -spec.group_skew], len(idioms)))
    group_cdfs = {}
    for sign, group in zip((1.0, -1.0), GROUPS):
        w = base * np.exp(sign * lean)
        cdf = np.cumsum(w / w.sum())
        cdf[-1] = 1.0
        group_cdfs[group] = cdf

    paths = {role: out_dir / name for role, name in (
        ("corpus", "corpus.jsonl"), ("lexicon", "lexicon.jsonl"),
        ("vad", "vad.csv"), ("config", "bench.conf"))}

    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for group in GROUPS:
            for k in range(spec.posts_per_group):
                tokens = _post(spec, rng, filler_cdf, idioms, group_cdfs[group])
                rec = {"author_id": f"{group.lower()}{k:05d}", "group": group,
                       "text": " ".join(tokens)}
                fh.write(json.dumps(rec) + "\n")

    with open(paths["lexicon"], "w", encoding="utf-8") as fh:
        for idiom in idioms:
            rec: dict[str, object] = {"canonical": " ".join(idiom.canonical),
                                      "definition": "to " + " ".join(idiom.definition)}
            if idiom.verb_index is not None:
                rec["verb_index"] = idiom.verb_index
            if idiom.slot_index is not None:
                rec["slot_index"] = idiom.slot_index
            fh.write(json.dumps(rec) + "\n")

    with open(paths["vad"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "valence", "arousal", "dominance"])
        latent = rng.standard_normal((spec.vad_words, 3))
        ratings = 1.0 / (1.0 + np.exp(-latent))
        for word, row in zip(head[: spec.vad_words], ratings):
            writer.writerow([word, *(f"{v:.3f}" for v in row)])

    lines = [f"corpus = {paths['corpus'].name}", f"lexicon = {paths['lexicon'].name}",
             f"vad_lexicon = {paths['vad'].name}", f"seed = {seed}",
             f"groups = {','.join(GROUPS)}"]
    lines += [f"{key} = {value}" for key, value in spec.config.items()]
    paths["config"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in SPECS:
        sys.exit(f"usage: gen.py {{{','.join(SPECS)}}} SEED OUT_DIR")
    for role, path in generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])).items():
        print(f"{role:8s} {sha256(path)}  {path}")
