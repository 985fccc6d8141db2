"""Regenerate the checked-in fixture files under tests/data/.

Deterministic: rerunning produces byte-identical files.

The synthetic corpus is built from disjoint topic pools so the trained
embedding space has real distributional structure:

* every post draws ~70% of its tokens from a single topic pool and the
  rest from function words, so words cluster by topic;
* idioms are inserted into host-topic posts chosen away from the topics
  where their constituent words live, which keeps their literality low --
  except "wooden spoon", whose host topic (kitchen) is exactly where its
  constituents live, so the literality filter removes it;
* "under fire" is hosted in different topics for the two groups (sports
  for M, school for F), planting a contextual-usage shift for the
  neighborhood comparison;
* idiom-frequency weights differ per group, planting the group-association
  signal;
* 40% of posts carry no idiom, feeding the literal baseline.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).parent / "data"
SEED = 12345
POSTS_PER_GROUP = 600

FUNCTION_WORDS = [
    "the", "a", "to", "of", "and", "in", "it", "is", "was", "for", "on",
    "with", "you", "i", "that", "this", "at", "be", "have", "do", "not",
    "we", "they", "so", "but", "all", "just", "about", "from", "out",
]

POSITIVE_WORDS = [
    "happy", "calm", "strong", "bright", "gentle", "proud", "bold", "relaxed",
    "excited", "cheerful", "brave", "confident", "joyful", "warm", "lively",
    "eager", "gracious", "serene", "hopeful", "mighty", "radiant", "playful",
    "vibrant", "tender", "merry", "spirited", "pleasant", "powerful",
    "delighted", "assured",
]

NEGATIVE_WORDS = [
    "sad", "angry", "weak", "dark", "fierce", "afraid", "shy", "tense",
    "bored", "gloomy", "nervous", "anxious", "bitter", "cold", "tired",
    "dull", "hostile", "furious", "fearful", "feeble", "dreary", "solemn",
    "weary", "harsh", "grim", "listless", "awful", "helpless", "miserable",
    "timid",
]

TOPICS: dict[str, list[str]] = {
    "sports": ["game", "match", "score", "team", "win", "lose", "league",
               "coach", "goal", "season", "race", "title", "player", "throw",
               "prize", "weakest", "competition", "defeat"],
    "war": ["battle", "attack", "army", "weapon", "war", "strategy", "fire",
            "rival", "defend", "soldier", "fight", "conflict", "attacked"],
    "home": ["garden", "flower", "house", "yard", "paint", "craft",
             "furniture", "wooden", "table", "chair", "fence", "gate", "sit"],
    "family": ["family", "friend", "baby", "wedding", "party", "gift",
               "story", "dinner", "mother", "father", "child", "love"],
    "emotion_pos": POSITIVE_WORDS + ["pride", "smile", "laugh"],
    "emotion_neg": NEGATIVE_WORDS + ["cry", "worry", "regret"],
    "school": ["school", "book", "music", "photo", "lesson", "teacher",
               "class", "student", "exam", "grade", "criticized", "heavily"],
    "travel": ["travel", "world", "journey", "road", "city", "map", "train",
               "hotel", "trip", "flight", "beach", "island"],
    "nature": ["moon", "star", "sky", "river", "tree", "mountain", "sun",
               "rain", "cloud", "bird", "swallow", "field"],
    "kitchen": ["stir", "soup", "pot", "pan", "sugar", "bowl", "ladle",
                "spoon", "bake", "oven", "recipe", "taste", "towel", "pick"],
    "discourse": ["start", "argument", "accept", "embarrassing", "feel",
                  "humble", "extremely", "precious", "important", "avoid",
                  "taking", "sides", "give", "person", "moment", "mean",
                  "reason", "point", "agree", "wrong"],
}

TOPIC_PREFS = {
    "M": {"sports": 0.22, "war": 0.18, "school": 0.12, "travel": 0.10,
          "nature": 0.08, "discourse": 0.10, "emotion_neg": 0.07,
          "emotion_pos": 0.05, "family": 0.04, "home": 0.02, "kitchen": 0.02},
    "F": {"family": 0.20, "home": 0.14, "emotion_pos": 0.12, "school": 0.12,
          "kitchen": 0.08, "travel": 0.08, "discourse": 0.10, "nature": 0.06,
          "emotion_neg": 0.05, "sports": 0.03, "war": 0.02},
}

IDIOMS = [
    {
        "canonical": "pick a fight",
        "definition": "to start an angry argument or battle",
        "verb_index": 0,
        "featured": "picked a fight",
        "hosts": {"M": ["emotion_neg", "family"], "F": ["emotion_neg", "family"]},
    },
    {
        "canonical": "over the moon",
        "definition": "to be extremely happy and delighted",
        "featured": "over the moon",
        "hosts": {"M": ["family", "emotion_pos"], "F": ["family", "emotion_pos"]},
    },
    {
        "canonical": "swallow one's pride",
        "definition": "to accept something embarrassing and feel humble",
        "verb_index": 0,
        "slot_index": 1,
        "featured": "swallowed her pride",
        "hosts": {"M": ["discourse", "emotion_neg"], "F": ["discourse", "emotion_neg"]},
    },
    {
        "canonical": "mean the world to someone",
        "definition": "to be an extremely precious and important person",
        "verb_index": 0,
        "slot_index": 4,
        "featured": "means the world to me",
        "hosts": {"M": ["family", "emotion_pos"], "F": ["family", "emotion_pos"]},
    },
    {
        "canonical": "sit on the fence",
        "definition": "to avoid taking sides in an argument",
        "verb_index": 0,
        "featured": "sitting on the fence",
        "hosts": {"M": ["discourse", "school"], "F": ["discourse", "school"]},
    },
    {
        "canonical": "under fire",
        "definition": "to be attacked and criticized heavily",
        "featured": "under fire",
        "hosts": {"M": ["sports"], "F": ["school"]},
    },
    {
        "canonical": "wooden spoon",
        "definition": "a prize for the weakest player in a competition",
        "featured": "wooden spoon",
        "hosts": {"M": ["kitchen"], "F": ["kitchen"]},
    },
    {
        "canonical": "throw in the towel",
        "definition": "to give up and accept defeat",
        "verb_index": 0,
        "featured": "threw in the towel",
        "hosts": {"M": ["sports", "school"], "F": ["sports", "school"]},
    },
]

# per-group insertion weights over the idioms above, in order
WEIGHTS = {
    "M": [0.26, 0.05, 0.05, 0.05, 0.10, 0.22, 0.12, 0.15],
    "F": [0.05, 0.26, 0.20, 0.15, 0.10, 0.07, 0.12, 0.05],
}


def write_lexicon(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for idiom in IDIOMS:
            rec = {"canonical": idiom["canonical"], "definition": idiom["definition"]}
            if "verb_index" in idiom:
                rec["verb_index"] = idiom["verb_index"]
            if "slot_index" in idiom:
                rec["slot_index"] = idiom["slot_index"]
            fh.write(json.dumps(rec) + "\n")


def write_vad(path: Path, rng: np.random.Generator) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "valence", "arousal", "dominance"])
        # all three dimensions correlate with the positive/negative word
        # pools; embeddings encode pool membership, so the ratings stay
        # learnable at fixture scale
        for word in POSITIVE_WORDS:
            v = round(float(rng.uniform(0.60, 0.95)), 3)
            a = round(float(rng.uniform(0.55, 0.90)), 3)
            d = round(float(rng.uniform(0.55, 0.90)), 3)
            writer.writerow([word, v, a, d])
        for word in NEGATIVE_WORDS:
            v = round(float(rng.uniform(0.05, 0.40)), 3)
            a = round(float(rng.uniform(0.10, 0.45)), 3)
            d = round(float(rng.uniform(0.10, 0.45)), 3)
            writer.writerow([word, v, a, d])


def sample_variant(idiom: dict, rng: np.random.Generator) -> str:
    import figlex

    roll = rng.random()
    if roll < 0.55:
        return idiom["canonical"]
    if roll < 0.90:
        return idiom["featured"]
    slot_index = idiom.get("slot_index")
    slot_kind = None
    if slot_index is not None:
        slot_token = idiom["canonical"].split()[slot_index]
        slot_kind = "possessive" if slot_token.endswith("'s") else "objective"
    entry = figlex.IdiomEntry(
        canonical=tuple(idiom["canonical"].split()),
        definition=("x",),
        verb_index=idiom.get("verb_index"),
        slot_index=slot_index,
        slot_kind=slot_kind,
    )
    forms = [" ".join(f) for f in figlex.expand_entry(entry)]
    return forms[int(rng.integers(0, len(forms)))]


def topic_post(topic: str, n: int, rng: np.random.Generator) -> list[str]:
    pool = TOPICS[topic]
    words = []
    for _ in range(n):
        if rng.random() < 0.30:
            words.append(FUNCTION_WORDS[int(rng.integers(0, len(FUNCTION_WORDS)))])
        else:
            words.append(pool[int(rng.integers(0, len(pool)))])
    return words


def write_corpus(path: Path, rng: np.random.Generator) -> None:
    idiom_names = [i["canonical"] for i in IDIOMS]
    records = []
    for group in ("M", "F"):
        weights = np.array(WEIGHTS[group])
        topics = list(TOPIC_PREFS[group])
        topic_p = np.array([TOPIC_PREFS[group][t] for t in topics])
        topic_p = topic_p / topic_p.sum()
        for i in range(POSTS_PER_GROUP):
            author = f"{group.lower()}{i % 150:03d}"
            length = int(rng.integers(12, 22))
            if rng.random() < 0.60:
                pick = idiom_names[int(rng.choice(len(idiom_names), p=weights))]
                idiom = IDIOMS[idiom_names.index(pick)]
                hosts = idiom["hosts"][group]
                topic = hosts[int(rng.integers(0, len(hosts)))]
                tokens = topic_post(topic, length, rng)
                surface = sample_variant(idiom, rng).split()
                at = int(rng.integers(0, len(tokens) + 1))
                tokens = tokens[:at] + surface + tokens[at:]
                if rng.random() < 0.25:
                    extra = IDIOMS[idiom_names.index(
                        idiom_names[int(rng.choice(len(idiom_names), p=weights))]
                    )]
                    surface = sample_variant(extra, rng).split()
                    at = int(rng.integers(0, len(tokens) + 1))
                    tokens = tokens[:at] + surface + tokens[at:]
            else:
                topic = topics[int(rng.choice(len(topics), p=topic_p))]
                tokens = topic_post(topic, length, rng)
            records.append({"author_id": author, "group": group, "text": " ".join(tokens)})

    order = rng.permutation(len(records))
    with open(path, "w", encoding="utf-8") as fh:
        for j in order:
            fh.write(json.dumps(records[j]) + "\n")


def main() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    rng = np.random.default_rng(SEED)
    write_lexicon(DATA_DIR / "lexicon_fixture.jsonl")
    write_vad(DATA_DIR / "vad_fixture.csv", rng)
    write_corpus(DATA_DIR / "corpus_fixture.jsonl", rng)
    size = (DATA_DIR / "corpus_fixture.jsonl").stat().st_size
    print(f"wrote fixtures to {DATA_DIR} (corpus {size / 1024:.0f} KiB)")


if __name__ == "__main__":
    main()
