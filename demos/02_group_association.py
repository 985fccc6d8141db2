"""Group-association scores: which idioms (and words) lean which way.

Builds a small two-group corpus with a planted skew, counts usage over
idiom-rewritten token streams, and scores every token with the log-odds
ratio under an informative Dirichlet prior.  Positive scores favor the
first group passed to the scorer.
"""

import numpy as np

from figlex import (
    Corpus,
    Post,
    build_matcher,
    count_usages,
    idiom_scores,
    log_odds_dirichlet,
    tokenize,
)
from figlex.lexicon import IdiomEntry, Lexicon, expand_entry

rng = np.random.default_rng(7)

lexicon = Lexicon()
for canonical, definition in [
    ("pick a fight", "to start an angry argument"),
    ("over the moon", "to be extremely happy"),
]:
    entry = IdiomEntry(canonical=tuple(tokenize(canonical)),
                       definition=tuple(tokenize(definition)),
                       verb_index=0 if canonical.startswith("pick") else None)
    entry.variants = expand_entry(entry)
    lexicon.entries[entry.key] = entry

filler = ["the", "a", "day", "game", "happy", "angry", "team", "friend",
          "fight", "moon", "start", "plan"]
posts = []
for group, fight_rate in (("M", 0.45), ("F", 0.10)):
    for i in range(150):
        words = [filler[j] for j in rng.integers(0, len(filler), size=10)]
        idiom = "pick a fight" if rng.random() < fight_rate else "over the moon"
        at = int(rng.integers(0, len(words)))
        words = words[:at] + idiom.split() + words[at:]
        posts.append(Post(author_id=f"{group}{i}", group=group, tokens=tuple(words)))
corpus = Corpus(posts=tuple(posts), group_labels=("M", "F"))

matcher = build_matcher(lexicon)
counts = count_usages(matcher, corpus)
print("== per-idiom usage counts ==")
for canonical, per_group in counts.idiom_counts.items():
    print(f"  {canonical!r}: {per_group}")

# positive z favors the first argument (here F)
tokens_f, tokens_m = counts.tokens_for("F"), counts.tokens_for("M")
table = log_odds_dirichlet(tokens_f, tokens_m, tokens_f + tokens_m)
print("\n== association scores (positive = F, negative = M) ==")
for canonical, z, surface, definition in idiom_scores(lexicon, table):
    print(f"  {canonical!r}: idiom z = {z:+.2f}, "
          f"surface mean = {surface:+.2f}, definition mean = {definition:+.2f}")
