"""Is cross-group usage divergence real, or within-group noise?

Compares the Jensen-Shannon divergence between two groups' idiom-usage
distributions against the divergence of random half/half splits inside
each group.  A planted skew should clear the baseline; exchangeable
groups should not.
"""

import numpy as np

from figlex import Corpus, Post, build_matcher, count_usages, divergence_gap_test
from figlex.lexicon import IdiomEntry, Lexicon

idioms = ["hit the road", "spill the beans", "break the ice", "clear the air"]
lexicon = Lexicon()
for name in idioms:
    entry = IdiomEntry(canonical=tuple(name.split()), definition=("x",))
    entry.variants = (entry.canonical,)
    lexicon.entries[entry.key] = entry


def build_corpus(planted: bool, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    vocab = ["work", "day", "plan", "city", "note", "the", "a", "to"]
    posts = []
    for group in ("A", "B"):
        for i in range(300):
            words = [vocab[j] for j in rng.integers(0, len(vocab), size=10)]
            for k, idiom in enumerate(idioms):
                p = 0.2
                if planted and k == 0:
                    p = 0.5 if group == "A" else 0.1
                if rng.random() < p:
                    at = int(rng.integers(0, len(words)))
                    words = words[:at] + idiom.split() + words[at:]
            posts.append(Post(author_id=f"{group}{i}", group=group, tokens=tuple(words)))
    return Corpus(posts=tuple(posts), group_labels=("A", "B"))


for label, planted in (("planted 5x skew", True), ("no signal", False)):
    corpus = build_corpus(planted, seed=3)
    counts = count_usages(build_matcher(lexicon), corpus)
    result = divergence_gap_test(counts, n_splits=300, seed=1)
    print(f"== {label} ==")
    print(f"  cross-group JSD: {result.cross_jsd:.4f}")
    for group, mean in result.baseline_mean.items():
        print(f"  within-{group} baseline: mean {mean:.4f}, "
              f"max {result.baseline_max[group]:.4f}")
    print(f"  empirical p = {result.p_value:.4g}, z = {result.z:+.2f}\n")
