"""Embeddings with idioms as single tokens, and cross-space neighborhoods.

Trains one embedding space per group on the shipped fixture (idiom spans
rewritten to single tokens), then compares each idiom's nearest-neighbor
lists across the two spaces with the rank-weighted overlap score.  Low
overlap = the groups use the idiom in different contexts.
"""

from pathlib import Path

from figlex import (
    TrainParams,
    balance_groups,
    build_matcher,
    count_usages,
    idiom_token,
    load_corpus,
    load_lexicon,
    nearest_neighbors,
    sim_rbo,
    train_sgns,
)

DATA = Path(__file__).parent.parent / "tests" / "data"

corpus = balance_groups(load_corpus(str(DATA / "corpus_fixture.jsonl")), seed=42)
lexicon = load_lexicon(str(DATA / "lexicon_fixture.jsonl"))
counts = count_usages(build_matcher(lexicon), corpus)

spaces = {}
for group, seed in (("M", 1), ("F", 2)):
    streams = [s for s, post in zip(counts.streams, corpus.posts) if post.group == group]
    spaces[group] = train_sgns(streams, TrainParams(dim=32, min_count=2, epochs=4, seed=seed))
    print(f"trained {group}-space: {len(spaces[group].vocab)} tokens, "
          f"final epoch loss {spaces[group].epoch_losses[-1]:.4f}")

depth = 15
print(f"\n== neighborhood overlap at depth {depth} (low = context shift) ==")
rows = []
for entry in lexicon:
    tok = idiom_token(entry.key)
    if any(tok not in spaces[g] for g in ("M", "F")):
        continue
    lists = {
        g: [t for t, _ in nearest_neighbors(spaces[g], tok, depth).neighbors]
        for g in ("M", "F")
    }
    rows.append((sim_rbo(lists["M"], lists["F"], depth), entry.key, lists))
for score, name, lists in sorted(rows):
    print(f"  {score:.3f}  {name}")

score, name, lists = sorted(rows)[0]
print(f"\nmost divergent: {name!r}")
for group in ("M", "F"):
    print(f"  top {group}-space neighbors: {lists[group][:6]}")
