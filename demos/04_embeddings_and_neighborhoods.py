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
    load_corpus,
    load_lexicon,
    neighborhood_overlap,
    train_sgns,
)

DATA = Path(__file__).parent.parent / "tests" / "data"

corpus = balance_groups(load_corpus(str(DATA / "corpus_fixture.jsonl")), seed=42)
lexicon = load_lexicon(str(DATA / "lexicon_fixture.jsonl"))
counts = count_usages(build_matcher(lexicon), corpus)

spaces = {}
for group, seed in (("M", 1), ("F", 2)):
    params = TrainParams(dim=32, min_count=2, epochs=4, seed=seed)
    spaces[group] = train_sgns(counts.streams_for(group), params)
    print(f"trained {group}-space: {len(spaces[group].vocab)} tokens, "
          f"final epoch loss {spaces[group].epoch_losses[-1]:.4f}")

depth = 15
print(f"\n== neighborhood overlap at depth {depth} (low = context shift) ==")
rows = sorted(neighborhood_overlap(spaces, lexicon.canonicals(), depth),
              key=lambda row: (row.simrbo, row.canonical))
for row in rows:
    print(f"  {row.simrbo:.3f}  {row.canonical}")

print(f"\nmost divergent: {rows[0].canonical!r}")
for group in ("M", "F"):
    print(f"  top {group}-space neighbors: {[t for t, _ in rows[0].neighbors[group][:6]]}")
