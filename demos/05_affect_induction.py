"""Affect induction: from word-level ratings to idiom-definition scores.

Fits one beta-regression model per affect dimension (valence, arousal,
dominance) on word embeddings against human-style ratings in [0, 1], then
scores idiom definitions through their sentence embeddings and compares
count-weighted usage series across groups.
"""

from pathlib import Path

from figlex import (
    TrainParams,
    balance_groups,
    build_matcher,
    compare_vad,
    count_usages,
    load_corpus,
    load_lexicon,
    load_vad_lexicon,
    score_definitions,
    sentence_embedding,
    train_sgns,
    train_vad_models,
    usage_vad_series,
)

DATA = Path(__file__).parent.parent / "tests" / "data"

corpus = balance_groups(load_corpus(str(DATA / "corpus_fixture.jsonl")), seed=42)
lexicon = load_lexicon(str(DATA / "lexicon_fixture.jsonl"))
matcher = build_matcher(lexicon)
counts = count_usages(matcher, corpus)
space = train_sgns(counts.streams, TrainParams(dim=32, min_count=2, epochs=4, seed=42))

vad = load_vad_lexicon(str(DATA / "vad_fixture.csv"))
models = train_vad_models(space, vad)
for dim, model in models.items():
    print(f"fit {dim}: {model.n_iter} iterations, precision {model.precision:.1f}")

scores = score_definitions(lexicon, lambda toks: sentence_embedding(space, toks), models)
print("\n== induced affect of definitions ==")
for canonical in sorted(scores.values):
    v, a, d = scores.values[canonical]
    print(f"  {canonical:>28}: V={v:.3f} A={a:.3f} D={d:.3f}")

series = {g: usage_vad_series(counts, scores, g) for g in ("F", "M")}
print("\n== count-weighted usage comparison (F vs M) ==")
for row in compare_vad(series["F"], series["M"]):
    print(f"  {row.dimension:>9}: mean F {row.mean_a:.3f} vs M {row.mean_b:.3f}, "
          f"d={row.cohens_d:+.2f}, p={row.p_value:.2g} {row.stars}")
print("\n(very small synthetic corpus; the pattern, not the numbers, is the point)")
