"""figlex: contrast two author groups' idiomatic-language usage.

The pipeline: load a group-labelled corpus and an idiom lexicon, expand
idioms into surface variants and prune rare ones, filter out expressions
with a common literal reading, then measure group differences through
usage-distribution divergence, log-odds association scores, affect
(valence/arousal/dominance) of definitions, and embedding-neighborhood
overlap across per-group semantic spaces.

``import figlex`` loads no submodule: each public name, and each library
submodule such as ``figlex.stats``, is imported on first attribute access
(PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Every public name with the submodule that defines it.
_EXPORTS = {name: module for module, names in (
    ("affect", ("VadComparison", "VadModel", "UsageSeries", "compare_vad",
                "fit_beta_regression", "literal_baseline", "load_vad_lexicon", "predict_beta",
                "score_definitions", "train_vad_models", "usage_vad_series")),
    ("config", ("TrainParams",)),
    ("corpus", ("Corpus", "Post", "balance_groups", "load_corpus")),
    ("embeddings", ("EmbeddingSpace", "cosine", "load_vectors", "nearest_neighbors",
                    "save_vectors", "sentence_embedding", "train_sgns")),
    ("lexicon", ("IdiomEntry", "Lexicon", "STOPWORDS", "expand_entry", "filter_literal",
                 "idiom_token", "inflect_verb", "literality_score", "load_lexicon",
                 "prune_variants", "save_lexicon")),
    ("matcher", ("GroupCounts", "Match", "Matcher", "build_matcher", "count_usages",
                 "find_matches", "load_streams", "recount", "rewrite_with_idiom_tokens",
                 "save_streams")),
    ("stats", ("DivergenceResult", "GScore", "KdeCurve", "NeighborhoodOverlap", "TestResult",
               "cohens_d", "divergence_gap_test", "idiom_scores", "jsd", "kde",
               "log_odds_dirichlet", "neighborhood_overlap", "sim_rbo", "spearman",
               "wilcoxon_ranksum")),
    ("text", ("tokenize",)),
) for name in names}
_SUBMODULES = {*_EXPORTS.values(), "_kernels"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
