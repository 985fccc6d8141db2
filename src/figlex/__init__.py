"""figlex: contrast two author groups' idiomatic-language usage.

The pipeline: load a group-labelled corpus and an idiom lexicon, expand
idioms into surface variants and prune rare ones, filter out expressions
with a common literal reading, then measure group differences through
usage-distribution divergence, log-odds association scores, affect
(valence/arousal/dominance) of definitions, and embedding-neighborhood
overlap across per-group semantic spaces.
"""

from .affect import (
    VadComparison,
    VadModel,
    UsageSeries,
    compare_vad,
    fit_beta_regression,
    literal_baseline,
    load_vad_lexicon,
    predict_beta,
    score_definitions,
    train_vad_models,
    usage_vad_series,
)
from .corpus import Corpus, Post, balance_groups, load_corpus, save_corpus, tokenize
from .embeddings import (
    EmbeddingSpace,
    TrainParams,
    cosine,
    load_vectors,
    nearest_neighbors,
    save_vectors,
    sentence_embedding,
    train_sgns,
)
from .lexicon import (
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
from .matcher import (
    GroupCounts,
    Match,
    Matcher,
    build_matcher,
    count_usages,
    find_matches,
    rewrite_with_idiom_tokens,
)
from .stats import (
    DivergenceResult,
    GScore,
    KdeCurve,
    NeighborhoodOverlap,
    TestResult,
    cohens_d,
    divergence_gap_test,
    idiom_scores,
    jsd,
    kde,
    log_odds_dirichlet,
    neighborhood_overlap,
    sim_rbo,
    spearman,
    wilcoxon_ranksum,
)

__version__ = "0.1.0"
