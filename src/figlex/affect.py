"""Affect induction over idiom definitions and group comparison.

Three beta-regression models (one per affect dimension: valence, arousal,
dominance) are fit by maximum likelihood on word-level human ratings in
[0, 1], with word embeddings as features and a logit mean link.  The
fitted models score idiom definitions through their sentence embeddings;
count-weighted usage series are then compared across groups.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import _kernels
from ._kernels import Pcg64, address
from .embeddings import EmbeddingSpace, _embedded_rows, sentence_embedding
from .lexicon import Lexicon
from .matcher import GroupCounts
from .stats import cohens_d, mean, wilcoxon_ranksum

DIMENSIONS = ("valence", "arousal", "dominance")

_TARGET_EPS = 1e-4      # beta log-likelihood diverges at {0, 1}
_LOG_PHI_MAX = math.log(1e8)


def load_vad_lexicon(path: str) -> dict[str, tuple[float, float, float]]:
    """Read a CSV with header columns word, valence, arousal, dominance into
    word -> (valence, arousal, dominance), each rated in [0, 1].  Every
    word is nonempty and on one row only."""
    ratings: dict[str, tuple[float, float, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"word", "valence", "arousal", "dominance"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"VAD lexicon must have columns {sorted(required)}")
        for row_no, row in enumerate(reader, start=2):
            word = row["word"].strip()
            if not word:
                raise ValueError(f"row {row_no}: empty word")
            if word in ratings:
                raise ValueError(f"row {row_no}: duplicate word {word!r}")
            try:
                vals = tuple(float(row[d]) for d in DIMENSIONS)
            except (TypeError, ValueError):  # a missing cell reads as None
                raise ValueError(f"row {row_no}: ratings must be three numbers") from None
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ValueError(f"row {row_no}: ratings must lie in [0, 1]")
            ratings[word] = vals  # type: ignore[assignment]
    return ratings


@dataclass
class VadModel:
    dimension: str
    coefficients: array  # float64, length dim+1, intercept first
    precision: float
    ll_history: list[float] = field(default_factory=list, repr=False)
    n_iter: int = 0
    grad_norm: float = math.nan  # the working-space gradient max-norm at the end

    def __post_init__(self) -> None:
        self.coefficients = array("d", self.coefficients)
        if self.precision <= 0:
            raise ValueError("precision must be positive")
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError("coefficients must be finite")


@dataclass
class UsageSeries:
    dimension: str
    group: str
    values: array  # float64


@dataclass(frozen=True)
class VadComparison:
    dimension: str
    mean_a: float
    mean_b: float
    p_value: float
    cohens_d: float
    stars: str
    n_a: int
    n_b: int


@dataclass(frozen=True)
class _Matrix:
    """A float64 matrix held row by row in one flat array."""

    data: array
    n_rows: int
    n_cols: int


def _matrix(rows: Sequence[Sequence[float]]) -> _Matrix:
    """`rows`, all of one length and finite, as a `_Matrix`."""
    flat = array("d")
    n = 0
    width = None
    for row in rows:
        try:
            flat.extend(row)
        except TypeError:  # a number, not a row
            raise ValueError("features must be a 2-d matrix") from None
        n += 1
        width = len(flat) if width is None else width
        if len(flat) != n * width:
            raise ValueError("features must be a 2-d matrix")
    if not all(map(math.isfinite, flat)):
        raise ValueError("features must be finite")
    return _Matrix(flat, n, width or 0)


def _beta_data(features: _Matrix, targets: Sequence[float]) -> tuple[_Matrix, array, array]:
    """What the likelihood reads of a fit's data, computed once per fit:
    the feature rows, log y and log(1 - y)."""
    if len(targets) != features.n_rows:
        raise ValueError("targets must parallel feature rows")
    return (features, array("d", [math.log(y) for y in targets]),
            array("d", [math.log(1.0 - y) for y in targets]))


def _log_likelihood(params: Sequence[float], features: _Matrix, log_y: array,
                    log_1my: array, grad: array | None = None) -> float:
    """Mean beta log-likelihood at params = (intercept, coefficients..., log
    phi), by `_kernels.c` ``beta_loglik``, which writes the gradient into
    `grad` unless it is None; the mean scale keeps gradient magnitudes
    comparable across sample sizes, which is what the convergence tolerance
    is measured against."""
    at = array("d", params)
    if len(at) != features.n_cols + 2:
        raise ValueError(f"params must hold {features.n_cols + 2} values, got {len(at)}")
    return _kernels.load().beta_loglik(address(features.data), features.n_rows,
                                       features.n_cols, address(log_y), address(log_1my),
                                       address(at), None if grad is None else address(grad))


def _log_likelihood_grad(params: Sequence[float], features: _Matrix, log_y: array,
                         log_1my: array) -> list[float]:
    """Analytic gradient of `_log_likelihood` in coefficients and log phi."""
    grad = array("d", [0.0]) * len(params)
    _log_likelihood(params, features, log_y, log_1my, grad)
    return grad.tolist()


@dataclass(frozen=True)
class _Whitened:
    """`_whiten`'s column means (n_cols), basis (n_cols x rank, row-major)
    and whitened features (n_rows x rank)."""

    mean: array
    basis: array
    features: _Matrix


def _whiten(X: _Matrix) -> _Whitened:
    """Center the columns of X and whiten them along the eigenvectors of
    their Gram matrix (`_kernels.c` ``whiten``), the right singular vectors
    of the centered X, so the whitened columns are orthogonal with squared
    norm n.  A null direction, as a duplicated or a constant column makes,
    has an eigenvalue at the Gram matrix's rounding level (at most d * 2^-52
    of the largest) and drops out, as an SVD drops singular values below
    1e-10 of the largest, so the fit runs in the same column span.  A Gram
    matrix that is not finite, or whose eigenvalues do not converge,
    raises ValueError."""
    n, d = X.n_rows, X.n_cols
    mean_ = array("d", [0.0]) * d
    basis = array("d", [0.0]) * (d * d)
    z = array("d", [0.0]) * (n * d)
    rank = _kernels.load().whiten(address(X.data), n, d, address(mean_), address(basis),
                                  address(z))
    if rank == -1:
        raise ValueError("the features' Gram matrix is not finite")
    if rank == -2:
        raise MemoryError("whitening kernel: no memory for its scratch matrices")
    if rank < 0:
        raise ValueError("the features' Gram matrix: eigenvalues did not converge")
    del basis[d * rank:], z[n * rank:]
    return _Whitened(mean_, basis, _Matrix(z, n, rank))


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum(map(float.__mul__, a, b))


def fit_beta_regression(
    features: Sequence[Sequence[float]],
    targets: Sequence[float],
    dimension: str = "value",
    max_iter: int = 500,
    tol: float = 1e-6,
    *,
    _whitened: _Whitened | None = None,
) -> VadModel:
    """Maximum-likelihood beta regression with a logit mean link.

    Optimized by gradient ascent with backtracking line search over the
    coefficient vector and log precision.  Internally the feature columns
    are centered and whitened (`_whiten`: an exact reparametrization,
    undone before returning), which keeps plain gradient ascent fast even
    on strongly correlated features; null directions of the features, such
    as a duplicated or a constant column, get no weight, and features
    whose Gram matrix is not finite raise ValueError.  Converges when
    the working-space gradient max-norm drops below `tol`; log phi is
    capped above so zero-residual targets, whose likelihood is unbounded in
    phi, still terminate.  Raises if the iteration limit is hit first.
    `_whitened` is ``_whiten(_matrix(features))`` when the caller fits one
    matrix several times; `features` is then not read.
    """
    white = _whiten(_matrix(features)) if _whitened is None else _whitened
    n, d = white.features.n_rows, len(white.mean)
    y = [min(max(float(t), _TARGET_EPS), 1.0 - _TARGET_EPS) for t in targets]
    if len(y) != n:
        raise ValueError("targets must parallel feature rows")
    if n < d + 2:
        raise ValueError(f"need at least {d + 2} rows to fit {d} features, got {n}")

    mean_y = mean(y)
    var_y = math.fsum((t - mean_y) * (t - mean_y) for t in y) / n + 1e-8
    phi0 = max(mean_y * (1.0 - mean_y) / var_y - 1.0, 1.0)
    params = ([math.log(mean_y / (1.0 - mean_y))] + [0.0] * white.features.n_cols
              + [min(math.log(phi0), _LOG_PHI_MAX)])

    data = _beta_data(white.features, y)
    ll = _log_likelihood(params, *data)
    history = [ll]
    step = 1.0
    converged = False
    grad_norm = math.inf
    prev_params: list[float] | None = None
    prev_grad: list[float] = []
    it = 0
    for it in range(1, max_iter + 1):
        grad = _log_likelihood_grad(params, *data)
        if params[-1] >= _LOG_PHI_MAX and grad[-1] > 0:
            grad[-1] = 0.0  # projected: the cap is active
        grad_norm = max(map(abs, grad))
        if grad_norm < tol:
            converged = True
            break

        # Barzilai-Borwein initial step, safeguarded by Armijo backtracking;
        # gradient-only, and the accepted-likelihood path stays monotone
        if prev_params is not None:
            s = list(map(float.__sub__, params, prev_params))
            sy = _dot(s, map(float.__sub__, prev_grad, grad))
            step = _dot(s, s) / sy if sy > 0 else step * 2.0
        else:
            step = step * 2.0
        step = min(max(step, 1e-12), 1e8)
        prev_params, prev_grad = params, grad

        gsq = _dot(grad, grad)
        accepted = False
        while step > 1e-20:
            trial = [p + step * g for p, g in zip(params, grad)]
            trial[-1] = min(trial[-1], _LOG_PHI_MAX)
            trial_ll = _log_likelihood(trial, *data)
            if math.isfinite(trial_ll) and trial_ll >= ll + 1e-4 * step * gsq:
                params, ll = trial, trial_ll
                history.append(ll)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break

    if not converged:
        raise ValueError(
            f"beta regression did not converge after {it} iterations "
            f"(gradient max-norm {grad_norm:.3e})"
        )
    rank = white.features.n_cols
    slopes = [_dot(white.basis[j * rank:(j + 1) * rank], params[1:-1]) for j in range(d)]
    return VadModel(
        dimension=dimension,
        coefficients=[params[0] - _dot(white.mean, slopes)] + slopes,
        precision=math.exp(params[-1]),
        ll_history=history,
        n_iter=it,
        grad_norm=grad_norm,
    )


def predict_beta(model: VadModel, feature: Sequence[float]) -> float:
    """Inverse-logit prediction, clamped to [1e-12, 1 - 1e-12], in
    `_kernels.c` as the fit's likelihood computes its means."""
    f = array("d", feature)
    if len(f) != len(model.coefficients) - 1:
        raise ValueError(
            f"feature dimension {len(f)} does not match model ({len(model.coefficients) - 1})"
        )
    return _kernels.load().beta_predict(address(model.coefficients), address(f), len(f))


def train_vad_models(
    space: EmbeddingSpace, vad: Mapping[str, tuple[float, float, float]]
) -> dict[str, VadModel]:
    """Fit the three affect models on embeddings of in-vocabulary words of
    `vad` (see `load_vad_lexicon`)."""
    words = sorted(w for w in vad if w in space)
    if not words:
        raise ValueError("no VAD lexicon word is in the embedding vocabulary")
    rows = [space.vector(w) for w in words]
    whitened = _whiten(_matrix(rows))  # once for the three fits
    return {
        dim: fit_beta_regression(rows, [vad[w][i] for w in words], dimension=dim,
                                 _whitened=whitened)
        for i, dim in enumerate(DIMENSIONS)
    }


def score_definitions(
    lexicon: Lexicon, space: EmbeddingSpace, models: Mapping[str, VadModel]
) -> dict[str, tuple[float, float, float]]:
    """Predict canonical -> (valence, arousal, dominance) from the sentence
    embedding of every idiom definition."""
    values: dict[str, tuple[float, float, float]] = {}
    failures: list[str] = []
    for entry in lexicon:
        try:
            vec = sentence_embedding(space, entry.definition)
        except ValueError:
            failures.append(entry.key)
            continue
        values[entry.key] = tuple(predict_beta(models[d], vec) for d in DIMENSIONS)  # type: ignore[assignment]
    if failures:
        raise ValueError(f"definitions could not be embedded for: {', '.join(failures)}")
    return values


def usage_vad_series(
    counts: GroupCounts, scores: Mapping[str, tuple[float, float, float]], group: str
) -> tuple[UsageSeries, UsageSeries, UsageSeries]:
    """One value series per affect dimension, with each idiom's score (see
    `score_definitions`) repeated once per usage in the group, in the key
    order of ``counts.idiom_counts``."""
    if group not in counts.groups:
        raise ValueError(f"unknown group {group!r}")
    for canonical in counts.idiom_counts:
        if canonical not in scores:
            raise ValueError(f"idiom {canonical!r} has no affect scores")
    series = tuple(UsageSeries(dimension=dim, group=group, values=array("d"))
                   for dim in DIMENSIONS)
    for canonical, per_group in counts.idiom_counts.items():
        for one, value in zip(series, scores[canonical], strict=True):
            one.values.extend(array("d", [value]) * per_group[group])
    return series  # type: ignore[return-value]


def _stars(p: float) -> str:
    if p < 0.001:
        return "**"
    if p < 0.01:
        return "*"
    return ""


def compare_vad(
    series_a: Sequence[UsageSeries], series_b: Sequence[UsageSeries]
) -> list[VadComparison]:
    """Per-dimension means, rank-sum p, and Cohen's d for two usage triples."""
    out: list[VadComparison] = []
    for sa, sb in zip(series_a, series_b, strict=True):
        if sa.dimension != sb.dimension:
            raise ValueError(f"dimension mismatch: {sa.dimension} vs {sb.dimension}")
        test = wilcoxon_ranksum(sa.values, sb.values)
        out.append(
            VadComparison(
                dimension=sa.dimension,
                mean_a=mean(sa.values),
                mean_b=mean(sb.values),
                p_value=test.p_value,
                cohens_d=cohens_d(sa.values, sb.values),
                stars=_stars(test.p_value),
                n_a=len(sa.values),
                n_b=len(sb.values),
            )
        )
    return out


def literal_baseline(
    counts: GroupCounts,
    space: EmbeddingSpace,
    models: Mapping[str, VadModel],
    n: int,
    seed: int,
) -> dict[str, tuple[UsageSeries, UsageSeries, UsageSeries]]:
    """Affect series over idiom-free posts, `n` sampled per group.

    Candidate posts of `counts` contain no idiom match, so their streams are
    their tokens, and at least one token `sentence_embedding` embeds;
    sampling is deterministic given the seed, and only the sampled posts
    are embedded.
    """
    starts, streams = counts.span_starts, counts.streams
    rng = Pcg64(seed)
    out: dict[str, tuple[UsageSeries, UsageSeries, UsageSeries]] = {}
    for group in counts.groups:
        candidates = [streams[i] for i in counts.posts_of(group)
                      if starts[i] == starts[i + 1] and _embedded_rows(space, streams[i])]
        if len(candidates) < n:
            raise ValueError(
                f"group {group!r} has only {len(candidates)} idiom-free embeddable posts, "
                f"need {n}"
            )
        chosen = [sentence_embedding(space, candidates[i])
                  for i in rng.choice(len(candidates), n)]
        out[group] = tuple(
            UsageSeries(dimension=dim, group=group,
                        values=array("d", [predict_beta(models[dim], vec) for vec in chosen]))
            for dim in DIMENSIONS
        )  # type: ignore[assignment]
    return out


def save_vad_models(models: Mapping[str, VadModel], path: str) -> None:
    payload = {
        "models": [
            {
                "dimension": dim,
                "coefficients": [float(c) for c in models[dim].coefficients],
                "precision": models[dim].precision,
                "link": "logit",
            }
            for dim in DIMENSIONS
            if dim in models
        ]
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")
