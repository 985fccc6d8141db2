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
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._kernels import Pcg64
from .embeddings import EmbeddingSpace, _embedded_rows, sentence_embedding
from .lexicon import Lexicon
from .matcher import GroupCounts
from .stats import cohens_d, wilcoxon_ranksum

DIMENSIONS = ("valence", "arousal", "dominance")

_TARGET_EPS = 1e-4      # beta log-likelihood diverges at {0, 1}
_PREDICT_EPS = 1e-12
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
    coefficients: np.ndarray  # length dim+1, intercept first
    precision: float
    ll_history: list[float] = field(default_factory=list, repr=False)
    n_iter: int = 0

    def __post_init__(self) -> None:
        if self.precision <= 0:
            raise ValueError("precision must be positive")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")


@dataclass
class UsageSeries:
    dimension: str
    group: str
    values: np.ndarray


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


# Coefficients of 1/z, 1/z^3, ... in Stirling's series for ln Gamma(z)
# (Abramowitz & Stegun 6.1.41) and of 1/z^2, 1/z^4, ... in the asymptotic
# series for digamma(z) (A&S 6.3.18).  At z >= 8 the first omitted term of
# either is below 2e-15.
_LGAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _horner(r2: np.ndarray | float, coeffs: tuple[float, ...]) -> np.ndarray | float:
    """coeffs[0] + coeffs[1] * r2 + coeffs[2] * r2**2 + ..."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * r2 + c
    return acc


# Both functions below shift every argument by 8 with the recurrence, so
# that the series is evaluated at z = x + 8 without a branch per entry.  The
# eight factors x, x + 1, ..., x + 7 pair up around x + 3.5: with
# u = x (x + 7), the pairs' products are u, u + 6, u + 10 and u + 12, and
# each pair's two reciprocals sum to (2x + 7) / (its product).

def _gammaln(x: np.ndarray) -> np.ndarray:
    """ln Gamma(x) elementwise, for 0 < x < 1e30:
    ln Gamma(x + 8) - ln(x (x + 1) ... (x + 7))."""
    u = x * (x + 7.0)
    prod = u * (u + 6.0) * (u + 10.0) * (u + 12.0)
    z = x + 8.0
    r = 1.0 / z
    return ((z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
            + r * _horner(r * r, _LGAMMA_SERIES) - np.log(prod))


def _digamma(x: np.ndarray | float) -> np.ndarray | float:
    """digamma(x) for x > 0, elementwise on an array or on one float:
    digamma(x + 8) - (1/x + 1/(x + 1) + ... + 1/(x + 7)).  A float takes
    the same arithmetic in Python floats and `math.log`."""
    log = math.log if isinstance(x, float) else np.log
    u = x * (x + 7.0)
    acc = (2.0 * x + 7.0) * (1.0 / u + 1.0 / (u + 6.0) + 1.0 / (u + 10.0) + 1.0 / (u + 12.0))
    z = x + 8.0
    r2 = 1.0 / (z * z)
    return log(z) - 0.5 / z - r2 * _horner(r2, _DIGAMMA_SERIES) - acc


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the inverse logit; exp(-|x|) never overflows: this is 1/(1+exp(-x)) for
    # x >= 0 and exp(x)/(1+exp(x)) below, the same float operations either side
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


def _beta_data(features: np.ndarray, targets: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the likelihood reads of a fit's data, computed once per fit:
    the design matrix (an intercept column, then the features), log y and
    log(1 - y)."""
    design = np.hstack([np.ones((features.shape[0], 1)), features])
    return design, np.log(targets), np.log(1.0 - targets)


def _mean_and_shapes(params: np.ndarray, design: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """phi, mu, and every row's two beta shapes stacked in one array,
    mu * phi for all rows and then (1 - mu) * phi, so each special function
    is one call per evaluation."""
    phi = math.exp(params[-1])
    mu = np.clip(_sigmoid(design @ params[:-1]), 1e-12, 1.0 - 1e-12)
    return phi, mu, np.concatenate((mu, 1.0 - mu)) * phi


def _log_likelihood(params: np.ndarray, design: np.ndarray, log_y: np.ndarray,
                    log_1my: np.ndarray) -> float:
    """Mean beta log-likelihood at params = (coefficients..., log phi); the
    mean scale keeps gradient magnitudes comparable across sample sizes,
    which is what the convergence tolerance is measured against."""
    phi, mu, shapes = _mean_and_shapes(params, design)
    n = len(mu)
    lg = _gammaln(shapes)
    ll = (
        math.lgamma(phi)
        - lg[:n]
        - lg[n:]
        + (shapes[:n] - 1.0) * log_y
        + (shapes[n:] - 1.0) * log_1my
    )
    return float(ll.mean())


def _log_likelihood_grad(params: np.ndarray, design: np.ndarray, log_y: np.ndarray,
                         log_1my: np.ndarray) -> np.ndarray:
    """Analytic gradient of `_log_likelihood` in coefficients and log phi."""
    phi, mu, shapes = _mean_and_shapes(params, design)
    n = len(mu)
    psi = _digamma(shapes)
    psi_a, psi_b = psi[:n], psi[n:]

    dll_dmu = phi * ((log_y - log_1my) - psi_a + psi_b)
    grad_coeffs = design.T @ (dll_dmu * mu * (1.0 - mu)) / n

    dll_dphi = (
        _digamma(phi)
        - mu * psi_a
        - (1.0 - mu) * psi_b
        + mu * log_y
        + (1.0 - mu) * log_1my
    )
    grad_log_phi = float(dll_dphi.mean()) * phi
    return np.concatenate([grad_coeffs, [grad_log_phi]])


def _whiten(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means of X, the whitening matrix of the centered X (from its
    SVD, dropping null directions), and the whitened features."""
    col_mean = X.mean(axis=0)
    centered = X - col_mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)  # (0, 0) with no columns
    keep = svals > (svals[0] * 1e-10 if svals.size and svals[0] > 0 else math.inf)
    whiten = vt[keep].T * (math.sqrt(len(X)) / svals[keep])
    return col_mean, whiten, centered @ whiten


def fit_beta_regression(
    features: np.ndarray,
    targets: Sequence[float],
    dimension: str = "value",
    max_iter: int = 500,
    tol: float = 1e-6,
    *,
    _whitened: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> VadModel:
    """Maximum-likelihood beta regression with a logit mean link.

    Optimized by gradient ascent with backtracking line search over the
    coefficient vector and log precision.  Internally the feature columns
    are centered and whitened (an exact reparametrization, undone before
    returning), which keeps plain gradient ascent fast even on strongly
    correlated features.  Converges when the working-space gradient
    max-norm drops below `tol`; log phi is capped above so zero-residual
    targets, whose likelihood is unbounded in phi, still terminate.
    Raises if the iteration limit is hit first.  `_whitened` is
    `_whiten(features)` when the caller fits one matrix several times.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    y = np.clip(np.asarray(targets, dtype=np.float64), _TARGET_EPS, 1.0 - _TARGET_EPS)
    n, d = X.shape
    if y.shape != (n,):
        raise ValueError("targets must parallel feature rows")
    if n < d + 2:
        raise ValueError(f"need at least {d + 2} rows to fit {d} features, got {n}")

    col_mean, whiten, Z = _whiten(X) if _whitened is None else _whitened

    mean_y = float(y.mean())
    var_y = float(y.var()) + 1e-8
    phi0 = max(mean_y * (1.0 - mean_y) / var_y - 1.0, 1.0)
    params = np.zeros(Z.shape[1] + 2, dtype=np.float64)
    params[0] = math.log(mean_y / (1.0 - mean_y))
    params[-1] = min(math.log(phi0), _LOG_PHI_MAX)

    data = _beta_data(Z, y)
    ll = _log_likelihood(params, *data)
    history = [ll]
    step = 1.0
    converged = False
    grad_norm = math.inf
    prev_params: np.ndarray | None = None
    prev_grad: np.ndarray | None = None
    it = 0
    for it in range(1, max_iter + 1):
        grad = _log_likelihood_grad(params, *data)
        if params[-1] >= _LOG_PHI_MAX and grad[-1] > 0:
            grad[-1] = 0.0  # projected: the cap is active
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < tol:
            converged = True
            break

        # Barzilai-Borwein initial step, safeguarded by Armijo backtracking;
        # gradient-only, and the accepted-likelihood path stays monotone
        if prev_params is not None:
            s = params - prev_params
            delta_g = prev_grad - grad
            sy = float(s @ delta_g)
            if sy > 0:
                step = float(s @ s) / sy
            else:
                step = step * 2.0
        else:
            step = step * 2.0
        step = float(min(max(step, 1e-12), 1e8))
        prev_params, prev_grad = params.copy(), grad.copy()

        gsq = float(grad @ grad)
        accepted = False
        while step > 1e-20:
            trial = params + step * grad
            trial[-1] = min(trial[-1], _LOG_PHI_MAX)
            trial_ll = _log_likelihood(trial, *data)
            if np.isfinite(trial_ll) and trial_ll >= ll + 1e-4 * step * gsq:
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
    slopes = whiten @ params[1:-1]
    intercept = params[0] - float(col_mean @ slopes)
    return VadModel(
        dimension=dimension,
        coefficients=np.concatenate([[intercept], slopes]),
        precision=float(math.exp(params[-1])),
        ll_history=history,
        n_iter=it,
    )


def predict_beta(model: VadModel, feature: Sequence[float]) -> float:
    """Inverse-logit prediction, clamped strictly inside (0, 1)."""
    f = np.asarray(feature, dtype=np.float64)
    if f.shape != (len(model.coefficients) - 1,):
        raise ValueError(
            f"feature dimension {f.shape} does not match model ({len(model.coefficients) - 1})"
        )
    eta = float(model.coefficients[0] + model.coefficients[1:] @ f)
    return float(np.clip(_sigmoid(eta), _PREDICT_EPS, 1.0 - _PREDICT_EPS))


def train_vad_models(
    space: EmbeddingSpace, vad: Mapping[str, tuple[float, float, float]]
) -> dict[str, VadModel]:
    """Fit the three affect models on embeddings of in-vocabulary words of
    `vad` (see `load_vad_lexicon`)."""
    words = sorted(w for w in vad if w in space)
    if not words:
        raise ValueError("no VAD lexicon word is in the embedding vocabulary")
    X = space.vectors[[space.vocab[w] for w in words]].astype(np.float64)
    whitened = _whiten(X)  # once for the three fits
    return {
        dim: fit_beta_regression(X, np.array([vad[w][i] for w in words]), dimension=dim,
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
    table = np.array([scores[c] for c in counts.idiom_counts], dtype=np.float64).reshape(-1, 3)
    repeats = np.array([per_group[group] for per_group in counts.idiom_counts.values()],
                       dtype=np.intp)
    return tuple(
        UsageSeries(dimension=dim, group=group, values=np.repeat(table[:, i], repeats))
        for i, dim in enumerate(DIMENSIONS)
    )  # type: ignore[return-value]


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
                mean_a=float(sa.values.mean()),
                mean_b=float(sb.values.mean()),
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

    Candidate posts of `counts` (from `count_usages`) contain no idiom match
    and at least one token `sentence_embedding` embeds; sampling is
    deterministic given the seed, and only the sampled posts are embedded.
    """
    matched = set(counts.span_posts.tolist())
    rng = Pcg64(seed)
    out: dict[str, tuple[UsageSeries, UsageSeries, UsageSeries]] = {}
    for group in counts.groups:
        candidates = [
            post.tokens for i, post in enumerate(counts.posts)
            if post.group == group and i not in matched and _embedded_rows(space, post.tokens)
        ]
        if len(candidates) < n:
            raise ValueError(
                f"group {group!r} has only {len(candidates)} idiom-free embeddable posts, "
                f"need {n}"
            )
        chosen = [sentence_embedding(space, candidates[i])
                  for i in rng.choice(len(candidates), n)]
        preds = {
            dim: np.array([predict_beta(models[dim], vec) for vec in chosen])
            for dim in DIMENSIONS
        }
        out[group] = tuple(
            UsageSeries(dimension=dim, group=group, values=preds[dim]) for dim in DIMENSIONS
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
