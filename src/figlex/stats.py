"""Closed-form statistics for contrasting two groups' idiom usage.

Contents: Jensen-Shannon divergence (base 2, so values live in [0, 1])
of idiom usage with a random-split baseline test; log-odds ratio
with an informative Dirichlet prior and the derived per-idiom association
scores; Spearman rank correlation; Wilcoxon rank-sum with exact
enumeration at small sizes; Cohen's d; rank-weighted prefix overlap of
ranked lists, applied to idioms' neighbor lists across two embedding
spaces; and Gaussian kernel density estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .embeddings import EmbeddingSpace, nearest_neighbors
from .lexicon import Lexicon, idiom_token
from .matcher import GroupCounts


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n_a: int
    n_b: int


@dataclass
class DivergenceResult:
    """Cross-group divergence against within-group random-split baselines."""

    cross_jsd: float
    baseline_mean: dict[str, float]
    baseline_std: dict[str, float]
    baseline_max: dict[str, float]
    baseline_samples: dict[str, np.ndarray]
    n_splits: int
    p_value: float  # smoothed empirical: (exceedances + 1) / (pooled + 1)
    z: float        # normal fit to the pooled baseline


def _normalized(raw: np.ndarray, what: str) -> np.ndarray:
    raw = raw.astype(np.float64)
    total = float(raw.sum())
    # a nan or infinite weight makes the total nan or infinite
    if not math.isfinite(total) or (raw.size and raw.min() < 0):
        raise ValueError(f"{what} must be finite and nonnegative")
    if total <= 0:
        raise ValueError(f"{what} has zero idiom usage")
    return raw / total


def jsd(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in base 2 of two weight vectors, 0*log(0) := 0.

    `p` and `q` are one-dimensional, of one length, finite and nonnegative,
    each with a positive total; each is divided by its total first, as
    scipy's ``jensenshannon`` does.  The sum runs in `_kernels.c`, in index
    order, the arithmetic that `divergence_gap_test`'s baseline uses.  Each
    term is ``a * log2(2a / (a + b))``, not ``a * log2(a / m)`` with the
    mixture ``m = (a + b) / 2``: halving the smallest subnormal underflows
    to 0, and ``a / m`` would then be infinite.
    """
    p, q = np.asarray(p), np.asarray(q)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError("p and q must be one-dimensional and of equal length")
    p, q = _normalized(p, "p"), _normalized(q, "q")
    return _kernels.load().jsd(p.ctypes.data, q.ctypes.data, p.size)


def split_baseline(
    token_counts: Sequence[int], span_units: np.ndarray, span_idioms: np.ndarray,
    n_support: int, n_splits: int, rng: _kernels.Pcg64,
) -> np.ndarray:
    """The JSD of each of `n_splits` greedy half splits of units 0..n-1.

    Unit u has ``token_counts[u]`` tokens, and span k puts idiom
    ``span_idioms[k]`` (below `n_support`) in unit ``span_units[k]``.  Split
    s takes the next ``rng.permutation(n)`` and assigns the units in its
    order, each to whichever half has fewer (tokens, units) so far, ties
    going to the first, so the two halves' token totals end near equal.
    Its value is `jsd` of the two halves' idiom counts.  One call of the C
    kernel makes every split, drawing from `rng` as the permutations would;
    it walks with an int64 key, whose range bounds the token counts.
    """
    n = len(token_counts)
    if n < 2:
        raise ValueError("fewer than 2 posts to split")
    scale = 2 * n + 1
    if scale * (sum(abs(int(t)) for t in token_counts) + 1) >= 2**63:
        raise ValueError("token counts too large to split")
    tokens = np.asarray(token_counts, dtype=np.int64)
    # each unit's idioms as one run: starts[u] .. starts[u + 1] in `idioms`
    by_unit = np.argsort(span_units, kind="stable")
    idioms = np.asarray(span_idioms, dtype=np.int64)[by_unit]
    if idioms.size and not 0 <= idioms.min() <= idioms.max() < n_support:
        raise ValueError(f"span idioms must lie in 0..{n_support - 1}")
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(span_units, minlength=n), out=starts[1:])
    out = np.empty(n_splits, dtype=np.float64)
    status = _kernels.load().split_baseline(
        tokens.ctypes.data, n, starts.ctypes.data, idioms.ctypes.data, n_support, n_splits,
        rng.state, out.ctypes.data)
    if status < 0:
        raise MemoryError("split kernel: no memory for its scratch counts")
    if status > 0:
        split, half = divmod(status - 1, 2)
        raise ValueError(f"split {split}: {'pq'[half]} has zero idiom usage")
    return out


def divergence_gap_test(
    counts: GroupCounts, n_splits: int = 500, seed: int = 0
) -> DivergenceResult:
    """Compare the cross-group usage divergence with within-group baselines.

    Over the posts of `counts` (from `count_usages`), the JSD of the two
    groups' idiom counts is contrasted against `n_splits` random half-half
    splits of each group's posts (`split_baseline`).  Group k of
    ``counts.groups`` draws its splits from ``Pcg64(seed, (k,))``, the
    seed's k-th spawned child.  The reported p-value is the smoothed
    fraction of pooled baseline samples at least as large as the observed
    value; z is measured against a normal fit to the pooled baseline.
    """
    if n_splits < 2:
        raise ValueError("n_splits must be >= 2")
    ga, gb = counts.groups
    n_support = len(counts.idiom_counts)
    spans, total = {}, {}
    span_posts = np.frombuffer(counts.span_posts, dtype=np.int64)
    span_idioms = np.frombuffer(counts.span_idioms, dtype=np.int64)
    for g in (ga, gb):
        members = np.flatnonzero([p.group == g for p in counts.posts])
        in_group = np.isin(span_posts, members)
        idioms = span_idioms[in_group]
        total[g] = np.bincount(idioms, minlength=n_support)
        if total[g].sum() == 0:
            raise ValueError(f"group {g!r} has zero idiom usage")
        # each span's post as a position among the group's members
        spans[g] = (members, np.searchsorted(members, span_posts[in_group]), idioms)
    cross = jsd(total[ga], total[gb])

    samples: dict[str, np.ndarray] = {}
    for k, g in enumerate((ga, gb)):
        members, span_members, idioms = spans[g]
        lengths = [counts.posts[i].token_count for i in members]
        rng = _kernels.Pcg64(seed, (k,))
        try:
            samples[g] = split_baseline(lengths, span_members, idioms, n_support, n_splits, rng)
        except ValueError as exc:  # a half without idiom usage, or too few posts
            raise ValueError(f"group {g!r}, {exc}") from None

    pooled = np.concatenate([samples[ga], samples[gb]])
    exceed = int(np.sum(pooled >= cross))
    p_value = (exceed + 1) / (pooled.size + 1)
    mean, std = float(pooled.mean()), float(pooled.std(ddof=1))
    if std > 0:
        z = (cross - mean) / std
    else:
        z = 0.0 if cross == mean else math.copysign(math.inf, cross - mean)
    return DivergenceResult(
        cross_jsd=cross,
        baseline_mean={g: float(samples[g].mean()) for g in (ga, gb)},
        baseline_std={g: float(samples[g].std(ddof=1)) for g in (ga, gb)},
        baseline_max={g: float(samples[g].max()) for g in (ga, gb)},
        baseline_samples=samples,
        n_splits=n_splits,
        p_value=float(p_value),
        z=float(z),
    )


@dataclass(frozen=True)
class GScore:
    """One token's group-association score; positive favors corpus a."""

    delta: float
    sigma: float
    z: float


def log_odds_dirichlet(
    counts_a: Mapping[str, int],
    counts_b: Mapping[str, int],
    prior: Mapping[str, float],
) -> dict[str, GScore]:
    """Log-odds ratio of two corpora with an informative Dirichlet prior.

    Returns token -> GScore, in sorted token order, for every scored token
    w (the union of the three key sets):

        delta_w = ln((y_w^a + a_w) / (n^a + a_0 - y_w^a - a_w))
                - ln((y_w^b + a_w) / (n^b + a_0 - y_w^b - a_w))
        sigma_w^2 = 1/(y_w^a + a_w) + 1/(y_w^b + a_w)
        z_w = delta_w / sigma_w

    Natural log; swapping the corpora negates delta and z exactly.
    """
    tokens = sorted(set(counts_a) | set(counts_b) | set(prior))
    for t in tokens:
        if prior.get(t, 0) <= 0:
            raise ValueError(f"prior must be strictly positive for every token; {t!r} is not")
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    a0 = float(sum(prior.values()))

    records: dict[str, GScore] = {}
    for t in tokens:
        ya = counts_a.get(t, 0)
        yb = counts_b.get(t, 0)
        aw = float(prior[t])
        rest_a = n_a + a0 - ya - aw
        rest_b = n_b + a0 - yb - aw
        if rest_a <= 0 or rest_b <= 0:
            raise ValueError(
                f"token {t!r} carries all the mass of a corpus; log-odds undefined"
            )
        delta = math.log((ya + aw) / rest_a) - math.log((yb + aw) / rest_b)
        sigma = math.sqrt(1.0 / (ya + aw) + 1.0 / (yb + aw))
        records[t] = GScore(delta=delta, sigma=sigma, z=delta / sigma)
    return records


def idiom_scores(
    lexicon: Lexicon, table: Mapping[str, GScore]
) -> list[tuple[str, float | None, float | None, float | None]]:
    """One row per idiom, sorted by canonical: (canonical, the z of its idiom
    token, the mean z of its surface words, the mean z of its definition
    words).  A mean is over the unique words that `table` scores; a score
    is None when `table` lacks its token, or every one of its words."""

    def mean_z(words: Sequence[str]) -> float | None:
        scored = [table[w].z for w in dict.fromkeys(words) if w in table]
        return float(sum(scored) / len(scored)) if scored else None

    rows = []
    for canonical, entry in sorted(lexicon.entries.items()):
        record = table.get(idiom_token(canonical))
        rows.append((canonical, None if record is None else record.z,
                     mean_z(entry.canonical), mean_z(entry.definition)))
    return rows


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation with average ranks for ties.

    p-value by the t approximation with n-2 degrees of freedom.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("series must be one-dimensional and of equal length")
    n = len(xa)
    if n < 3:
        raise ValueError("need at least 3 observations")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise ValueError("constant series have no rank correlation")

    rx = _average_ranks(xa)
    ry = _average_ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    rho = float(np.dot(rx, ry) / math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry))))
    rho = min(1.0, max(-1.0, rho))
    if abs(rho) == 1.0:
        p = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = _t_two_sided_p(t, n - 2)
    return TestResult(statistic=rho, p_value=min(p, 1.0), n_a=n, n_b=n)


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's T with `df` > 0 degrees of freedom.

    This is the regularized incomplete beta function I_x(df/2, 1/2) at
    x = df / (df + t^2).  Its continued fraction converges fast for
    x < (a + 1) / (a + b + 2); above that, I_x(a, b) = 1 - I_y(b, a) with
    y = 1 - x (Numerical Recipes, 3rd ed., 6.4).  y is computed as
    t^2 / (df + t^2), not rounded as 1 - x.
    """
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)
    if y == 0.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        # even step, then odd step of the fraction
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) >= tiny else tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at a={a}, b={b}")


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_ranksum(
    x: Sequence[float], y: Sequence[float], method: str = "auto"
) -> TestResult:
    """Two-sided rank-sum test with average ranks for ties.

    The statistic is the rank sum of `x`.  When the pooled size is at most
    12 (or method="exact"), the p-value is computed by exhaustive
    enumeration of rank assignments; otherwise by the normal approximation
    with tie and continuity corrections.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size == 0 or ya.size == 0:
        raise ValueError("both samples must be nonempty")
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    nx, ny = int(xa.size), int(ya.size)
    n = nx + ny
    pooled = np.concatenate([xa, ya])
    ranks = _average_ranks(pooled)
    w = float(ranks[:nx].sum())
    mu = nx * (n + 1) / 2.0

    use_exact = method == "exact" or (method == "auto" and n <= 12)
    if use_exact:
        d = abs(w - mu)
        count = 0
        total = 0
        for combo in combinations(ranks, nx):
            total += 1
            if abs(sum(combo) - mu) >= d - 1e-9:
                count += 1
        p = count / total
    else:
        _, tie_counts = np.unique(pooled, return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
        var = nx * ny / 12.0 * ((n + 1) - tie_term)
        if var <= 0:
            p = 1.0
        else:
            z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var)
            p = min(1.0, 2.0 * _normal_sf(z))
    return TestResult(statistic=w, p_value=float(p), n_a=nx, n_b=ny)


def cohens_d(x: Sequence[float], y: Sequence[float]) -> float:
    """Standardized mean difference with the pooled (n-1) standard deviation."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size < 2 or ya.size < 2:
        raise ValueError("both samples need at least 2 observations")
    nx, ny = xa.size, ya.size
    pooled_var = ((nx - 1) * xa.var(ddof=1) + (ny - 1) * ya.var(ddof=1)) / (nx + ny - 2)
    if pooled_var <= 0:
        raise ValueError("zero pooled standard deviation")
    return float((xa.mean() - ya.mean()) / math.sqrt(pooled_var))


def sim_rbo(list_a: Sequence[str], list_b: Sequence[str], depth: int = 100) -> float:
    """Rank-weighted overlap of two ranked lists.

    Mean over k = 1..depth of |prefix_k(a) n prefix_k(b)| / k, so agreement
    near the top weighs more than agreement further down.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if len(list_a) < depth or len(list_b) < depth:
        raise ValueError(f"both lists must have at least depth={depth} entries")
    if len(set(list_a[:depth])) != depth or len(set(list_b[:depth])) != depth:
        raise ValueError("list entries must be unique")

    seen_a: set[str] = set()
    seen_b: set[str] = set()
    overlap = 0
    acc = 0.0
    for k in range(depth):
        a, b = list_a[k], list_b[k]
        if a == b:
            overlap += 1
        else:
            if a in seen_b:
                overlap += 1
            if b in seen_a:
                overlap += 1
            seen_a.add(a)
            seen_b.add(b)
        acc += overlap / (k + 1)
    return acc / depth


@dataclass(frozen=True)
class NeighborhoodOverlap:
    """An idiom's ranked neighbors in two groups' spaces and their overlap."""

    canonical: str
    simrbo: float
    neighbors: dict[str, list[tuple[str, float]]]  # group -> (token, cosine), ranked


def neighborhood_overlap(
    spaces: Mapping[str, EmbeddingSpace], canonicals: Iterable[str], depth: int
) -> list[NeighborhoodOverlap]:
    """`sim_rbo` of each idiom's `depth` nearest neighbors in two spaces.

    `spaces` maps two group labels to their spaces, the first group's list
    being `sim_rbo`'s first argument.  An idiom is skipped when its token is
    missing from either space, or when a space holds fewer than ``depth + 1``
    tokens (the anchor and its neighbors).  Rows follow `canonicals`.
    """
    (group_a, space_a), (group_b, space_b) = spaces.items()
    rows = []
    for canonical in canonicals:
        tok = idiom_token(canonical)
        if any(tok not in s or len(s.vocab) - 1 < depth for s in (space_a, space_b)):
            continue
        ranked_a = nearest_neighbors(space_a, tok, depth)
        ranked_b = nearest_neighbors(space_b, tok, depth)
        score = sim_rbo([t for t, _ in ranked_a], [t for t, _ in ranked_b], depth)
        rows.append(NeighborhoodOverlap(canonical, score, {group_a: ranked_a, group_b: ranked_b}))
    return rows


@dataclass
class KdeCurve:
    x: np.ndarray
    density: np.ndarray
    bandwidth: float


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """numpy's default ("linear") quantile of n >= 2 sorted values, for 0 <= q < 1.

    The same arithmetic as ``np.quantile``, which imports ``numpy.ma`` on
    its first call: the virtual index ``(n - 1) * q`` and a lerp between its
    two neighbours, taken from the upper one when the weight is >= 0.5.
    """
    index = (ordered.size - 1) * q
    lo = math.floor(index)
    a, b, t = float(ordered[lo]), float(ordered[lo + 1]), index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def kde(values: Sequence[float], bandwidth: float | None = None) -> KdeCurve:
    """Gaussian kernel density estimate on 256 grid points.

    The default bandwidth is Silverman's rule of thumb,
    0.9 * min(sd, IQR/1.34) * n^(-1/5); the grid spans the data range
    extended by three bandwidths on each side.  The values, an explicit
    bandwidth and both grid ends must be finite.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1 or data.size < 2:
        raise ValueError("need at least 2 values")
    if not np.isfinite(data).all():
        raise ValueError("values must be finite")
    n = data.size
    if bandwidth is None:
        sd = float(data.std(ddof=1))
        ordered = np.sort(data)
        iqr = _sorted_quantile(ordered, 0.75) - _sorted_quantile(ordered, 0.25)
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        if spread <= 0:
            raise ValueError("zero variance; pass an explicit bandwidth")
        bandwidth = 0.9 * spread * n ** (-0.2)
    elif not math.isfinite(bandwidth) or bandwidth <= 0:
        raise ValueError("bandwidth must be positive and finite")

    h = float(bandwidth)
    lo, hi = float(data.min()) - 3 * h, float(data.max()) + 3 * h
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid ends {lo} and {hi} are not finite")
    grid = np.linspace(lo, hi, 256)
    density = np.zeros_like(grid)
    norm = 1.0 / (n * h * math.sqrt(2.0 * math.pi))
    # 32 grid points by 4096 values at a time, so each temporary is 1 MB;
    # a grid point's sum over a chunk does not depend on the other rows
    for row in range(0, grid.size, 32):
        points = grid[row : row + 32, None]
        for start in range(0, n, 4096):
            zsq = ((points - data[None, start : start + 4096]) / h) ** 2
            density[row : row + 32] += np.exp(-0.5 * zsq).sum(axis=1)
    return KdeCurve(x=grid, density=density * norm, bandwidth=h)
