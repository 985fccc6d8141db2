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
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from . import _kernels
from ._kernels import _pairwise_sum, address
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
    baseline_samples: dict[str, array]
    n_splits: int
    p_value: float  # smoothed empirical: (exceedances + 1) / (pooled + 1)
    z: float        # normal fit to the pooled baseline


def _normalized(raw: array, what: str) -> array:
    """`raw` divided by its total, which `_pairwise_sum` takes as numpy's
    ``raw.sum()`` does."""
    total = _pairwise_sum(raw, 0, len(raw))
    # a nan or infinite weight makes the total nan or infinite
    if not math.isfinite(total) or (raw and min(raw) < 0):
        raise ValueError(f"{what} must be finite and nonnegative")
    if total <= 0:
        raise ValueError(f"{what} has zero idiom usage")
    return array("d", [x / total for x in raw])


def jsd(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen-Shannon divergence in base 2 of two weight vectors, 0*log(0) := 0.

    `p` and `q` are one-dimensional, of one length, finite and nonnegative,
    each with a positive total; each is divided by its total first, as
    scipy's ``jensenshannon`` does.  The sum runs in `_kernels.c`, in index
    order, the arithmetic that `divergence_gap_test`'s baseline uses.  Each
    term is ``a * log2(2a / (a + b))``, not ``a * log2(a / m)`` with the
    mixture ``m = (a + b) / 2``: halving the smallest subnormal underflows
    to 0, and ``a / m`` would then be infinite.
    """
    try:
        p, q = array("d", p), array("d", q)
    except TypeError:  # an item that is not a number: a row of a matrix
        p = q = None
    if p is None or len(p) != len(q):
        raise ValueError("p and q must be one-dimensional and of equal length")
    p, q = _normalized(p, "p"), _normalized(q, "q")
    return _kernels.load().jsd(address(p), address(q), len(p))


def split_baseline(
    token_counts: Sequence[int], starts: Sequence[int], idioms: Sequence[int],
    units: Sequence[int], n_support: int, n_splits: int, rng: _kernels.Pcg64,
) -> array:
    """The JSD of each of `n_splits` greedy half splits of the posts `units`.

    Post p has ``token_counts[p]`` tokens and the idioms
    ``idioms[starts[p]:starts[p + 1]]``, each below `n_support`, as in
    `GroupCounts`' ``span_starts`` and ``span_idioms``.  Split s takes the
    next ``rng.permutation(len(units))`` and assigns the units in its
    order, each to whichever half has fewer (tokens, units) so far, ties
    going to the first, so the two halves' token totals end near equal.
    Its value is `jsd` of the two halves' idiom counts.  One call of the C
    kernel makes every split, drawing from `rng` as the permutations would;
    it walks with an int64 key, whose range bounds the token counts.
    """
    units, starts, idioms = (array("q", a) for a in (units, starts, idioms))
    if len(units) < 2:
        raise ValueError("fewer than 2 posts to split")
    # the kernel reads each unit's token count and its run of idioms
    if not 0 <= min(units) <= max(units) < len(token_counts):
        raise ValueError(f"units must index the {len(token_counts)} token counts")
    if (len(starts) != len(token_counts) + 1 or starts[0] != 0 or starts[-1] != len(idioms)
            or any(b < a for a, b in zip(starts, starts[1:]))):
        raise ValueError("starts must run from 0 to len(idioms), one per post and one more")
    if (2 * len(units) + 1) * (sum(abs(int(token_counts[u])) for u in units) + 1) >= 2**63:
        raise ValueError("token counts too large to split")
    tokens = array("q", token_counts)
    if idioms and not 0 <= min(idioms) <= max(idioms) < n_support:
        raise ValueError(f"span idioms must lie in 0..{n_support - 1}")
    out = array("d", [0.0]) * n_splits
    status = _kernels.load().split_baseline(
        address(tokens), address(starts), address(idioms), address(units), len(units),
        n_support, n_splits, rng.state, address(out))
    if status < 0:
        raise MemoryError("split kernel: no memory for its scratch counts")
    if status > 0:
        split, half = divmod(status - 1, 2)
        raise ValueError(f"split {split}: {'pq'[half]} has zero idiom usage")
    return out


def divergence_gap_test(counts: GroupCounts, n_splits: int, seed: int) -> DivergenceResult:
    """Compare the cross-group usage divergence with within-group baselines.

    Over the posts of `counts` (from `count_usages`), the JSD of the two
    groups' ``idiom_counts`` is contrasted against `n_splits` random
    half-half splits of each group's posts, one `split_baseline` call per
    group over the corpus-wide span runs.  Group k of ``counts.groups``
    draws its splits from ``Pcg64(seed, (k,))``, the seed's k-th spawned
    child.  The reported p-value is the smoothed fraction of pooled baseline
    samples at least as large as the observed value; z is measured against
    a normal fit to the pooled baseline.
    """
    if n_splits < 2:
        raise ValueError("n_splits must be >= 2")
    ga, gb = counts.groups
    total = {g: [per_group[g] for per_group in counts.idiom_counts.values()] for g in (ga, gb)}
    for g in (ga, gb):
        if sum(total[g]) == 0:
            raise ValueError(f"group {g!r} has zero idiom usage")
    cross = jsd(total[ga], total[gb])

    lengths = [post.token_count for post in counts.posts]
    samples: dict[str, array] = {}
    for k, g in enumerate((ga, gb)):
        members = [i for i, post in enumerate(counts.posts) if post.group == g]
        rng = _kernels.Pcg64(seed, (k,))
        try:
            samples[g] = split_baseline(lengths, counts.span_starts, counts.span_idioms,
                                        members, len(counts.idiom_counts), n_splits, rng)
        except ValueError as exc:  # a half without idiom usage, or too few posts
            raise ValueError(f"group {g!r}, {exc}") from None

    pooled = samples[ga] + samples[gb]
    exceed = sum(value >= cross for value in pooled)
    p_value = (exceed + 1) / (len(pooled) + 1)
    center, std = _mean_std(pooled)
    if std > 0:
        z = (cross - center) / std
    else:
        z = 0.0 if cross == center else math.copysign(math.inf, cross - center)
    moments = {g: _mean_std(samples[g]) for g in (ga, gb)}
    return DivergenceResult(
        cross_jsd=cross,
        baseline_mean={g: moments[g][0] for g in (ga, gb)},
        baseline_std={g: moments[g][1] for g in (ga, gb)},
        baseline_max={g: max(samples[g]) for g in (ga, gb)},
        baseline_samples=samples,
        n_splits=n_splits,
        p_value=p_value,
        z=z,
    )


def _mean_std(values: array) -> tuple[float, float]:
    """numpy's ``values.mean()`` and ``values.std(ddof=1)`` of n >= 2 values:
    the pairwise sum over n, then the root of the pairwise sum of squared
    deviations over n - 1."""
    n = len(values)
    center = _pairwise_sum(values, 0, n) / n
    squares = array("d", ((v - center) * (v - center) for v in values))
    return center, math.sqrt(_pairwise_sum(squares, 0, n) / (n - 1))


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


def _floats(values: Iterable[float], what: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except TypeError:  # an item that is not a number: a row of a matrix
        raise ValueError(f"{what} must be one-dimensional") from None


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of `values`, each run of ties taking its mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in order[i : j + 1]:
            ranks[k] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> TestResult:
    """Spearman rank correlation with average ranks for ties.

    p-value by the t approximation with n-2 degrees of freedom.
    """
    xa = _floats(x, "series")
    ya = _floats(y, "series")
    if len(xa) != len(ya):
        raise ValueError("series must be one-dimensional and of equal length")
    n = len(xa)
    if n < 3:
        raise ValueError("need at least 3 observations")
    if xa.count(xa[0]) == n or ya.count(ya[0]) == n:
        raise ValueError("constant series have no rank correlation")

    # the ranks centered on (n + 1) / 2 are multiples of 1/2, so every sum
    # below is exact in any order
    center = 0.5 * (n + 1)
    rx = [r - center for r in _average_ranks(xa)]
    ry = [r - center for r in _average_ranks(ya)]
    rho = math.fsum(map(float.__mul__, rx, ry)) / math.sqrt(
        math.fsum(r * r for r in rx) * math.fsum(r * r for r in ry))
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
    xa = _floats(x, "samples")
    ya = _floats(y, "samples")
    if not xa or not ya:
        raise ValueError("both samples must be nonempty")
    if method not in ("auto", "exact", "normal"):
        raise ValueError(f"unknown method {method!r}")
    nx, ny = len(xa), len(ya)
    n = nx + ny
    pooled = xa + ya
    ranks = _average_ranks(pooled)
    w = math.fsum(ranks[:nx])
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
        tie_term = sum(t**3 - t for t in Counter(pooled).values()) / (n * (n - 1))
        var = nx * ny / 12.0 * ((n + 1) - tie_term)
        if var <= 0:
            p = 1.0
        else:
            z = max(0.0, abs(w - mu) - 0.5) / math.sqrt(var)
            p = min(1.0, 2.0 * _normal_sf(z))
    return TestResult(statistic=w, p_value=float(p), n_a=nx, n_b=ny)


def mean(values: Sequence[float]) -> float:
    """The mean of nonempty `values`, from their correctly rounded sum."""
    return math.fsum(values) / len(values)


def cohens_d(x: Sequence[float], y: Sequence[float]) -> float:
    """Standardized mean difference with the pooled (n-1) standard deviation."""
    xa = _floats(x, "samples")
    ya = _floats(y, "samples")
    if len(xa) < 2 or len(ya) < 2:
        raise ValueError("both samples need at least 2 observations")
    mx, my = mean(xa), mean(ya)
    squares = math.fsum((v - mx) * (v - mx) for v in xa) + math.fsum((v - my) * (v - my) for v in ya)
    pooled_var = squares / (len(xa) + len(ya) - 2)
    if pooled_var <= 0:
        raise ValueError("zero pooled standard deviation")
    return (mx - my) / math.sqrt(pooled_var)


def sim_rbo(list_a: Sequence[str], list_b: Sequence[str], depth: int) -> float:
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
    x: array
    density: array
    bandwidth: float


def _sorted_quantile(ordered: Sequence[float], q: float) -> float:
    """numpy's default ("linear") quantile of n >= 2 sorted values, for 0 <= q < 1:
    the virtual index ``(n - 1) * q`` and a lerp between its two
    neighbours, taken from the upper one when the weight is >= 0.5."""
    index = (len(ordered) - 1) * q
    lo = math.floor(index)
    a, b, t = float(ordered[lo]), float(ordered[lo + 1]), index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def kde(values: Sequence[float], bandwidth: float | None = None) -> KdeCurve:
    """Gaussian kernel density estimate on 256 grid points.

    The default bandwidth is Silverman's rule of thumb,
    0.9 * min(sd, IQR/1.34) * n^(-1/5); the grid spans the data range
    extended by three bandwidths on each side, spaced as ``np.linspace``
    spaces it.  The values, an explicit bandwidth and both grid ends must be
    finite.  The sum runs in `_kernels.c` over the sorted values, one term
    per run of equal values.
    """
    data = sorted(_floats(values, "values"))
    n = len(data)
    if n < 2:
        raise ValueError("need at least 2 values")
    if not all(map(math.isfinite, data)):
        raise ValueError("values must be finite")
    if bandwidth is None:
        try:
            center = mean(data)
            sd = math.sqrt(math.fsum((v - center) * (v - center) for v in data) / (n - 1))
        except OverflowError:  # a sum past float64's range; the grid check rejects it
            sd = math.inf
        iqr = _sorted_quantile(data, 0.75) - _sorted_quantile(data, 0.25)
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        if spread <= 0:
            raise ValueError("zero variance; pass an explicit bandwidth")
        bandwidth = 0.9 * spread * n ** (-0.2)
    elif not math.isfinite(bandwidth) or bandwidth <= 0:
        raise ValueError("bandwidth must be positive and finite")

    h = float(bandwidth)
    lo, hi = data[0] - 3 * h, data[-1] + 3 * h
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid ends {lo} and {hi} are not finite")
    step = (hi - lo) / 255
    grid = array("d", [i * step + lo for i in range(255)] + [hi])
    density = array("d", [0.0]) * len(grid)
    sorted_data = array("d", data)
    _kernels.load().kde(address(sorted_data), n, address(grid), len(grid), h,
                        1.0 / (n * h * math.sqrt(2.0 * math.pi)), address(density))
    return KdeCurve(x=grid, density=density, bandwidth=h)
