"""numpy versions of the float64 stages that `_kernels.c` now runs: the
beta regression with SVD whitening, the kernel density estimate and the
nearest-neighbour ranking, as figlex computed them before it ran `analyze`
without numpy.  Tests check the ports against them; nothing under `src/`
imports this module."""

import math

import numpy as np

_TARGET_EPS = 1e-4
_LOG_PHI_MAX = math.log(1e8)

_LGAMMA_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _horner(r2, coeffs):
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * r2 + c
    return acc


def _gammaln(x):
    u = x * (x + 7.0)
    prod = u * (u + 6.0) * (u + 10.0) * (u + 12.0)
    z = x + 8.0
    r = 1.0 / z
    return ((z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
            + r * _horner(r * r, _LGAMMA_SERIES) - np.log(prod))


def _digamma(x):
    u = x * (x + 7.0)
    acc = (2.0 * x + 7.0) * (1.0 / u + 1.0 / (u + 6.0) + 1.0 / (u + 10.0) + 1.0 / (u + 12.0))
    z = x + 8.0
    r2 = 1.0 / (z * z)
    return np.log(z) - 0.5 / z - r2 * _horner(r2, _DIGAMMA_SERIES) - acc


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


def _mean_and_shapes(params, design):
    phi = math.exp(params[-1])
    mu = np.clip(_sigmoid(design @ params[:-1]), 1e-12, 1.0 - 1e-12)
    return phi, mu, np.concatenate((mu, 1.0 - mu)) * phi


def _log_likelihood(params, design, log_y, log_1my):
    phi, mu, shapes = _mean_and_shapes(params, design)
    n = len(mu)
    lg = _gammaln(shapes)
    ll = (math.lgamma(phi) - lg[:n] - lg[n:] + (shapes[:n] - 1.0) * log_y
          + (shapes[n:] - 1.0) * log_1my)
    return float(ll.mean())


def _log_likelihood_grad(params, design, log_y, log_1my):
    phi, mu, shapes = _mean_and_shapes(params, design)
    n = len(mu)
    psi = _digamma(shapes)
    psi_a, psi_b = psi[:n], psi[n:]
    dll_dmu = phi * ((log_y - log_1my) - psi_a + psi_b)
    grad_coeffs = design.T @ (dll_dmu * mu * (1.0 - mu)) / n
    dll_dphi = (_digamma(phi) - mu * psi_a - (1.0 - mu) * psi_b + mu * log_y
                + (1.0 - mu) * log_1my)
    return np.concatenate([grad_coeffs, [float(dll_dphi.mean()) * phi]])


def _whiten(X):
    """Column means, the whitening matrix of the centered X from its SVD
    (singular values below 1e-10 of the largest dropped), and the whitened
    features."""
    col_mean = X.mean(axis=0)
    centered = X - col_mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    keep = svals > (svals[0] * 1e-10 if svals.size and svals[0] > 0 else math.inf)
    whiten = vt[keep].T * (math.sqrt(len(X)) / svals[keep])
    return col_mean, whiten, centered @ whiten


def fit_beta_regression(features, targets, max_iter=500, tol=1e-6):
    """(coefficients, precision, n_iter) of the numpy fit."""
    X = np.asarray(features, dtype=np.float64)
    y = np.clip(np.asarray(targets, dtype=np.float64), _TARGET_EPS, 1.0 - _TARGET_EPS)
    col_mean, whiten, Z = _whiten(X)
    mean_y = float(y.mean())
    var_y = float(y.var()) + 1e-8
    phi0 = max(mean_y * (1.0 - mean_y) / var_y - 1.0, 1.0)
    params = np.zeros(Z.shape[1] + 2)
    params[0] = math.log(mean_y / (1.0 - mean_y))
    params[-1] = min(math.log(phi0), _LOG_PHI_MAX)
    data = (np.hstack([np.ones((len(Z), 1)), Z]), np.log(y), np.log(1.0 - y))
    ll = _log_likelihood(params, *data)
    step = 1.0
    prev_params = prev_grad = None
    for it in range(1, max_iter + 1):
        grad = _log_likelihood_grad(params, *data)
        if params[-1] >= _LOG_PHI_MAX and grad[-1] > 0:
            grad[-1] = 0.0
        if float(np.max(np.abs(grad))) < tol:
            break
        if prev_params is not None:
            s = params - prev_params
            sy = float(s @ (prev_grad - grad))
            step = float(s @ s) / sy if sy > 0 else step * 2.0
        else:
            step = step * 2.0
        step = float(min(max(step, 1e-12), 1e8))
        prev_params, prev_grad = params.copy(), grad.copy()
        gsq = float(grad @ grad)
        while step > 1e-20:
            trial = params + step * grad
            trial[-1] = min(trial[-1], _LOG_PHI_MAX)
            trial_ll = _log_likelihood(trial, *data)
            if np.isfinite(trial_ll) and trial_ll >= ll + 1e-4 * step * gsq:
                params, ll = trial, trial_ll
                break
            step *= 0.5
        else:
            raise ValueError("line search failed")
    else:
        raise ValueError("did not converge")
    slopes = whiten @ params[1:-1]
    intercept = params[0] - float(col_mean @ slopes)
    return np.concatenate([[intercept], slopes]), math.exp(params[-1]), it


def predict(coefficients, features):
    """The fit's means at each row of `features`."""
    eta = coefficients[0] + np.asarray(features, dtype=np.float64) @ coefficients[1:]
    return np.clip(_sigmoid(eta), 1e-12, 1.0 - 1e-12)


def kde_density(values, grid, bandwidth):
    """The Gaussian kernel density of `values` at `grid`, numpy's exp summed
    in index order in blocks of 4096 values."""
    data = np.asarray(values, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    density = np.zeros_like(grid)
    for start in range(0, data.size, 4096):
        with np.errstate(over="ignore"):  # a far value's z^2 is inf, its term 0
            zsq = ((grid[:, None] - data[None, start:start + 4096]) / bandwidth) ** 2
        density += np.exp(-0.5 * zsq).sum(axis=1)
    return density / (data.size * bandwidth * math.sqrt(2.0 * math.pi))


def nearest_neighbors(space, token, k):
    """The top-k (token, cosine) pairs by numpy's norms and matrix product."""
    if k <= 0:
        return []
    mat = np.frombuffer(space.data, dtype=np.float32).reshape(len(space.vocab), space.dim)
    mat = mat.astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    anchor = space.vocab[token]
    sims = mat @ (mat[anchor] / norms[anchor])
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(norms > 0, sims / np.where(norms > 0, norms, 1.0), -2.0)
    sims = np.clip(sims, -2.0, 1.0)
    tokens = space.tokens
    ranked = sorted(((tokens[i], float(sims[i])) for i in range(len(tokens)) if i != anchor),
                    key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]
