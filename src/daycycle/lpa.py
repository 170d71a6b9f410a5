"""Latent profile analysis: multivariate Gaussian mixtures fit by EM with
multiple random starts, model-selection statistics, the bootstrap likelihood
ratio test, and classification diagnostics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

STRUCTURES = (
    "equal-var-zero-cov",
    "equal-var-free-cov",
    "free-var-zero-cov",
    "free-var-free-cov",
)

VARIANCE_FLOOR = 1e-6
ARTIFACT_VERSION = 1


class LpaError(ValueError):
    pass


class ConvergenceError(LpaError):
    pass


def param_count(K: int, d: int, structure: str) -> int:
    """Free parameters: K*d means, K-1 weights, covariance by structure."""
    if structure == "equal-var-zero-cov":
        cov = d
    elif structure == "equal-var-free-cov":
        cov = d * (d + 1) // 2
    elif structure == "free-var-zero-cov":
        cov = K * d
    elif structure == "free-var-free-cov":
        cov = K * d * (d + 1) // 2
    else:
        raise LpaError(f"unknown covariance structure {structure!r}")
    return K * d + (K - 1) + cov


@dataclass
class MixtureModel:
    weights: np.ndarray  # K
    means: np.ndarray  # K x d
    covs: np.ndarray  # K x d x d (constrained per structure)
    structure: str
    loglik: float
    n: int
    labels: tuple[str, ...]
    order_indicator: int = 0
    n_iter: int = 0
    converged: bool = True
    n_starts: int = 1
    n_replicated: int = 1
    n_degenerate_starts: int = 0

    @property
    def K(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def n_params(self) -> int:
        return param_count(self.K, self.d, self.structure)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        classes = rng.choice(self.K, size=n, p=self.weights)
        out = np.empty((n, self.d))
        for k in range(self.K):
            idx = np.flatnonzero(classes == k)
            if idx.size:
                out[idx] = rng.multivariate_normal(
                    self.means[k], self.covs[k], size=idx.size)
        return out

    def to_json(self) -> str:
        payload = {
            "format_version": ARTIFACT_VERSION,
            "structure": self.structure,
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
            "loglik": self.loglik,
            "n": self.n,
            "labels": list(self.labels),
            "order_indicator": self.order_indicator,
            "n_iter": self.n_iter,
            "converged": self.converged,
            "n_starts": self.n_starts,
            "n_replicated": self.n_replicated,
            "n_degenerate_starts": self.n_degenerate_starts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MixtureModel":
        data = json.loads(text)
        if data.get("format_version") != ARTIFACT_VERSION:
            raise LpaError("unsupported model artifact version")
        return cls(
            weights=np.array(data["weights"]),
            means=np.array(data["means"]),
            covs=np.array(data["covs"]),
            structure=data["structure"],
            loglik=data["loglik"],
            n=data["n"],
            labels=tuple(data["labels"]),
            order_indicator=data["order_indicator"],
            n_iter=data["n_iter"],
            converged=data["converged"],
            n_starts=data["n_starts"],
            n_replicated=data["n_replicated"],
            n_degenerate_starts=data["n_degenerate_starts"],
        )


@dataclass(frozen=True)
class FitStats:
    aic: float
    bic: float
    caic: float
    sabic: float
    icl_bic: float
    entropy: float


def _log_gauss(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    L = np.linalg.cholesky(cov)
    centered = X - mean
    sol = solve_triangular(L, centered.T, lower=True)
    maha = np.sum(sol**2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (d * math.log(2 * math.pi) + logdet + maha)


def _floor_cov(cov: np.ndarray) -> np.ndarray:
    """Clamp covariance eigenvalues at the variance floor."""
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] >= VARIANCE_FLOOR:
        return cov
    vals = np.maximum(vals, VARIANCE_FLOOR)
    return (vecs * vals) @ vecs.T


def _mstep(X: np.ndarray, resp: np.ndarray, structure: str
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, d = X.shape
    K = resp.shape[1]
    nk = resp.sum(axis=0)
    if np.any(nk < 1e-8):
        raise ConvergenceError("component weight collapsed")
    weights = nk / n
    means = (resp.T @ X) / nk[:, None]
    scatter = np.empty((K, d, d))
    for k in range(K):
        centered = X - means[k]
        scatter[k] = (centered * resp[:, k:k + 1]).T @ centered
    if structure == "free-var-free-cov":
        covs = scatter / nk[:, None, None]
    elif structure == "free-var-zero-cov":
        covs = np.zeros((K, d, d))
        for k in range(K):
            covs[k] = np.diag(np.diag(scatter[k]) / nk[k])
    elif structure == "equal-var-free-cov":
        pooled = scatter.sum(axis=0) / n
        covs = np.broadcast_to(pooled, (K, d, d)).copy()
    elif structure == "equal-var-zero-cov":
        pooled = np.diag(np.diag(scatter.sum(axis=0)) / n)
        covs = np.broadcast_to(pooled, (K, d, d)).copy()
    else:
        raise LpaError(f"unknown covariance structure {structure!r}")
    for k in range(K):
        covs[k] = _floor_cov(covs[k])
    return weights, means, covs


def _log_resp(X: np.ndarray, weights: np.ndarray, means: np.ndarray,
              covs: np.ndarray) -> tuple[np.ndarray, float]:
    K = len(weights)
    logp = np.empty((X.shape[0], K))
    for k in range(K):
        logp[:, k] = math.log(weights[k]) + _log_gauss(X, means[k], covs[k])
    norm = logsumexp(logp, axis=1)
    return logp - norm[:, None], float(norm.sum())


def _em_once(X: np.ndarray, K: int, structure: str,
             rng: np.random.Generator, max_iter: int, tol: float
             ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int, bool]:
    n, d = X.shape
    # Random-point start: K distinct observations as means, pooled spread as
    # the common covariance.  (Random soft responsibilities put every
    # component at the grand mean, a symmetric saddle EM can stall on.)
    means = X[rng.choice(n, size=K, replace=False)].copy()
    pooled = np.atleast_2d(np.cov(X, rowvar=False, ddof=0))
    if "zero-cov" in structure:
        pooled = np.diag(np.diag(pooled))
    pooled = _floor_cov(pooled)
    covs = np.tile(pooled, (K, 1, 1))
    weights = np.full(K, 1.0 / K)
    prev = -np.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        logr, ll = _log_resp(X, weights, means, covs)
        if ll < prev - 1e-8 * max(1.0, abs(prev)):
            raise ConvergenceError("log-likelihood decreased")
        if prev > -np.inf and abs(ll - prev) <= tol * max(1.0, abs(prev)):
            converged = True
            prev = ll
            break
        prev = ll
        weights, means, covs = _mstep(X, np.exp(logr), structure)
    return prev, weights, means, covs, it, converged


def fit_mixture(data: np.ndarray, K: int, structure: str = "free-var-free-cov",
                starts: int = 160, max_iter: int = 250, tol: float = 1e-8,
                seed: int = 0, labels: tuple[str, ...] | None = None,
                order_indicator: int = 0
                ) -> tuple[MixtureModel, np.ndarray]:
    """Best-of-``starts`` EM fit; returns the model and its posterior matrix.

    Each start takes K distinct random observations as its means (drawn
    from seed + start index, so runs are reproducible and starts are
    independent) and the pooled covariance for every component.  Components
    are relabeled in ascending order of the ordering indicator's mean.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, d = X.shape
    if K < 1 or starts < 1:
        raise LpaError("K and starts must be at least 1")
    p = param_count(K, d, structure)
    if n <= p:
        raise LpaError(f"need N > {p} free parameters; got N={n}")
    if labels is None:
        labels = tuple(f"ind{j}" for j in range(d))

    results = []
    n_degenerate = 0
    for s in range(starts):
        rng = np.random.default_rng(seed + s)
        try:
            results.append(_em_once(X, K, structure, rng, max_iter, tol))
        except (ConvergenceError, np.linalg.LinAlgError):
            n_degenerate += 1
    if not results:
        raise ConvergenceError("all EM starts failed")
    best = max(results, key=lambda r: r[0])
    ll, weights, means, covs, n_iter, converged = best
    n_replicated = sum(1 for r in results if abs(r[0] - ll) <= 1e-4)

    order = np.argsort(means[:, order_indicator], kind="stable")
    model = MixtureModel(
        weights=weights[order], means=means[order], covs=covs[order],
        structure=structure, loglik=ll, n=n, labels=labels,
        order_indicator=order_indicator, n_iter=n_iter, converged=converged,
        n_starts=starts, n_replicated=n_replicated,
        n_degenerate_starts=n_degenerate,
    )
    return model, posterior(model, X)


def posterior(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Bayes-rule class probabilities; rows sum to one."""
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    logr, _ = _log_resp(X, model.weights, model.means, model.covs)
    return np.exp(logr)


def modal_assignment(posteriors: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the lower class index."""
    return np.argmax(posteriors, axis=1)


def classification_entropy(posteriors: np.ndarray) -> float:
    p = np.clip(posteriors, 1e-300, 1.0)
    return float(-(posteriors * np.log(p)).sum())


def fit_stats(model: MixtureModel, posteriors: np.ndarray) -> FitStats:
    """Information criteria and the normalized entropy statistic."""
    ll, p, n = model.loglik, model.n_params, model.n
    aic = -2 * ll + 2 * p
    bic = -2 * ll + p * math.log(n)
    caic = -2 * ll + p * (math.log(n) + 1)
    sabic = -2 * ll + p * math.log((n + 2) / 24.0)
    en = classification_entropy(posteriors)
    icl_bic = bic + 2 * en
    if model.K == 1:
        entropy = 1.0
    else:
        entropy = 1.0 - en / (n * math.log(model.K))
    return FitStats(aic, bic, caic, sabic, icl_bic, entropy)


def classification_error_matrix(posteriors: np.ndarray,
                                assignments: np.ndarray) -> np.ndarray:
    """D[k, j]: probability a member of latent class k is assigned class j."""
    n, K = posteriors.shape
    mass = posteriors.sum(axis=0)
    if np.any(mass < 1e-10):
        raise LpaError("a latent class has (near) zero posterior mass")
    D = np.zeros((K, K))
    for j in range(K):
        sel = assignments == j
        D[:, j] = posteriors[sel].sum(axis=0) / mass
    return D


def blrt(data: np.ndarray, K: int, structure: str = "free-var-free-cov",
         n_boot: int = 500, starts: int = 20, starts_boot: int = 20,
         max_iter: int = 250, tol: float = 1e-8, seed: int = 0,
         max_failure_fraction: float = 0.2) -> dict:
    """Parametric bootstrap likelihood ratio test of K-1 vs K components.

    Simulates from the fitted K-1 model, refits both models on each
    replicate, and compares the observed LR statistic against the bootstrap
    distribution: p = (1 + #{boot >= observed}) / (n_boot + 1).
    """
    if K < 2:
        raise LpaError("BLRT compares K-1 vs K; need K >= 2")
    if n_boot < 19:
        raise LpaError("need at least 19 bootstrap replicates")
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    null_model, _ = fit_mixture(X, K - 1, structure, starts=starts,
                                max_iter=max_iter, tol=tol, seed=seed)
    alt_model, _ = fit_mixture(X, K, structure, starts=starts,
                               max_iter=max_iter, tol=tol, seed=seed)
    observed = 2.0 * (alt_model.loglik - null_model.loglik)
    rng = np.random.default_rng(seed + 10_000)
    boot_stats = []
    failures = 0
    for b in range(n_boot):
        Xb = null_model.sample(X.shape[0], rng)
        bseed = seed + 20_000 + b * starts_boot
        try:
            m0, _ = fit_mixture(Xb, K - 1, structure, starts=starts_boot,
                                max_iter=max_iter, tol=tol, seed=bseed)
            m1, _ = fit_mixture(Xb, K, structure, starts=starts_boot,
                                max_iter=max_iter, tol=tol, seed=bseed)
            boot_stats.append(2.0 * (m1.loglik - m0.loglik))
        except LpaError:
            failures += 1
    if failures > max_failure_fraction * n_boot:
        raise ConvergenceError(
            f"{failures}/{n_boot} bootstrap refits failed")
    boot_stats = np.asarray(boot_stats)
    n_used = boot_stats.size
    p = (1 + int((boot_stats >= observed).sum())) / (n_used + 1)
    return {
        "statistic": observed,
        "p_value": p,
        "n_boot_used": n_used,
        "n_boot_failed": failures,
    }


def derived_sleep_stats(model: MixtureModel) -> dict:
    """Per-profile mean, SD, and correlations of the remainder behavior.

    For a model fit on proportions of all behaviors but one, the dropped
    behavior is one minus the sum, so its moments follow from the fitted
    means and covariances.
    """
    out = {"mean": [], "sd": [], "corr": []}
    for k in range(model.K):
        mu = model.means[k]
        cov = model.covs[k]
        mean_rem = 1.0 - mu.sum()
        var_rem = float(cov.sum())
        sd_rem = math.sqrt(var_rem)
        cov_rem = -cov.sum(axis=0)
        corr = cov_rem / (sd_rem * np.sqrt(np.diag(cov)))
        out["mean"].append(mean_rem)
        out["sd"].append(sd_rem)
        out["corr"].append(corr.tolist())
    return out


@dataclass(frozen=True)
class SelectionRow:
    K: int
    loglik: float
    stats: FitStats
    n_min: int
    n_min_pct: float
    n_replicated: int
    blrt_p: float | None = None


def selection_table(data: np.ndarray, k_range: range | list[int],
                    structure: str = "free-var-free-cov", starts: int = 160,
                    max_iter: int = 250, seed: int = 0,
                    labels: tuple[str, ...] | None = None,
                    run_blrt: bool = False, n_boot: int = 100,
                    starts_boot: int = 10) -> tuple[list[SelectionRow], dict]:
    """Fit a series of class counts and tabulate selection statistics.

    Returns the rows plus a dict of fitted models keyed by K.
    """
    rows = []
    models = {}
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    for K in k_range:
        model, post = fit_mixture(X, K, structure, starts=starts,
                                  max_iter=max_iter, seed=seed, labels=labels)
        assign = modal_assignment(post)
        sizes = np.bincount(assign, minlength=K)
        stats = fit_stats(model, post)
        blrt_p = None
        if run_blrt and K >= 2:
            blrt_p = blrt(X, K, structure, n_boot=n_boot, starts=starts,
                          starts_boot=starts_boot, max_iter=max_iter,
                          seed=seed)["p_value"]
        rows.append(SelectionRow(
            K=K, loglik=model.loglik, stats=stats,
            n_min=int(sizes.min()),
            n_min_pct=round(100.0 * sizes.min() / model.n, 1),
            n_replicated=model.n_replicated, blrt_p=blrt_p,
        ))
        models[K] = (model, post)
    return rows, models
