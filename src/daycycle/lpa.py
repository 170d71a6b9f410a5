"""Latent profile analysis: multivariate Gaussian mixtures fit by EM with
multiple random starts, model-selection statistics, the bootstrap likelihood
ratio test, and classification diagnostics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

STRUCTURES = (
    "equal-var-zero-cov",
    "equal-var-free-cov",
    "free-var-zero-cov",
    "free-var-free-cov",
)

VARIANCE_FLOOR = 1e-6
ARTIFACT_VERSION = 1
MIN_BLRT_BOOT = 19  # the fewest replicates whose p-value can reach 0.05


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
        """Read an artifact written by ``to_json``; a missing or ill-typed
        field raises ``LpaError`` naming it, and so do weights that are not
        positive or do not sum to 1 and covariances that are not positive
        definite."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise LpaError(f"model artifact is not JSON: {exc}") from None
        if not isinstance(data, dict) \
                or data.get("format_version") != ARTIFACT_VERSION:
            raise LpaError("unsupported model artifact version")

        def entry(name, kind):
            if name not in data:
                raise LpaError(f"model artifact lacks {name!r}")
            value = data[name]
            # bool is an int subclass; only "converged" may be one
            if not isinstance(value, kind) or (
                    isinstance(value, bool) and kind is not bool):
                raise LpaError(f"model artifact field {name!r} is ill-typed")
            return value

        def array(name, ndim):
            value = entry(name, list)
            try:
                out = np.array(value)
            except ValueError:  # ragged nesting
                out = None
            if (out is None or out.ndim != ndim or out.dtype.kind not in "iuf"
                    or not np.isfinite(out).all()):
                raise LpaError(f"model artifact field {name!r} is not a "
                               f"{ndim}-d array of numbers")
            return out.astype(float)

        weights, means, covs = (array("weights", 1), array("means", 2),
                                array("covs", 3))
        labels = entry("labels", list)
        K, d = means.shape
        if (weights.shape != (K,) or covs.shape != (K, d, d)
                or len(labels) != d
                or not all(isinstance(lab, str) for lab in labels)):
            raise LpaError("model artifact weights, means, covs and labels "
                           "do not agree in shape")
        if (weights <= 0).any() or abs(weights.sum() - 1.0) > 1e-9:
            raise LpaError("model artifact weights must be positive and sum "
                           "to 1")
        try:
            np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            raise LpaError("model artifact covariances are not positive "
                           "definite") from None
        structure = entry("structure", str)
        if structure not in STRUCTURES:
            raise LpaError(f"unknown covariance structure {structure!r}")
        return cls(
            weights=weights, means=means, covs=covs, structure=structure,
            loglik=float(entry("loglik", (int, float))),
            n=entry("n", int),
            labels=tuple(labels),
            order_indicator=entry("order_indicator", int),
            n_iter=entry("n_iter", int),
            converged=entry("converged", bool),
            n_starts=entry("n_starts", int),
            n_replicated=entry("n_replicated", int),
            n_degenerate_starts=entry("n_degenerate_starts", int),
        )


@dataclass(frozen=True)
class FitStats:
    aic: float
    bic: float
    caic: float
    sabic: float
    icl_bic: float
    entropy: float


# Starts run in blocks of at most this many start x component x row
# elements (but at least one start), so a block's (S, K, d, N) work arrays do
# not grow with the number of starts.  Larger blocks were no faster on an
# N=1000, K=6 fit and raised peak memory.  Results do not depend on the
# block size.
_BLOCK_ELEMENTS = 1 << 14


def _by_start(fn, mats: np.ndarray):
    """``fn`` (a stacked LAPACK routine) over per-start matrices in one call.

    LAPACK fails the whole stack when one matrix fails, so on failure each
    start is tried alone; the failing starts get identity matrices instead
    and are flagged in the returned mask.
    """
    failed = np.zeros(len(mats), dtype=bool)
    try:
        return fn(mats), failed
    except np.linalg.LinAlgError:
        pass
    for s in range(len(mats)):
        try:
            fn(mats[s])
        except np.linalg.LinAlgError:
            failed[s] = True
    mats = mats.copy()
    mats[failed] = np.eye(mats.shape[-1])
    return fn(mats), failed


def _floor_covs(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize per-start covariances (S, ..., d, d) and clamp their
    eigenvalues at the variance floor; also returns the starts whose
    eigendecomposition failed."""
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    (vals, vecs), failed = _by_start(np.linalg.eigh, covs)
    low = vals[..., 0] < VARIANCE_FLOOR
    if low.any():
        v = vecs[low]
        covs[low] = (v * np.maximum(vals[low], VARIANCE_FLOOR)[..., None, :]
                     ) @ np.swapaxes(v, -1, -2)
    return covs, failed


def _estep(XT: np.ndarray, weights: np.ndarray, means: np.ndarray,
           chol: np.ndarray, z: np.ndarray | None = None,
           logp: np.ndarray | None = None, tmp: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Log responsibilities (S, K, N) and log-likelihoods (S,) of S mixtures
    given the Cholesky factors (S, K, d, d) of their covariances.

    ``XT`` is the transposed data, (d, N) for all mixtures or (S, 1, d, N)
    for one data set each.  ``z`` (S, K, d, N) and ``tmp`` (S, K, N) are work
    arrays, and the log responsibilities are written into ``logp``; each is
    allocated when not given.
    """
    d = chol.shape[-1]
    prec = np.linalg.inv(chol)
    z = np.matmul(prec, XT, out=z)
    z -= prec @ means[..., None]
    np.square(z, out=z)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    logp = np.sum(z, axis=-2, out=logp)
    logp *= -0.5
    logp += (np.log(weights) - 0.5 * (d * math.log(2 * math.pi) + logdet)
             )[..., None]
    top = logp.max(axis=1, keepdims=True)
    tmp = np.exp(np.subtract(logp, top, out=tmp), out=tmp)
    norm = top + np.log(tmp.sum(axis=1, keepdims=True))
    logp -= norm
    return logp, norm[:, 0].sum(axis=-1)


def _mstep_batch(X: np.ndarray, XT: np.ndarray, resp: np.ndarray,
                 nk: np.ndarray, structure: str,
                 centered: np.ndarray | None = None,
                 weighted: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means and floored covariances of S mixtures from their
    responsibilities (S, K, N) and component masses ``nk`` (S, K); also
    returns the starts whose covariance floor failed.

    ``X`` is the data (N, d) and ``XT`` its transpose (d, N), or one of each
    per mixture, (S, N, d) and (S, 1, d, N).  ``centered`` and ``weighted``
    are (S, K, d, N) work arrays, allocated when not given.
    """
    n, d = X.shape[-2:]
    S, K = nk.shape
    weights = nk / n
    means = (resp @ X) / nk[..., None]
    centered = np.subtract(XT, means[..., None], out=centered)
    weighted = np.multiply(centered, resp[:, :, None, :], out=weighted)
    scatter = weighted @ np.swapaxes(centered, -1, -2)
    if structure == "free-var-free-cov":
        covs = scatter / nk[..., None, None]
    elif structure == "free-var-zero-cov":
        covs = (np.diagonal(scatter, axis1=-2, axis2=-1) / nk[..., None]
                )[..., None] * np.eye(d)
    elif structure == "equal-var-free-cov":
        covs = scatter.sum(axis=1) / n
    elif structure == "equal-var-zero-cov":
        covs = (np.diagonal(scatter.sum(axis=1), axis1=-2, axis2=-1) / n
                )[..., None] * np.eye(d)
    else:
        raise LpaError(f"unknown covariance structure {structure!r}")
    covs, failed = _floor_covs(covs)
    if structure.startswith("equal"):
        covs = np.broadcast_to(covs[:, None], (S, K, d, d)).copy()
    return weights, means, covs, failed


def _mstep(X: np.ndarray, resp: np.ndarray, structure: str
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One start's M-step from its N x K responsibilities."""
    resp = resp.T[None]
    nk = resp.sum(axis=-1)
    if np.any(nk < 1e-8):
        raise ConvergenceError("component weight collapsed")
    weights, means, covs, failed = _mstep_batch(
        X, np.ascontiguousarray(X.T), resp, nk, structure)
    if failed[0]:
        raise np.linalg.LinAlgError("covariance eigendecomposition failed")
    return weights[0], means[0], covs[0]


def _log_resp(X: np.ndarray, weights: np.ndarray, means: np.ndarray,
              covs: np.ndarray) -> tuple[np.ndarray, float]:
    """One mixture's N x K log responsibilities and its log-likelihood."""
    chol = np.linalg.cholesky(covs)
    logr, ll = _estep(np.ascontiguousarray(X.T), weights[None], means[None],
                      chol[None])
    return logr[0].T, float(ll[0])


def _em_block(Xs: np.ndarray, sets: np.ndarray, pooled: np.ndarray, K: int,
              structure: str, seeds: list[int], max_iter: int, tol: float):
    """EM from one random-point start per seed, all starts as one batch.

    Start j runs on the data set ``Xs[sets[j]]`` of the stack ``Xs``
    (B, N, d) from seed ``seeds[j]``, with the pooled covariance
    ``pooled[sets[j]]`` as its initial covariances.  With B = 1 every start
    reads the one data set in place.

    Returns per start: log-likelihood, weights, means, covariances,
    iteration count, converged flag, and a degenerate flag.  A start is
    degenerate when its covariance is not positive definite, its
    log-likelihood decreases (beyond relative slack 1e-8) or is not finite,
    or a component weight collapses; the other starts go on.  A start
    leaves the batch when it converges; at ``max_iter`` the last E-step's
    log-likelihood and the last M-step's parameters are returned.
    """
    B, n, d = Xs.shape
    S = len(seeds)
    ll_out = np.full(S, -np.inf)
    w_out = np.empty((S, K))
    m_out = np.empty((S, K, d))
    c_out = np.empty((S, K, d, d))
    it_out = np.zeros(S, dtype=int)
    conv_out = np.zeros(S, dtype=bool)
    degenerate = np.ones(S, dtype=bool)

    def record(j, ll, weights, means, covs, it, converged):
        ll_out[j], w_out[j], m_out[j], c_out[j] = ll, weights, means, covs
        it_out[j], conv_out[j], degenerate[j] = it, converged, False

    # Random-point start: K distinct observations as means, pooled spread as
    # the common covariance.  (Random soft responsibilities put every
    # component at the grand mean, a symmetric saddle EM can stall on.)
    means = np.stack([Xs[b][np.random.default_rng(s).choice(n, size=K,
                                                             replace=False)]
                      for b, s in zip(sets, seeds)])
    covs = np.repeat(pooled[sets][:, None], K, axis=1)
    weights = np.full((S, K), 1.0 / K)
    shared = B == 1
    if shared:
        X = Xs[0]
        XT = np.ascontiguousarray(X.T)
    else:
        X = Xs[sets]
        # a copy even where the transpose is contiguous (d = 1): both
        # arrays are compacted
        XT = np.swapaxes(X, 1, 2).copy()[:, None]
    # Work arrays, allocated once: the starts still running fill their
    # leading rows, in the order of ``idx``.
    work = np.empty((2, S, K, d, n))
    logp = np.empty((S, K, n))
    resp = np.empty((S, K, n))

    def compact(keep, *arrays):
        """Move the rows of the kept starts to the front of the per-start
        arrays; returns how many starts are kept."""
        m = int(keep.sum())
        for a in (arrays if shared else (*arrays, X, XT)):
            a[:m] = a[:keep.size][keep]
        return m

    prev = np.full(S, -np.inf)
    idx = np.arange(S)  # start of each running row
    m = S
    for it in range(1, max_iter + 1):
        Xm, XTm = (X, XT) if shared else (X[:m], XT[:m])
        chol, bad = _by_start(np.linalg.cholesky, covs)
        _, ll = _estep(XTm, weights, means, chol, work[0, :m], logp[:m],
                       resp[:m])
        # prev is -inf before a start's first E-step, which gets no slack
        # (0 * inf would warn at tol=0) and no convergence test
        started = prev > -np.inf
        ref = np.where(started, prev, 0.0)
        slack = np.maximum(1.0, np.abs(ref))
        bad |= ~np.isfinite(ll) | (ll < prev - 1e-8 * slack)
        done = ~bad & started & (np.abs(ll - ref) <= tol * slack)
        go = ~(bad | done)
        if not go.all():
            record(idx[done], ll[done], weights[done], means[done],
                   covs[done], it, True)
            idx, ll = idx[go], ll[go]
            m = compact(go, logp)
        prev = ll
        np.exp(logp[:m], out=resp[:m])
        nk = resp[:m].sum(axis=-1)
        ok = ~np.any(nk < 1e-8, axis=1)
        if not ok.all():
            idx, prev, nk = idx[ok], prev[ok], nk[ok]
            m = compact(ok, resp)
        Xm, XTm = (X, XT) if shared else (X[:m], XT[:m])
        weights, means, covs, bad = _mstep_batch(
            Xm, XTm, resp[:m], nk, structure, work[0, :m], work[1, :m])
        if bad.any():
            ok = ~bad
            idx, prev = idx[ok], prev[ok]
            weights, means, covs = weights[ok], means[ok], covs[ok]
            m = compact(ok)
        if not m:
            break
    record(idx, prev, weights, means, covs, max_iter, False)
    return ll_out, w_out, m_out, c_out, it_out, conv_out, degenerate


def _pooled_covs(Xs: np.ndarray, structure: str
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The pooled covariance (B, d, d) of each data set of the stack ``Xs``
    (B, N, d), diagonal for the zero-covariance structures and floored; also
    returns the sets whose floor failed."""
    pooled = np.stack([np.atleast_2d(np.cov(X, rowvar=False, ddof=0))
                       for X in Xs])
    if "zero-cov" in structure:
        pooled = np.stack([np.diag(np.diag(c)) for c in pooled])
    return _floor_covs(pooled)


def _em_starts(Xs: np.ndarray, sets: np.ndarray, pooled: np.ndarray, K: int,
               structure: str, starts: int, max_iter: int, tol: float,
               seed: int):
    """``starts`` EM starts on each data set ``Xs[b]``, b in ``sets``, run by
    ``_em_block`` in blocks of bounded size.  Start s of set b has seed
    ``seed + b * starts + s``.  Returns ``_em_block``'s per-start arrays,
    set by set."""
    rep = np.repeat(sets, starts)
    seeds = [seed + b * starts + s for b in sets.tolist()
             for s in range(starts)]
    block = max(1, _BLOCK_ELEMENTS // (K * Xs.shape[1]))
    parts = [_em_block(Xs, rep[i:i + block], pooled, K, structure,
                       seeds[i:i + block], max_iter, tol)
             for i in range(0, len(seeds), block)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _check_fit(n: int, d: int, K: int, structure: str, starts: int,
               max_iter: int) -> None:
    if min(K, starts, max_iter) < 1:
        raise LpaError("K, starts and max_iter must be at least 1")
    p = param_count(K, d, structure)
    if n <= p:
        raise LpaError(f"need N > {p} free parameters; got N={n}")


def fit_mixture(data: np.ndarray, K: int, structure: str = "free-var-free-cov",
                starts: int = 160, max_iter: int = 250, tol: float = 1e-8,
                seed: int = 0, labels: tuple[str, ...] | None = None,
                order_indicator: int = 0
                ) -> tuple[MixtureModel, np.ndarray]:
    """Best-of-``starts`` EM fit; returns the model and its posterior matrix.

    Each start takes K distinct random observations as its means (drawn
    from seed + start index, so runs are reproducible and starts are
    independent) and the pooled covariance for every component.  The starts
    run as one batched EM, in blocks of bounded size; each keeps its own
    convergence test and degenerate-start checks.  Components are relabeled
    in ascending order of the ordering indicator's mean.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, d = X.shape
    _check_fit(n, d, K, structure, starts, max_iter)
    if labels is None:
        labels = tuple(f"ind{j}" for j in range(d))

    pooled, failed = _pooled_covs(X[None], structure)
    if failed[0]:
        raise ConvergenceError("all EM starts failed")
    ll, weights, means, covs, n_iter, converged, degenerate = _em_starts(
        X[None], np.zeros(1, dtype=int), pooled, K, structure, starts,
        max_iter, tol, seed)
    if degenerate.all():
        raise ConvergenceError("all EM starts failed")
    kept = np.flatnonzero(~degenerate)
    best = kept[np.argmax(ll[kept])]
    n_replicated = int(np.sum(np.abs(ll[kept] - ll[best]) <= 1e-4))

    order = np.argsort(means[best][:, order_indicator], kind="stable")
    model = MixtureModel(
        weights=weights[best][order], means=means[best][order],
        covs=covs[best][order], structure=structure, loglik=float(ll[best]),
        n=n, labels=labels, order_indicator=order_indicator,
        n_iter=int(n_iter[best]), converged=bool(converged[best]),
        n_starts=starts, n_replicated=n_replicated,
        n_degenerate_starts=int(degenerate.sum()),
    )
    return model, posterior(model, X)


def posterior(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Bayes-rule class probabilities; rows sum to one."""
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != model.d:
        raise LpaError(f"data have {X.shape[1]} indicators; the model has "
                       f"{model.d} ({', '.join(model.labels)})")
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
         max_failure_fraction: float = 0.2,
         null_model: MixtureModel | None = None,
         alt_model: MixtureModel | None = None) -> dict:
    """Parametric bootstrap likelihood ratio test of K-1 vs K components.

    Simulates ``n_boot`` replicates from the fitted K-1 model, refits both
    models on each replicate, and compares the observed LR statistic against
    the bootstrap distribution: p = (1 + #{boot >= observed}) / (n_used + 1)
    over the replicates that did not fail.  The K-1 and K models of ``data``
    are fit here with ``starts`` and ``seed`` unless already-fitted ones are
    passed as ``null_model``/``alt_model``.

    All replicates are drawn first, from ``default_rng(seed + 10_000)``.
    Then the K-1 refits of every replicate run as one batched EM, and the K
    refits as another; start s of replicate b has seed
    ``seed + 20_000 + b * starts_boot + s`` in both, and each replicate's
    statistic uses the best non-degenerate start of each order.  A replicate
    fails when the variance floor of its pooled covariance fails, or when
    all its K-1 starts or all its K starts are degenerate; more than
    ``max_failure_fraction`` of ``n_boot`` failing raises
    ``ConvergenceError``.
    """
    if K < 2:
        raise LpaError("BLRT compares K-1 vs K; need K >= 2")
    if n_boot < MIN_BLRT_BOOT:
        raise LpaError(f"need at least {MIN_BLRT_BOOT} bootstrap replicates")
    X = np.asarray(data, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n, d = X.shape
    _check_fit(n, d, K, structure, starts_boot, max_iter)
    for model, k in ((null_model, K - 1), (alt_model, K)):
        if model is not None and (model.K, model.structure) != (k, structure):
            raise LpaError(f"BLRT needs a {structure} model with K={k}")
    if null_model is None:
        null_model, _ = fit_mixture(X, K - 1, structure, starts=starts,
                                    max_iter=max_iter, tol=tol, seed=seed)
    if alt_model is None:
        alt_model, _ = fit_mixture(X, K, structure, starts=starts,
                                   max_iter=max_iter, tol=tol, seed=seed)
    observed = 2.0 * (alt_model.loglik - null_model.loglik)
    rng = np.random.default_rng(seed + 10_000)
    Xs = np.stack([null_model.sample(n, rng) for _ in range(n_boot)])
    pooled, failed = _pooled_covs(Xs, structure)
    best = np.zeros((2, n_boot))  # best log-likelihood at K-1 and at K
    for row, k in enumerate((K - 1, K)):
        sets = np.flatnonzero(~failed)
        if not sets.size:
            break
        ll, *_, degenerate = _em_starts(Xs, sets, pooled, k, structure,
                                        starts_boot, max_iter, tol,
                                        seed + 20_000)
        degenerate = degenerate.reshape(sets.size, starts_boot)
        best[row, sets] = np.where(degenerate, -np.inf,
                                   ll.reshape(degenerate.shape)).max(axis=1)
        failed[sets] = degenerate.all(axis=1)
    failures = int(failed.sum())
    if failures > max_failure_fraction * n_boot:
        raise ConvergenceError(
            f"{failures}/{n_boot} bootstrap refits failed")
    boot_stats = 2.0 * (best[1] - best[0])[~failed]
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
    converged: bool
    n_iter: int
    n_degenerate_starts: int
    blrt_p: float | None = None
    blrt_n_boot_failed: int | None = None


def selection_table(data: np.ndarray, k_range: range | list[int],
                    structure: str = "free-var-free-cov", starts: int = 160,
                    max_iter: int = 250, seed: int = 0,
                    labels: tuple[str, ...] | None = None,
                    run_blrt: bool = False, n_boot: int = 100,
                    starts_boot: int = 10) -> tuple[list[SelectionRow], dict]:
    """Fit a series of class counts and tabulate selection statistics.

    Returns the rows plus a dict of fitted models keyed by K.  The BLRT of
    K-1 vs K reuses the table's K fit, and its K-1 fit when the table has
    one; a row records its p-value and how many of its replicates failed.
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
        test = {}
        if run_blrt and K >= 2:
            null = models.get(K - 1, (None,))[0]
            test = blrt(X, K, structure, n_boot=n_boot, starts=starts,
                        starts_boot=starts_boot, max_iter=max_iter,
                        seed=seed, null_model=null, alt_model=model)
        rows.append(SelectionRow(
            K=K, loglik=model.loglik, stats=stats,
            n_min=int(sizes.min()),
            n_min_pct=round(100.0 * sizes.min() / model.n, 1),
            n_replicated=model.n_replicated, converged=model.converged,
            n_iter=model.n_iter,
            n_degenerate_starts=model.n_degenerate_starts,
            blrt_p=test.get("p_value"),
            blrt_n_boot_failed=test.get("n_boot_failed"),
        ))
        models[K] = (model, post)
    return rows, models
