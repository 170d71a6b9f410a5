"""Latent profile analysis: multivariate Gaussian mixtures fit by EM with
multiple random starts, model-selection statistics, the bootstrap likelihood
ratio test, and classification diagnostics."""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import combinations_with_replacement, islice

import numpy as np

STRUCTURES = (
    "equal-var-zero-cov",
    "equal-var-free-cov",
    "free-var-zero-cov",
    "free-var-free-cov",
)

VARIANCE_FLOOR = 1e-6
EM_TOL = 1e-8  # default relative log-likelihood change that stops EM
ARTIFACT_VERSION = 1
MIN_BLRT_BOOT = 19  # the fewest replicates whose p-value can reach 0.05


class LpaError(ValueError):
    pass


class ConvergenceError(LpaError):
    pass


class WorkerError(LpaError):
    """An EM worker process ended without sending its block's result."""


def _structure(name: str) -> tuple[bool, bool]:
    """A covariance structure's two choices, ``(equal, diagonal)``: equal
    rather than class-specific variances, and zero rather than free
    covariances."""
    if name not in STRUCTURES:
        raise LpaError(f"unknown covariance structure {name!r}")
    return name.startswith("equal-var"), name.endswith("zero-cov")


def param_count(K: int, d: int, structure: str) -> int:
    """Free parameters: K*d means, K-1 weights, covariance by structure."""
    equal, diagonal = _structure(structure)
    cov = d if diagonal else d * (d + 1) // 2
    return K * d + (K - 1) + (cov if equal else K * cov)


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
        """Every field, arrays and tuples as lists, plus ``format_version``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["format_version"] = ARTIFACT_VERSION
        return json.dumps(payload, indent=2, sort_keys=True,
                          default=np.ndarray.tolist) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MixtureModel":
        """Read an artifact written by ``to_json``; a missing or ill-typed
        field raises ``LpaError`` naming it, and so do a log-likelihood or an
        array cell that is not finite, weights that are not positive or do
        not sum to 1 and covariances that are not positive definite."""
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
        _structure(structure)  # an unknown name raises LpaError
        loglik = entry("loglik", (int, float))
        # false for NaN, an infinity and an int past the float range
        if not abs(loglik) <= sys.float_info.max:
            raise LpaError("model artifact field 'loglik' is not a finite "
                           "number")
        return cls(
            weights=weights, means=means, covs=covs, structure=structure,
            loglik=float(loglik), n=entry("n", int),
            labels=tuple(labels),
            # each field with a default (order, EM health) must have its type
            **{f.name: entry(f.name, type(f.default)) for f in fields(cls)
               if f.default is not MISSING})


@dataclass(frozen=True)
class FitStats:
    aic: float
    bic: float
    caic: float
    sabic: float
    icl_bic: float
    entropy: float


# Starts run in blocks whose per-start work arrays (see ``_plan_starts``)
# total at most this many bytes per worker process, but at least one start
# per block, so a block's memory does not grow with the number of starts;
# results do not depend on the block size.  A larger block pays the
# per-iteration Python overhead once for more starts (an N=1000, K=6 block
# on three indicators holds 21).  A block's peak also holds the E-step's
# per-point maximum and sum, one row of N per start each, and a few hundred
# KiB of numpy buffers and parameter arrays; the blocks of a multi-CPU run
# are in forked workers, which the `lpa` benchmark's `peak_rss_mb` (its own
# process) does not see.  Once a start no longer held a (K, d, N) array of
# whitened distances, and the budget stopped counting one, the benchmark's
# pass took 0.100 s instead of 0.127 s (medians of 10 runs) and the largest
# worker's peak RSS (``RUSAGE_CHILDREN``, the benchmark's two `lpa` calls,
# seeds 0-2) read 30.7 MB instead of 30.5-30.6 MB (2-vCPU VM, one BLAS
# thread).
_BLOCK_BYTES = 1 << 20

# The Cholesky floor test shifts each covariance by the floor plus this
# fraction of its trace, so a stack that passes has every eigenvalue above
# the floor by more than eigh's rounding, and eigh would change nothing.
_FLOOR_MARGIN = 1e-13


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
    eigendecomposition failed.

    One Cholesky factorization of the shifted stack shows when every
    eigenvalue is clear of the floor; only when it fails are the
    eigenvalues computed and clamped.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    d = covs.shape[-1]
    shift = VARIANCE_FLOOR + _FLOOR_MARGIN * np.abs(
        np.trace(covs, axis1=-2, axis2=-1))
    try:
        np.linalg.cholesky(covs - shift[..., None, None] * np.eye(d))
        return covs, np.zeros(len(covs), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    (vals, vecs), failed = _by_start(np.linalg.eigh, covs)
    low = vals[..., 0] < VARIANCE_FLOOR
    if low.any():
        v = vecs[low]
        covs[low] = (v * np.maximum(vals[low], VARIANCE_FLOOR)[..., None, :]
                     ) @ np.swapaxes(v, -1, -2)
    return covs, failed


def _n_features(d: int) -> int:
    """Feature rows ``[1, x, x_i x_j (i <= j)]`` of d-dimensional data."""
    return 1 + d + d * (d + 1) // 2


def _pairs(d: int):
    """Feature row and index pair (i, j) of each second moment x_i x_j."""
    return enumerate(combinations_with_replacement(range(d), 2), d + 1)


def _fill_features(out: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Write the rows ``[1, x, x_i x_j (i <= j)]`` (p, N) of the data ``X``
    (N, d) centred at its mean into ``out``: the operand of the E-step's
    product and of the M-step's sufficient statistics.  Returns the mean."""
    d = X.shape[1]
    centre = X.mean(axis=0)
    out[0] = 1.0
    np.subtract(X.T, centre[:, None], out=out[1:d + 1])
    for row, (i, j) in _pairs(d):
        np.multiply(out[1 + i], out[1 + j], out=out[row])
    return centre


def _estep(F: np.ndarray, weights: np.ndarray, means: np.ndarray,
           chol: np.ndarray, resp: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities (S, K, N) and log-likelihoods (S,) of S mixtures
    given the Cholesky factors L (S, K, d, d) of their covariances.

    ``F`` holds the feature rows of the centred data (see
    ``_fill_features``), (1, p, N) for all mixtures or (S, p, N) for one
    data set each, and ``means`` are centred alike.  With ``P = L^-T L^-1``
    a component's log density ``log w - (d log 2 pi + log|Sigma|) / 2
    - (x - mu)' P (x - mu) / 2`` is a quadratic in x, so the log densities
    of all components are one product per mixture of their coefficients
    ``W`` (S, K, p) with ``F``: ``W[0] = log w - (d log 2 pi + log|Sigma|
    + mu' P mu) / 2``, ``W[1:d+1] = P mu``, ``-P_ii / 2`` on the squares and
    ``-P_ij`` on the cross products.  The responsibilities are written into
    ``resp``, allocated when not given.
    """
    S, K, d = means.shape
    prec = np.linalg.inv(chol)
    prec_t = np.swapaxes(prec, -1, -2)
    v = prec @ means[..., None]  # L^-1 mu
    P = prec_t @ prec
    W = np.empty((S, K, F.shape[-2]))
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    W[..., 0] = np.log(weights) - 0.5 * (d * math.log(2 * math.pi) + logdet
                                         + (v * v).sum(axis=(-2, -1)))
    W[..., 1:d + 1] = (prec_t @ v)[..., 0]  # P mu
    for row, (i, j) in _pairs(d):
        W[..., row] = -0.5 * P[..., i, i] if i == j else -P[..., i, j]
    resp = np.matmul(W, F, out=resp)  # log w_k f_k(x)
    top = resp.max(axis=1, keepdims=True)
    resp -= top
    np.exp(resp, out=resp)
    total = resp.sum(axis=1, keepdims=True)
    resp /= total
    top += np.log(total, out=total)
    return resp, top[:, 0].sum(axis=-1)


def _mstep_batch(Q: np.ndarray, n: int, structure: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means (centred) and floored covariances of S mixtures from
    ``Q`` (S, K, p), the responsibility-weighted sums of the centred data's
    rows ``[1, x, x_i x_j (i <= j)]`` (see ``_fill_features``); also
    returns the starts whose covariance floor failed."""
    equal, diagonal = _structure(structure)
    S, K, p = Q.shape
    d = (math.isqrt(8 * p + 1) - 3) // 2  # p = _n_features(d)
    nk = Q[..., 0]
    weights = nk / n
    sx = Q[..., 1:d + 1]
    means = sx / nk[..., None]
    scatter = np.empty((S, K, d, d))
    for row, (i, j) in _pairs(d):
        scatter[..., i, j] = scatter[..., j, i] = Q[..., row]
    scatter -= sx[..., :, None] * means[..., None, :]
    covs = scatter.sum(axis=1) / n if equal else scatter / nk[..., None, None]
    if diagonal:
        covs = np.diagonal(covs, axis1=-2, axis2=-1)[..., None] * np.eye(d)
    covs, failed = _floor_covs(covs)
    if equal:
        covs = np.broadcast_to(covs[:, None], (S, K, d, d)).copy()
    return weights, means, covs, failed


def _mstep(X: np.ndarray, resp: np.ndarray, structure: str
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One start's M-step from its N x K responsibilities."""
    F = np.empty((1, _n_features(X.shape[1]), len(X)))
    centre = _fill_features(F[0], X)
    Q = resp.T[None] @ np.swapaxes(F, -1, -2)
    if np.any(Q[..., 0] < 1e-8):
        raise ConvergenceError("component weight collapsed")
    weights, means, covs, failed = _mstep_batch(Q, len(X), structure)
    if failed[0]:
        raise np.linalg.LinAlgError("covariance eigendecomposition failed")
    return weights[0], means[0] + centre, covs[0]


def _responsibilities(X: np.ndarray, weights: np.ndarray, means: np.ndarray,
                      covs: np.ndarray) -> tuple[np.ndarray, float]:
    """One mixture's K x N responsibilities and its log-likelihood."""
    F = np.empty((1, _n_features(X.shape[1]), len(X)))
    centre = _fill_features(F[0], X)
    resp, ll = _estep(F, weights[None], (means - centre)[None],
                      np.linalg.cholesky(covs)[None])
    return resp[0], float(ll[0])


def _log_resp(X: np.ndarray, weights: np.ndarray, means: np.ndarray,
              covs: np.ndarray) -> tuple[np.ndarray, float]:
    """One mixture's N x K log responsibilities and its log-likelihood."""
    resp, ll = _responsibilities(X, weights, means, covs)
    with np.errstate(divide="ignore"):
        return np.log(resp).T, ll


def _em_block(Xs: np.ndarray, sets: np.ndarray, pooled: np.ndarray, K: int,
              structure: str, seeds: list[int], max_iter: int, tol: float):
    """EM from one random-point start per seed, all starts as one batch.

    Start j runs on the data set ``Xs[sets[j]]`` of the stack ``Xs``
    (B, N, d) from seed ``seeds[j]``, with the pooled covariance
    ``pooled[sets[j]]`` as its initial covariances.  With B = 1 every start
    reads one copy of the data.  The data are centred at their mean (EM is
    shift-equivariant, and centred raw moments sum without cancellation at
    large offsets).  Each iteration is two matrix products per start with
    the feature rows of its data: the E-step's quadratic-form coefficients
    times the rows (see ``_estep``), and the responsibilities times the
    rows' transpose for the M-step's sufficient statistics.  (Not one
    product over the whole block: BLAS may round a product differently as
    its row count changes, and results must not depend on the block size.)

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

    # The feature rows of each start's centred data set, one copy for all
    # starts when B = 1; the starts still running fill their leading rows,
    # in the order of ``idx``.
    shared = B == 1
    F = np.empty((1 if shared else S, _n_features(d), n))
    centre = np.stack([_fill_features(F[r], Xs[b])
                       for r, b in enumerate(sets[:len(F)])])
    shift = np.broadcast_to(centre, (S, d))  # by start, never compacted

    def record(j, ll, weights, means, covs, it, converged):
        ll_out[j], w_out[j], c_out[j] = ll, weights, covs
        m_out[j] = means + shift[j][:, None]
        it_out[j], conv_out[j], degenerate[j] = it, converged, False

    def compact(keep):
        """Move the data of the kept starts to the front, one start at a
        time (a fancy-indexed copy would hold all of them twice); returns
        how many starts are kept."""
        kept = np.flatnonzero(keep)
        if not shared:
            for row, start in enumerate(kept):
                if start > row:
                    F[row] = F[start]
        return len(kept)

    # Random-point start: K distinct observations as means, pooled spread as
    # the common covariance.  (Random soft responsibilities put every
    # component at the grand mean, a symmetric saddle EM can stall on.)
    means = np.stack([Xs[b][np.random.default_rng(s).choice(n, size=K,
                                                             replace=False)]
                      for b, s in zip(sets, seeds)]) - shift[:, None]
    covs = np.repeat(pooled[sets][:, None], K, axis=1)
    weights = np.full((S, K), 1.0 / K)
    resp = np.empty((S, K, n))  # a work array, allocated once

    prev = np.full(S, -np.inf)
    idx = np.arange(S)  # start of each running row
    m = S
    for it in range(1, max_iter + 1):
        Fm = F if shared else F[:m]
        chol, bad = _by_start(np.linalg.cholesky, covs)
        _, ll = _estep(Fm, weights, means, chol, resp[:m])
        Q = resp[:m] @ np.swapaxes(Fm, -1, -2)
        # prev is -inf before a start's first E-step, which gets no slack
        # (0 * inf would warn at tol=0) and no convergence test
        started = prev > -np.inf
        ref = np.where(started, prev, 0.0)
        slack = np.maximum(1.0, np.abs(ref))
        bad |= ~np.isfinite(ll) | (ll < prev - 1e-8 * slack)
        done = ~bad & started & (np.abs(ll - ref) <= tol * slack)
        keep = ~(bad | done | np.any(Q[..., 0] < 1e-8, axis=1))
        if not keep.all():
            record(idx[done], ll[done], weights[done], means[done],
                   covs[done], it, True)
            idx, ll, Q = idx[keep], ll[keep], Q[keep]
            m = compact(keep)
        prev = ll
        if not m:
            break
        weights, means, covs, bad = _mstep_batch(Q, n, structure)
        if bad.any():
            keep = ~bad
            idx, prev = idx[keep], prev[keep]
            weights, means, covs = weights[keep], means[keep], covs[keep]
            m = compact(keep)
            if not m:
                break
    if m:
        record(idx, prev, weights, means, covs, max_iter, False)
    return ll_out, w_out, m_out, c_out, it_out, conv_out, degenerate


def _pooled_covs(Xs: np.ndarray, structure: str
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The pooled covariance (B, d, d) of each data set of the stack ``Xs``
    (B, N, d), diagonal for the zero-covariance structures and floored; also
    returns the sets whose floor failed."""
    pooled = np.stack([np.atleast_2d(np.cov(X, rowvar=False, ddof=0))
                       for X in Xs])
    if _structure(structure)[1]:
        pooled = np.stack([np.diag(np.diag(c)) for c in pooled])
    return _floor_covs(pooled)


def _plan_starts(Xs: np.ndarray, sets: np.ndarray, pooled: np.ndarray,
                 K: int, structure: str, starts: int, max_iter: int,
                 tol: float, seed: int) -> list[tuple]:
    """``starts`` EM starts on each data set ``Xs[b]``, b in ``sets``
    (ascending), cut into blocks of at most ``_BLOCK_BYTES`` of work arrays:
    one tuple of ``_em_block`` arguments per block, the starts set by set.
    Start s of set b has seed ``seed + b * starts + s``.  A block carries
    only the slice of ``Xs`` and ``pooled`` from its first set to its
    last."""
    B, n, d = Xs.shape
    rep = np.repeat(sets, starts)
    seeds = [seed + b * starts + s for b in sets.tolist()
             for s in range(starts)]
    # a start's work arrays: its responsibilities, and its own feature rows
    # unless the starts share one data set
    start_bytes = 8 * n * (K + (0 if B == 1 else _n_features(d)))
    block = max(1, _BLOCK_BYTES // start_bytes)
    units = []
    for i in range(0, len(seeds), block):
        part = rep[i:i + block]
        lo, hi = part[0], part[-1] + 1
        units.append((Xs[lo:hi], part - lo, pooled[lo:hi], K, structure,
                      seeds[i:i + block], max_iter, tol))
    return units


def _stack_starts(results: list[tuple]) -> tuple[np.ndarray, ...]:
    """The per-start arrays of the ``_em_block`` results of a plan."""
    return tuple(np.concatenate(a) for a in zip(*results))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _serve_blocks(conn, parent_ends: list, units: list[tuple]) -> None:
    """A worker process: for each index i that arrives on ``conn``, until
    None does, send back (i, the result of ``_em_block`` on ``units[i]``, or
    the exception it raised).  It first closes the copies of the parent's
    pipe ends that it inherited, so that when the parent dies, ``recv``
    raises EOFError and the worker ends."""
    for end in parent_ends:
        end.close()
    for i in iter(conn.recv, None):
        try:
            result = _em_block(*units[i])
        except Exception as exc:
            result = exc
        conn.send((i, result))


def _run_blocks(units: list[tuple]) -> list[tuple]:
    """``_em_block`` over the blocks of a plan; results in plan order.

    The blocks run in this process when there is one, when the process may
    use one CPU, or when it cannot fork (or is itself a daemonic worker,
    which may not have children).  Otherwise min(CPUs, blocks) forked
    worker processes run them, costliest first (K x starts x N), one block
    at a time to whichever worker is free.  Workers read the blocks from
    the memory they inherit and send back only results.  All of them have
    exited, or on an exception been terminated, and are joined before this
    returns.  An exception raised in a worker is raised here, with its
    type; a worker that ends before its last block's result is in (killed,
    say) raises ``WorkerError`` naming its exit code.  A block's result depends only on
    its arguments (``_em_block`` compares no start with another), so results
    do not depend on the worker count.
    """
    workers = min(_cpus(), len(units))
    if workers > 1:
        import multiprocessing  # here only: it costs the CLI start-up time
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            workers = 1
    if workers <= 1:
        return [_em_block(*u) for u in units]
    # Fork, not spawn: a spawned worker imports numpy and this package
    # again, for every call.  Not multiprocessing.Pool: with its three
    # threads in this process, the `lpa` benchmark's peak memory rose by
    # 3.4-4.5% instead of 1.2-1.5% (2-vCPU VM).
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context("fork")
    order = iter(sorted(range(len(units)), reverse=True,
                        key=lambda i: units[i][3] * len(units[i][5])
                        * units[i][0].shape[1]))
    results = [None] * len(units)
    conns, procs = [], []
    try:
        for _ in range(workers):
            conn, child_conn = ctx.Pipe()
            conns.append(conn)
            proc = ctx.Process(target=_serve_blocks, daemon=True,
                               args=(child_conn, conns, units))
            proc.start()
            procs.append(proc)
            child_conn.close()
            conn.send(next(order))
        busy = list(conns)
        while busy:
            for conn in wait(busy):
                try:
                    i, result = conn.recv()
                    if not isinstance(result, Exception):
                        results[i] = result
                        i = next(order, None)
                        conn.send(i)
                except (EOFError, ConnectionError):  # it exited: reap it
                    proc = procs[conns.index(conn)]
                    proc.join()
                    raise WorkerError(f"an EM worker ended with exit code "
                                      f"{proc.exitcode} before its blocks "
                                      "were done") from None
                if isinstance(result, Exception):
                    raise result
                if i is None:
                    busy.remove(conn)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    return results


def _run_plans(plans: list[list[tuple]]) -> list[list[tuple]]:
    """The blocks of several plans run as one ``_run_blocks``, so that they
    share its workers; the results plan by plan."""
    done = iter(_run_blocks([u for plan in plans for u in plan]))
    return [list(islice(done, len(plan))) for plan in plans]


def _as_matrix(data: np.ndarray) -> np.ndarray:
    """The data as a float N x d matrix; a vector is one indicator."""
    X = np.asarray(data, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        bad = int((~np.isfinite(X)).any(axis=1).sum())
        raise LpaError(f"{bad} of {len(X)} data rows hold a non-finite "
                       "value")


def _check_fit(X: np.ndarray, K: int, structure: str, starts: int,
               max_iter: int) -> None:
    n, d = X.shape
    if min(K, starts, max_iter) < 1:
        raise LpaError("K, starts and max_iter must be at least 1")
    p = param_count(K, d, structure)
    if n <= p:
        raise LpaError(f"need N > {p} free parameters; got N={n}")
    _check_finite(X)


def _check_blrt(X: np.ndarray, K: int, structure: str, n_boot: int,
                starts_boot: int, max_iter: int) -> None:
    if K < 2:
        raise LpaError("BLRT compares K-1 vs K; need K >= 2")
    if n_boot < MIN_BLRT_BOOT:
        raise LpaError(f"need at least {MIN_BLRT_BOOT} bootstrap replicates")
    _check_fit(X, K, structure, starts_boot, max_iter)


def _plan_fit(X: np.ndarray, K: int, structure: str, starts: int,
              max_iter: int, tol: float, seed: int) -> list[tuple]:
    """The blocks of ``fit_mixture``'s starts on the checked data ``X``."""
    pooled, failed = _pooled_covs(X[None], structure)
    if failed[0]:
        raise ConvergenceError("all EM starts failed")
    return _plan_starts(X[None], np.zeros(1, dtype=int), pooled, K,
                        structure, starts, max_iter, tol, seed)


def fit_mixture(data: np.ndarray, K: int, structure: str = "free-var-free-cov",
                starts: int = 160, max_iter: int = 250, tol: float = EM_TOL,
                seed: int = 0, labels: tuple[str, ...] | None = None,
                _done: list[tuple] | None = None
                ) -> tuple[MixtureModel, np.ndarray]:
    """Best-of-``starts`` EM fit; returns the model and its posterior matrix.

    Each start takes K distinct random observations as its means (drawn
    from seed + start index, so runs are reproducible and starts are
    independent) and the pooled covariance for every component.  The starts
    run as batched EM, in blocks of bounded size spread over the CPUs (see
    ``_run_blocks``); each keeps its own convergence test and
    degenerate-start checks.  Components are relabeled in ascending order of
    the first indicator's mean (the model's ``order_indicator``, 0).

    ``_done`` holds the results of the blocks that ``_plan_fit`` plans for
    these arguments when the caller has run them (``selection_table`` runs
    those of all its fits at once).
    """
    X = _as_matrix(data)
    n, d = X.shape
    _check_fit(X, K, structure, starts, max_iter)
    if labels is None:
        labels = tuple(f"ind{j}" for j in range(d))

    if _done is None:
        _done = _run_blocks(_plan_fit(X, K, structure, starts, max_iter, tol,
                                      seed))
    ll, weights, means, covs, n_iter, converged, degenerate = _stack_starts(
        _done)
    if degenerate.all():
        raise ConvergenceError("all EM starts failed")
    kept = np.flatnonzero(~degenerate)
    best = kept[np.argmax(ll[kept])]
    n_replicated = int(np.sum(np.abs(ll[kept] - ll[best]) <= 1e-4))

    order = np.argsort(means[best][:, 0], kind="stable")
    model = MixtureModel(
        weights=weights[best][order], means=means[best][order],
        covs=covs[best][order], structure=structure, loglik=float(ll[best]),
        n=n, labels=labels, n_iter=int(n_iter[best]),
        converged=bool(converged[best]),
        n_starts=starts, n_replicated=n_replicated,
        n_degenerate_starts=int(degenerate.sum()),
    )
    return model, posterior(model, X)


def posterior(model: MixtureModel, data: np.ndarray) -> np.ndarray:
    """Bayes-rule class probabilities; rows sum to one.  A data row whose
    class densities leave floating point (say, under means of 1e200) has no
    finite posterior, and LpaError counts such rows."""
    X = _as_matrix(data)
    if X.shape[1] != model.d:
        raise LpaError(f"data have {X.shape[1]} indicators; the model has "
                       f"{model.d} ({', '.join(model.labels)})")
    _check_finite(X)
    with np.errstate(all="ignore"):  # non-finite rows raise below
        post = _responsibilities(X, model.weights, model.means,
                                 model.covs)[0].T
    bad = int((~np.isfinite(post)).any(axis=1).sum())
    if bad:
        raise LpaError(f"{bad} of {len(X)} data rows get no finite posterior "
                       "under the model")
    return post


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


def _plan_boot(X: np.ndarray, K: int, structure: str,
               null_model: MixtureModel, n_boot: int, starts_boot: int,
               max_iter: int, tol: float, seed: int):
    """Draw ``blrt``'s replicates and plan their refits.  Returns the
    replicates whose pooled floor failed (a mask), the others (``sets``)
    and the blocks of their K-1 refits and of their K refits."""
    rng = np.random.default_rng(seed + 10_000)
    Xs = np.stack([null_model.sample(len(X), rng) for _ in range(n_boot)])
    pooled, failed = _pooled_covs(Xs, structure)
    sets = np.flatnonzero(~failed)
    plans = [_plan_starts(Xs, sets, pooled, k, structure, starts_boot,
                          max_iter, tol, seed + 20_000) for k in (K - 1, K)]
    return failed, sets, plans


def blrt(data: np.ndarray, K: int, structure: str = "free-var-free-cov",
         n_boot: int = 500, starts: int = 20, starts_boot: int = 20,
         max_iter: int = 250, tol: float = EM_TOL, seed: int = 0,
         max_failure_fraction: float = 0.2,
         null_model: MixtureModel | None = None,
         alt_model: MixtureModel | None = None,
         _boot: tuple | None = None) -> dict:
    """Parametric bootstrap likelihood ratio test of K-1 vs K components.

    Simulates ``n_boot`` replicates from the fitted K-1 model, refits both
    models on each replicate, and compares the observed LR statistic against
    the bootstrap distribution: p = (1 + #{boot >= observed}) / (n_used + 1)
    over the replicates that did not fail.  The K-1 and K models of ``data``
    are fit here with ``starts`` and ``seed`` unless already-fitted ones are
    passed as ``null_model``/``alt_model``.

    All replicates are drawn first, from ``default_rng(seed + 10_000)``.
    Then the K-1 and the K refits of every replicate run as one batched EM
    (see ``_run_blocks``); start s of replicate b has seed
    ``seed + 20_000 + b * starts_boot + s`` in both, and each replicate's
    statistic uses the best non-degenerate start of each order.  A replicate
    fails when the variance floor of its pooled covariance fails, or when
    all its K-1 starts or all its K starts are degenerate; more than
    ``max_failure_fraction`` of ``n_boot`` failing raises
    ``ConvergenceError``.

    ``_boot`` holds the failed mask and the sets that ``_plan_boot`` returns
    for these arguments and the results of its two plans, when the caller
    has drawn and run them (``selection_table`` runs the refits of all its
    BLRTs at once).
    """
    X = _as_matrix(data)
    _check_blrt(X, K, structure, n_boot, starts_boot, max_iter)
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
    if _boot is None:
        failed, sets, plans = _plan_boot(X, K, structure, null_model, n_boot,
                                         starts_boot, max_iter, tol, seed)
        done = _run_plans(plans)
    else:
        failed, sets, done = _boot
    best = np.zeros((2, n_boot))  # best log-likelihood at K-1 and at K
    if sets.size:
        for row, results in enumerate(done):
            ll, *_, degenerate = _stack_starts(results)
            degenerate = degenerate.reshape(sets.size, starts_boot)
            best[row, sets] = np.where(degenerate, -np.inf, ll.reshape(
                degenerate.shape)).max(axis=1)
            failed[sets] |= degenerate.all(axis=1)
    failures = int(failed.sum())
    if failures > max_failure_fraction * n_boot:
        raise ConvergenceError(
            f"{failures}/{n_boot} bootstrap refits failed")
    boot_stats = 2.0 * (best[1, ~failed] - best[0, ~failed])
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
    """What the table adds to a K's fit; the fit's own facts (log-likelihood,
    EM health) are on its model, ``selection_table``'s ``models[K][0]``."""
    K: int
    stats: FitStats
    n_min: int
    n_min_pct: float
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

    Every K is checked before any EM runs.  Then the starts of all the fits
    run as one ``_run_blocks``, and the bootstrap refits of all the BLRTs as
    another, so that they share its workers; each row is built from its K's
    results, as a table of one K at a time would be.
    """
    X = _as_matrix(data)
    ks = []
    for K in k_range:  # a K with N <= p stops a range too long to list
        _check_fit(X, K, structure, starts, max_iter)
        ks.append(K)
    tested = [K for K in ks if run_blrt and K >= 2]
    for K in tested:
        _check_blrt(X, K, structure, n_boot, starts_boot, max_iter)
    # a BLRT whose K-1 is not in the table fits its null model here too
    fits = list(dict.fromkeys(ks + [K - 1 for K in tested]))
    done = _run_plans([_plan_fit(X, K, structure, starts, max_iter, EM_TOL,
                                 seed) for K in fits])
    models = {K: fit_mixture(X, K, structure, starts=starts,
                             max_iter=max_iter, seed=seed, labels=labels,
                             _done=results)
              for K, results in zip(fits, done)}
    boots = [_plan_boot(X, K, structure, models[K - 1][0], n_boot,
                        starts_boot, max_iter, EM_TOL, seed) for K in tested]
    done = iter(_run_plans([plan for *_, plans in boots for plan in plans]))
    tests = {K: blrt(X, K, structure, n_boot=n_boot, starts=starts,
                     starts_boot=starts_boot, max_iter=max_iter, seed=seed,
                     null_model=models[K - 1][0], alt_model=models[K][0],
                     _boot=(failed, sets, list(islice(done, 2))))
             for K, (failed, sets, _) in zip(tested, boots)}
    rows = []
    for K in ks:
        model, post = models[K]
        sizes = np.bincount(modal_assignment(post), minlength=K)
        test = tests.get(K, {})
        rows.append(SelectionRow(
            K=K, stats=fit_stats(model, post), n_min=int(sizes.min()),
            n_min_pct=round(100.0 * sizes.min() / model.n, 1),
            blrt_p=test.get("p_value"),
            blrt_n_boot_failed=test.get("n_boot_failed"),
        ))
    return rows, {K: models[K] for K in ks}
