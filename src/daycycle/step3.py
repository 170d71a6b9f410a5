"""Step-3 inference relating latent profiles to external variables.

Modal class assignment carries classification error; the naive regression of
an outcome on assigned classes attenuates effects and understates standard
errors.  The BCH correction expands each subject into weighted
pseudo-observations (weights from the inverse classification-error matrix)
so the weighted regression targets the latent classes; the ML method builds
the measurement error into a multinomial likelihood for class-membership
prediction from covariates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linmod import Z95, WaldTest, joint_wald


class Step3Error(ValueError):
    pass


@dataclass(frozen=True)
class Step3Result:
    method: str  # "naive" or "bch"
    reference: int
    classes: tuple[int, ...]  # non-reference classes, coefficient order
    coef: np.ndarray  # class effects then covariates then intercept
    robust_se: np.ndarray
    labels: tuple[str, ...]
    overall: WaldTest  # joint test of all class effects
    n: int

    def class_effect(self, k: int) -> tuple[float, float]:
        """(estimate, robust SE) for class k relative to the reference."""
        if k == self.reference:
            return 0.0, 0.0
        i = self.classes.index(k)
        return float(self.coef[i]), float(self.robust_se[i])


def _checked(name: str, a, shape: tuple) -> np.ndarray:
    """``a`` as a float array of ``shape`` (-1: any length there) with only
    finite cells; Step3Error naming it otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != len(shape) or any(w not in (-1, g)
                                   for g, w in zip(a.shape, shape)):
        raise Step3Error(f"{name} has shape {a.shape}; expected {shape}")
    if not np.isfinite(a).all():
        raise Step3Error(f"{name} contains non-finite entries")
    return a


def _checked_classes(assignments, n: int, K: int,
                     reference: int | None) -> np.ndarray:
    """``assignments`` as ints, once they are ``n`` class indices in [0, K)
    and ``reference`` (if given) is one too; Step3Error otherwise."""
    a = np.asarray(assignments)
    if (a.shape != (n,) or a.dtype.kind not in "iu"
            or np.any((a < 0) | (a >= K))):
        raise Step3Error(f"assignments must be {n} class indices in [0, {K})")
    if reference is not None and not 0 <= reference < K:
        raise Step3Error(f"reference {reference} is not in [0, {K})")
    return a.astype(int)


def _expanded_design(assignments: np.ndarray, weights_matrix: np.ndarray,
                     covariates: np.ndarray, reference: int
                     ) -> tuple[np.ndarray, np.ndarray,
                                tuple[int, ...], tuple[str, ...]]:
    """Pseudo-observation design: one row per (latent class, subject), in
    K blocks of the n subjects, class 0 first.

    Row weight for subject i and class k is weights_matrix[assign_i, k].
    The naive method is the special case of an identity weight matrix, where
    zero-weight rows contribute exactly nothing.
    """
    n = assignments.shape[0]
    K = weights_matrix.shape[0]
    classes = tuple(k for k in range(K) if k != reference)
    q = covariates.shape[1]
    # filled in place: stacking repeated and tiled blocks doubles peak memory
    X = np.ones((K, n, len(classes) + q + 1))
    X[:, :, :len(classes)] = np.eye(K)[:, None, classes]
    X[:, :, len(classes):-1] = covariates
    w = weights_matrix[assignments].T.ravel()
    labels = (tuple(f"class_{k}" for k in classes)
              + tuple(f"x{j}" for j in range(q)) + ("intercept",))
    return X.reshape(K * n, -1), w, classes, labels


def _weighted_cluster_ols(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                          n_subjects: int) -> tuple[np.ndarray, np.ndarray]:
    """WLS with cluster-by-subject sandwich covariance, for rows laid out as
    blocks of the ``n_subjects`` subjects in the same order.

    Weights may be negative (rows of an inverted error matrix); the normal
    equations still apply.  The sandwich gets the HC1-style N/(N-p) factor so
    it reduces exactly to the heteroskedasticity-robust OLS covariance when
    each subject has one effective row.
    """
    p = X.shape[1]
    Xw = X * w[:, None]
    A = X.T @ Xw
    try:
        bread = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        raise Step3Error("singular weighted design") from None
    coef = bread @ (Xw.T @ y)
    resid = y - X @ coef
    contrib = Xw * resid[:, None]
    g = contrib.reshape(-1, n_subjects, p).sum(axis=0)
    meat = g.T @ g
    cov = bread @ meat @ bread
    cov *= n_subjects / (n_subjects - p)
    return coef, cov


def step3_distal(posteriors: np.ndarray, assignments: np.ndarray,
                 outcome: np.ndarray, covariates: np.ndarray | None = None,
                 method: str = "bch", reference: int | None = None,
                 error_matrix: np.ndarray | None = None) -> Step3Result:
    """Class-specific outcome differences, naive or BCH-corrected.

    ``reference`` defaults to the largest assigned class.  For BCH the
    classification-error matrix defaults to the one estimated from the
    posteriors and assignments; its inverse supplies the pseudo-observation
    weights (which can be negative and are kept as such).

    Inputs of the wrong shape, non-finite cells, fewer than 2 classes, and
    an assignment or ``reference`` outside [0, K) raise Step3Error before
    any fit.
    """
    from .lpa import classification_error_matrix

    posteriors = _checked("posteriors", posteriors, (-1, -1))
    n, K = posteriors.shape
    if K < 2:  # no class contrast to report
        raise Step3Error(f"step 3 needs at least 2 latent classes; got {K}")
    assignments = _checked_classes(assignments, n, K, reference)
    outcome = _checked("outcome", outcome, (n,))
    if covariates is None:
        covariates = np.empty((n, 0))
    covariates = _checked("covariates", covariates, (n, -1))
    if error_matrix is not None:
        error_matrix = _checked("error matrix", error_matrix, (K, K))
    if reference is None:
        reference = int(np.bincount(assignments, minlength=K).argmax())
    if method == "naive":
        W = np.eye(K)
    elif method == "bch":
        if error_matrix is None:
            error_matrix = classification_error_matrix(posteriors, assignments)
        try:
            W = np.linalg.inv(error_matrix)
        except np.linalg.LinAlgError:
            raise Step3Error("classification-error matrix is singular") from None
    else:
        raise Step3Error(f"unknown method {method!r}")
    X, w, classes, labels = _expanded_design(assignments, W, covariates,
                                             reference)
    y = np.tile(outcome, K)
    coef, cov = _weighted_cluster_ols(X, y, w, n)
    se = np.sqrt(np.diag(cov))
    nc = len(classes)
    overall = joint_wald(coef[:nc], cov[:nc, :nc])
    return Step3Result(method, reference, classes, coef, se, labels,
                       overall, n)


def ci_95(result: Step3Result, k: int) -> tuple[float, float]:
    est, se = result.class_effect(k)
    return est - Z95 * se, est + Z95 * se


@dataclass(frozen=True)
class CovariateResult:
    coef: np.ndarray  # (K-1) x (q+1): per non-reference class, intercept last
    robust_se: np.ndarray
    reference: int
    wald: WaldTest  # joint test of all covariate slopes
    converged: bool  # the score test at ``coef`` passed (``step3_covariate``)
    loglik: float


def _subject_terms(theta: np.ndarray, Z: np.ndarray, Dcols: np.ndarray,
                   free: list[int]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per subject at ``theta``: class probabilities pi (n x K), likelihood
    L = sum_k pi_k D[k, w_i] and g_k = d log L / d eta_k = pi_k (D[k, w_i]
    - L) / L (n x K), where eta = Z @ B.T and B is ``theta`` in the rows of
    the ``free`` classes, zero in the reference row."""
    B = np.zeros((Dcols.shape[1], Z.shape[1]))
    B[free] = theta.reshape(len(free), Z.shape[1])
    eta = Z @ B.T
    eta -= eta.max(axis=1, keepdims=True)
    expeta = np.exp(eta)
    pi = expeta / expeta.sum(axis=1, keepdims=True)
    inner = (pi * Dcols).sum(axis=1, keepdims=True)
    L = np.maximum(inner[:, 0], 1e-300)
    g = pi * (Dcols - inner) / L[:, None]
    return pi, L, g


def _loglik_hessian(pi: np.ndarray, g: np.ndarray, Z: np.ndarray,
                    free: list[int]) -> np.ndarray:
    """Hessian of sum_i log L_i in theta, from ``_subject_terms``.

    Per subject, d2 log L / d eta_k d eta_m = delta_km g_k - g_k (pi_m + g_m)
    - pi_k g_m; theta's entry (k, a) moves eta_k by z_a.
    """
    pf, gf = pi[:, free], g[:, free]
    nf = len(free)
    h = -gf[:, :, None] * (pf + gf)[:, None, :] - pf[:, :, None] * gf[:, None, :]
    h[:, range(nf), range(nf)] += gf
    H = np.einsum("ikm,ia,ib->kamb", h, Z, Z, optimize=True)
    return H.reshape(nf * Z.shape[1], nf * Z.shape[1])


def step3_covariate(assignments: np.ndarray, error_matrix: np.ndarray,
                    covariates: np.ndarray, reference: int = 0
                    ) -> CovariateResult:
    """ML multinomial regression of the latent class on covariates, treating
    the modal assignment as an error-prone measurement of the latent class.

    Per-subject likelihood: sum_k P(class k | x_i) * D[k, assigned_i].
    With an identity error matrix this is the ordinary multinomial logit on
    the assignments.  Rejects the inputs that ``step3_distal`` rejects, and
    an error matrix that is not square.

    ``converged`` is a score test at the fit: U' (-H)^-1 U <= 1e-6 for the
    score U and Hessian H of log L, so a Newton step moves no coefficient
    by more than 1e-3 of its model-based SE.  (BFGS's own flag can be False
    from rounding at the optimum.)
    """
    from scipy import optimize  # only this fit uses it: load it here

    K = len(np.atleast_1d(error_matrix))  # D must be K x K
    D = _checked("error matrix", error_matrix, (K, K))
    if K < 2:
        raise Step3Error(f"step 3 needs at least 2 latent classes; got {K}")
    n = np.size(assignments)
    assignments = _checked_classes(assignments, n, K, reference)
    covariates = _checked("covariates", covariates, (n, -1))
    Z = np.column_stack([covariates, np.ones(n)])
    q1 = Z.shape[1]
    if np.linalg.matrix_rank(D) < K:
        raise Step3Error("classification-error matrix is singular")
    free = [k for k in range(K) if k != reference]
    nf = len(free)
    Dcols = D[:, assignments].T  # n x K: D[k, assigned_i]

    def neg_loglik_grad(theta):
        _, L, g = _subject_terms(theta, Z, Dcols, free)
        return -float(np.log(L).sum()), -(g[:, free].T @ Z).ravel()

    theta0 = np.zeros(nf * q1)
    res = optimize.minimize(neg_loglik_grad, theta0, jac=True, method="BFGS",
                            options={"maxiter": 500, "gtol": 1e-7})
    theta = res.x
    if not np.isfinite(res.fun):
        raise Step3Error("multinomial likelihood did not converge")

    # Robust (sandwich) covariance: the inverse Hessian of -log L as bread,
    # the outer product of the per-subject scores as meat.
    pi, _, g = _subject_terms(theta, Z, Dcols, free)
    S = (g[:, free, None] * Z[:, None, :]).reshape(n, -1)
    meat = S.T @ S
    try:
        bread = np.linalg.inv(-_loglik_hessian(pi, g, Z, free))
    except np.linalg.LinAlgError:
        raise Step3Error("singular Hessian; possible separation") from None
    cov = bread @ meat @ bread
    score = S.sum(axis=0)
    converged = bool(0.0 <= score @ bread @ score <= 1e-6)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0)).reshape(nf, q1)
    coef = theta.reshape(nf, q1)

    # Joint Wald test over all covariate slopes (intercepts excluded).
    slope_idx = [i * q1 + j for i in range(nf) for j in range(q1 - 1)]
    wald = joint_wald(theta[slope_idx], cov[np.ix_(slope_idx, slope_idx)])
    return CovariateResult(coef, se, reference, wald, converged,
                           -float(res.fun))
