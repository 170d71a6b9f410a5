"""Distal-outcome and covariate inference with misclassified assignments."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from daycycle import step3
from daycycle.linmod import fit_ols
from daycycle.step3 import (
    Step3Error,
    ci_95,
    step3_covariate,
    step3_distal,
    CovariateResult,
)


def two_class_setup(n=800, seed=0, sep=1.2, delta=0.4):
    """1-d mixture with known latent classes and posterior probabilities.

    Moderate separation produces substantial misclassification, which is
    what the corrected estimators are for.
    """
    rng = np.random.default_rng(seed)
    classes = rng.binomial(1, 0.5, n)
    x = rng.normal(classes * sep, 1.0)
    # true posteriors under the generating model
    lp0 = -0.5 * x ** 2
    lp1 = -0.5 * (x - sep) ** 2
    post = np.exp(np.column_stack([lp0, lp1])
                  - logsumexp(np.column_stack([lp0, lp1]), axis=1,
                              keepdims=True))
    assign = np.argmax(post, axis=1)
    y = 0.2 + delta * classes + rng.normal(0, 0.5, n)
    return post, assign, y, classes


def test_naive_equals_bch_with_identity_error_matrix():
    post, assign, y, _ = two_class_setup()
    naive = step3_distal(post, assign, y, method="naive")
    ident = step3_distal(post, assign, y, method="bch",
                         error_matrix=np.eye(2))
    assert np.array_equal(naive.coef, ident.coef)
    assert np.array_equal(naive.robust_se, ident.robust_se)
    assert naive.overall.statistic == ident.overall.statistic


def test_naive_matches_dummy_regression():
    """With hard assignments the naive estimator is OLS of the outcome on
    class dummies, with HC1 cluster-robust (= heteroskedasticity-robust
    here) standard errors."""
    post, assign, y, _ = two_class_setup(seed=1)
    res = step3_distal(post, assign, y, method="naive", reference=0)
    n = len(y)
    X = np.column_stack([(assign == 1).astype(float), np.ones(n)])
    fit = fit_ols(X, y, ("class_1", "intercept"))
    est, se = res.class_effect(1)
    assert est == pytest.approx(fit.coef[0], abs=1e-10)
    assert se == pytest.approx(fit.se("class_1", robust=True), abs=1e-10)


def test_reference_defaults_to_largest_class():
    post, assign, y, _ = two_class_setup(seed=2)
    res = step3_distal(post, assign, y)
    largest = int(np.bincount(assign).argmax())
    assert res.reference == largest
    assert largest not in res.classes
    est, se = res.class_effect(largest)
    assert (est, se) == (0.0, 0.0)


def test_bch_corrects_naive_attenuation():
    """Across replicated cohorts the naive contrast is biased toward zero
    while BCH stays near the truth with a larger standard error."""
    delta = 0.4
    naive_est, bch_est, naive_se, bch_se = [], [], [], []
    for rep in range(40):
        post, assign, y, _ = two_class_setup(n=600, seed=100 + rep,
                                             delta=delta)
        nv = step3_distal(post, assign, y, method="naive", reference=0)
        bc = step3_distal(post, assign, y, method="bch", reference=0)
        naive_est.append(nv.class_effect(1)[0])
        bch_est.append(bc.class_effect(1)[0])
        naive_se.append(nv.class_effect(1)[1])
        bch_se.append(bc.class_effect(1)[1])
    mc_se = np.std(bch_est, ddof=1) / math.sqrt(len(bch_est))
    assert np.mean(naive_est) < delta * 0.9  # attenuated
    assert np.mean(bch_est) == pytest.approx(delta, abs=3.5 * mc_se)
    assert np.mean(bch_se) > np.mean(naive_se)


def test_distal_with_covariates():
    rng = np.random.default_rng(5)
    post, assign, y, classes = two_class_setup(seed=5)
    covar = rng.normal(size=(len(y), 1))
    y_adj = y + 0.3 * covar[:, 0]
    res = step3_distal(post, assign, y_adj, covariates=covar,
                       method="bch", reference=0)
    i_cov = res.labels.index("x0")
    assert res.coef[i_cov] == pytest.approx(0.3, abs=0.1)
    lo, hi = ci_95(res, 1)
    est, se = res.class_effect(1)
    assert lo < est < hi
    assert hi - lo == pytest.approx(2 * 1.959963984540054 * se)


def test_distal_method_validation():
    post, assign, y, _ = two_class_setup(n=100, seed=6)
    with pytest.raises(Step3Error):
        step3_distal(post, assign, y, method="bogus")
    with pytest.raises(Step3Error):
        step3_distal(post, assign, y, method="bch",
                     error_matrix=np.ones((2, 2)))


def step3_inputs():
    """Valid N=200, K=3 inputs for both step-3 entry points."""
    rng = np.random.default_rng(40)
    post = rng.dirichlet(np.ones(3), size=200)
    return {"posteriors": post, "assignments": post.argmax(axis=1),
            "outcome": rng.normal(size=200),
            "covariates": rng.normal(size=(200, 2)),
            "error_matrix": np.full((3, 3), 0.1) + 0.7 * np.eye(3),
            "reference": 0}


def replaced(a, index, value):
    a = np.array(a)
    a[index] = value
    return a


BAD_STEP3_INPUTS = {
    "reference-5": ("reference", lambda r: 5, "reference 5"),
    "reference-minus-1": ("reference", lambda r: -1, "reference -1"),
    "assignment-7": ("assignments", lambda a: replaced(a, 0, 7),
                     "class indices"),
    "assignment-minus-1": ("assignments", lambda a: replaced(a, 0, -1),
                           "class indices"),
    "assignments-float": ("assignments", lambda a: a.astype(float),
                          "class indices"),
    "assignments-short": ("assignments", lambda a: a[:-1], "assignments"),
    "covariate-inf": ("covariates", lambda c: replaced(c, (4, 1), np.inf),
                      "covariates contains non-finite"),
    "covariates-short": ("covariates", lambda c: c[:-1], "covariates"),
    "error-matrix-3x2": ("error_matrix", lambda d: d[:, :2],
                         "error matrix has shape"),
    "posterior-nan": ("posteriors", lambda p: replaced(p, (4, 1), np.nan),
                      "posteriors contains non-finite"),
    "outcome-nan": ("outcome", lambda y: replaced(y, 4, np.nan),
                    "outcome contains non-finite"),
    "outcome-short": ("outcome", lambda y: y[:-1], "outcome has shape"),
}


def no_fit(*args, **kwargs):
    raise AssertionError("a fit ran on rejected input")


@pytest.mark.parametrize("case", BAD_STEP3_INPUTS)
def test_distal_rejects_bad_input_before_fitting(case, monkeypatch):
    entry, change, match = BAD_STEP3_INPUTS[case]
    monkeypatch.setattr(step3, "_weighted_cluster_ols", no_fit)
    x = step3_inputs()
    x[entry] = change(x[entry])
    with pytest.raises(Step3Error, match=match):
        step3_distal(x["posteriors"], x["assignments"], x["outcome"],
                     x["covariates"], method="bch", reference=x["reference"],
                     error_matrix=x["error_matrix"])


# step3_covariate has no posteriors or outcome, and takes N from the
# assignments, so a short assignment vector shows as a covariates shape error
@pytest.mark.parametrize("case", [c for c, (entry, _, _) in
                                  BAD_STEP3_INPUTS.items()
                                  if entry not in ("posteriors", "outcome")
                                  and c != "assignments-short"])
def test_covariate_rejects_bad_input_before_fitting(case, monkeypatch):
    entry, change, match = BAD_STEP3_INPUTS[case]
    monkeypatch.setattr(step3, "_subject_terms", no_fit)
    x = step3_inputs()
    x[entry] = change(x[entry])
    with pytest.raises(Step3Error, match=match):
        step3_covariate(x["assignments"], x["error_matrix"], x["covariates"],
                        reference=x["reference"])


def test_one_class_is_rejected_before_fitting(monkeypatch):
    """One latent class has no class contrast.  (Several inputs change with
    K, so this is not a case of BAD_STEP3_INPUTS.)"""
    monkeypatch.setattr(step3, "_weighted_cluster_ols", no_fit)
    monkeypatch.setattr(step3, "_subject_terms", no_fit)
    x = step3_inputs()
    n = len(x["outcome"])
    ones, zeros = np.ones((n, 1)), np.zeros(n, dtype=int)
    for method in ("naive", "bch"):
        with pytest.raises(Step3Error, match="at least 2 latent classes"):
            step3_distal(ones, zeros, x["outcome"], x["covariates"],
                         method=method)
    with pytest.raises(Step3Error, match="at least 2 latent classes"):
        step3_covariate(zeros, np.ones((1, 1)), x["covariates"])


def multinomial_data(n=1200, seed=0, beta=(0.8, -0.5)):
    """Classes drawn from a 2-class logit in one covariate."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    eta = beta[0] * z + beta[1]
    p1 = 1.0 / (1.0 + np.exp(-eta))
    classes = rng.binomial(1, p1)
    return z[:, None], classes


def test_covariate_identity_error_matrix_is_multinomial_logit():
    """With a diagonal error matrix the corrected likelihood reduces to the
    ordinary multinomial logit; compare against an independent optimizer."""
    Z, classes = multinomial_data(seed=7)
    res = step3_covariate(classes, np.eye(2), Z, reference=0)
    assert isinstance(res, CovariateResult)
    assert res.converged

    def nll(theta):
        eta = Z[:, 0] * theta[0] + theta[1]
        return float(np.sum(np.logaddexp(0.0, eta) - classes * eta))

    ref = minimize(nll, np.zeros(2), method="BFGS")
    assert res.coef[0, 0] == pytest.approx(ref.x[0], abs=1e-4)
    assert res.coef[0, 1] == pytest.approx(ref.x[1], abs=1e-4)
    assert res.loglik == pytest.approx(-ref.fun, abs=1e-6)


def test_covariate_recovery_with_misclassification():
    """Feeding the true error matrix recovers the generating slope even when
    the observed labels are corrupted."""
    rng = np.random.default_rng(8)
    Z, classes = multinomial_data(n=4000, seed=8)
    D = np.array([[0.85, 0.15], [0.2, 0.8]])
    observed = np.array([
        rng.choice(2, p=D[c]) for c in classes
    ])
    res = step3_covariate(observed, D, Z, reference=0)
    assert res.coef[0, 0] == pytest.approx(0.8, abs=4 * res.robust_se[0, 0])
    naive = step3_covariate(observed, np.eye(2), Z, reference=0)
    # misclassification attenuates the naive slope
    assert abs(naive.coef[0, 0]) < abs(res.coef[0, 0])


def test_covariate_null_slope_not_significant():
    rng = np.random.default_rng(9)
    sig = 0
    for rep in range(20):
        n = 400
        Z = rng.normal(size=(n, 1))
        classes = rng.binomial(1, 0.5, n)
        res = step3_covariate(classes, np.eye(2), Z, reference=0)
        if res.wald.p_value < 0.05:
            sig += 1
    assert sig <= 4


def test_covariate_singular_error_matrix():
    Z, classes = multinomial_data(n=200, seed=10)
    with pytest.raises(Step3Error):
        step3_covariate(classes, np.ones((2, 2)), Z)


# --- reference implementations: the per-class pseudo-observation loop with
# np.add.at, and the ML covariate model with a finite-difference Hessian ---

def reference_step3_distal(posteriors, assignments, outcome, covariates,
                           method, reference, error_matrix=None):
    from daycycle.lpa import classification_error_matrix
    n, K = posteriors.shape
    if method == "naive":
        W = np.eye(K)
    else:
        if error_matrix is None:
            error_matrix = classification_error_matrix(posteriors,
                                                       assignments)
        W = np.linalg.inv(error_matrix)
    classes = tuple(k for k in range(K) if k != reference)
    q = 0 if covariates is None else covariates.shape[1]
    X = np.zeros((n * K, len(classes) + q + 1))
    w = np.empty(n * K)
    subject = np.empty(n * K, dtype=int)
    for k in range(K):
        sl = slice(k * n, (k + 1) * n)
        if k != reference:
            X[sl, classes.index(k)] = 1.0
        if q:
            X[sl, len(classes):len(classes) + q] = covariates
        X[sl, -1] = 1.0
        w[sl] = W[assignments, k]
        subject[sl] = np.arange(n)
    y = np.tile(outcome, K)
    p = X.shape[1]
    Xw = X * w[:, None]
    bread = np.linalg.inv(X.T @ Xw)
    coef = bread @ (Xw.T @ y)
    resid = y - X @ coef
    g = np.zeros((n, p))
    np.add.at(g, subject, Xw * resid[:, None])
    cov = bread @ (g.T @ g) @ bread
    cov *= n / (n - p)
    nc = len(classes)
    stat = float(coef[:nc] @ np.linalg.solve(cov[:nc, :nc], coef[:nc]))
    return coef, np.sqrt(np.diag(cov)), stat


def reference_step3_covariate(assignments, D, covariates, reference):
    Z = np.column_stack([covariates, np.ones(len(assignments))])
    n, q1 = Z.shape
    K = D.shape[0]
    free = [k for k in range(K) if k != reference]
    nf = len(free)
    Dcols = D[:, assignments].T

    def dEta_at(theta):
        B = np.zeros((K, q1))
        B[free] = theta.reshape(nf, q1)
        eta = Z @ B.T
        eta -= eta.max(axis=1, keepdims=True)
        expeta = np.exp(eta)
        pi = expeta / expeta.sum(axis=1, keepdims=True)
        L = np.maximum((pi * Dcols).sum(axis=1), 1e-300)
        inner = (pi * Dcols).sum(axis=1, keepdims=True)
        return L, pi * (Dcols - inner) / L[:, None]

    def neg_loglik_grad(theta):
        L, dEta = dEta_at(theta)
        return -float(np.log(L).sum()), (-(dEta[:, free].T @ Z)).ravel()

    res = minimize(neg_loglik_grad, np.zeros(nf * q1), jac=True,
                   method="BFGS", options={"maxiter": 500, "gtol": 1e-7})
    x, eps = res.x, 1e-5
    H = np.empty((x.size, x.size))
    f = lambda t: neg_loglik_grad(t)[0]
    for i in range(x.size):
        for j in range(i, x.size):
            e_i, e_j = np.eye(x.size)[i] * eps, np.eye(x.size)[j] * eps
            H[i, j] = H[j, i] = (f(x + e_i + e_j) - f(x + e_i - e_j)
                                 - f(x - e_i + e_j) + f(x - e_i - e_j)
                                 ) / (4 * eps * eps)
    S = (dEta_at(x)[1][:, free][:, :, None] * Z[:, None, :]).reshape(n, -1)
    bread = np.linalg.inv(H)
    cov = bread @ (S.T @ S) @ bread
    se = np.sqrt(np.maximum(np.diag(cov), 0.0)).reshape(nf, q1)
    return x.reshape(nf, q1), se, -float(res.fun)


def misclassified_logit_data(n, K, q, seed):
    """Classes from a K-class logit in q covariates, observed through a
    non-identity error matrix D (rows: true class, columns: observed)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, q))
    B = rng.normal(scale=0.7, size=(K, q + 1))
    eta = np.column_stack([X, np.ones(n)]) @ B.T
    p = np.exp(eta - logsumexp(eta, axis=1, keepdims=True))
    classes = (p.cumsum(axis=1) < rng.random((n, 1))).sum(axis=1)
    D = 0.8 * np.eye(K) + rng.dirichlet(np.ones(K), size=K) * 0.2
    observed = (D[classes].cumsum(axis=1) < rng.random((n, 1))).sum(axis=1)
    return X, observed, D


def test_covariate_hessian_matches_differenced_gradient():
    from daycycle.step3 import _loglik_hessian, _subject_terms
    Z, observed, D = misclassified_logit_data(n=500, K=3, q=2, seed=11)
    Z = np.column_stack([Z, np.ones(len(observed))])
    free = [0, 1]  # reference class 2
    Dcols = D[:, observed].T
    theta = np.random.default_rng(12).normal(scale=0.5, size=2 * 3)

    def grad(t):
        _, _, g = _subject_terms(t, Z, Dcols, free)
        return (g[:, free].T @ Z).ravel()

    eps = 1e-5
    fd = np.column_stack([(grad(theta + e) - grad(theta - e)) / (2 * eps)
                          for e in np.eye(theta.size) * eps])
    pi, _, g = _subject_terms(theta, Z, Dcols, free)
    H = _loglik_hessian(pi, g, Z, free)
    assert np.max(np.abs(H - fd)) < 1e-7 * np.max(np.abs(H))


@pytest.mark.parametrize("K,reference", [(2, 0), (3, 1), (4, 3)])
def test_covariate_matches_reference(K, reference):
    X, observed, D = misclassified_logit_data(n=600, K=K, q=2, seed=K)
    res = step3_covariate(observed, D, X, reference=reference)
    coef, se, loglik = reference_step3_covariate(observed, D, X, reference)
    assert np.array_equal(res.coef, coef)
    assert res.loglik == loglik
    assert np.allclose(res.robust_se, se, rtol=1e-3, atol=0)


def test_covariate_converged_means_the_score_is_zero():
    """BFGS stops on precision loss at the optimum of most of these fits;
    their scores are still zero to rounding, so each reports converged."""
    for seed in range(20):
        X, observed, D = misclassified_logit_data(n=1000, K=4, q=4,
                                                  seed=seed)
        assert step3_covariate(observed, D, X).converged, seed


def test_covariate_stopped_at_its_start_is_not_converged(monkeypatch):
    import scipy.optimize

    def stay_at_start(fun, x0, **kw):
        return scipy.optimize.OptimizeResult(x=x0, fun=fun(x0)[0],
                                             success=True)

    monkeypatch.setattr(scipy.optimize, "minimize", stay_at_start)
    X, observed, D = misclassified_logit_data(n=1000, K=4, q=4, seed=0)
    res = step3_covariate(observed, D, X)
    assert np.all(res.coef == 0.0) and not res.converged


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("method", ["naive", "bch"])
@pytest.mark.parametrize("q", [0, 3])
def test_distal_matches_per_class_reference(K, method, q):
    rng = np.random.default_rng(100 * K + q)
    n = 300
    post = rng.dirichlet(np.full(K, 0.6), size=n)
    assign = post.argmax(axis=1)
    y = rng.normal(size=n) + assign * 0.1
    covs = rng.normal(size=(n, q)) if q else None
    res = step3_distal(post, assign, y, covs, method=method)
    coef, se, stat = reference_step3_distal(post, assign, y, covs, method,
                                            res.reference)
    assert np.array_equal(res.coef, coef)
    assert np.array_equal(res.robust_se, se)
    assert res.overall.statistic == stat
    assert res.overall.df == K - 1
    assert len(res.labels) == K + q
