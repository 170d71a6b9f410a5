"""Gaussian mixture profiles: EM, fit statistics, BLRT, and artifacts."""

import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from daycycle import lpa
from daycycle.lpa import (
    STRUCTURES,
    VARIANCE_FLOOR,
    ConvergenceError,
    LpaError,
    MixtureModel,
    _by_start,
    _log_resp,
    _mstep,
    blrt,
    classification_entropy,
    classification_error_matrix,
    derived_sleep_stats,
    fit_mixture,
    fit_stats,
    modal_assignment,
    param_count,
    posterior,
    selection_table,
)


def three_class_data(n=900, seed=0):
    """Clearly separated 2-d three-component mixture."""
    rng = np.random.default_rng(seed)
    means = np.array([[-4.0, 0.0], [0.0, 3.5], [4.0, 0.0]])
    sizes = rng.multinomial(n, [0.3, 0.3, 0.4])
    X = np.vstack([
        rng.multivariate_normal(means[k], np.eye(2) * 0.5, size=sizes[k])
        for k in range(3)
    ])
    return X


def reference_model():
    """Hand-built 2-class model with known parameters."""
    return MixtureModel(
        weights=np.array([0.4, 0.6]),
        means=np.array([[0.0, 0.0], [3.0, 1.0]]),
        covs=np.array([np.eye(2), np.eye(2) * 0.5]),
        structure="free-var-free-cov",
        loglik=-100.0,
        n=50,
        labels=("a", "b"),
    )


def test_param_count_fixtures():
    # K classes on d=3 indicators: K*d means + (K-1) weights + covariance
    assert param_count(2, 3, "free-var-free-cov") == 19
    assert param_count(4, 3, "free-var-free-cov") == 39
    assert param_count(2, 3, "free-var-zero-cov") == 13
    assert param_count(2, 3, "equal-var-free-cov") == 13
    assert param_count(2, 3, "equal-var-zero-cov") == 10
    assert param_count(1, 3, "free-var-free-cov") == 9
    with pytest.raises(LpaError):
        param_count(2, 3, "bogus")


def test_single_class_is_gaussian_mle():
    rng = np.random.default_rng(1)
    X = rng.multivariate_normal([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]], 400)
    model, post = fit_mixture(X, 1, starts=1)
    assert np.allclose(model.means[0], X.mean(axis=0), atol=1e-8)
    assert np.allclose(model.covs[0], np.cov(X, rowvar=False, ddof=0),
                       atol=1e-6)
    assert np.allclose(post, 1.0)
    assert model.weights[0] == pytest.approx(1.0)


def test_fit_stats_table_fixture():
    """LL = 5595.1 on N = 1034 with 19 free parameters reproduces the
    published information criteria."""
    model = MixtureModel(
        weights=np.array([0.5, 0.5]),
        means=np.zeros((2, 3)),
        covs=np.array([np.eye(3)] * 2),
        structure="free-var-free-cov",
        loglik=5595.1,
        n=1034,
        labels=("sit", "stand", "step"),
    )
    # entropy statistic 0.50 pins the total classification entropy
    en_target = 0.5 * 1034 * math.log(2)
    p_mix = 0.110278
    row = np.array([p_mix, 1 - p_mix])
    per_row = -(row * np.log(row)).sum()
    n_soft = int(round(en_target / per_row))
    post = np.vstack([np.tile(row, (n_soft, 1)),
                      np.tile([1e-12, 1 - 1e-12], (1034 - n_soft, 1))])
    st = fit_stats(model, post)
    assert st.aic == pytest.approx(-11152.3, abs=0.2)
    assert st.bic == pytest.approx(-11058.4, abs=0.2)
    assert st.caic == pytest.approx(-11039.4, abs=0.2)
    assert st.sabic == pytest.approx(-11118.8, abs=0.2)
    assert st.entropy == pytest.approx(0.50, abs=0.005)
    assert st.icl_bic == pytest.approx(st.bic + 2 * en_target, abs=0.5)


def test_entropy_edge_cases():
    hard = np.eye(3)[np.array([0, 1, 2, 0])]
    assert classification_entropy(hard) == pytest.approx(0.0, abs=1e-9)
    model1 = MixtureModel(
        weights=np.array([1.0]), means=np.zeros((1, 2)),
        covs=np.array([np.eye(2)]), structure="free-var-free-cov",
        loglik=0.0, n=4, labels=("a", "b"))
    assert fit_stats(model1, np.ones((4, 1))).entropy == 1.0
    uniform = np.full((10, 2), 0.5)
    en = classification_entropy(uniform)
    assert en == pytest.approx(10 * math.log(2))


def test_em_loglik_monotone_trajectory():
    """Replaying EM from a seeded random start, the log-likelihood never
    decreases beyond relative slack 1e-8."""
    X = three_class_data(n=600, seed=3)
    rng = np.random.default_rng(11)
    resp = rng.random((X.shape[0], 3)) + 0.1
    resp /= resp.sum(axis=1, keepdims=True)
    weights, means, covs = _mstep(X, resp, "free-var-free-cov")
    lls = []
    for _ in range(80):
        logr, ll = _log_resp(X, weights, means, covs)
        lls.append(ll)
        weights, means, covs = _mstep(X, np.exp(logr), "free-var-free-cov")
    diffs = np.diff(lls)
    floor = -1e-8 * np.maximum(1.0, np.abs(lls[:-1]))
    assert np.all(diffs >= floor)


def test_fit_mixture_recovers_components():
    X = three_class_data(n=1200, seed=4)
    model, post = fit_mixture(X, 3, starts=12, seed=0)
    assert model.converged
    assert model.n_replicated >= 1
    # canonical order: ascending mean of indicator 0
    assert np.all(np.diff(model.means[:, 0]) > 0)
    assert np.allclose(model.means[:, 0], [-4.0, 0.0, 4.0], atol=0.25)
    assert np.allclose(np.sort(model.weights), [0.3, 0.3, 0.4], atol=0.06)
    assert post.shape == (1200, 3)
    assert np.allclose(post.sum(axis=1), 1.0)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_structures_produce_constrained_covariances(structure):
    X = three_class_data(n=800, seed=5)
    model, _ = fit_mixture(X, 2, structure=structure, starts=6)
    covs = model.covs
    if "zero-cov" in structure:
        for k in range(2):
            off = covs[k] - np.diag(np.diag(covs[k]))
            assert np.abs(off).max() < 1e-12
    if structure.startswith("equal"):
        assert np.allclose(covs[0], covs[1], atol=1e-12)
    for k in range(2):
        assert np.all(np.linalg.eigvalsh(covs[k]) >= 1e-6 - 1e-12)


def test_modal_assignment_and_tie_break():
    post = np.array([[0.6, 0.4], [0.5, 0.5], [0.1, 0.9]])
    assert modal_assignment(post).tolist() == [0, 0, 1]


def test_error_matrix_rows_are_distributions():
    X = three_class_data(n=900, seed=6)
    model, post = fit_mixture(X, 3, starts=8)
    D = classification_error_matrix(post, modal_assignment(post))
    assert D.shape == (3, 3)
    assert np.allclose(D.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.diag(D) > 0.9)  # well-separated components


def test_error_matrix_identity_for_hard_posteriors():
    post = np.eye(2)[np.array([0, 1, 1, 0, 1])]
    D = classification_error_matrix(post, modal_assignment(post))
    assert np.allclose(D, np.eye(2))
    with pytest.raises(LpaError):
        classification_error_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                    np.array([0, 0]))


def test_posterior_matches_bayes_rule():
    model = reference_model()
    rng = np.random.default_rng(7)
    X = model.sample(100, rng)
    post = posterior(model, X)
    from scipy.stats import multivariate_normal
    num = np.column_stack([
        model.weights[k] * multivariate_normal.pdf(X, model.means[k],
                                                   model.covs[k])
        for k in range(2)
    ])
    assert np.allclose(post, num / num.sum(axis=1, keepdims=True),
                       atol=1e-10)
    with pytest.raises(LpaError, match="3 indicators"):
        posterior(model, np.zeros((5, 3)))


def test_posterior_without_finite_values_raises():
    """Means of 1e200 pass the artifact checks, since each value is finite,
    but no density of the model fits in floating point: that is an error
    counting the rows, raised without a warning on the way (the suite turns
    a RuntimeWarning into a failure), not NaN posteriors whose argmax is
    class 0."""
    model = reference_model()
    X = model.sample(50, np.random.default_rng(3))
    far = dataclasses.replace(model, means=(model.means + 1.0) * 1e200)
    with pytest.raises(LpaError, match="50 of 50 data rows get no finite"):
        posterior(far, X)


def test_derived_remainder_stats_against_brute_force():
    """The dropped behavior's moments (one minus the sum of indicators)
    from the model algebra match simulation within Monte Carlo error."""
    model = MixtureModel(
        weights=np.array([1.0]),
        means=np.array([[0.42, 0.15, 0.05]]),
        covs=np.array([[[0.004, -0.002, -0.0003],
                        [-0.002, 0.0035, 0.0002],
                        [-0.0003, 0.0002, 0.0008]]]),
        structure="free-var-free-cov", loglik=0.0, n=10,
        labels=("sit", "stand", "step"))
    stats = derived_sleep_stats(model)
    rng = np.random.default_rng(8)
    draws = rng.multivariate_normal(model.means[0], model.covs[0], 100000)
    rem = 1.0 - draws.sum(axis=1)
    n = draws.shape[0]
    se_mean = rem.std() / math.sqrt(n)
    assert stats["mean"][0] == pytest.approx(rem.mean(), abs=3 * se_mean)
    se_sd = rem.std() / math.sqrt(2 * (n - 1))
    assert stats["sd"][0] == pytest.approx(rem.std(ddof=1), abs=3 * se_sd)
    for j in range(3):
        rho = np.corrcoef(rem, draws[:, j])[0, 1]
        se_rho = (1 - rho ** 2) / math.sqrt(n - 3)
        assert stats["corr"][0][j] == pytest.approx(rho, abs=3 * se_rho)


def test_blrt_separated_data_rejects():
    X = three_class_data(n=300, seed=9)
    res = blrt(X, 2, n_boot=19, starts=6, starts_boot=3, seed=0)
    assert res["p_value"] <= 0.05
    assert res["n_boot_used"] >= 16
    with pytest.raises(LpaError):
        blrt(X, 1)
    with pytest.raises(LpaError):
        blrt(X, 2, n_boot=5)


def test_blrt_null_data_accepts():
    rng = np.random.default_rng(10)
    X = rng.multivariate_normal([0, 0], np.eye(2), 250)
    res = blrt(X, 2, n_boot=19, starts=4, starts_boot=3, seed=1)
    assert res["p_value"] > 0.05


def test_artifact_json_round_trip():
    X = three_class_data(n=500, seed=11)
    model, _ = fit_mixture(X, 2, starts=5)
    text = model.to_json()
    back = MixtureModel.from_json(text)
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.means, model.means)
    assert np.array_equal(back.covs, model.covs)
    assert back.loglik == model.loglik
    assert back.labels == model.labels
    assert back.to_json() == text
    import json
    bad = json.loads(text)
    bad["format_version"] = 999
    with pytest.raises(LpaError):
        MixtureModel.from_json(json.dumps(bad))


def test_artifact_keys_are_the_model_fields_and_the_version():
    import json
    from dataclasses import fields
    names = {f.name for f in fields(MixtureModel)}
    assert set(json.loads(reference_model().to_json())) == (
        names | {"format_version"})
    # a selection row carries only what the table adds to its K's model
    assert not names & {f.name for f in fields(lpa.SelectionRow)}


_ARTIFACT_FIELDS = ("structure", "weights", "means", "covs", "loglik", "n",
                    "labels", "order_indicator", "n_iter", "converged",
                    "n_starts", "n_replicated", "n_degenerate_starts")


@pytest.mark.parametrize("edit", [
    *[pytest.param(lambda d, f=f: d.pop(f), id=f"missing-{f}")
      for f in _ARTIFACT_FIELDS],
    pytest.param(lambda d: d.update(n="50"), id="string-n"),
    pytest.param(lambda d: d.update(n=50.5), id="float-n"),
    pytest.param(lambda d: d.update(n_iter=True), id="bool-n_iter"),
    pytest.param(lambda d: d.update(converged=1), id="int-converged"),
    pytest.param(lambda d: d.update(loglik=None), id="null-loglik"),
    pytest.param(lambda d: d.update(labels="ab"), id="string-labels"),
    pytest.param(lambda d: d.update(labels=["a", 2]), id="int-label"),
    pytest.param(lambda d: d.update(labels=["a"]), id="short-labels"),
    pytest.param(lambda d: d.update(structure="diag"), id="bad-structure"),
    pytest.param(lambda d: d.update(weights=[0.4]), id="short-weights"),
    pytest.param(lambda d: d.update(weights=[[0.4, 0.6]]), id="2d-weights"),
    pytest.param(lambda d: d.update(means=[[0.0, "x"], [3.0, 1.0]]),
                 id="text-mean"),
    pytest.param(lambda d: d.update(weights=["0.4", "0.6"]),
                 id="numeric-text-weights"),
    pytest.param(lambda d: d.update(weights=[True, False]), id="bool-weights"),
    pytest.param(lambda d: d.update(weights=[0.4, float("nan")]),
                 id="nan-weight"),
    pytest.param(lambda d: d.update(weights=[-0.4, 1.4]),
                 id="negative-weight"),
    pytest.param(lambda d: d.update(weights=[0.0, 1.0]), id="zero-weight"),
    pytest.param(lambda d: d.update(weights=[0.4, 0.5]),
                 id="weights-not-summing-to-1"),
    pytest.param(lambda d: d["covs"].__setitem__(0, [[1.0, 2.0], [2.0, 1.0]]),
                 id="indefinite-cov"),
    pytest.param(lambda d: d.update(means=[[0.0], [3.0, 1.0]]),
                 id="ragged-means"),
    pytest.param(lambda d: d.update(covs=d["covs"][:1]), id="short-covs"),
    pytest.param(lambda d: d.update(covs=None), id="null-covs"),
])
def test_artifact_with_missing_or_ill_typed_field_is_rejected(edit):
    import json
    data = json.loads(reference_model().to_json())
    edit(data)
    with pytest.raises(LpaError):
        MixtureModel.from_json(json.dumps(data))


@pytest.mark.parametrize("loglik", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "minus-inf", "int-past-float"])
def test_artifact_with_a_non_finite_loglik_is_rejected(loglik):
    import json
    data = json.loads(reference_model().to_json())
    data["loglik"] = loglik
    with pytest.raises(LpaError, match="'loglik' is not a finite number"):
        MixtureModel.from_json(json.dumps(data))


@pytest.mark.parametrize("text", ["", "not json", "[1, 2]", "null"])
def test_artifact_that_is_not_a_json_object_is_rejected(text):
    with pytest.raises(LpaError):
        MixtureModel.from_json(text)


def test_fit_mixture_reproducible():
    X = three_class_data(n=400, seed=12)
    m1, p1 = fit_mixture(X, 2, starts=6, seed=3)
    m2, p2 = fit_mixture(X, 2, starts=6, seed=3)
    assert m1.loglik == m2.loglik
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(p1, p2)


def test_selection_table_shape_and_bic():
    X = three_class_data(n=700, seed=13)
    rows, models = selection_table(X, range(1, 4), starts=8, seed=0)
    assert [r.K for r in rows] == [1, 2, 3]
    assert set(models) == {1, 2, 3}
    bics = {r.K: r.stats.bic for r in rows}
    assert min(bics, key=bics.get) == 3
    for r in rows:
        assert r.n_min >= 1
        assert 0 < r.n_min_pct <= 100
    lls = [models[r.K][0].loglik for r in rows]
    assert lls == sorted(lls)  # more classes never fit worse here


def test_fit_mixture_input_validation():
    X = three_class_data(n=100, seed=14)
    with pytest.raises(LpaError):
        fit_mixture(X, 0)
    with pytest.raises(LpaError):
        fit_mixture(X[:10], 3)  # n <= parameter count


# --- a plain single-start EM, one component at a time, as the reference for
# the batched engine in ``fit_mixture`` ---

def _ref_floor(cov):
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] >= VARIANCE_FLOOR:
        return cov
    return (vecs * np.maximum(vals, VARIANCE_FLOOR)) @ vecs.T


def _ref_em(X, K, structure, seed, max_iter, tol):
    """(loglik, weights, means, covs, n_iter, converged), or None for a
    degenerate start."""
    n, d = X.shape
    means = X[np.random.default_rng(seed).choice(n, size=K, replace=False)]
    pooled = np.atleast_2d(np.cov(X, rowvar=False, ddof=0))
    if "zero-cov" in structure:
        pooled = np.diag(np.diag(pooled))
    covs = np.tile(_ref_floor(pooled), (K, 1, 1))
    weights = np.full(K, 1.0 / K)
    prev = -np.inf
    for it in range(1, max_iter + 1):
        logp = np.empty((n, K))
        for k in range(K):
            try:
                L = np.linalg.cholesky(covs[k])
            except np.linalg.LinAlgError:
                return None
            sol = solve_triangular(L, (X - means[k]).T, lower=True)
            logp[:, k] = math.log(weights[k]) - 0.5 * (
                d * math.log(2 * math.pi) + 2 * np.log(np.diag(L)).sum()
                + (sol ** 2).sum(axis=0))
        norm = logsumexp(logp, axis=1)
        ll = float(norm.sum())
        if ll < prev - 1e-8 * max(1.0, abs(prev)):
            return None
        if prev > -np.inf and abs(ll - prev) <= tol * max(1.0, abs(prev)):
            return ll, weights, means, covs, it, True
        prev = ll
        resp = np.exp(logp - norm[:, None])
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-8):
            return None
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        scatter = np.array([((X - means[k]) * resp[:, [k]]).T
                            @ (X - means[k]) for k in range(K)])
        if structure.startswith("equal"):
            scatter = np.tile(scatter.sum(axis=0) / n, (K, 1, 1))
        else:
            scatter = scatter / nk[:, None, None]
        if "zero-cov" in structure:
            scatter = np.array([np.diag(np.diag(c)) for c in scatter])
        covs = np.array([_ref_floor(c) for c in scatter])
    return prev, weights, means, covs, max_iter, False


def _ordered(weights, means, covs):
    order = np.argsort(means[:, 0], kind="stable")
    return weights[order], means[order], covs[order]


def _assert_start_matches(model, ref, rtol=1e-10):
    ll, weights, means, covs, n_iter, converged = ref
    assert model.loglik == pytest.approx(ll, rel=1e-10, abs=1e-10)
    for got, want in zip((model.weights, model.means, model.covs),
                         _ordered(weights, means, covs)):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-12)
    assert (model.n_iter, model.converged) == (n_iter, converged)


def collinear_data(n=120):
    """Two nearly collinear indicators on a large scale: a K=2 start whose
    component shrinks onto two points has a covariance with condition number
    near 1e14, whose floored eigenvalue jitters, so its log-likelihood
    decreases and the start is degenerate.  Rounding differences grow
    faster here, so its parameters are compared to a looser tolerance."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    return np.column_stack([x, x + rng.normal(size=n) * 1e-3]) * 1e4


@pytest.mark.parametrize("structure", STRUCTURES)
def test_batched_em_matches_single_start_reference(structure):
    X = three_class_data(n=240, seed=15)
    cases = [(X, K, 1e-10) for K in (1, 2, 3, 4)]
    if structure == "free-var-free-cov":
        cases.append((collinear_data(), 2, 1e-7))
    for X, K, rtol in cases:
        refs = [_ref_em(X, K, structure, s, 60, 1e-8) for s in range(12)]
        for s, ref in enumerate(refs):
            if ref is None:
                with pytest.raises(ConvergenceError):
                    fit_mixture(X, K, structure, starts=1, max_iter=60, seed=s)
            else:
                model, _ = fit_mixture(X, K, structure, starts=1,
                                       max_iter=60, seed=s)
                _assert_start_matches(model, ref, rtol)
        kept = [r for r in refs if r is not None]
        best = max(r[0] for r in kept)
        model, post = fit_mixture(X, K, structure, starts=12, max_iter=60)
        assert model.loglik == pytest.approx(best, rel=1e-10)
        assert model.n_replicated == sum(abs(r[0] - best) <= 1e-4
                                         for r in kept)
        assert model.n_degenerate_starts == len(refs) - len(kept)
        # starts that tie at the best log-likelihood may swap places by
        # rounding; the model is one of them
        assert any(_matches(model, r, rtol) for r in kept
                   if abs(r[0] - best) <= 1e-9 * abs(best))
        assert np.allclose(post.sum(axis=1), 1.0)
    if structure == "free-var-free-cov":
        assert model.n_degenerate_starts > 0


def test_zero_tolerance_fits_without_warnings():
    """With tol=0 a start's first step once multiplied 0 by an infinite
    slack.  The iteration counts and convergence flags stay the reference's;
    tol=0 stops only on an exactly repeated log-likelihood, which rounding
    decides, so there the reference is compared within 5 iterations."""
    X = three_class_data(n=240, seed=15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for K, structure in ((1, "free-var-free-cov"),
                             (2, "free-var-free-cov"),
                             (3, "equal-var-zero-cov")):
            for tol, max_iter in ((0.0, 5), (1e-8, 40)):
                for s in range(4):
                    ref = _ref_em(X, K, structure, s, max_iter, tol)
                    model, _ = fit_mixture(X, K, structure, starts=1,
                                           max_iter=max_iter, tol=tol, seed=s)
                    assert (model.n_iter, model.converged) == ref[4:]


def _matches(model, ref, rtol):
    try:
        _assert_start_matches(model, ref, rtol)
    except AssertionError:
        return False
    return True


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_bytes", [1, 10**9])
def test_results_do_not_depend_on_the_block_size(monkeypatch, block_bytes,
                                                 workers):
    """Nor on the number of worker processes, which is the number of CPUs
    that ``_cpus`` reports, at most one per block."""
    monkeypatch.setattr(lpa, "_cpus", lambda: 1)
    cases = [(three_class_data(n=300, seed=16), 3, "free-var-free-cov"),
             (three_class_data(n=300, seed=16), 2, "equal-var-zero-cov"),
             (collinear_data(), 2, "free-var-free-cov")]
    default = [fit_mixture(X, K, st, starts=9, max_iter=80, seed=2)
               for X, K, st in cases]
    blrt_cases = [(three_class_data(n=240, seed=16), 2, {}),
                  (collinear_data(40), 4, {"max_failure_fraction": 1.0})]
    default_blrt = [blrt(X, K, n_boot=19, starts=3, starts_boot=1, seed=2,
                         **kw) for X, K, kw in blrt_cases]
    # two BLRTs, one of them with a null model that is not in the table
    table = (three_class_data(n=240, seed=16), range(2, 4))
    table_kw = dict(starts=4, max_iter=60, seed=2, run_blrt=True, n_boot=19,
                    starts_boot=2)
    want_rows, want_models = selection_table(*table, **table_kw)
    monkeypatch.setattr(lpa, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(lpa, "_cpus", lambda: workers)
    for (X, K, st), (want, want_post) in zip(cases, default):
        got, got_post = fit_mixture(X, K, st, starts=9, max_iter=80, seed=2)
        assert got.to_json() == want.to_json()
        assert np.array_equal(got_post, want_post)
    for (X, K, kw), want in zip(blrt_cases, default_blrt):
        assert blrt(X, K, n_boot=19, starts=3, starts_boot=1, seed=2,
                    **kw) == want
    rows, models = selection_table(*table, **table_kw)
    assert rows == want_rows
    assert all(row.blrt_p is not None for row in rows)
    assert list(models) == list(want_models)
    for K, (model, post) in models.items():
        assert model.to_json() == want_models[K][0].to_json()
        assert np.array_equal(post, want_models[K][1])


def test_a_worker_exception_reaches_the_caller_with_its_type(monkeypatch):
    """One block that raises in a worker process raises in the caller, with
    its type; no worker outlives a call that returns or one that raises."""
    import multiprocessing
    X = three_class_data(n=300, seed=16)
    monkeypatch.setattr(lpa, "_cpus", lambda: 2)
    monkeypatch.setattr(lpa, "_BLOCK_BYTES", 1)  # one start per block
    fit_mixture(X, 2, starts=4, max_iter=20)
    assert multiprocessing.active_children() == []
    em_block = lpa._em_block

    def em_block_failing_at_seed_3(Xs, sets, pooled, K, structure, seeds,
                                   *rest):
        if seeds == [3]:
            raise np.linalg.LinAlgError(f"seed 3 failed in {os.getpid()}")
        return em_block(Xs, sets, pooled, K, structure, seeds, *rest)

    monkeypatch.setattr(lpa, "_em_block", em_block_failing_at_seed_3)
    with pytest.raises(np.linalg.LinAlgError, match="seed 3 failed") as exc:
        fit_mixture(X, 2, starts=4, max_iter=20)
    assert str(os.getpid()) not in str(exc.value)  # raised in a worker
    assert multiprocessing.active_children() == []


def test_a_dead_worker_raises_worker_error_naming_its_exit_code(
        em_worker_dying_at_seed_3):
    import multiprocessing
    with pytest.raises(lpa.WorkerError, match="exit code 9"):
        fit_mixture(three_class_data(n=300, seed=16), 2, starts=4,
                    max_iter=20)
    assert multiprocessing.active_children() == []


def test_a_worker_that_exits_after_a_block_raises_worker_error(monkeypatch):
    """A worker that ends right after sending a result makes the next send
    or receive on its pipe fail, whichever comes first; either way the
    caller gets a WorkerError."""
    import multiprocessing

    def serve_one_block(conn, parent_ends, units):
        for end in parent_ends:
            end.close()
        i = conn.recv()
        conn.send((i, lpa._em_block(*units[i])))
        os._exit(0)

    monkeypatch.setattr(lpa, "_cpus", lambda: 2)
    monkeypatch.setattr(lpa, "_BLOCK_BYTES", 1)  # one start per block
    monkeypatch.setattr(lpa, "_serve_blocks", serve_one_block)
    X = three_class_data(n=300, seed=16)
    for _ in range(5):
        with pytest.raises(lpa.WorkerError, match="exit code 0"):
            fit_mixture(X, 2, starts=6, max_iter=5)
        assert multiprocessing.active_children() == []


def test_failed_batched_cholesky_flags_only_the_failing_start():
    good = np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
    bad = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])  # indefinite
    chol, failed = _by_start(np.linalg.cholesky, np.array([good, bad, good]))
    assert failed.tolist() == [False, True, False]
    for s in (0, 2):
        assert np.array_equal(chol[s], np.linalg.cholesky(good))


def test_selection_table_blrt_reuses_its_fits():
    X = three_class_data(n=240, seed=17)
    rows, _ = selection_table(X, range(1, 3), starts=4, seed=3,
                              run_blrt=True, n_boot=19, starts_boot=2)
    alone = blrt(X, 2, n_boot=19, starts=4, starts_boot=2, seed=3)
    assert rows[0].blrt_p is None and rows[0].blrt_n_boot_failed is None
    assert rows[1].blrt_p == alone["p_value"]
    assert rows[1].blrt_n_boot_failed == alone["n_boot_failed"]
    rows, _ = selection_table(X, [2], starts=4, seed=3, run_blrt=True,
                              n_boot=19, starts_boot=2)
    assert rows[0].blrt_p == alone["p_value"]
    with pytest.raises(LpaError):
        blrt(X, 3, alt_model=fit_mixture(X, 2, starts=2)[0])


# --- the per-replicate BLRT loop that ``blrt`` replaced, kept as the
# reference for its batched refits ---

def _ref_blrt(X, K, structure="free-var-free-cov", n_boot=500, starts=20,
              starts_boot=20, max_iter=250, tol=1e-8, seed=0,
              max_failure_fraction=0.2):
    X = np.asarray(X, dtype=float)
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
    return {"statistic": observed, "p_value": p, "n_boot_used": n_used,
            "n_boot_failed": failures}


@pytest.mark.parametrize("seed", range(6))
def test_batched_blrt_matches_per_replicate_reference(seed):
    rng = np.random.default_rng(900 + seed)
    cases = [
        (rng.normal(0.0, 1.0, size=250), 2,
         dict(n_boot=19, starts=6, starts_boot=4, max_iter=80, tol=1e-5)),
        (three_class_data(n=240, seed=seed), 3,
         dict(n_boot=19, starts=4, starts_boot=2, max_iter=60,
              structure=STRUCTURES[seed % 4])),
    ]
    for X, K, kw in cases:
        assert blrt(X, K, seed=seed, **kw) == _ref_blrt(X, K, seed=seed, **kw)


def test_batched_blrt_counts_failed_replicates_as_the_reference():
    """On 40 nearly collinear points a K=4 refit from one start often
    degenerates: 6 of 19 replicates fail here, and the threshold on the
    failure count is the reference's.  On 60 points with 3 starts per
    replicate, several replicates keep some but not all of their starts,
    and one fails."""
    X = collinear_data(60)
    kw = dict(n_boot=19, starts=4, starts_boot=3, seed=0,
              max_failure_fraction=1.0)
    want = _ref_blrt(X, 4, **kw)
    assert want["n_boot_failed"] == 1
    assert blrt(X, 4, **kw) == want
    X = collinear_data(40)
    kw = dict(n_boot=19, starts=4, starts_boot=1, seed=0)
    want = _ref_blrt(X, 4, max_failure_fraction=1.0, **kw)
    assert want["n_boot_failed"] == 6
    assert blrt(X, 4, max_failure_fraction=1.0, **kw) == want
    fraction = 6 / 19
    assert blrt(X, 4, max_failure_fraction=fraction, **kw) == _ref_blrt(
        X, 4, max_failure_fraction=fraction, **kw)
    for impl in (blrt, _ref_blrt):
        with pytest.raises(ConvergenceError, match="6/19"):
            impl(X, 4, max_failure_fraction=fraction - 1e-3, **kw)


# --- the EM kernel's numerics and memory: centred sufficient statistics,
# the E-step's quadratic form, a block's byte budget, and the Cholesky
# floor test against the eigh floor that it replaced ---

@pytest.mark.parametrize("c", [1e3, 1e6])
def test_fits_are_shift_equivariant(c):
    """EM runs on the data centred at their mean, so the fit of X + c is
    the fit of X moved by c.  (A raw-moment M-step on uncentred data loses
    about log10(c^2 / variance) digits to cancellation and fails here.)"""
    X = three_class_data(n=300, seed=18)
    cases = [(X, 3, "free-var-free-cov"), (X, 2, "equal-var-zero-cov"),
             (X, 4, "free-var-zero-cov"), (X[:, :1], 2, "equal-var-free-cov")]
    for X, K, structure in cases:
        kw = dict(starts=6, max_iter=80, seed=1)
        want, want_post = fit_mixture(X, K, structure, **kw)
        got, got_post = fit_mixture(X + c, K, structure, **kw)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-10)
        for a, b in ((got.means - c, want.means), (got.covs, want.covs),
                     (got.weights, want.weights), (got_post, want_post)):
            np.testing.assert_allclose(a, b, rtol=1e-9,
                                       atol=1e-9 * np.abs(b).max())
        assert (got.n_iter, got.converged, got.n_replicated,
                got.n_degenerate_starts) == (
            want.n_iter, want.converged, want.n_replicated,
            want.n_degenerate_starts)


def test_estep_log_densities_match_the_whitened_form():
    """The E-step expands ``(x - mu)' P (x - mu)`` into coefficients of the
    feature rows, which could lose digits where it is small against
    ``mu' P mu``: under a tight covariance centred on an outlying point.
    On proportion-scale data centred at its mean, with rotated covariances
    of eigenvalues 1e-6 to 1e-2 (condition number up to 1e4) centred on the
    data's farthest points, its log densities match the ``L^-1 (x - mu)``
    form within 1e-9 wherever D^2 / 2 < 50.  Each point is a one-point
    data set of its own, so the log-likelihood of a one-component mixture
    on it is the point's log density."""
    rng = np.random.default_rng(40)
    K, worst, checked = 3, 0.0, 0
    for case in range(200):
        d = 1 + case % 3
        base = rng.dirichlet(np.full(d + 1, 2.0), size=200)[:, :d]
        means = base[np.argsort(((base - base.mean(axis=0)) ** 2).sum(
            axis=1))[-K:]]
        q, _ = np.linalg.qr(rng.normal(size=(K, d, d)))
        smallest = 10 ** rng.uniform(-6, -2, size=(K, 1))
        vals = np.minimum(smallest * 10 ** rng.uniform(0, 4, size=(K, d)),
                          1e-2)
        covs = (q * vals[:, None, :]) @ np.swapaxes(q, -1, -2)
        X = np.vstack([base] + [rng.multivariate_normal(m, c, size=20)
                                for m, c in zip(means, covs)])
        n = len(X)
        F = np.empty((lpa._n_features(d), n))
        centre = lpa._fill_features(F, X)
        for mu, L in zip(means - centre, np.linalg.cholesky(covs)):
            _, got = lpa._estep(F.T[:, :, None], np.ones((n, 1)),
                                np.broadcast_to(mu, (n, 1, d)),
                                np.broadcast_to(L, (n, 1, d, d)))
            half = 0.5 * (solve_triangular(L, (X - centre - mu).T,
                                           lower=True) ** 2).sum(axis=0)
            want = -0.5 * (d * math.log(2 * math.pi)
                           + 2 * np.log(np.diag(L)).sum()) - half
            near = half < 50
            worst = max(worst, np.abs(got - want)[near].max())
            checked += near.sum()
    assert checked > 10_000
    assert worst <= 1e-9


@pytest.mark.parametrize("B, n, K, starts", [(1, 1000, 2, 80),
                                             (1, 1000, 6, 30),
                                             (20, 200, 2, 20)])
def test_a_block_stays_within_its_byte_budget(B, n, K, starts):
    """The first (full) block of a plan, on one data set shared by every
    start (B = 1) or on stacked replicates (B > 1), allocates at most
    ``_BLOCK_BYTES`` beyond its data and one data set's feature rows, give
    or take a stated margin: the E-step's per-point maximum and sum over
    components (a transient row of N per start each), and 256 KiB for
    numpy's ufunc buffers and the per-start parameter arrays."""
    rng = np.random.default_rng(41)
    Xs = rng.dirichlet(np.full(4, 2.0), size=(B, n))[..., :3]
    pooled, _ = lpa._pooled_covs(Xs, "free-var-free-cov")
    unit = lpa._plan_starts(Xs, np.arange(B), pooled, K, "free-var-free-cov",
                            starts, 30, 1e-8, 0)[0]
    S = len(unit[5])
    assert S > 1
    p = lpa._n_features(Xs.shape[-1])
    allowed = (lpa._BLOCK_BYTES + unit[0].nbytes + 8 * p * n + 2 * 8 * n * S
               + (1 << 18))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lpa._em_block(*unit)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= allowed


def _ref_floor_covs(covs):
    """The floor before the Cholesky test: eigenvalues of every start."""
    covs = 0.5 * (covs + np.swapaxes(covs, -1, -2))
    (vals, vecs), failed = _by_start(np.linalg.eigh, covs)
    low = vals[..., 0] < VARIANCE_FLOOR
    if low.any():
        v = vecs[low]
        covs[low] = (v * np.maximum(vals[low], VARIANCE_FLOOR)[..., None, :]
                     ) @ np.swapaxes(v, -1, -2)
    return covs, failed


def _random_covs(rng, shape, d, smallest, scale=1.0):
    """Covariances (*shape, d, d) with random eigenvectors, the smallest
    eigenvalues ``smallest`` (shape) and the others in [0.01, 1] * scale."""
    q, _ = np.linalg.qr(rng.normal(size=(*shape, d, d)))
    vals = rng.uniform(0.01, 1.0, size=(*shape, d)) * scale
    vals[..., 0] = smallest
    return (q * vals[..., None, :]) @ np.swapaxes(q, -1, -2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cholesky_floor_test_matches_the_eigh_floor(monkeypatch, d):
    """Equal covariances and flags, also where the smallest eigenvalue is
    within rounding of the floor, where a plain Cholesky test of
    ``cov - floor * I`` can pass although eigh puts it below the floor."""
    rng = np.random.default_rng(30 + d)
    eps = np.finfo(float).eps
    for trial in range(60):
        shape = ((7,), (5, 4))[trial % 2]
        scale = (1.0, 1e4, 1e8)[trial % 3]
        n = math.prod(shape)
        kinds = [
            VARIANCE_FLOOR * (1 + rng.choice([-1e-9, 0.0, 1e-9], n)),
            VARIANCE_FLOOR + rng.uniform(-20, 20, n) * eps * scale,
            -rng.uniform(1e-9, 1.0, n),
            rng.uniform(1e-3, 1.0, n),
        ]
        smallest = np.choose(rng.integers(len(kinds), size=n), kinds)
        covs = _random_covs(rng, shape, d, smallest.reshape(shape), scale)
        if trial % 5 == 0:
            covs[rng.integers(shape[0])] = np.nan
        got, got_failed = lpa._floor_covs(covs.copy())
        want, want_failed = _ref_floor_covs(covs.copy())
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(got_failed, want_failed)
    # a stack clear of the floor takes no eigendecomposition
    covs = _random_covs(rng, (5, 4), d, rng.uniform(1e-3, 1.0, (5, 4)))
    want = _ref_floor_covs(covs.copy())
    monkeypatch.setattr(np.linalg, "eigh", None)
    got = lpa._floor_covs(covs.copy())
    assert np.array_equal(got[0], want[0]) and not got[1].any()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_a_data_error(value):
    """A non-finite cell made every start fail (ConvergenceError, a numeric
    failure) and gave NaN posterior rows; it is an LpaError naming the
    rows."""
    X = three_class_data(n=240, seed=21)
    X[[3, 70, 70], [0, 0, 1]] = value
    calls = [lambda: fit_mixture(X, 2, starts=2),
             lambda: blrt(X, 2, n_boot=19, starts=2, starts_boot=1),
             lambda: selection_table(X, [1], starts=2),
             lambda: posterior(reference_model(), X)]
    for call in calls:
        with pytest.raises(LpaError, match="2 of 240 data rows") as err:
            call()
        assert not isinstance(err.value, ConvergenceError)
