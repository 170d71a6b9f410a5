"""Simplex geometry: fixtures, group axioms, and ilr properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daycycle.composition import (
    CANONICAL_LABELS,
    Composition,
    CompositionError,
    SBPartition,
    aitchison_distance,
    closure_values,
    compositional_mean,
    ilr,
    ilr_array,
    ilr_inverse,
    inverse,
    perturb,
    perturb_difference,
    pivot_basis,
    power,
    replace_zeros,
    ternary_coords,
    uniform,
    variation_matrix,
)

LAB3 = ("a", "b", "c")

# Two reference 24-hour compositions: 10h sit, 3h stand, 2h step, 9h sleep
# and 7.6h sit, 5.4h stand, 2h step, 9h sleep.
X1_HOURS = (10.0, 3.0, 2.0, 9.0)
X2_HOURS = (7.6, 5.4, 2.0, 9.0)


def comp(values, labels=LAB3):
    return closure_values(values, labels)


def comps(draw_floats, labels=LAB3):
    return comp([v + 0.01 for v in draw_floats], labels)


positive_parts = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False), min_size=3,
    max_size=3)


def test_composition_validation():
    with pytest.raises(CompositionError):
        Composition((0.5, 0.5), ("a",))
    with pytest.raises(CompositionError):
        Composition((1.0,), ("a",))
    with pytest.raises(CompositionError):
        Composition((0.5, 0.0, 0.5), LAB3)
    with pytest.raises(CompositionError):
        Composition((0.5, 0.4, 0.2), LAB3)
    x = Composition((0.2, 0.3, 0.5), LAB3)
    assert x.D == 3
    assert x.part("b") == 0.3


def test_closure_rescales_to_unit_sum():
    x = closure_values((600.0, 180.0, 120.0, 540.0), CANONICAL_LABELS)
    assert math.isclose(sum(x.parts), 1.0, abs_tol=1e-12)
    assert math.isclose(x.part("sit"), 600 / 1440, rel_tol=1e-14)


def test_perturbation_example():
    # closure((1*2, 2*1, 3*1)) = (2/7, 2/7, 3/7)
    x = comp([1, 2, 3])
    y = comp([2, 1, 1])
    z = perturb(x, y)
    assert np.allclose(z.array(), [2 / 7, 2 / 7, 3 / 7])


def test_power_example():
    x = comp([1, 4, 9])
    z = power(0.5, x)
    assert np.allclose(z.array(), np.array([1, 2, 3]) / 6)


@given(positive_parts, positive_parts)
@settings(max_examples=100, deadline=None)
def test_perturbation_commutes(u, v):
    x, y = comps(u), comps(v)
    assert np.allclose(perturb(x, y).array(), perturb(y, x).array(),
                       atol=1e-14)


@given(positive_parts, positive_parts, positive_parts)
@settings(max_examples=100, deadline=None)
def test_perturbation_associates(u, v, w):
    x, y, z = comps(u), comps(v), comps(w)
    left = perturb(perturb(x, y), z).array()
    right = perturb(x, perturb(y, z)).array()
    assert np.allclose(left, right, atol=1e-13)


@given(positive_parts)
@settings(max_examples=100, deadline=None)
def test_identity_and_inverse(u):
    x = comps(u)
    e = uniform(LAB3)
    assert np.allclose(perturb(x, e).array(), x.array(), atol=1e-14)
    assert np.allclose(perturb(x, inverse(x)).array(), e.array(), atol=1e-14)


@given(positive_parts, positive_parts)
@settings(max_examples=100, deadline=None)
def test_perturb_difference_recovers(u, v):
    x, y = comps(u), comps(v)
    d = perturb_difference(x, y)
    assert np.allclose(perturb(x, d).array(), y.array(), atol=1e-13)


@given(positive_parts, st.floats(min_value=-3, max_value=3))
@settings(max_examples=100, deadline=None)
def test_power_distributes_over_perturbation(u, a):
    x = comps(u)
    lhs = power(a + 1.0, x).array()
    rhs = perturb(power(a, x), x).array()
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(positive_parts, st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_closure_scale_invariance(u, scale):
    a = np.array(u) + 0.01
    assert np.allclose(comp(a).array(), comp(a * scale).array(), atol=1e-14)


def test_compositional_mean_is_closed_geometric_mean():
    parts = np.array([comp([1, 2, 3]).array(), comp([2, 2, 2]).array(),
                      comp([4, 1, 1]).array()])
    g = np.exp(np.mean(np.log(parts), axis=0))
    expected = g / g.sum()
    assert np.allclose(compositional_mean(parts, LAB3).array(), expected,
                       atol=1e-15)


def _reference_compositional_mean(samples):
    """The per-sample loop the array version replaced."""
    logs = np.zeros(samples[0].D)
    for s in samples:
        logs += np.log(s.array())
    logs /= len(samples)
    return closure_values(np.exp(logs - logs.max()), samples[0].labels)


def test_compositional_mean_of_array_equals_list():
    rng = np.random.default_rng(5)
    parts = rng.dirichlet([20.0, 8.0, 3.0, 17.0], size=2000)
    samples = [Composition(tuple(row), CANONICAL_LABELS)
               for row in parts.tolist()]
    from_array = compositional_mean(parts, CANONICAL_LABELS)
    assert from_array == _reference_compositional_mean(samples)
    assert from_array.labels == CANONICAL_LABELS


def test_compositional_mean_array_validation():
    parts = np.array([[0.5, 0.5], [0.25, 0.75]])
    with pytest.raises(CompositionError):
        compositional_mean(parts, LAB3)  # width does not match the labels
    with pytest.raises(CompositionError):
        compositional_mean(np.empty((0, 2)), ("a", "b"))
    with pytest.raises(CompositionError):
        compositional_mean(np.array([[0.0, 1.0]]), ("a", "b"))
    with pytest.raises(CompositionError):
        compositional_mean(np.array([[math.nan, 1.0]]), ("a", "b"))
    with pytest.raises(CompositionError):
        variation_matrix(parts, LAB3)  # the same sample check
    with pytest.raises(CompositionError):
        variation_matrix(parts[:1], ("a", "b"))  # one row has no spread


def test_aitchison_distance_properties():
    x = comp([1, 2, 3])
    y = comp([3, 2, 1])
    assert aitchison_distance(x, x) == 0.0
    assert aitchison_distance(x, y) == pytest.approx(
        aitchison_distance(y, x))
    # perturbation invariance
    z = comp([5, 1, 2])
    d0 = aitchison_distance(x, y)
    d1 = aitchison_distance(perturb(x, z), perturb(y, z))
    assert d1 == pytest.approx(d0, abs=1e-12)


def test_variation_matrix_shape_and_symmetry():
    rng = np.random.default_rng(3)
    parts = np.array([comp(rng.uniform(0.1, 5, size=3)).array()
                      for _ in range(50)])
    vm = variation_matrix(parts, LAB3)
    T = vm.entries
    assert T.shape == (3, 3)
    assert np.allclose(T, T.T)
    assert np.allclose(np.diag(T), 0.0)
    # T[i, j] is the SD of log(x_i / x_j)
    logr = np.log(parts[:, 0] / parts[:, 1])
    assert T[0, 1] == pytest.approx(np.std(logr, ddof=1))


def test_pivot_basis_contrast_weights():
    b = pivot_basis("step", CANONICAL_LABELS)
    V = b.contrast
    assert V.shape == (4, 3)
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-12)
    # first coordinate: sqrt(3/4) * ln(step / gmean(sit, stand, sleep))
    k = CANONICAL_LABELS.index("step")
    assert V[k, 0] == pytest.approx(math.sqrt(3 / 4))
    others = [i for i in range(4) if i != k]
    assert np.allclose(V[others, 0], -math.sqrt(3 / 4) / 3)


def test_sbp_validation_rejects_bad_tables():
    with pytest.raises(CompositionError):
        SBPartition(((1, 1, 1),), LAB3)  # no denominator group
    with pytest.raises(CompositionError):
        SBPartition(((1, -1, 0), (0, 1, -1)), LAB3)  # first level has a zero
    with pytest.raises(CompositionError):
        # second level does not split a previously formed group
        SBPartition(((1, 1, -1, -1), (1, 0, -1, 0), (0, 1, 0, -1)),
                    ("a", "b", "c", "d"))


def test_ilr_reference_point_one():
    x = Composition((0.417, 0.125, 0.083, 0.375), CANONICAL_LABELS)
    z = ilr(x, pivot_basis("step", CANONICAL_LABELS)).array()
    assert np.allclose(z, [-1.02, 0.53, -0.78], atol=0.03)


def test_ilr_reference_point_two():
    x = Composition((0.317, 0.225, 0.083, 0.375), CANONICAL_LABELS)
    z = ilr(x, pivot_basis("step", CANONICAL_LABELS)).array()
    assert np.allclose(z, [-1.12, 0.06, -0.34], atol=0.03)


def test_ilr_contrast_between_reference_points():
    basis = pivot_basis("step", CANONICAL_LABELS)
    x1 = closure_values(X1_HOURS, CANONICAL_LABELS)
    x2 = closure_values(X2_HOURS, CANONICAL_LABELS)
    dz = ilr(x2, basis).array() - ilr(x1, basis).array()
    assert np.allclose(dz, [-0.1, -0.48, 0.44], atol=0.03)
    # the coordinate difference equals ilr of the perturbation difference
    d = perturb_difference(x1, x2)
    assert np.allclose(ilr(d, basis).array(), dz, atol=1e-12)


def test_ilr_round_trip_thousand_compositions():
    rng = np.random.default_rng(42)
    basis = pivot_basis("step", CANONICAL_LABELS)
    worst = 0.0
    for _ in range(1000):
        x = closure_values(rng.uniform(0.01, 10.0, size=4), CANONICAL_LABELS)
        back = ilr_inverse(ilr(x, basis), basis)
        worst = max(worst, np.abs(back.array() - x.array()).max())
    assert worst < 1e-10


def test_ilr_is_isometric():
    rng = np.random.default_rng(7)
    basis = pivot_basis("sit", CANONICAL_LABELS)
    for _ in range(50):
        x = closure_values(rng.uniform(0.05, 5, size=4), CANONICAL_LABELS)
        y = closure_values(rng.uniform(0.05, 5, size=4), CANONICAL_LABELS)
        dz = np.linalg.norm(ilr(x, basis).array() - ilr(y, basis).array())
        assert dz == pytest.approx(aitchison_distance(x, y), abs=1e-12)


def test_ilr_linearity():
    basis = pivot_basis("stand", CANONICAL_LABELS)
    x = closure_values([3, 1, 2, 5], CANONICAL_LABELS)
    y = closure_values([1, 1, 4, 2], CANONICAL_LABELS)
    lhs = ilr(perturb(x, power(2.5, y)), basis).array()
    rhs = ilr(x, basis).array() + 2.5 * ilr(y, basis).array()
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_ilr_array_matches_scalar_ilr():
    rng = np.random.default_rng(11)
    basis = pivot_basis("step", CANONICAL_LABELS)
    raw = rng.uniform(0.1, 5, size=(20, 4))
    parts = raw / raw.sum(axis=1, keepdims=True)
    Z = ilr_array(parts, basis)
    for i in range(20):
        x = Composition(tuple(parts[i]), CANONICAL_LABELS)
        assert np.allclose(Z[i], ilr(x, basis).array(), atol=1e-13)


def test_zero_replacement_fixed_floor():
    minutes = np.array([[100.0, 0.0, 50.0], [0.1, 0.3, 0.7]])
    fixed = replace_zeros(minutes, floor=1.0)
    assert np.allclose(fixed[0], [99.33333333333333, 1.0,
                                  49.666666666666664])
    assert fixed[0].sum() == pytest.approx(minutes[0].sum())
    assert np.array_equal(fixed[1], minutes[1])  # no zero: unchanged
    assert minutes[0, 1] == 0.0  # the input is not written


def test_zero_replacement_errors():
    for minutes in ([[1.0, 0.0]], [[0.0, 0.0]], [[1.0, -1.0]],
                    [[1.0, math.nan]], [[1.0, math.inf]]):
        with pytest.raises(CompositionError):
            replace_zeros(np.array(minutes), floor=2.0)


def test_ternary_coords_vertices_and_centroid():
    assert ternary_coords(comp([1, 1e-9, 1e-9])) == pytest.approx((0, 0),
                                                                  abs=1e-8)
    assert ternary_coords(comp([1e-9, 1, 1e-9])) == pytest.approx((1, 0),
                                                                  abs=1e-8)
    x, y = ternary_coords(comp([1e-9, 1e-9, 1]))
    assert (x, y) == pytest.approx((0.5, math.sqrt(3) / 2), abs=1e-8)
    cx, cy = ternary_coords(uniform(LAB3))
    assert (cx, cy) == pytest.approx((0.5, math.sqrt(3) / 6))
