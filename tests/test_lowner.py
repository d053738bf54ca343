import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from psdalloc.lowner import (
    AtomicMeasure,
    SmoothedObjective,
    exact_measure,
    grad_hs,
    hs_eval,
    hs_trace_lift,
    phi_primitive,
    smoothed_from_dict,
    smoothed_to_dict,
    y_eval,
)
from psdalloc.objectives import h_eval, h_prime, make_objective
from reference import certify_psd_dr

# frozen quadrature oracle: integral of y over [0, 2] for the measure
# {(0, 0.5), (0.5, 0.25)} via scipy.integrate.quad at 1e-14 tolerances,
# matching the closed form 1 + 0.5*log(3)
MIXED_HS_AT_2 = 1.5493061443340548


def mixed_measure():
    return AtomicMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.25]))


@st.composite
def measures(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    nodes = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.99),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=k, max_size=k)
    )
    if sum(weights) == 0.0:
        weights[0] = 0.5
    return AtomicMeasure(np.array(nodes), np.array(weights))


def test_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([1.0]), np.array([1.0]))  # node at 1 excluded
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([-0.1]), np.array([1.0]))
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([0.5]), np.array([-0.5]))
    with pytest.raises(ValueError):
        AtomicMeasure(np.array([0.1, 0.2]), np.array([1.0]))


@pytest.mark.parametrize("nodes,weights,word", [
    ([np.nan], [0.5], "nodes"), ([0.5], [np.nan], "weights"), ([0.5], [np.inf], "weights"),
    ([0.2, np.nan], [0.5, 0.5], "nodes"),
], ids=["nan-node", "nan-weight", "inf-weight", "one-nan-node-of-two"])
def test_measure_refuses_a_non_finite_atom(nodes, weights, word):
    # nan fails every comparison, so each range check asks for the values inside it
    with pytest.raises(ValueError, match=word):
        AtomicMeasure(np.array(nodes), np.array(weights))


def test_smoothed_objective_refuses_a_nan_slope():
    m = mixed_measure()
    object.__setattr__(m, "weights", np.array([np.nan, 0.25]))     # past the measure's check
    with pytest.raises(ValueError, match="y\\(0\\) = nan"):
        SmoothedObjective(m, make_objective("dopt"))


def test_measure_sorted_and_clipped():
    m = AtomicMeasure(np.array([0.7, 0.1, 0.4]), np.array([1.0, -1e-16, 0.5]))
    # the weight rounded below 0 drops its atom
    assert list(m.nodes) == [0.4, 0.7] and list(m.weights) == [0.5, 1.0]


def test_zero_weight_atoms_are_dropped_at_construction():
    m = AtomicMeasure(np.array([0.9, 0.0, 0.3, 0.5]), np.array([0.0, 0.5, 0.0, 0.25]))
    assert list(m.nodes) == [0.0, 0.5] and list(m.weights) == [0.5, 0.25]
    u = np.linspace(-1.0, 30.0, 63)
    # the support alone is the measure: y and h_S are the two-atom measure's to the bit
    assert np.array_equal(y_eval(m, u), y_eval(mixed_measure(), u))
    assert np.array_equal(hs_eval(m, u), hs_eval(mixed_measure(), u))
    assert m.y0 == mixed_measure().y0
    # all-zero weights leave no atom: y and h_S are 0, and no surrogate has slope 0
    none = AtomicMeasure(np.array([0.5, 0.0]), np.array([0.0, 0.0]))
    assert none.nodes.size == none.weights.size == 0 and none.y0 == 0.0
    assert np.array_equal(y_eval(none, u), np.zeros_like(u))
    assert np.array_equal(hs_eval(none, u), np.zeros_like(u))
    with pytest.raises(ValueError, match="y\\(0\\) = 0 "):
        SmoothedObjective(none, make_objective("linear"))
    with pytest.raises(ValueError, match="nonempty"):
        AtomicMeasure(np.array([]), np.array([]))


def test_y0_closed_form():
    m = mixed_measure()
    assert m.y0 == pytest.approx(0.5 / 1.0 + 0.25 / 0.5, abs=1e-14)


def test_phi_primitive_cases():
    assert phi_primitive(3.0, 0.0) == 3.0
    # lam = 1/2: phi = 2 log(1+u)
    assert phi_primitive(2.0, 0.5) == pytest.approx(2.0 * np.log(3.0), abs=1e-12)
    out = phi_primitive(np.array([[1.0], [2.0]]), np.array([0.0, 0.5]))
    assert out.shape == (2, 2)


@pytest.mark.parametrize("lam", [5e-324, 1e-310])
def test_hs_at_a_subnormal_node_is_its_limit(lam):
    # u lam underflows to 0 (5e-324) or to a subnormal of few digits (1e-310);
    # either way h_S(u) = mu u/(1 - lam) up to a relative O(u lam)
    assert hs_eval(AtomicMeasure([lam], [0.5]), 1e-6) == pytest.approx(5e-7, rel=1e-15, abs=0.0)


@given(m=measures(), u=st.floats(min_value=0.0, max_value=30.0))
def test_phi_primitive_is_antiderivative(m, u):
    # the difference quotient of h_S over [lo, hi] equals y at the interval's
    # midpoint, which is u itself unless u < eps cuts the interval at 0
    eps = 1e-6 * max(u, 1.0)
    lo, hi = max(u - eps, 0.0), u + eps
    d = (hs_eval(m, hi) - hs_eval(m, lo)) / (hi - lo)
    assert d == pytest.approx(y_eval(m, 0.5 * (lo + hi)), rel=1e-5, abs=1e-7)


def test_hs_matches_quadrature_oracle():
    m = mixed_measure()
    assert hs_eval(m, 2.0) == pytest.approx(MIXED_HS_AT_2, abs=1e-9)
    # independent route recomputed here as well
    val, _ = integrate.quad(lambda u: y_eval(m, u), 0.0, 2.0, epsabs=1e-12)
    assert hs_eval(m, 2.0) == pytest.approx(val, abs=1e-9)


@given(m=measures(), u=st.floats(min_value=0.0, max_value=50.0))
def test_y_positive_and_nonincreasing(m, u):
    assert y_eval(m, u) > 0.0
    assert y_eval(m, u + 1.0) <= y_eval(m, u) + 1e-15


@given(m=measures(), u=st.floats(min_value=0.0, max_value=50.0))
def test_y_convex(m, u):
    mid = y_eval(m, u + 0.5)
    assert mid <= 0.5 * (y_eval(m, u) + y_eval(m, u + 1.0)) + 1e-12


@given(m=measures(), u=st.floats(min_value=0.0, max_value=50.0))
def test_hs_concave_nondecreasing(m, u):
    assert hs_eval(m, u) >= -1e-15
    assert hs_eval(m, u + 1.0) >= hs_eval(m, u) - 1e-15
    mid = hs_eval(m, u + 0.5)
    assert mid >= 0.5 * (hs_eval(m, u) + hs_eval(m, u + 1.0)) - 1e-12


@given(m=measures(), u=st.floats(min_value=-5.0, max_value=-0.01))
def test_negative_extension(m, u):
    assert y_eval(m, u) == pytest.approx(m.y0, rel=1e-14)
    assert hs_eval(m, u) == pytest.approx(m.y0 * u, rel=1e-12)


def test_exact_measures_reproduce_base_derivative():
    for kind in ("linear", "dopt"):
        obj = make_objective(kind)
        m = exact_measure(obj)
        u = np.linspace(0.0, 20.0, 50)
        assert np.allclose(y_eval(m, u), h_prime(obj, u), atol=1e-12)
        assert np.allclose(hs_eval(m, u), h_eval(obj, u), atol=1e-12)
    assert exact_measure(make_objective("aopt")) is None
    assert exact_measure(make_objective("pmean2")) is None


def test_smoothed_objective_slope_check():
    obj = make_objective("dopt")
    SmoothedObjective(mixed_measure(), obj)  # y0 == 1 == h'(0)
    bad = AtomicMeasure(np.array([0.0]), np.array([0.7]))
    with pytest.raises(ValueError):
        SmoothedObjective(bad, obj)


def test_hs_trace_lift_matches_eigen_sum(rng):
    sm = SmoothedObjective(mixed_measure(), make_objective("dopt"))
    B = rng.standard_normal((4, 4))
    M = B @ B.T
    w = np.linalg.eigvalsh(M)
    assert hs_trace_lift(sm, M) == pytest.approx(float(np.sum(hs_eval(sm.measure, w))), abs=1e-10)


def test_grad_hs_finite_difference(rng):
    sm = SmoothedObjective(mixed_measure(), make_objective("dopt"))
    B = rng.standard_normal((4, 4))
    M = B @ B.T + 0.3 * np.eye(4)
    G = grad_hs(sm, M)
    eps = 1e-6
    for _ in range(5):
        D = rng.standard_normal((4, 4))
        D = 0.5 * (D + D.T)
        fd = (hs_trace_lift(sm, M + eps * D) - hs_trace_lift(sm, M - eps * D)) / (2 * eps)
        assert fd == pytest.approx(float(np.sum(G * D)), rel=1e-5, abs=1e-7)


def test_grad_hs_at_zero():
    sm = SmoothedObjective(mixed_measure(), make_objective("dopt"))
    assert np.allclose(grad_hs(sm, np.zeros((3, 3))), np.eye(3), atol=1e-12)


def test_certify_psd_dr_passes_for_valid_measure():
    sm = SmoothedObjective(mixed_measure(), make_objective("dopt"))
    rep = certify_psd_dr(sm, trials=60, dim=4, seed=3)
    assert rep.trials == 60 and rep.dim == 4
    assert rep.passed(1e-8)
    assert rep.min_gap >= -1e-8


def test_certify_psd_dr_unsmoothed_dopt():
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    assert certify_psd_dr(sm, trials=60, dim=3, seed=7).passed(1e-8)


def test_serialization_round_trip():
    sm = SmoothedObjective(mixed_measure(), make_objective("pmean1"))
    d = smoothed_to_dict(sm)
    back = smoothed_from_dict(d)
    assert np.array_equal(back.measure.nodes, sm.measure.nodes)
    assert np.array_equal(back.measure.weights, sm.measure.weights)
    assert back.base == sm.base
