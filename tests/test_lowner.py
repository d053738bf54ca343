import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from psdalloc.lowner import (
    AtomicMeasure,
    SmoothedObjective,
    certify_psd_dr,
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


def test_measure_sorted_and_clipped():
    m = AtomicMeasure(np.array([0.7, 0.1]), np.array([1.0, -1e-16]))
    assert np.all(np.diff(m.nodes) > 0)
    assert np.all(m.weights >= 0.0)


def test_live_atoms_give_the_same_y_and_h_s():
    m = AtomicMeasure(np.array([0.0, 0.3, 0.5, 0.9]), np.array([0.5, 0.0, 0.25, 0.0]))
    live = m.live
    assert list(live.nodes) == [0.0, 0.5] and list(live.weights) == [0.5, 0.25]
    u = np.linspace(0.0, 30.0, 61)
    assert np.allclose(y_eval(live, u), y_eval(m, u), rtol=1e-15, atol=0.0)
    assert np.allclose(hs_eval(live, u), hs_eval(m, u), rtol=1e-15, atol=0.0)
    assert live.live is live
    none = AtomicMeasure(np.array([0.5]), np.array([0.0]))
    assert none.live is none


def test_y0_closed_form():
    m = mixed_measure()
    assert m.y0 == pytest.approx(0.5 / 1.0 + 0.25 / 0.5, abs=1e-14)


def test_phi_primitive_cases():
    assert phi_primitive(3.0, 0.0) == 3.0
    # lam = 1/2: phi = 2 log(1+u)
    assert phi_primitive(2.0, 0.5) == pytest.approx(2.0 * np.log(3.0), abs=1e-12)
    out = phi_primitive(np.array([[1.0], [2.0]]), np.array([0.0, 0.5]))
    assert out.shape == (2, 2)


@given(m=measures(), u=st.floats(min_value=0.0, max_value=30.0))
def test_phi_primitive_is_antiderivative(m, u):
    # derivative of h_S by central differences equals y
    eps = 1e-6 * max(u, 1.0)
    d = (hs_eval(m, u + eps) - hs_eval(m, max(u - eps, 0.0))) / (
        u + eps - max(u - eps, 0.0)
    )
    assert d == pytest.approx(y_eval(m, u), rel=1e-5, abs=1e-7)


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
    assert exact_measure(make_objective("pmean", 2.0)) is None


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
    sm = SmoothedObjective(mixed_measure(), make_objective("pmean", 1.0))
    d = smoothed_to_dict(sm)
    back = smoothed_from_dict(d)
    assert np.array_equal(back.measure.nodes, sm.measure.nodes)
    assert np.array_equal(back.measure.weights, sm.measure.weights)
    assert back.base == sm.base
