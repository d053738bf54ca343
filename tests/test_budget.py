import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, optimize

from psdalloc import budget
from psdalloc.bench import gen_random
from psdalloc.budget import (
    E1,
    BudgetSmoother,
    QuadratureError,
    b_prime,
    g_conj,
    gamma_for_budget,
    gs_prime,
    gs_second,
    gs_value,
)
from psdalloc.objectives import h_eval, h_prime, make_objective

# frozen refinement oracles: scipy.integrate.quad at 1e-14 tolerances on the
# defining convolution integral
GS_PRIME_DOPT_ORACLE = -0.4501442997520019   # dopt,  gamma=2,   b=5, theta=0.5, u=3
GS_PRIME_AOPT_ORACLE = -0.22380958673922677  # aopt, gamma=1.5, b=4, theta=0.8, u=2


def smoother(kind="dopt", gamma=2.0, b=5.0, theta=0.5, Theta=1.0, rho1=0.0, variant="sim"):
    return BudgetSmoother(make_objective(kind), gamma, b, theta, Theta, rho1, variant)


@st.composite
def smoothers(draw):
    kind = draw(st.sampled_from(["linear", "dopt", "aopt", "pmean2.0"]))
    gamma = draw(st.floats(min_value=1.0, max_value=4.0))
    b = draw(st.floats(min_value=0.5, max_value=20.0))
    theta = draw(st.floats(min_value=0.1, max_value=1.5))
    Theta = theta * draw(st.floats(min_value=1.0, max_value=4.0))
    variant = draw(st.sampled_from(["sim", "seq"]))
    rho1 = draw(st.floats(min_value=0.1, max_value=2.0)) if variant == "seq" else 0.0
    return BudgetSmoother(make_objective(kind), gamma, b, theta, Theta, rho1, variant)


def test_validation():
    with pytest.raises(ValueError):
        smoother(gamma=0.5)
    with pytest.raises(ValueError):
        smoother(b=-1.0)
    with pytest.raises(ValueError):
        smoother(theta=0.0)
    with pytest.raises(ValueError):
        smoother(theta=2.0, Theta=1.0)
    with pytest.raises(ValueError):
        smoother(variant="seq", rho1=0.0)
    with pytest.raises(ValueError):
        smoother(variant="both")
    for gamma in (np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma"):
            smoother(gamma=gamma)


def test_rate_and_effective_budget():
    s = smoother(variant="sim", gamma=2.0, b=5.0)
    assert s.B == 5.0 and s.rate == pytest.approx(0.4)
    s = smoother(variant="seq", gamma=2.0, b=5.0, rho1=0.5)
    assert s.B == 6.0 and s.rate == pytest.approx(2.0 / 6.0)


def test_linear_closed_form_vs_quadrature():
    s = smoother(kind="linear", gamma=1.5, b=4.0, theta=0.8, Theta=1.0)
    u = np.linspace(0.0, 3.0 * s.b, 200)
    closed = -s.theta * np.expm1(s.rate * u) / E1
    quad = gs_prime(s, u)
    assert np.max(np.abs(quad - closed)) <= 1e-8


def test_linear_closed_form_seq_variant():
    s = smoother(kind="linear", gamma=2.0, b=6.0, theta=1.0, Theta=1.0,
                 rho1=0.7, variant="seq")
    u = np.linspace(0.0, 12.0, 50)
    quad = gs_prime(s, u)
    assert np.max(np.abs(quad + s.theta * np.expm1(s.rate * u) / E1)) <= 1e-8


def test_gs_prime_frozen_refinement_oracles():
    assert gs_prime(smoother("dopt", 2.0, 5.0, 0.5), 3.0) == pytest.approx(
        GS_PRIME_DOPT_ORACLE, abs=1e-8
    )
    assert gs_prime(smoother("aopt", 1.5, 4.0, 0.8), 2.0) == pytest.approx(
        GS_PRIME_AOPT_ORACLE, abs=1e-8
    )


def test_gs_prime_matches_scipy_quad():
    s = smoother("pmean2.0", 2.5, 3.0, 0.6)
    for u in (0.5, 2.0, 7.0):
        val, _ = integrate.quad(
            lambda v: np.exp(s.rate * (u - v)) * h_prime(s.objective, s.theta * v),
            0.0,
            u,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        expected = -(s.gamma * s.theta / (s.B * E1)) * val
        assert gs_prime(s, u) == pytest.approx(expected, abs=1e-10)


@given(s=smoothers(), u=st.floats(min_value=0.0, max_value=40.0))
def test_gs_prime_nonpositive_nonincreasing(s, u):
    v = gs_prime(s, np.array([u, u + 0.5]))
    assert v[0] <= 1e-15
    assert v[1] <= v[0] + 1e-12
    assert gs_prime(s, 0.0) == 0.0
    assert gs_prime(s, -1.0) == 0.0


@given(s=smoothers(), u=st.floats(min_value=0.1, max_value=20.0))
def test_gs_prime_dominated_by_linear_rate(s, u):
    # h' <= h'(0), so |gs'| is at most the linear-kind envelope at slope h'(0)
    envelope = s.objective.h_prime0 * s.theta * np.expm1(s.rate * u) / E1
    assert gs_prime(s, u) >= -envelope - 1e-10 * max(1.0, envelope)


def test_gs_prime_overflow_guard():
    s = smoother(kind="linear", gamma=4.0, b=1.0)
    assert gs_prime(s, 1000.0) == -np.inf


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean2.0"])
@pytest.mark.parametrize("variant", ["sim", "seq"])
def test_gs_second_matches_central_difference(kind, variant):
    s = smoother(kind=kind, variant=variant, rho1=1.5 if variant == "seq" else 0.0)
    u = np.array([0.05, 0.7, 3.0, 9.0])
    h = 1e-5 * u
    fd = (gs_prime(s, u + h) - gs_prime(s, u - h)) / (2.0 * h)
    exact = gs_second(s, u, gs_prime(s, u))
    assert np.all(exact < 0.0)
    assert np.allclose(exact, fd, rtol=1e-6, atol=0.0)
    scalar = [gs_second(s, float(v), gs_prime(s, float(v))) for v in u]
    assert np.allclose(scalar, exact, rtol=1e-14, atol=0.0)
    assert gs_second(s, -1.0, gs_prime(s, -1.0)) == 0.0


def test_gs_value_zero_and_negative():
    s = smoother()
    assert gs_value(s, 0.0) == 0.0
    assert gs_value(s, -2.0) == 0.0
    u = np.array([1.0, 2.0, 5.0])
    vals = gs_value(s, u)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals < 0.0)


def test_gs_value_matches_outer_quad():
    s = smoother("aopt", 2.0, 4.0, 0.9)
    val, _ = integrate.quad(lambda v: gs_prime(s, v), 0.0, 3.0, epsabs=1e-12)
    assert gs_value(s, 3.0) == pytest.approx(val, abs=1e-9)


def identity_residuals(s, grid, reference):
    """Max residual of the penalty identity with G_S from the reference, and
    gamma max |gs_value - G_S| on the same scale.

    Simultaneous:  gamma G_S(u)                      = b gs'(u) + gamma/(e-1) h(theta u)
    Sequential:    gamma (G_S(u) - rho1 gs'(u))      = b gs'(u) + gamma/(e-1) h(theta u)
    """
    G = np.array([reference(s, u) for u in grid])
    gp = gs_prime(s, grid)
    lhs = s.gamma * (G - s.rho1 * gp)
    rhs = s.b * gp + (s.gamma / E1) * h_eval(s.objective, s.theta * grid)
    return (float(np.max(np.abs(lhs - rhs))),
            s.gamma * float(np.max(np.abs(gs_value(s, grid) - G))))


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean2.0"])
@pytest.mark.parametrize("gamma", [1.0, 2.0, 4.0])
def test_identity_residual(kind, gamma, gs_value_reference):
    s = smoother(kind=kind, gamma=gamma, b=5.0, theta=0.7, Theta=1.4)
    grid = np.linspace(0.25, 2.0 * s.b, 9)
    assert max(identity_residuals(s, grid, gs_value_reference)) <= 1e-6


def test_identity_residual_seq(gs_value_reference):
    s = smoother(kind="dopt", gamma=2.0, b=5.0, theta=0.7, Theta=1.4,
                 rho1=0.6, variant="seq")
    grid = np.linspace(0.5, 8.0, 7)
    assert max(identity_residuals(s, grid, gs_value_reference)) <= 1e-6


def test_gs_prime_inv_properties():
    # b' inverts gs' at -h'(0) Theta
    s = smoother("dopt", 2.0, 5.0, 0.5, 0.8)
    target = -0.8
    u = b_prime(s)
    assert gs_prime(s, u) <= target
    assert gs_prime(s, u - 1e-6) > target


def test_gs_prime_inv_extreme_target():
    # gs' diverges to -inf (the exponential rate dominates), so a crossing
    # past the float range resolves at the overflow boundary
    s = smoother("linear", 1.0, 5.0, 1.0, 1e306)
    assert gs_prime(s, 100.0) < -10.0
    u = b_prime(s)
    assert np.isfinite(u) and gs_prime(s, u) == -np.inf


def test_b_prime_boundary_layer_instance():
    # theta = 16.56 gives h'(theta v) a boundary layer of width 1/theta at
    # v = 0, and b' is near 380
    inst = gen_random(50, 500, seed=0)
    s = BudgetSmoother(make_objective("dopt"), 2.0, inst.b, inst.theta, inst.Theta,
                       inst.rho1, "sim")
    target = -s.Theta

    def gs_prime_quad(u):
        val, _ = integrate.quad(
            lambda v: np.exp(s.rate * (u - v)) / (1.0 + s.theta * v), 0.0, u,
            points=[1.0 / s.theta, 10.0 / s.theta], epsabs=0.0, epsrel=1e-13, limit=200)
        return -(s.gamma * s.theta / (s.B * E1)) * val

    ref = optimize.brentq(lambda u: gs_prime_quad(u) - target, 1.0, 1e4, xtol=1e-10)
    bp = b_prime(s)
    assert bp == pytest.approx(ref, rel=1e-9)
    assert gs_prime(s, bp) <= target


def test_b_prime_linear_exact():
    # theta = Theta = 1: crossing at u = b/gamma exactly
    for gamma, expect in ((1.0, 10.0), (2.0, 5.0), (4.0, 2.5)):
        s = smoother(kind="linear", gamma=gamma, b=10.0, theta=1.0, Theta=1.0)
        assert b_prime(s) == pytest.approx(expect, abs=1e-6)


def test_b_prime_seq_adds_rho1():
    s = smoother(kind="linear", gamma=1.0, b=10.0, theta=1.0, Theta=1.0,
                 rho1=0.5, variant="seq")
    # rate 1/10.5, crossing at u = 10.5, plus rho1
    assert b_prime(s) == pytest.approx(11.0, abs=1e-6)


@given(s=smoothers())
def test_b_prime_definition(s):
    bp = b_prime(s)
    if not np.isfinite(bp):
        return
    u = bp - (s.rho1 if s.variant == "seq" else 0.0)
    target = -s.objective.h_prime0 * s.Theta
    assert gs_prime(s, u) <= target + 1e-9
    if u > 1e-6:
        assert gs_prime(s, u - 1e-5) > target - 1e-7


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt"])
def test_b_prime_nonincreasing_in_gamma(kind):
    obj = make_objective(kind)
    vals = [
        b_prime(BudgetSmoother(obj, g, 5.0, 0.7, 1.3, 0.0, "sim"))
        for g in (1.0, 1.5, 2.0, 3.0, 4.0)
    ]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_gamma_for_budget_minimality():
    obj = make_objective("dopt")
    g = gamma_for_budget(obj, 2.0, 1.0, 1.0)
    assert b_prime(BudgetSmoother(obj, g, 2.0, 1.0, 1.0)) <= 2.0 + 1e-7
    assert b_prime(BudgetSmoother(obj, g - 1e-4, 2.0, 1.0, 1.0)) > 2.0


def test_gamma_for_budget_already_feasible():
    # large budget: gamma = 1 already satisfies b' <= b
    obj = make_objective("linear")
    assert gamma_for_budget(obj, 50.0, 1.0, 1.0) == 1.0


def test_gamma_for_budget_seq_needs_b_above_rho1():
    # the sequential b' is at least rho1, so no gamma reaches b <= rho1
    obj = make_objective("dopt")
    for b in (1.0, 0.5):
        with pytest.raises(ValueError, match=r"b = %g .*rho1 = 1\b" % b):
            gamma_for_budget(obj, b, 0.5, 2.0, rho1=1.0, variant="seq")
    assert gamma_for_budget(obj, 50.0, 0.5, 2.0, rho1=1.0, variant="seq") >= 1.0


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean2.0"])
def test_gs_prime_scalar_and_array_calls_agree(kind):
    # one evaluation rule: a float and an array of the same points give gs'
    # to rounding, across u <= 0, the quadrature range and the overflow guard
    s = smoother(kind, 2.0, 5.0, 0.5)
    u = np.array([-1.0, 0.0, 1e-9, 1e-3, 0.4, 3.0, 25.0, 1e3, 1e4])
    arr = gs_prime(s, u)
    for ui, ai in zip(u, arr):
        one = gs_prime(s, float(ui))
        assert isinstance(one, float)
        assert one == ai or abs(one - ai) <= 1e-15 * abs(ai)
        assert gs_second(s, float(ui), one) == pytest.approx(
            float(gs_second(s, np.array([ui]), np.array([one]))[0]), rel=1e-15, abs=0.0)


def test_quadrature_error_raised(monkeypatch):
    # a 4-node rule checked by a 3-node one cannot resolve F to 1e-9
    monkeypatch.setattr(budget, "NODES", budget._rules(4, 3)[0])
    monkeypatch.setattr(budget, "WEIGHTS", budget._rules(4, 3)[1])
    s = smoother("dopt", 2.0, 5.0, 0.5)
    with pytest.raises(QuadratureError):
        gs_prime(s, 3.0)


def test_g_conj():
    assert g_conj(-0.5, 10.0) == -5.0
    assert g_conj(0.0, 10.0) == 0.0
    assert g_conj(0.3, 10.0) == 0.0
