import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate, optimize

from psdalloc import budget
from psdalloc.bench import gen_random
from psdalloc.budget import (
    CHECK_REL_TOL,
    E1,
    NORMAL_FLOOR,
    OVERFLOW_EXP,
    BudgetSmoother,
    QuadratureError,
    b_prime,
    g_conj,
    gamma_for_budget,
    gs_prime,
    gs_prime_bracket,
    gs_second,
    gs_value,
    newton_root,
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


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean20"])
def test_F_matches_mpmath_quad(kind):
    # F(u) = int_0^u exp(r (u - v)) h'(theta v) dv at 20 digits, in v as defined, with
    # breakpoints spaced geometrically over the layers at v ~ 1/r and v ~ 1/(k theta)
    mpmath = pytest.importorskip("mpmath")
    for theta in (0.01, 1.0, 1e3):
        s = smoother(kind, gamma=2.0, b=5.0, theta=theta, Theta=theta)
        k, p = {"linear": 0, "dopt": 1}.get(kind, s.objective.p + 1.0), s.objective.p
        for ru in (1e-2, 30.0, 690.0):
            u = ru / s.rate
            kappa = max(s.rate, k * theta)
            S = np.log1p(kappa * u)
            with mpmath.workdps(20):
                want = mpmath.quad(
                    lambda v: mpmath.exp(s.rate * (u - v)) * p * (1 + theta * v) ** -k,
                    [0.0] + [np.expm1(j) / kappa for j in range(2, int(S), 2)] + [u],
                    method="gauss-legendre")
            assert abs(budget._conv(s, u) - want) <= 1e-12 * want, (theta, ru)


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


@given(kind=st.sampled_from(["linear", "dopt", "aopt", "pmean0.5", "pmean2"]),
       log_theta=st.floats(min_value=-2.0, max_value=3.0),
       gamma=st.floats(min_value=1.0, max_value=8.0),
       variant=st.sampled_from(["sim", "seq"]),
       ru=st.floats(min_value=0.0, max_value=690.0),
       share=st.floats(min_value=0.0, max_value=1.0))
@example(kind="linear", log_theta=0.0, gamma=2.0, variant="sim", ru=690.0, share=0.0)
@example(kind="linear", log_theta=0.0, gamma=1.0, variant="sim", ru=5e-324, share=0.0)
@example(kind="dopt", log_theta=3.0, gamma=1.0, variant="sim", ru=1e-9, share=0.5)
@example(kind="aopt", log_theta=-2.0, gamma=8.0, variant="seq", ru=30.0, share=1.0)
def test_gs_prime_bracket_holds_gs_prime(kind, log_theta, gamma, variant, ru, share):
    # from z0 = gs'(u0) at u0 = share u <= u, the widened ODE bracket holds
    # gs'(u); it is open only for a spend near the subnormal range
    theta = 10.0 ** log_theta
    s = smoother(kind, gamma, 5.0, theta, theta, 1.5 if variant == "seq" else 0.0, variant)
    u = ru / s.rate
    u0 = share * u
    lo, hi = gs_prime_bracket(s, u0, gs_prime(s, u0), u)
    assert lo <= gs_prime(s, u) <= hi
    if ru >= 1e-12 and (share == 0.0 or share >= 1e-12):
        assert -np.inf < lo and hi <= 0.0
    else:
        assert -np.inf < lo or (lo, hi) == (-np.inf, np.inf)


def _one_sided_bracket(s, u0, z0, u):
    """The bracket from 0 < h' <= h'(0) alone, which gs_prime_bracket narrows."""
    if not (s.rate * u <= OVERFLOW_EXP and u >= NORMAL_FLOOR and s.kappa * u >= NORMAL_FLOOR
            and (u0 == 0.0 or u0 >= NORMAL_FLOOR and s.kappa * u0 >= NORMAL_FLOOR
                 and z0 <= -NORMAL_FLOOR)):
        return -np.inf, np.inf
    em1 = math.expm1(s.rate * (u - u0))
    hi = z0 + em1 * z0
    lo = hi - s.scale * s.objective.h_prime0 * em1 / s.rate
    lo += CHECK_REL_TOL * lo
    if not -np.inf < lo <= -NORMAL_FLOOR:
        return -np.inf, np.inf
    return lo, hi - CHECK_REL_TOL * hi


@given(kind=st.sampled_from(["linear", "dopt", "aopt", "pmean0.5", "pmean2"]),
       log_theta=st.floats(min_value=-2.0, max_value=3.0),
       gamma=st.floats(min_value=1.0, max_value=8.0),
       variant=st.sampled_from(["sim", "seq"]),
       ru=st.floats(min_value=0.0, max_value=690.0),
       share=st.floats(min_value=0.0, max_value=1.0))
@example(kind="linear", log_theta=0.0, gamma=2.0, variant="sim", ru=690.0, share=0.0)
@example(kind="linear", log_theta=0.0, gamma=1.0, variant="sim", ru=5e-324, share=0.0)
@example(kind="dopt", log_theta=3.0, gamma=1.0, variant="sim", ru=1e-9, share=0.5)
@example(kind="aopt", log_theta=-2.0, gamma=8.0, variant="seq", ru=30.0, share=1.0)
@example(kind="aopt", log_theta=1.5, gamma=2.0, variant="sim", ru=2.0, share=0.9)
def test_gs_prime_bracket_lies_inside_the_one_sided_bound(kind, log_theta, gamma, variant, ru,
                                                          share):
    # h' at the step's ends bounds the source term: the bracket lies inside the one from
    # 0 < h' <= h'(0), open exactly where that one is, and is no wider than
    # scale (h'(theta u0) - h'(theta u)) expm1(r d)/r, which is 0 for linear, plus the
    # widening of both ends and a few units in the last place of rounding
    theta = 10.0 ** log_theta
    s = smoother(kind, gamma, 5.0, theta, theta, 1.5 if variant == "seq" else 0.0, variant)
    u = ru / s.rate
    u0 = share * u
    z0 = gs_prime(s, u0)
    lo, hi = gs_prime_bracket(s, u0, z0, u)
    lo1, hi1 = _one_sided_bracket(s, u0, z0, u)
    assert lo1 <= lo <= hi <= hi1
    if lo1 == -np.inf:
        assert (lo, hi) == (-np.inf, np.inf)
        return
    drop = h_prime(s.objective, s.theta * u0) - h_prime(s.objective, s.theta * u)
    width = s.scale * drop * math.expm1(s.rate * (u - u0)) / s.rate
    assert drop == 0.0 if kind == "linear" else drop >= 0.0
    assert hi - lo <= width + CHECK_REL_TOL * (abs(lo) + abs(hi)) + 8.0 * math.ulp(lo)


def test_gs_prime_bracket_is_open_where_a_bound_leaves_the_float_range():
    # past the overflow guard gs' is -inf; gs' of -inf, a product past the
    # float range or a rate of inf (r u nan at u = 0) gives no bound either
    s = smoother("dopt")
    u = OVERFLOW_EXP / s.rate
    lo, hi = gs_prime_bracket(s, 0.0, 0.0, u)
    # the upper end is -scale h'(theta u) expm1(r u)/r, widened by CHECK_REL_TOL
    end = -s.scale * h_prime(s.objective, s.theta * u) * math.expm1(OVERFLOW_EXP) / s.rate
    assert -np.inf < lo <= gs_prime(s, u) <= hi
    assert hi == pytest.approx(end * (1.0 - CHECK_REL_TOL), rel=1e-12, abs=0.0)
    assert gs_prime_bracket(s, 0.0, 0.0, np.nextafter(u, np.inf)) == (-np.inf, np.inf)
    assert gs_prime_bracket(s, u, -np.inf, u) == (-np.inf, np.inf)
    huge = smoother("linear", gamma=1e8, b=10.0, theta=1.0, Theta=1.0)
    u = 697.0 / huge.rate
    assert np.isfinite(gs_prime(huge, u))
    assert gs_prime_bracket(huge, 0.0, 0.0, u) == (-np.inf, np.inf)
    inf_rate = smoother("dopt", gamma=1e308, b=0.1, theta=1e-3, Theta=1e-3)
    assert inf_rate.rate == np.inf
    for u in (0.0, 1.0):
        assert gs_prime_bracket(inf_rate, 0.0, 0.0, u) == (-np.inf, np.inf)


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean2.0"])
@pytest.mark.parametrize("variant", ["sim", "seq"])
def test_gs_second_matches_central_difference(kind, variant):
    s = smoother(kind=kind, variant=variant, rho1=1.5 if variant == "seq" else 0.0)
    u = np.array([0.05, 0.7, 3.0, 9.0])
    h = 1e-5 * u
    fd = (gs_prime(s, u + h) - gs_prime(s, u - h)) / (2.0 * h)
    exact = np.array([gs_second(s, float(v), gs_prime(s, float(v))) for v in u])
    assert np.all(exact < 0.0)
    assert np.allclose(exact, fd, rtol=1e-6, atol=0.0)
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
    assert bp == pytest.approx(ref, rel=1e-9, abs=0.0)
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


@given(kind=st.sampled_from(["linear", "dopt", "aopt", "pmean0.5", "pmean2", "pmean7"]),
       log_gamma=st.floats(min_value=0.0, max_value=9.0),
       log_b=st.floats(min_value=-12.0, max_value=6.0),
       log_theta=st.floats(min_value=-3.0, max_value=1.0),
       log_spread=st.floats(min_value=0.0, max_value=6.0))
@example(kind="dopt", log_gamma=9.0, log_b=math.log10(2.0), log_theta=math.log10(0.7),
         log_spread=math.log10(1.3 / 0.7))
def test_b_prime_is_certified_and_within_1e_11_of_the_crossing(kind, log_gamma, log_b,
                                                                log_theta, log_spread):
    # the example's last Newton step lands just below the crossing; without the
    # restart past it, the right end of the bracket stayed 1.3e-8 above it
    theta = 10.0 ** log_theta
    s = smoother(kind, 10.0 ** log_gamma, 10.0 ** log_b, theta, theta * 10.0 ** log_spread)
    u, target = b_prime(s), -s.objective.h_prime0 * s.Theta
    assert gs_prime(s, u) <= target
    assert gs_prime(s, u * (1.0 - 1e-11)) > target


@st.composite
def decreasing_functions(draw):
    """(fn, root, lo, hi): a decreasing fn on 0 <= lo < hi with one simple root inside,
    returning (f, f') or, drawn without a derivative, (f, -inf)."""
    lo = draw(st.sampled_from([0.0, draw(st.floats(min_value=1e-6, max_value=10.0))]))
    hi = lo + draw(st.floats(min_value=1e-3, max_value=100.0))
    root = lo + (hi - lo) * draw(st.floats(min_value=0.01, max_value=0.99))
    a = draw(st.floats(min_value=1e-3, max_value=1e3))
    k = draw(st.floats(min_value=0.0, max_value=10.0))
    derivative = draw(st.booleans())
    if draw(st.booleans()):
        def fn(x):
            return a * (root - x) + k * (root - x) ** 3, -a - 3.0 * k * (root - x) ** 2
    else:
        k += 1e-3

        def fn(x):
            e = k * (root - x)
            return a * math.expm1(e), -a * k * math.exp(e)

    return (fn if derivative else lambda x: (fn(x)[0], -np.inf)), root, lo, hi


@given(fdata=decreasing_functions(), share=st.floats(min_value=0.0, max_value=1.0),
       tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_newton_root_keeps_its_bracket_and_stops_within_tol(fdata, share, tol):
    fn, root, lo0, hi0 = fdata
    seen = {}

    def logged(x):
        seen[x] = fn(x)
        return seen[x]

    x0 = lo0 + share * (hi0 - lo0)
    x, lo, hi = newton_root(logged, x0, *logged(x0), lo0, hi0, tol)
    assert x in seen and lo < hi
    assert lo in seen or lo == lo0
    assert hi in seen or hi == hi0
    assert lo not in seen or seen[lo][0] > 0.0
    assert hi not in seen or seen[hi][0] <= 0.0
    # the bracket closed, or a Newton step from x was at most tol relative
    f, fp = seen[x]
    assert hi - lo <= tol * hi or abs(f / fp) <= tol * x
    if fp == -np.inf:
        assert hi - lo <= tol * hi      # bisection alone closes the bracket
    else:
        assert abs(x - root) <= 2.0 * tol * max(root, x) or hi - lo <= tol * hi


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


@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean2.0"])
@pytest.mark.parametrize("variant", ["sim", "seq"])
def test_gs_prime_float_is_the_one_element_array_to_the_bit(kind, variant):
    # the engines' scalar calls and the audit's array calls run one rule
    s = smoother(kind, 2.0, 5.0, 0.5, rho1=1.5 if variant == "seq" else 0.0, variant=variant)
    for u in np.geomspace(1e-12, 1e3, 400):
        assert gs_prime(s, float(u)) == gs_prime(s, np.array([u]))[0]


def test_quadrature_error_raised(monkeypatch):
    # a 4-node rule checked by a 3-node one cannot resolve F to 1e-9, at a
    # float as in the engines and at an array as in the audit
    monkeypatch.setattr(budget, "NODES", budget._rules(4, 3)[0])
    monkeypatch.setattr(budget, "WEIGHTS", budget._rules(4, 3)[1])
    s = smoother("dopt", 2.0, 5.0, 0.5)
    for u in (3.0, np.array([0.5, 3.0])):
        with pytest.raises(QuadratureError):
            gs_prime(s, u)


def test_g_conj():
    assert g_conj(-0.5, 10.0) == -5.0
    assert g_conj(0.0, 10.0) == 0.0
    assert g_conj(0.3, 10.0) == 0.0
