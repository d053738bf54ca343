import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from psdalloc import lowner, oracle
from psdalloc.bench import gen_adversarial, gen_random
from psdalloc.budget import BudgetSmoother, QuadratureError, b_prime, gs_prime
from psdalloc.designer import DesignSpec, design_hs
from psdalloc.lowner import AtomicMeasure, SmoothedObjective
from psdalloc.objectives import TOL_EIG, InvalidMatrix, h_eval, make_objective
from psdalloc.online import Arrival, OnlineState, run_stream
from psdalloc.oracle import (
    DEFAULT_TOLS,
    OFFLINE_TOL,
    AuditError,
    Instance,
    audit_run,
    audit_trace,
    instance_from_dict,
    instance_stats,
    instance_to_dict,
    offline_continuous_opt,
    project_box_budget,
)
import reference
from reference import (CapacityError, grad_hs_lift, grad_trace_lift, offline_integer_opt,
                       reference_audit_run, trace_lift)


def random_instance(rng, n=3, m=8, b=3.0):
    arrivals = []
    for _ in range(m):
        v = rng.standard_normal(n)
        arrivals.append(Arrival(v[:, None], float(rng.uniform(0.5, 1.5))))
    return Instance(arrivals, b)


def dense_stack(inst):
    return np.stack([a.L @ a.L.T for a in inst.arrivals])


def objective_value(obj, inst, x):
    X = np.tensordot(np.asarray(x, dtype=float), dense_stack(inst), axes=(0, 0))
    return float(np.sum(h_eval(obj, np.linalg.eigvalsh(X))))


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance([], 1.0)
    with pytest.raises(ValueError):
        Instance([Arrival(np.eye(2), 1.0)], 0.0)
    with pytest.raises(ValueError, match="positive trace"):
        Instance([Arrival(np.zeros((2, 0)), 1.0)], 1.0)


@pytest.mark.parametrize("b", [np.inf, np.nan, 0.0])
def test_instance_and_smoother_refuse_a_budget_outside_zero_to_inf(b):
    # an infinite budget once passed both and divided by zero in b'
    with pytest.raises(ValueError, match="--b must be finite and positive"):
        Instance([Arrival(np.eye(2), 1.0)], b)
    with pytest.raises(ValueError, match="--b must be finite and positive"):
        BudgetSmoother(make_objective("dopt"), 1.0, b, 1.0, 2.0)


def test_zero_trace_arrival_sets_no_rho1():
    # a zero arrival is never bought, so its cost cannot raise the seq cap b'
    dopt = make_objective("dopt")
    with_zero = Instance([Arrival(np.zeros((2, 0)), 5.0), Arrival(np.eye(2), 1.0)], 1.0)
    alone = Instance([Arrival(np.eye(2), 1.0)], 1.0)

    def seq_cap(inst):
        return b_prime(BudgetSmoother(dopt, 2.0, inst.b, inst.theta, inst.Theta,
                                      inst.rho1, "seq"))

    assert with_zero.rho1 == alone.rho1 == 1.0
    assert seq_cap(with_zero) == seq_cap(alone) == pytest.approx(3.35, abs=5e-3)


def test_instance_stats_recompute(rng):
    inst = random_instance(rng, n=4, m=6)
    traces = [float(np.trace(a.L @ a.L.T)) for a in inst.arrivals]
    costs = [a.c for a in inst.arrivals]
    dens = [t / c for t, c in zip(traces, costs)]
    assert inst.theta == pytest.approx(min(dens))
    assert inst.Theta == pytest.approx(max(dens))
    assert inst.rho1 == pytest.approx(max(costs))
    lam = [float(np.linalg.eigvalsh(a.L @ a.L.T)[-1]) for a in inst.arrivals]
    assert inst.rho2 == pytest.approx(max(lam))
    assert inst.max_lam_over_c == pytest.approx(max(l / c for l, c in zip(lam, costs)))
    assert inst.n == 4 and inst.m == 6


def _dense_rank3():
    W = np.random.default_rng(3).standard_normal((6, 3))
    a = Arrival.from_matrix(W @ W.T, 2.0)   # factored by psd_eigs
    assert a.L.shape == (6, 3)
    return [a]


@pytest.mark.parametrize("arrivals", [
    lambda: gen_random(20, 200).arrivals,
    lambda: gen_adversarial(5, 50, 0).arrivals,
    _dense_rank3,
    lambda: [Arrival.from_matrix(np.zeros((3, 3)), 1e-12),
             Arrival.from_matrix(np.diag([1.0, 2.0, 0.0]), 1.0)],
], ids=["random", "adversarial", "dense-rank3", "zero-and-positive"])
def test_instance_stats_lam_max_from_the_factor_matches_dense(arrivals):
    arrivals = arrivals()
    lam = np.array([float(np.linalg.eigvalsh(a.L @ a.L.T)[-1]) for a in arrivals])
    costs = np.array([a.c for a in arrivals])
    stats = instance_stats(arrivals)
    assert stats["rho2"] == pytest.approx(lam.max(), rel=TOL_EIG, abs=0.0)
    assert stats["max_lam_over_c"] == pytest.approx((lam / costs).max(), rel=TOL_EIG, abs=0.0)
    for a, want in zip(arrivals, lam):
        if a.L.shape[1] == 0:    # a zero arrival: rank-0 factor, lambda_max 0
            e0 = np.eye(a.n)[:, :1]
            ref = Arrival(e0, 1e9)   # lambda_max / c = 1e-9 exactly
            assert instance_stats([a, ref])["max_lam_over_c"] == 1e-9
        else:
            assert instance_stats([a])["rho2"] == pytest.approx(want, rel=TOL_EIG, abs=0.0)


@pytest.mark.parametrize("gen", [lambda: gen_random(20, 200),
                                 lambda: gen_adversarial(5, 50, 0)],
                         ids=["random", "adversarial"])
def test_building_a_generated_instance_decomposes_no_n_by_n_matrix(gen, monkeypatch):
    # generated arrivals carry rank-one factors: only 1 x 1 Gram matrices
    def refuse_above_rank(fn):
        def guarded(M, *args, **kwargs):
            if np.shape(M)[-2] > 1:
                raise AssertionError("decomposed a %d x %d matrix" % np.shape(M)[-2:])
            return fn(M, *args, **kwargs)
        return guarded

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse_above_rank(getattr(np.linalg, name)))
    inst = gen()
    assert inst.rho2 > 0.0 and all(a.L.shape[1] == 1 for a in inst.arrivals)


def test_building_a_generated_instance_holds_no_n_by_n_matrix_per_arrival():
    # an arrival is its factor: m = 200 rank-one arrivals at n = 200 take
    # 200 floats each, where their dense matrices would take m n^2 in all
    n = m = 200
    tracemalloc.start()
    try:
        gen_random(n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n * n * np.dtype(float).itemsize


def test_instance_serialization_round_trip(rng):
    inst = random_instance(rng)
    back = instance_from_dict(instance_to_dict(inst))
    assert back.b == inst.b and back.m == inst.m
    assert np.allclose(dense_stack(back), dense_stack(inst))
    assert np.allclose(back.costs, inst.costs)


@given(seed=st.integers(min_value=0, max_value=200))
def test_projection_feasibility(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    v = rng.normal(size=m) * 2.0
    c = rng.uniform(0.3, 2.0, size=m)
    b = float(rng.uniform(0.5, 3.0))
    x, tau = project_box_budget(v, c, b)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert c @ x <= b + 1e-8
    assert tau >= 0.0
    # complementary slackness: tau > 0 only when the budget is tight
    if tau > 1e-9:
        assert c @ x == pytest.approx(b, abs=1e-7)


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=25)
def test_projection_is_euclidean_nearest(seed):
    rng = np.random.default_rng(seed)
    m = 5
    v = rng.normal(size=m) * 2.0
    c = rng.uniform(0.3, 2.0, size=m)
    b = 2.0
    x, _ = project_box_budget(v, c, b)
    d0 = np.sum((x - v) ** 2)
    for _ in range(40):
        y = rng.uniform(0.0, 1.0, size=m)
        if c @ y <= b:
            assert d0 <= np.sum((y - v) ** 2) + 1e-7


@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e4, 1e8]))
def test_projection_of_a_far_point_spends_b_to_rounding(seed, scale):
    # the offline solver projects x + s g with s up to 1e8; there v - tau c
    # cancels, and without a correction the spend misses b by about 1e-8 b
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 200))
    c = rng.uniform(0.1, 10.0, size=m)
    v = rng.normal(size=m) * scale
    b = float(rng.uniform(0.05, 0.95)) * float(c @ np.clip(v, 0.0, 1.0))
    assume(b > 0.0)
    x, _ = project_box_budget(v, c, b)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(float(c @ x) - b) <= 1e-12 * b


def test_projection_is_relative_to_a_tiny_budget():
    # an overspend of 1e-13 is within an absolute 1e-12 but 1e-4 of b = 1e-9
    c = np.array([1.0, 2.0])
    v = np.array([0.5e-9, 0.25e-9]) * (1.0 + 1e-4)
    x, tau = project_box_budget(v, c, 1e-9)
    assert float(c @ x) <= 1e-9 * (1.0 + 1e-12)
    assert tau > 0.0


@given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 3, 40, 200]),
       log_b=st.floats(min_value=-300.0, max_value=0.0))
@example(seed=3, m=200, log_b=-14.0)
def test_projection_stays_in_the_box_and_the_budget_at_any_budget(seed, m, log_b):
    # below the rounding of phi's running sums no knot reached b, and the search
    # read the last knot for the segment's left end; where x ~ b/c is below eps v,
    # v - tau c cancels: either way x spent up to 1e301 b
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.1, 10.0, size=m)
    v = rng.normal(size=m) * 2.0
    b = 10.0 ** log_b
    x, _ = project_box_budget(v, c, b)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert float(c @ x) <= b * (1.0 + 1e-12)


def bisect_projection(v, c, b):
    """Reference: the budget multiplier by 100 bisection steps on [0, max v/c]."""
    x = np.clip(v, 0.0, 1.0)
    if c @ x <= b + 1e-12:
        return x, 0.0
    lo, hi = 0.0, float(np.max(v / c))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if c @ np.clip(v - mid * c, 0.0, 1.0) > b:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi * c, 0.0, 1.0), hi


@given(m=st.sampled_from([1, 2, 50, 500]), seed=st.integers(0, 2**32 - 1),
       ties=st.booleans(), scale=st.sampled_from([2.0, 1e3]), edges=st.booleans(),
       budget=st.sampled_from(["binding", "level", "tight", "slack"]))
# rounding in the running spend lands these two on a flat piece of phi
@example(m=2, seed=444, ties=False, scale=2.0, edges=True, budget="level")
@example(m=50, seed=8, ties=False, scale=1e3, edges=True, budget="level")
@settings(deadline=None)
def test_projection_matches_bisection(m, seed, ties, scale, edges, budget):
    rng = np.random.default_rng(seed)
    if ties:   # few distinct costs and ratios: repeated v/c and (v-1)/c
        c = rng.choice([0.5, 1.0, 2.0], size=m)
        v = c * rng.choice([-0.5, 0.25, 0.5, 1.0, 1.5], size=m)
    else:
        c = rng.uniform(0.3, 2.0, size=m)
        v = rng.normal(size=m) * scale
    if edges:
        v[rng.random(m) < 0.3] = 0.0
        v[rng.random(m) < 0.3] = 1.0
    spend = float(c @ np.clip(v, 0.0, 1.0))
    # "level": the spend of the items at 1 once the others reach 0, the level
    # of a flat piece of the spend curve
    b = {"binding": rng.uniform(0.05, 0.95) * spend, "level": float(c[v >= 1.5].sum()),
         "tight": spend, "slack": spend + 1.0}[budget]
    assume(b > 0.0)
    x, tau = project_box_budget(v, c, b)
    x_ref, tau_ref = bisect_projection(v, c, b)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    # tau is unique unless x lies on a flat piece of the spend (every entry at
    # 0 or 1, up to the bisection's rounding); then every tau along it is a
    # multiplier
    if tau_ref == 0.0 or np.any((x_ref > 1e-12) & (x_ref < 1.0 - 1e-12)):
        assert abs(tau - tau_ref) <= 1e-12 * max(1.0, tau_ref)


def test_projection_idempotent(rng):
    c = np.array([1.0, 1.0, 1.0])
    x, _ = project_box_budget(np.array([2.0, 0.4, -1.0]), c, 1.0)
    x2, _ = project_box_budget(x, c, 1.0)
    assert np.allclose(x2, x, atol=1e-9)


@pytest.mark.parametrize("kind", ["dopt", "aopt"])
def test_continuous_opt_vs_slsqp_and_random_search(kind, rng):
    obj = make_objective(kind)
    inst = random_instance(rng, n=3, m=8, b=3.0)
    res = offline_continuous_opt(inst, obj)
    assert res.value <= res.upper <= res.value + OFFLINE_TOL * max(1.0, res.value)

    # oracle 1: scipy SLSQP from several starts
    best_sci = -np.inf
    for s in range(4):
        x0 = np.random.default_rng(s).uniform(0.0, 1.0, inst.m)
        x0 *= min(1.0, inst.b / float(inst.costs @ x0))
        r = optimize.minimize(
            lambda x: -objective_value(obj, inst, x),
            x0,
            bounds=[(0.0, 1.0)] * inst.m,
            constraints=[{"type": "ineq", "fun": lambda x: inst.b - inst.costs @ x}],
            method="SLSQP",
            options={"maxiter": 300, "ftol": 1e-12},
        )
        best_sci = max(best_sci, -r.fun)

    # oracle 2: random feasible search
    draws = np.random.default_rng(1).uniform(0.0, 1.0, size=(200_000, inst.m))
    feas = draws[draws @ inst.costs <= inst.b]
    best_rand = max(objective_value(obj, inst, x) for x in feas[:20_000])

    target = max(best_sci, best_rand)
    assert res.value >= target - 1e-4 * max(1.0, abs(target))
    assert res.value <= target + 1e-4 * max(1.0, abs(target)) + 1e-6


@pytest.mark.parametrize("kind, reference", [("dopt", 135.661784704),
                                             ("aopt", 46.193867749)])
def test_continuous_opt_gap_certificate(kind, reference):
    # n=50, m=500: a stop on the projected-gradient step norm stalls on both
    # before it certifies, at these values
    obj = make_objective(kind)
    inst = gen_random(50, 500, 1.0, 1, 10.0)
    res = offline_continuous_opt(inst, obj)
    assert res.value <= res.upper <= res.value + OFFLINE_TOL * max(1.0, res.value)
    assert res.value == pytest.approx(reference, rel=1e-7, abs=0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(0.0, 1.0, inst.m)
        x *= min(1.0, inst.b / float(inst.costs @ x))
        assert objective_value(obj, inst, x) <= res.upper


@pytest.mark.parametrize("kind", ["dopt", "aopt", "pmean3"])
def test_continuous_opt_stop_is_relative_at_a_tiny_budget(kind):
    # f is about 1e-8 here: a gap stop at OFFLINE_TOL * max(1, f) is met at
    # the starting point, a third below P*
    inst = gen_random(10, 100, 1.0, 2, 1e-9)
    res = offline_continuous_opt(inst, make_objective(kind))
    assert 0.0 < res.value <= res.upper <= res.value + OFFLINE_TOL * res.value


LARGE_SCALE_FAULT = pytest.mark.xfail(strict=True, reason=(
    "rounding of about eps lambda_max reaches the null direction of X at lambda_max = "
    "2.5e10: dopt's upper is 1.6e-8 (relative) below P*, and aopt's and pmean2's value "
    "is 1 + 1e-6 and 1 + 2e-6, above P* <= 1"))


@pytest.mark.parametrize("kind", ["linear"] + [
    pytest.param(k, marks=LARGE_SCALE_FAULT) for k in ("dopt", "aopt", "pmean2")])
def test_continuous_opt_brackets_p_star_at_a_large_factor_scale(kind):
    # one arrival of unit cost at b = 1e-5 is bought at x = 1e-5, and X = x L L^T has
    # the one eigenvalue x |L|^2, so P* = h(1e-5 (5e7)^2) = h(2.5e10) up to rounding
    L = 5e7 * np.array([[0.6], [0.8]])
    obj = make_objective(kind)
    res = offline_continuous_opt(Instance([Arrival(L, 1.0)], 1e-5), obj)
    p_star, tol = h_eval(obj, 1e-5 * float(np.sum(L * L))), 8.0 * np.finfo(float).eps
    assert res.value <= p_star * (1.0 + tol)
    assert res.upper >= p_star * (1.0 - tol)


@pytest.mark.parametrize("kind", ["dopt", "aopt", "pmean2", "linear"])
@given(log_scale=st.floats(min_value=-12.0, max_value=3.0))
@example(log_scale=-6.0)
@example(log_scale=-9.0)
@settings(deadline=None)
def test_continuous_opt_closes_its_gap_at_any_factor_scale(kind, log_scale):
    # steps in units of the box: with an absolute first step of 1 and clamps at
    # 1e-8 and 1e8, value/upper stalled at 0.908 after 5000 iterations at scale
    # 1e-6 and stopped at 0.689 after one from 1e-9 down
    scale = 10.0 ** log_scale
    inst = Instance([Arrival(a.L * scale, 1.0) for a in gen_random(3, 4, 1.0, 0).arrivals],
                    1.0)
    res = offline_continuous_opt(inst, make_objective(kind))
    assert res.upper - res.value <= OFFLINE_TOL * res.value


def test_knapsack_room_is_relative_to_a_tiny_budget():
    # the budget left when the second item comes up is b - 1; taken as b - 1 + 1,
    # the first item's room b rounds to 0 as well, and so does the maximum
    value = oracle._knapsack_max(np.array([8.0, 1.0]), np.ones(2), 1e-20)
    assert value == pytest.approx(8e-20, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("kind", ["dopt", "aopt"])
def test_continuous_opt_decomposes_each_point_once(kind, monkeypatch):
    # the instance of test_continuous_opt_gap_certificate, where projected
    # gradient with a monotone search takes 57 (dopt) and 61 (aopt) iterations;
    # f is far above 1, so dopt needs no eigvalsh for it
    inst = gen_random(50, 500, 1.0, 1, 10.0)
    calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0, "inv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    res = offline_continuous_opt(inst, make_objective(kind))
    assert res.iterations <= 40
    assert calls["eigh"] == calls["eigvalsh"] == 0
    assert calls["inv"] <= res.iterations + 5
    assert calls["cholesky"] == (calls["inv"] if kind == "dopt" else 0)


def _eigh_point(obj, X, Lc):
    """_offline_point's (f, column terms) from the reference eigenvalue lifts."""
    return trace_lift(obj, X), np.einsum("ik,ik->k", Lc, grad_trace_lift(obj, X) @ Lc)


def _point_instance(n, k, scale):
    """2n + 3 arrivals of rank k at dimension n, at x = 0, in (0.2, 0.8) or at
    lambda_max(X) = 1e8.  The aggregate is full rank: at rank deficiency and
    lambda_max 1e8, rounding X leaves about 1e-8 of G on the null space, which
    no path from X (the eigh reference's included) resolves."""
    rng = np.random.default_rng(100 * n + k)
    m = 2 * n + 3
    Lc = rng.standard_normal((n, k * m))
    idx = np.repeat(np.arange(m), k)
    x = rng.uniform(0.2, 0.8, m) if scale else np.zeros(m)
    if scale == "huge":
        x *= 1e8 / np.linalg.eigvalsh((Lc * x[idx]) @ Lc.T)[-1]
    return Lc, idx, (Lc * x[idx]) @ Lc.T


@pytest.mark.parametrize("kind", ["dopt", "aopt", "pmean0.5", "linear"])
@pytest.mark.parametrize("scale", [None, "interior", "huge"], ids=["zero", "interior", "huge"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("n", [1, 5, 50])
def test_offline_point_matches_the_eigenvalue_lift(n, k, scale, kind):
    obj = make_objective(kind)
    Lc, idx, X = _point_instance(n, k, scale)
    f, terms = oracle._offline_point(obj, X, Lc)
    want_f, want_terms = _eigh_point(obj, X, Lc)
    grad, want = np.bincount(idx, terms), np.bincount(idx, want_terms)
    assert abs(f - want_f) <= 1e-12 * abs(want_f)
    assert np.max(np.abs(grad - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["dopt", "aopt", "pmean0.5", "linear"])
@pytest.mark.parametrize("b", [1e-300, 1e-12, 1e-6, 1.0, 1e4])
def test_continuous_opt_matches_an_eigh_solve_at_any_budget(b, kind, monkeypatch):
    # a Cholesky log det alone gives dopt f = 0 at b = 1e-300 and is off by
    # 3e-5 relative at 1e-12; aopt's n - tr (I + X)^-1 would cancel likewise
    obj = make_objective(kind)
    inst = Instance(gen_random(5, 40, 1.0, 3).arrivals, b)
    res = offline_continuous_opt(inst, obj)
    monkeypatch.setattr(oracle, "_offline_point", _eigh_point)
    want = offline_continuous_opt(inst, obj)
    assert abs(res.value - want.value) <= 1e-12 * want.value
    assert abs(res.upper - want.upper) <= 1e-12 * want.upper


@st.composite
def offline_cases(draw):
    """A small instance with ranks 0..3 (at least one arrival nonzero), b over 1e-9..1e3."""
    n = draw(st.integers(1, 5))
    ranks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    assume(any(ranks))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrivals = [Arrival(rng.standard_normal((n, k)), float(rng.uniform(0.1, 10.0)))
                for k in ranks]
    b = 10.0 ** draw(st.floats(-9.0, 3.0))
    kind = draw(st.sampled_from(["dopt", "aopt", "linear", "pmean0.5", "pmean3"]))
    return Instance(arrivals, b), make_objective(kind), rng


@settings(max_examples=200, derandomize=True)
@given(offline_cases())
def test_continuous_opt_certificate_holds_on_any_instance(case):
    inst, obj, rng = case
    res = offline_continuous_opt(inst, obj)
    c, b = inst.costs, inst.b
    assert np.all((res.x >= 0.0) & (res.x <= 1.0))
    assert float(c @ res.x) <= b * (1.0 + 1e-12) + 1e-15
    assert res.value == pytest.approx(objective_value(obj, inst, res.x), rel=1e-12, abs=0.0)
    assert res.value <= res.upper
    # the dense H agrees with the factored one to rounding, so compare at 1e-12
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, inst.m)
        x *= min(1.0, b / float(c @ x))
        assert objective_value(obj, inst, x) <= res.upper * (1.0 + 1e-12)


def test_continuous_opt_kkt_multiplier(rng):
    obj = make_objective("dopt")
    inst = random_instance(rng, n=3, m=10, b=2.0)
    res = offline_continuous_opt(inst, obj)
    assert float(inst.costs @ res.x) <= inst.b + 1e-8


def _mixed_rank_instance():
    """Generated rank-one arrivals, a dense rank-3 arrival and a zero arrival."""
    rng = np.random.default_rng(11)
    B = rng.standard_normal((6, 3))
    arrivals = (gen_random(6, 30, 1.0, 4).arrivals
                + [Arrival.from_matrix(B @ B.T, 1.2), Arrival.from_matrix(np.zeros((6, 6)), 0.7)])
    return Instance(arrivals, 4.0)


@pytest.mark.parametrize("kind", ["dopt", "aopt"])
def test_continuous_opt_factored_matches_dense(kind):
    obj = make_objective(kind)
    inst = _mixed_rank_instance()
    assert sorted({a.L.shape[1] for a in inst.arrivals}) == [0, 1, 3]
    res = offline_continuous_opt(inst, obj)
    assert res.value == pytest.approx(objective_value(obj, inst, res.x), rel=1e-12, abs=0.0)
    # the Frank-Wolfe gap from the dense gradient, with the knapsack filled greedily
    As = dense_stack(inst)
    X = np.tensordot(res.x, As, axes=(0, 0))
    g = np.tensordot(As, grad_trace_lift(obj, X), axes=([1, 2], [0, 1]))
    room, best = inst.b, 0.0
    for i in np.argsort(-g / inst.costs):
        take = min(1.0, max(0.0, room / inst.costs[i]))
        best += take * g[i]
        room -= take * inst.costs[i]
    upper = res.value + max(0.0, best - float(g @ res.x))
    assert res.upper == pytest.approx(upper, rel=1e-10, abs=0.0)


def test_continuous_opt_never_builds_the_dense_stack():
    inst = _mixed_rank_instance()
    want = offline_continuous_opt(inst, make_objective("dopt"))
    # stand-ins with no dense A: the solver reads each arrival's factor and cost only
    inst.arrivals = [SimpleNamespace(L=a.L, c=a.c) for a in inst.arrivals]
    res = offline_continuous_opt(inst, make_objective("dopt"))
    assert res.value <= res.upper
    assert (res.value, res.upper) == (want.value, want.upper)


def test_continuous_upper_bounds_integer(rng):
    obj = make_objective("dopt")
    inst = random_instance(rng, n=3, m=10, b=3.0)
    cont = offline_continuous_opt(inst, obj).value
    ival, bits = offline_integer_opt(inst, obj)
    assert ival <= cont + 1e-9
    assert float(inst.costs @ bits) <= inst.b + 1e-9


def test_integer_opt_explicit_enumeration(rng):
    obj = make_objective("aopt")
    inst = random_instance(rng, n=2, m=6, b=2.5)
    ival, bits = offline_integer_opt(inst, obj)
    best = 0.0
    for mask in range(2**6):
        x = [(mask >> i) & 1 for i in range(6)]
        if float(inst.costs @ x) <= inst.b:
            best = max(best, objective_value(obj, inst, x))
    assert ival == pytest.approx(best, abs=1e-12)
    assert objective_value(obj, inst, bits) == pytest.approx(ival, abs=1e-12)


def test_integer_opt_capacity_error(rng):
    inst = random_instance(rng, n=2, m=8)
    with pytest.raises(CapacityError):
        offline_integer_opt(inst, make_objective("dopt"), max_m=6)


def engine_setup(inst, gamma, variant):
    obj = make_objective("dopt")
    rho1 = inst.rho1 if variant == "seq" else 0.0
    budget = BudgetSmoother(obj, gamma, inst.b, inst.theta, inst.Theta, rho1, variant)
    rho2 = inst.rho2 if variant == "seq" else 0.0
    spec = DesignSpec(obj, gamma, 14.0, 40, 60, variant, rho2)
    return design_hs(spec).smoothed(), budget


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_passes_on_clean_run(variant, rng):
    inst = random_instance(rng, n=3, m=10, b=2.0)
    sm, budget = engine_setup(inst, 2.0, variant)
    trace = run_stream(sm, budget, inst.arrivals, variant)
    rep = audit_trace(trace, inst)
    assert rep.passed, rep.checks
    assert rep.budget_residual <= 1e-9
    assert rep.d_value >= rep.p_star - 1e-6
    d = rep.to_dict()
    assert d["passed"] and d["checks"] == rep.checks
    # the layout of `psdalloc audit`'s JSON: the fields in order, checks as plain bools,
    # then the tolerance each residual is held to
    assert list(d) == ["variant", "m", "budget_used", "b_prime", "budget_residual",
                       "decision_consistent", "worst_decision_residual", "max_z_step",
                       "min_y_gap", "telescope_residual", "dual_gap_residual",
                       "rho_bound_residual", "primal_H", "lambda_max", "d_value", "p_star",
                       "passed", "checks", "tols"]
    assert all(type(v) is bool for v in d["checks"].values())
    assert d["tols"] == DEFAULT_TOLS and d["tols"] is not DEFAULT_TOLS


def test_audit_detects_corrupted_decisions(rng):
    inst = random_instance(rng, n=3, m=10, b=2.0)
    sm, budget = engine_setup(inst, 2.0, "seq")
    trace = run_stream(sm, budget, inst.arrivals, "seq")
    bad = trace.decisions.copy()
    bad[0] = 1.0 - bad[0]
    rep = audit_run(bad, inst, sm, budget, "seq")
    assert not rep.checks["decisions"]
    assert not rep.passed


def test_audit_detects_budget_violation(rng):
    inst = random_instance(rng, n=3, m=12, b=2.0)
    sm, budget = engine_setup(inst, 2.0, "seq")
    all_ones = np.ones(inst.m)
    rep = audit_run(all_ones, inst, sm, budget, "seq")
    assert not rep.checks["budget"] or not rep.checks["decisions"]
    assert not rep.passed


def test_audit_length_mismatch(rng):
    inst = random_instance(rng, n=3, m=5)
    sm, budget = engine_setup(inst, 2.0, "sim")
    with pytest.raises(AuditError):
        audit_run(np.zeros(4), inst, sm, budget, "sim")
    with pytest.raises(AuditError):
        audit_run(np.zeros(5), inst, sm, budget, "diagonal")
    # a trace is audited through audit_run, which makes the one length check
    trace = run_stream(sm, budget, inst.arrivals[:4], "sim")
    with pytest.raises(AuditError, match="length"):
        audit_trace(trace, inst)


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_refuses_a_variant_the_smoother_was_not_built_for(variant):
    # a seq smoother's b' adds rho1: the sim engine run against one spends
    # 8.6 b here, which only the variant check can catch
    inst = gen_random(3, 20, b=0.5)
    other = "sim" if variant == "seq" else "seq"
    obj = make_objective("dopt")
    sm = SmoothedObjective(lowner.exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, other)
    st = OnlineState(sm, budget, inst.n)
    for arr in inst.arrivals:
        (st.step_sequential if variant == "seq" else st.step_simultaneous)(arr)
    if variant == "sim":
        assert st.u > 8.0 * inst.b
    with pytest.raises(AuditError, match="'%s'.*'%s'" % (variant, other)):
        audit_run(st.decisions, inst, sm, budget, variant, p_star=1.0)


def test_audit_refuses_a_smoother_built_for_another_objective():
    # the engines refuse this pair; the audit would check the run against the wrong b'
    inst = gen_random(3, 20, b=0.5)
    dopt, aopt = make_objective("dopt"), make_objective("aopt")
    sm = SmoothedObjective(lowner.exact_measure(dopt), dopt)
    budget = BudgetSmoother(dopt, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, "sim")
    trace = run_stream(sm, budget, inst.arrivals, "sim", inst.n)
    other = BudgetSmoother(aopt, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, "sim")
    with pytest.raises(AuditError, match="objective dopt .* aopt"):
        audit_run(trace.decisions, inst, sm, other, "sim", p_star=1.0)


def test_audit_rejects_decisions_outside_unit_interval(rng):
    inst = random_instance(rng, n=3, m=5)
    sm, budget = engine_setup(inst, 2.0, "sim")
    for bad in (-0.5, 1.5, np.nan):
        x = np.zeros(5)
        x[2] = bad
        with pytest.raises(AuditError, match=r"\[0, 1\]"):
            audit_run(x, inst, sm, budget, "sim")


def _spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that records the arguments of each call."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _dense_decision_residuals(decisions, inst, sm, budget):
    """The sim decision check with grad_hs evaluated afresh at U + x A on every step."""
    n = inst.n
    U, u = np.zeros((n, n)), 0.0
    Y, z = sm.base.h_prime0 * np.eye(n), 0.0
    out = []
    for arr, x in zip(inst.arrivals, decisions):
        A, c = arr.L @ arr.L.T, arr.c
        d_at = (float(np.vdot(A, oracle.grad_hs(sm, U + x * A)))
                + c * gs_prime(budget, u + x * c))
        resid = max(0.0, d_at) if x <= 0.0 else max(0.0, -d_at) if x >= 1.0 else abs(d_at)
        out.append(resid / max(1.0, abs(float(np.vdot(A, Y))) + c * abs(z)))
        if x > 0.0:
            U, u = U + x * A, u + x * c
            Y, z = oracle.grad_hs(sm, U), gs_prime(budget, u)
    return np.array(out)


def _opens_with_a_rejection():
    """A random stream led by a zero arrival, which both engines reject."""
    arrivals = random_instance(np.random.default_rng(5), n=3, m=16, b=2.0).arrivals
    return Instance([Arrival(np.zeros((3, 0)), 1.0)] + arrivals, 2.0)


def _small_blocks(monkeypatch, inst, steps):
    """Make the audit replay inst in blocks of `steps` steps; returns the block
    length the audit uses."""
    n, k = inst.n, max(a.L.shape[1] for a in inst.arrivals)
    if steps is not None:
        monkeypatch.setattr(oracle, "AUDIT_BLOCK_FLOATS", steps * n * max(n, k))
    block = oracle._audit_block(n, k)
    assert block == (steps or block)
    return block


def _stacks(calls, i, n):
    """Argument i of each recorded call as a stack of n x n matrices."""
    return [np.reshape(args[i], (-1, n, n)) for args in calls]


def assert_reports_match(rep, ref):
    """Every to_dict() field within 1e-12 relative, and the same checks.

    A residual at rounding level sits near 0 (|Phi'| at a fractional
    decision, a tight rho bound), so it is held to 1e-12 absolute instead.
    """
    got, want = rep.to_dict(), ref.to_dict()
    assert got.keys() == want.keys() and got["checks"] == want["checks"]
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12, nan_ok=True), key
        else:
            assert got[key] == value, key


def _decisions(kind, engine, m):
    return {"engine": engine, "none": np.zeros(m), "every": np.ones(m),
            "halves": np.where(np.arange(m) % 3 == 1, 0.0, 0.5)}[kind]


@pytest.mark.parametrize("steps", [None, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("kind", ["engine", "none", "every", "halves"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_matches_the_step_by_step_reference(variant, kind, steps, monkeypatch):
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, variant)
    x = _decisions(kind, run_stream(sm, budget, inst.arrivals, variant).decisions, inst.m)
    if kind == "engine" and variant == "sim":
        assert np.any((x > 0.0) & (x < 1.0))    # fractional decisions
    block = _small_blocks(monkeypatch, inst, steps)
    assert (inst.m > block) == (steps is not None)
    ref = reference_audit_run(x, inst, sm, budget, variant, 1.0)
    assert_reports_match(audit_run(x, inst, sm, budget, variant, p_star=1.0), ref)


def test_audit_matches_the_reference_across_blocks_at_n_20():
    inst = gen_random(20, 120, 1.0, 3)
    for variant in ("seq", "sim"):
        sm, budget = engine_setup(inst, 2.0, variant)
        x = run_stream(sm, budget, inst.arrivals, variant).decisions
        ref = reference_audit_run(x, inst, sm, budget, variant, 1.0)
        for steps in (None, 7):
            with pytest.MonkeyPatch.context() as mp:
                _small_blocks(mp, inst, steps)
                assert_reports_match(audit_run(x, inst, sm, budget, variant, p_star=1.0), ref)


@pytest.mark.parametrize("kind", ["engine", "every"])
def test_audit_matches_the_reference_on_full_rank_arrivals(kind):
    # a full-rank purchase moves Y in every direction, so each Y gap
    # lambda_min(Y_{k-1} - Y_k) is positive and not rounding noise at 0
    rng = np.random.default_rng(2)
    arrivals = []
    for _ in range(10):
        W = rng.standard_normal((3, 3))
        arrivals.append(Arrival.from_matrix(W @ W.T / 3.0 + 0.1 * np.eye(3),
                                            float(rng.uniform(0.5, 1.5))))
    inst = Instance(arrivals, 2.0)
    for variant in ("seq", "sim"):
        sm, budget = engine_setup(inst, 2.0, variant)
        x = _decisions(kind, run_stream(sm, budget, inst.arrivals, variant).decisions, inst.m)
        ref = reference_audit_run(x, inst, sm, budget, variant, 1.0)
        if kind == "every":
            assert ref.min_y_gap > 1e-4
        for steps in (None, 3):
            with pytest.MonkeyPatch.context() as mp:
                block = _small_blocks(mp, inst, steps)
                assert (inst.m > block) == (steps is not None)
                assert_reports_match(audit_run(x, inst, sm, budget, variant, p_star=1.0), ref)


@pytest.mark.parametrize("measure", ["dopt-exact", "aopt-designed", "hand"])
def test_audit_duals_start_at_the_engines_y0(measure, monkeypatch):
    # the first price of a run that opens with a rejection reads Y0 as it is
    inst = _opens_with_a_rejection()
    if measure == "aopt-designed":
        obj = make_objective("aopt")
        sm = design_hs(DesignSpec(obj, 2.0, 14.0)).smoothed()
        assert np.count_nonzero(sm.measure.weights) > lowner.RESOLVENT_ATOMS
    else:
        obj = make_objective("dopt")
        y0 = 1.0 + 5e-9 * (measure == "hand")
        sm = SmoothedObjective(AtomicMeasure(np.array([0.5]), np.array([0.5 * y0])), obj)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, 0.0, "sim")
    prices = _spy(monkeypatch, oracle, "_prices")
    audit_run(np.zeros(inst.m), inst, sm, budget, "sim", p_star=1.0)
    Y0 = np.reshape(prices[0][0], (-1, inst.n, inst.n))[0]
    np.testing.assert_array_max_ulp(Y0, OnlineState(sm, budget, inst.n).Y, maxulp=4)
    np.testing.assert_array_max_ulp(Y0, sm.measure.y0 * np.eye(inst.n), maxulp=4)
    if measure == "hand":
        assert Y0[0, 0] - obj.h_prime0 > 4e-9


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_prices_at_y0_until_the_first_purchase(variant):
    # y(0) may differ from h'(0) by up to 1e-8; Y starts at grad H_S(0) = y(0) I,
    # where the engines' does.  A third of each factor keeps y(0) tr A below 1, so
    # the sim check's scale max(1, y(0) tr A) is 1 and both variants report y(0) tr A
    base = _opens_with_a_rejection()
    inst = Instance([Arrival(a.L / 3.0, a.c) for a in base.arrivals], base.b)
    _, budget = engine_setup(inst, 2.0, variant)
    y0 = 1.0 + 5e-9
    sm = SmoothedObjective(AtomicMeasure(np.array([0.5]), np.array([0.5 * y0])),
                           make_objective("dopt"))
    x = np.zeros(inst.m)
    x[-1] = 1.0
    ref = reference_audit_run(x, inst, sm, budget, variant, 1.0)
    rep = audit_run(x, inst, sm, budget, variant, p_star=1.0)
    assert_reports_match(rep, ref)
    # the worst residual is a rejection before the purchase, priced at y(0) I
    prices = [y0 * np.trace(a.L @ a.L.T) for a in inst.arrivals[:-1]]
    before = [p / (max(1.0, p) if variant == "sim" else 1.0) for p in prices]
    assert max(prices) < 1.0
    assert rep.worst_decision_residual == pytest.approx(max(before), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("steps", [None, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_fails_a_changed_decision_with_the_reference_residual(variant, steps,
                                                                    monkeypatch):
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, variant)
    x = run_stream(sm, budget, inst.arrivals, variant).decisions.copy()
    if variant == "seq":
        k = 9 if x[9] == 0.0 else 8
        x[k] = 1.0 - x[k]                      # flip a rejection after a purchase
    else:
        k = int(np.flatnonzero((x > 0.0) & (x < 1.0))[-1])
        x[k] = min(1.0, x[k] + 0.1)           # a fractional decision off its root
    _small_blocks(monkeypatch, inst, steps)
    ref = reference_audit_run(x, inst, sm, budget, variant, 1.0)
    rep = audit_run(x, inst, sm, budget, variant, p_star=1.0)
    assert not rep.decision_consistent and not rep.checks["decisions"] and not rep.passed
    assert rep.worst_decision_residual > DEFAULT_TOLS["decision"]
    assert rep.worst_decision_residual == pytest.approx(ref.worst_decision_residual,
                                                        rel=1e-12, abs=0.0)
    assert_reports_match(rep, ref)


def test_audit_never_builds_the_dense_stack_of_the_run(monkeypatch):
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, "sim")
    x = run_stream(sm, budget, inst.arrivals, "sim").decisions
    steps, stack = _small_blocks(monkeypatch, inst, 3), np.stack

    def at_most_a_block(arrays, *args, **kwargs):
        out = stack(arrays, *args, **kwargs)
        if out.shape[1:] == (inst.n, inst.n) and len(out) > steps:
            raise AssertionError("audit_run stacked %d of the run's %d A_t" % (len(out), inst.m))
        return out

    monkeypatch.setattr(np, "stack", at_most_a_block)
    assert audit_run(x, inst, sm, budget, "sim", p_star=0.0).passed


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_decomposes_only_after_purchases(variant):
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, variant)
    x = run_stream(sm, budget, inst.arrivals, variant).decisions
    bought = int(np.count_nonzero(x))
    assert 0 < bought < inst.m and x[0] == 0.0
    p_star = offline_continuous_opt(inst, make_objective("dopt")).value
    for steps in (None, 4):
        with pytest.MonkeyPatch.context() as mp:
            block = _small_blocks(mp, inst, steps)
            expect = audit_run(x, inst, sm, budget, variant, p_star=p_star).to_dict()
            grads = _spy(mp, oracle, "grad_hs_into")
            eigs = _spy(mp, np.linalg, "eigvalsh")
            rep = audit_run(x, inst, sm, budget, variant, p_star=p_star)
        assert rep.passed and rep.to_dict() == expect
        stacks = _stacks(grads, 1, inst.n)
        # one gradient per purchase; Y starts at y(0) I with none
        assert sum(len(S) for S in stacks) == bought
        assert max(len(S) for S in stacks) <= block
        # a rejected step leaves Y as it is: no eigvalsh of the zero matrix Y - Y
        assert not any(np.all(M == 0.0) for S in _stacks(eigs, 0, inst.n) for M in S)


@st.composite
def audit_cases(draw):
    """A run of n <= 4, m <= 20 and ranks 0..3, with a measure given zero-weight atoms,
    which it drops, and whose y(0) = h'(0) = 1.  The decisions are the engine's, or drawn
    from {0, 1, U(0, 1)}, which fail most checks."""
    steps = draw(st.sampled_from([None, 3]))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1 if steps is None else 4, 20))
    ranks = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    assume(any(ranks))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrivals = [Arrival(rng.standard_normal((n, k)), float(rng.uniform(0.5, 1.5)))
                for k in ranks]
    inst = Instance(arrivals, float(draw(st.floats(0.5, 5.0))))
    x = np.array([draw(st.sampled_from([0.0, 1.0, float(rng.uniform(0.0, 1.0))]))
                  for _ in ranks])
    nodes = draw(st.lists(st.floats(0.0, 0.95), min_size=2, max_size=6, unique=True))
    weights = rng.uniform(0.1, 1.0, len(nodes))
    weights[draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1,
                          max_size=len(nodes) - 1, unique=True))] = 0.0
    weights /= np.sum(weights / (1.0 - np.array(nodes)))
    obj = make_objective(draw(st.sampled_from(["dopt", "aopt"])))
    sm = SmoothedObjective(AtomicMeasure(np.array(nodes), weights), obj)
    variant = draw(st.sampled_from(["seq", "sim"]))
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta,
                            inst.rho1 if variant == "seq" else 0.0, variant)
    if draw(st.booleans()):
        x = run_stream(sm, budget, inst.arrivals, variant).decisions
    # past the overflow guard gs' is -inf and both replays compare nans
    assume(np.isfinite(gs_prime(budget, float(inst.costs @ x))))
    return inst, x, sm, budget, variant, steps


@settings(max_examples=100, derandomize=True)
@given(audit_cases())
def test_audit_matches_the_step_by_step_reference_on_any_run(case):
    inst, x, sm, budget, variant, steps = case
    ref = reference_audit_run(x, inst, sm, budget, variant, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        block = _small_blocks(mp, inst, steps)
        assert (inst.m > block) == (steps is not None)
        assert_reports_match(audit_run(x, inst, sm, budget, variant, p_star=1.0), ref)


@pytest.mark.parametrize("steps", [None, 3], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_reads_no_matrix_of_a_rejected_arrival(variant, steps, monkeypatch):
    # a price is summed over the factor's columns, and a purchase enters U as
    # x L L^T, so the audit reads no arrival's A, bought or rejected
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, variant)
    x = run_stream(sm, budget, inst.arrivals, variant).decisions
    assert 0 < np.count_nonzero(x) < inst.m
    _small_blocks(monkeypatch, inst, steps)
    expect = audit_run(x, inst, sm, budget, variant, p_star=1.0).to_dict()
    inst.arrivals = [SimpleNamespace(L=a.L, c=a.c, n=a.n) for a in inst.arrivals]
    assert audit_run(x, inst, sm, budget, variant, p_star=1.0).to_dict() == expect


@pytest.mark.parametrize("kind,measure", [
    ("engine", "designed"), ("none", "designed"), ("engine", "one-atom"), ("none", "one-atom"),
    ("engine", "two-atom"),
], ids=["engine", "none", "engine-one-atom", "none-one-atom", "engine-two-atom"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_decomposes_the_final_aggregate_once(variant, kind, measure, monkeypatch):
    # each block with a purchase pays, in this order: under a measure of more than
    # RESOLVENT_ATOMS live atoms one stacked eigh of its U_k, else one stacked inverse
    # per atom and no PSD check; one eigvalsh of its least-trace Y gap, as a stack of
    # one; and past one gap a shifted Cholesky of all its gaps, then one eigvalsh of
    # all of them only where that Cholesky fails.  Y starts at y(0) I, so a run that
    # opens with a rejection decomposes nothing at U = 0.  H_S(U), h*, H(U) and
    # lambda_max share one eigh of U
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, variant)
    if measure == "one-atom":
        sm = SmoothedObjective(lowner.exact_measure(sm.base), sm.base)
    elif measure == "two-atom":
        sm = SmoothedObjective(AtomicMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.25])),
                               sm.base)
    atoms = np.count_nonzero(sm.measure.weights)
    spectral = bool(atoms > lowner.RESOLVENT_ATOMS)
    assert spectral == (measure == "designed")
    x = _decisions(kind, run_stream(sm, budget, inst.arrivals, variant).decisions, inst.m)
    block = _small_blocks(monkeypatch, inst, 4)
    gaps = np.bincount(np.flatnonzero(x) // block, minlength=-(-inst.m // block))
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky", "inv"):
        real = getattr(np.linalg, name)

        def counted(M, *args, _real=real, _name=name, **kwargs):
            calls.append([_name, np.asarray(M), True])      # raised, until it returns
            out = _real(M, *args, **kwargs)
            calls[-1][2] = False
            return out

        monkeypatch.setattr(np.linalg, name, counted)
    audit_run(x, inst, sm, budget, variant, p_star=1.0)
    single = [(name, M) for name, M, _ in calls if M.ndim == 2]
    stacked = [(name, len(M), raised) for name, M, raised in calls if M.ndim == 3]
    expect = []
    for k in gaps[gaps > 0]:
        expect += [("eigh", k, False)] if spectral else [("inv", k, False)] * atoms
        expect.append(("eigvalsh", 1, False))
        if k > 1:
            # the shifted Cholesky follows the seed; read whether it failed
            raised = len(stacked) > len(expect) and stacked[len(expect)][2]
            expect.append(("cholesky", k, raised))
            if raised:
                expect.append(("eigvalsh", k, False))
    assert stacked == expect
    if kind == "engine":
        assert gaps.any()
    assert [name for name, _ in single] == ["eigh"]
    U = sum(xt * (a.L @ a.L.T) for xt, a in zip(x, inst.arrivals))
    assert np.allclose(single[-1][1], U, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bought", ["every", "first"])
@pytest.mark.parametrize("measure", ["one-atom", "designed"])
def test_audit_raises_where_its_duals_cannot_be_formed(measure, bought):
    # factors scaled by 1e150 put U near 1e300, where lambda U + (1 - lambda) I rounds
    # to a singular matrix: the duals skip grad_hs's PSD check, and the audit still
    # raises, as it did with the check, instead of returning any report, and says why
    base = gen_random(3, 8, 1.0, 0)
    sm, _ = engine_setup(base, 2.0, "seq")
    if measure == "one-atom":
        sm = SmoothedObjective(lowner.exact_measure(sm.base), sm.base)
    inst = Instance([Arrival(a.L * 1e150, a.c) for a in base.arrivals], 1e-300)
    budget = BudgetSmoother(sm.base, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, "seq")
    x = np.ones(inst.m) if bought == "every" else np.eye(inst.m)[0]
    raised, match = ((np.linalg.LinAlgError, "singular in float64 at the replayed aggregate")
                     if measure == "one-atom" else (QuadratureError, None))
    with pytest.raises(raised, match=match):
        audit_run(x, inst, sm, budget, "seq", p_star=0.0)


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_refuses_an_aggregate_that_overflows(variant):
    # each A_t is finite and their sum is not: the finite check on a block's last
    # aggregate stands for sym's, which refused it before the duals skipped grad_hs
    L = np.zeros((3, 1))
    L[0, 0] = 1e154
    inst = Instance([Arrival(L, 1.0), Arrival(L, 1.0), Arrival(np.ones((3, 1)), 1.0)], 1.0)
    obj = make_objective("dopt")
    sm = SmoothedObjective(lowner.exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    with np.errstate(over="ignore"), pytest.raises(InvalidMatrix, match="non-finite"):
        audit_run(np.ones(inst.m), inst, sm, budget, variant, p_star=0.0)


def _bump_gradient_at(monkeypatch, target, bump):
    """Add bump I to grad H_S at the aggregate target, in the audit (whose duals are
    grad_hs_into's, written into out) and in the reference."""
    def at(M):
        hit = np.all(np.isclose(M, target, rtol=1e-12, atol=1e-15), axis=(-2, -1))
        return bump * hit[..., None, None] * np.eye(M.shape[-1])

    into = oracle.grad_hs_into
    monkeypatch.setattr(oracle, "grad_hs_into",
                        lambda measure, S, out: np.add(into(measure, S, out), at(S), out=out))
    monkeypatch.setattr(reference, "grad_hs_lift", lambda sm, M: grad_hs_lift(sm, M) + at(M))


def test_audit_finds_a_failing_gap_hidden_among_rank_deficient_ones(monkeypatch):
    # rank-one purchases under the one-atom measure move Y by rank one, so at n = 4
    # every gap's lambda_min is 0 up to rounding.  Lifting one Y_k by 2 tol I, away
    # from the gap of least trace, takes that gap to -2 tol: the seed misses it, the
    # shifted Cholesky fails, and the eigvalsh of every gap reports it
    n, tol = 4, DEFAULT_TOLS["y_monotone"]
    inst = gen_random(n, 12, 1.0, 5)
    obj = make_objective("dopt")
    sm = SmoothedObjective(lowner.exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, 0.0, "sim")
    x = np.ones(inst.m)
    Us = np.cumsum([a.L @ a.L.T for a in inst.arrivals], axis=0)
    Ys = np.concatenate([[obj.h_prime0 * np.eye(n)], grad_hs_lift(sm, Us)])
    traces = np.trace(Ys[:-1] - Ys[1:], axis1=1, axis2=2)
    k = int(np.argmax(traces))
    assert traces[k] - 2.0 * tol * n > traces.min()
    _bump_gradient_at(monkeypatch, Us[k], 2.0 * tol)
    ref = reference_audit_run(x, inst, sm, budget, "sim", 1.0)
    assert ref.min_y_gap == pytest.approx(-2.0 * tol, rel=1e-6, abs=0.0)
    eigs = _spy(monkeypatch, np.linalg, "eigvalsh")
    rep = audit_run(x, inst, sm, budget, "sim", p_star=1.0)
    assert [len(args[0]) for args in eigs] == [1, inst.m]      # the seed, then every gap
    assert not rep.checks["y_monotone"]
    assert_reports_match(rep, ref)


def test_audit_certifies_rank_deficient_gaps_by_one_shifted_cholesky(monkeypatch):
    # at n = 20 a rank-one purchase under a measure of more than RESOLVENT_ATOMS
    # atoms moves Y by rank at most the atom count, so each gap's lambda_min is 0
    # up to rounding: the shifted Cholesky passes, no gap but the seed is
    # decomposed, and the reported gap is at most the slack above the least
    n = 20
    inst = gen_random(n, 60, 1.0, 11)
    obj = make_objective("aopt")
    sm = design_hs(DesignSpec(obj, 2.0, 14.0)).smoothed()
    assert np.count_nonzero(sm.measure.weights) > lowner.RESOLVENT_ATOMS
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, 0.0, "sim")
    x = run_stream(sm, budget, inst.arrivals, "sim").decisions
    gaps, min_y_gap = [], oracle._min_y_gap      # the gaps as they come in, before the shift
    monkeypatch.setattr(oracle, "_min_y_gap", lambda dY: gaps.append(dY.copy()) or min_y_gap(dY))
    eigs = _spy(monkeypatch, np.linalg, "eigvalsh")
    rep = audit_run(x, inst, sm, budget, "sim", p_star=0.0)
    assert [np.shape(args[0]) for args in eigs] == [(1, n, n)]
    (dY,) = gaps                                                # one block
    assert len(dY) == np.count_nonzero(x) > 1
    exact = float(np.min(np.linalg.eigvalsh(dY)[:, 0]))
    if np.any(x == 0.0):
        exact = min(exact, 0.0)         # a rejected step's gap is exactly 0
    slack = oracle.Y_GAP_SLACK * n * np.finfo(float).eps * max(1.0, float(np.max(np.abs(dY))))
    assert exact <= rep.min_y_gap <= exact + slack
    assert rep.checks["y_monotone"] and rep.passed


def test_min_y_gap_falls_back_on_the_gaps_as_they_came_in():
    # the least-trace gap seeds g near -1.3 and another gap lies below it, so the
    # shifted Cholesky fails.  Its shift of about 1.3 is undone by putting the diagonal
    # back: subtracting it would not restore entries near 1e-3, and the fallback
    # eigvalsh reads every gap bit for bit
    rng = np.random.default_rng(3)
    F = rng.standard_normal((4, 5, 5))
    dY = 1e-3 * (F @ np.swapaxes(F, 1, 2))
    dY[0] -= (1.3 + rng.uniform(0.0, 0.1)) * np.eye(5)
    dY[2, 0, 0] = -2.0 - rng.uniform()
    came = dY.copy()
    g, bound = oracle._min_y_gap(dY)
    assert dY.tobytes() == came.tobytes()
    assert g == bound == np.min(np.linalg.eigvalsh(came)[:, 0]) < 0.0


def test_audit_reports_the_exact_gap_of_a_block_with_one_purchase(monkeypatch):
    # blocks of one step: each purchase is its block's only gap, which is
    # decomposed alone, so the reported gap is exact, here a real margin of
    # full-rank arrivals
    rng = np.random.default_rng(2)
    arrivals = []
    for _ in range(10):
        W = rng.standard_normal((3, 3))
        arrivals.append(Arrival.from_matrix(W @ W.T / 3.0 + 0.1 * np.eye(3),
                                            float(rng.uniform(0.5, 1.5))))
    inst = Instance(arrivals, 2.0)
    sm, budget = engine_setup(inst, 2.0, "sim")
    x = np.ones(inst.m)
    _small_blocks(monkeypatch, inst, 1)
    ref = reference_audit_run(x, inst, sm, budget, "sim", 1.0)
    gaps = _spy(monkeypatch, oracle, "_min_y_gap")
    chol = _spy(monkeypatch, np.linalg, "cholesky")
    rep = audit_run(x, inst, sm, budget, "sim", p_star=1.0)
    assert [len(args[0]) for args in gaps] == [1] * inst.m and not chol
    assert rep.min_y_gap == min(float(np.linalg.eigvalsh(args[0])[0, 0]) for args in gaps)
    assert ref.min_y_gap > 1e-4
    assert_reports_match(rep, ref)


def test_audit_sim_evaluates_gs_prime_once_per_purchase():
    # a rejected step leaves u as it is, so its check reuses the replayed z
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, "sim")
    x = run_stream(sm, budget, inst.arrivals, "sim").decisions
    bought = int(np.count_nonzero(x))
    assert 0 < bought < inst.m
    for steps in (None, 4):
        with pytest.MonkeyPatch.context() as mp:
            _small_blocks(mp, inst, steps)
            calls = _spy(mp, oracle, "gs_prime")
            assert audit_run(x, inst, sm, budget, "sim", p_star=0.0).decision_consistent
        assert sum(np.size(args[1]) for args in calls) == bought


def test_audit_decision_check_uses_the_gradient_after_each_purchase():
    # a gradient of U left over from before a purchase is larger in the Loewner
    # order, so rejected steps after it would show a positive derivative
    inst = _opens_with_a_rejection()
    sm, budget = engine_setup(inst, 2.0, "sim")
    x = run_stream(sm, budget, inst.arrivals, "sim").decisions
    dense = _dense_decision_residuals(x, inst, sm, budget)
    rep = audit_run(x, inst, sm, budget, "sim", p_star=0.0)
    assert rep.decision_consistent
    assert rep.worst_decision_residual == pytest.approx(dense.max(), rel=1e-9, abs=1e-15)


def test_audit_accepts_precomputed_pstar(rng):
    inst = random_instance(rng, n=3, m=8, b=2.0)
    sm, budget = engine_setup(inst, 2.0, "sim")
    trace = run_stream(sm, budget, inst.arrivals, "sim")
    p_star = offline_continuous_opt(inst, make_objective("dopt")).value
    rep = audit_trace(trace, inst, p_star=p_star)
    assert rep.p_star == p_star and rep.passed


def test_generators_reproducible_and_shaped():
    a1 = gen_adversarial(n=5, m=12, seed=3)
    a2 = gen_adversarial(n=5, m=12, seed=3)
    assert np.allclose(dense_stack(a1), dense_stack(a2))
    assert a1.theta == pytest.approx(1.0)      # unit-density construction
    assert a1.Theta == pytest.approx(float(a1.m))
    r1 = gen_random(n=4, m=9, density=0.5, seed=7)
    r2 = gen_random(n=4, m=9, density=0.5, seed=7)
    assert np.allclose(dense_stack(r1), dense_stack(r2))
    assert all(a.c >= 0.5 and a.c <= 1.5 for a in r1.arrivals)
