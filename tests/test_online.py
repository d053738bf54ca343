import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies

from psdalloc import online
from psdalloc.bench import gen_adversarial, gen_random
from psdalloc.budget import OVERFLOW_EXP, BudgetSmoother, b_prime, g_conj, gs_prime, gs_value
from psdalloc.designer import DesignSpec, design_hs
from psdalloc.lowner import (
    AtomicMeasure,
    SmoothedObjective,
    exact_measure,
    grad_hs,
    hs_trace_lift,
    y_eval,
)
from psdalloc.objectives import InvalidMatrix, NotPSD, h_conj, make_objective
from psdalloc.online import (
    Arrival,
    ConfigError,
    OnlineState,
    run_stream,
)
from psdalloc.oracle import Instance, audit_trace
from reference import EagerState, engine_price, trace_lift


def dopt_setup(gamma=2.0, b=4.0, theta=0.5, Theta=2.0, rho1=0.0, variant="sim",
               u_max=12.0, rho2=0.0):
    obj = make_objective("dopt")
    budget = BudgetSmoother(obj, gamma, b, theta, Theta, rho1, variant)
    spec = DesignSpec(obj, gamma, u_max, 40, 60, variant, rho2)
    return design_hs(spec).smoothed(), budget


def aggregate(arrivals, decisions, n):
    """U = sum of x_t A_t over the purchases, added in stream order."""
    return sum((x * (a.L @ a.L.T) for a, x in zip(arrivals, decisions) if x > 0.0),
               np.zeros((n, n)))


def small_stream(rng, n=3, m=8):
    arrivals = []
    for _ in range(m):
        v = rng.standard_normal(n)
        arrivals.append(Arrival(v[:, None], float(rng.uniform(0.5, 1.5))))
    return arrivals


def test_arrival_validation(rng):
    with pytest.raises(NotPSD):
        Arrival.from_matrix(np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        Arrival(np.eye(2), 0.0)
    a = Arrival.from_matrix(np.array([[1.0, 0.3], [0.3001, 1.0]]), 1.0)
    A = a.L @ a.L.T
    assert np.array_equal(A, A.T)
    assert a.n == 2
    # sym and psd_eigs take stacks; an arrival is one matrix
    with pytest.raises(InvalidMatrix, match="square matrix"):
        Arrival.from_matrix(np.stack([np.eye(2), np.eye(2)]), 1.0)
    # a factor is a finite matrix with at least one row
    for bad in (np.array([[1.0], [np.nan]]), np.array([[np.inf]]), np.ones(3), np.ones((0, 2))):
        with pytest.raises(InvalidMatrix, match="factor"):
            Arrival(bad, 1.0)
    v = rng.standard_normal(4)
    dense, factored = Arrival.from_matrix(np.outer(v, v), 0.7), Arrival(v[:, None], 0.7)
    assert dense.L.shape == (4, 1)
    np.testing.assert_allclose(dense.L @ dense.L.T, np.outer(v, v),
                               rtol=0, atol=1e-14 * np.dot(v, v))


def test_state_config_mismatch():
    sm, _ = dopt_setup()
    other = BudgetSmoother(make_objective("aopt"), 2.0, 4.0, 0.5, 2.0)
    with pytest.raises(ConfigError):
        OnlineState(sm, other, 3)


def test_initial_duals():
    sm, budget = dopt_setup()
    st = OnlineState(sm, budget, 3)
    assert np.allclose(st.Y, np.eye(3))
    assert st.z == 0.0 and st.u == 0.0


def test_run_stream_variant_and_dimension_checks(rng):
    sm, budget = dopt_setup()
    arrivals = small_stream(rng)
    with pytest.raises(ConfigError):
        run_stream(sm, budget, arrivals, "parallel")
    # a b' is calibrated for one variant: the seq cap adds rho1
    seq_budget = BudgetSmoother(budget.objective, 2.0, 4.0, 0.5, 2.0, 1.5, "seq")
    for variant, smoother in (("seq", budget), ("sim", seq_budget)):
        with pytest.raises(ConfigError, match="'%s'.*'%s'" % (variant, smoother.variant)):
            run_stream(sm, smoother, arrivals, variant)
    with pytest.raises(ConfigError):
        run_stream(sm, budget, [], "sim")
    bad = arrivals[:2] + [Arrival(np.eye(4), 1.0)]   # A = I, n = 4
    with pytest.raises(ConfigError):
        run_stream(sm, budget, bad, "sim")


def test_sequential_straight_line_replay():
    # independent straight-line re-derivation (no state machine) of every
    # accept/reject on the adversarial stream
    inst = gen_adversarial(n=5, m=20, seed=11)
    sm, budget = dopt_setup(gamma=2.0, b=inst.b, theta=inst.theta,
                            Theta=inst.Theta, rho1=inst.rho1, variant="seq",
                            rho2=float(inst.rho2))
    trace = run_stream(sm, budget, inst.arrivals, "seq")

    U = np.zeros((5, 5))
    u = 0.0
    expected = []
    for arr in inst.arrivals:
        A, Y, z = arr.L @ arr.L.T, grad_hs(sm, U), gs_prime(budget, u)
        if float(np.sum(A * Y)) + arr.c * z > 0.0:
            expected.append(1.0)
            U = U + A
            u += arr.c
        else:
            expected.append(0.0)
    assert np.array_equal(trace.decisions, expected)
    spent = float(trace.decisions @ inst.costs)
    assert spent == pytest.approx(u)
    assert 0 < spent  # the stream is profitable enough to buy something


def test_sequential_tie_rejects():
    # zero matrix with any cost prices at exactly 0 from the start: reject
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.5, 2.0)
    st = OnlineState(sm, budget, 2)
    zero = Arrival(np.zeros((2, 0)), 1.0)
    assert st.step_sequential(zero) == 0.0
    # both engines price <A, Y> from the factor, and that price is the dense
    # <L L^T, Y> to rounding at ranks 0, 1 and 3: with gs'(u) pinned at -p/c,
    # an engine buys iff its price exceeds p.  Y is taken past I by purchases
    rng = np.random.default_rng(4)
    st = OnlineState(sm, budget, 5)
    for L in rng.standard_normal((3, 5, 4)):
        st.step_simultaneous(Arrival(L, 1.0))
    assert not np.allclose(st.Y, st.Y[0, 0] * np.eye(5))
    for k in (0, 1, 3):
        arr = Arrival(rng.standard_normal((5, k)), 0.7)
        dense = float(np.vdot(arr.L @ arr.L.T, st.Y))
        tol = 1e-13 * np.sum(arr.L * arr.L) * np.abs(st.Y).max()
        # a zero arrival prices at exactly 0, a tie
        for p, buys in ((dense - tol, True), (dense + tol, False)) if k else ((0.0, False),):
            for step in ("step_sequential", "step_simultaneous"):
                probe = copy.deepcopy(st)
                probe.u0, probe.z = probe.u, -p / arr.c
                probe.zlo = probe.zhi = probe.z
                assert (getattr(probe, step)(arr) > 0.0) == buys


def test_simultaneous_grid_search_oracle(rng):
    # x matches the argmax of Phi on a dense grid, Phi built by quadrature of
    # H_S/G_S increments
    sm, budget = dopt_setup(gamma=2.0, b=3.0)
    st = OnlineState(sm, budget, 3)
    U0 = np.zeros((3, 3))
    for arr in small_stream(rng, n=3, m=6):
        u0, A = st.u, arr.L @ arr.L.T
        x = st.step_simultaneous(arr)
        xs = np.linspace(0.0, 1.0, 10_001)
        phi = np.array([
            hs_trace_lift(sm, U0 + t * A) + gs_value(budget, u0 + t * arr.c)
            for t in xs
        ])
        assert abs(x - xs[int(np.argmax(phi))]) <= 1e-4 or (
            phi.max() - phi[int(round(x * 10_000))] <= 1e-10
        )
        U0 = U0 + x * A


def test_simultaneous_interior_stationarity(rng):
    sm, budget = dopt_setup(gamma=4.0, b=1.5)
    st = OnlineState(sm, budget, 3)
    saw_interior = False
    U0 = np.zeros((3, 3))
    for arr in small_stream(rng, n=3, m=10):
        u0, A = st.u, arr.L @ arr.L.T
        x = st.step_simultaneous(arr)
        if 0.0 < x < 1.0:
            saw_interior = True
            dphi = (float(np.sum(A * grad_hs(sm, U0 + x * A)))
                    + arr.c * gs_prime(budget, u0 + x * arr.c))
            assert abs(dphi) <= 1e-6 * max(1.0, float(np.sum(A * np.eye(3))))
        U0 = U0 + x * A
    assert saw_interior


def test_duals_monotone_along_run(rng):
    for variant in ("seq", "sim"):
        rho1 = 1.5 if variant == "seq" else 0.0
        rho2 = 3.0 if variant == "seq" else 0.0
        sm, budget = dopt_setup(gamma=2.0, b=3.0, rho1=rho1, variant=variant,
                                rho2=rho2)
        arrivals = small_stream(rng, m=12)
        trace = run_stream(sm, budget, arrivals, variant)
        # the audit's replay recomputes every dual step
        audit = audit_trace(trace, Instance(arrivals, b=3.0))
        assert audit.max_z_step <= 1e-12
        assert audit.min_y_gap >= -1e-8


def _counters(monkeypatch):
    """Count the calls of numpy.linalg.eigh and eigvalsh and of online.gs_prime."""
    calls = {"eigh": 0, "eigvalsh": 0, "gs_prime": 0}
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (online, "gs_prime")):
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def _assert_bracket_holds(st):
    """gs'(u) lies in [zlo, zhi], and is z bit for bit where z is exact at u (u0 == u)."""
    gp = gs_prime(st.budget, st.u)
    assert st.zlo <= gp <= st.zhi
    if st.u0 == st.u:
        assert float(gp).hex() == float(st.z).hex() == float(st.zlo).hex() == float(st.zhi).hex()


def _straddles(st, arr):
    """The bracket leaves the sign of <A, Y> + c gs'(u) open, with z not yet exact at u."""
    v = engine_price(arr, st.Y)
    return st.u0 != st.u and v + arr.c * st.zlo <= 0.0 < v + arr.c * st.zhi


def test_steps_decompose_only_to_buy(rng, monkeypatch):
    # a rejection leaves the duals alone; a rank-one purchase refreshes them by
    # a Woodbury update, so neither engine decomposes a matrix.  A sequential
    # price takes a gs' quadrature only where the bracket straddles its sign
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.5, 2.0)
    tight = BudgetSmoother(obj, 2.0, 0.5, 0.5, 2.0)
    zero = Arrival(np.zeros((3, 0)), 1.0)
    ones = Arrival(np.ones((3, 1)), 1.0)   # A = ones((3, 3)), rank one
    calls = _counters(monkeypatch)
    for step in ("step_sequential", "step_simultaneous"):
        assert getattr(OnlineState(sm, budget, 3), step)(zero) == 0.0
        assert calls == {"eigh": 0, "eigvalsh": 0, "gs_prime": 0}
    assert 0.0 < OnlineState(sm, tight, 3).step_simultaneous(ones) < 1.0
    assert calls["eigh"] == 0 and calls["eigvalsh"] == 0
    assert 1 <= calls["gs_prime"] <= 20

    inst = gen_random(20, 200, seed=1)
    seq = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, "seq")
    st = OnlineState(sm, seq, inst.n)
    per_x = {"reject": [], "buy": []}
    for arr in inst.arrivals:
        straddles = _straddles(st, arr)
        calls.update(eigh=0, eigvalsh=0, gs_prime=0)
        x = st.step_sequential(arr)
        assert calls == {"eigh": 0, "eigvalsh": 0, "gs_prime": int(straddles)}
        per_x["buy" if x else "reject"].append(calls["gs_prime"])
        _assert_bracket_holds(st)
    # purchases the bracket settles, with no quadrature, and ones it does not
    assert per_x["buy"].count(0) >= 10 and per_x["buy"].count(1) >= 1
    assert per_x["reject"].count(0) >= 10


def test_seq_purchases_settle_without_a_quadrature(monkeypatch):
    # h' at both ends of a step bounds gs' to second order in the step, so the
    # bracket settles nearly every seq purchase: 2 quadratures over 55 purchases
    # here, where bounding h' by h'(0) alone leaves 13
    inst = gen_random(20, 200, 1.0, 1)
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, "seq")
    calls = _counters(monkeypatch)
    trace = run_stream(sm, budget, inst.arrivals, "seq")
    assert np.count_nonzero(trace.decisions) >= 50
    assert calls["gs_prime"] <= 3


def _dense_sim_reference(sm, budget, U, u, arr):
    """The simultaneous decision by bisection on the dense Phi' to 1e-12 relative."""
    A, c = arr.L @ arr.L.T, arr.c

    def dphi(x):
        return float(np.vdot(A, grad_hs(sm, U + x * A))) + c * gs_prime(budget, u + x * c)

    if dphi(0.0) <= 0.0:
        return 0.0
    if dphi(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if dphi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", ["dopt", "aopt"])
def test_simultaneous_rank_k_matches_dense_reference(kind):
    # zero, rank-one, -two, -three and full-rank arrivals through the
    # Woodbury path, against the dense root-find, for a one-atom and a
    # designed measure
    obj = make_objective(kind)
    if kind == "dopt":
        sm = SmoothedObjective(exact_measure(obj), obj)
    else:
        sm = design_hs(DesignSpec(obj, 2.0, 12.0, 40, 60, "sim")).smoothed()
        assert np.count_nonzero(sm.measure.weights) > 1
    rng = np.random.default_rng(0)
    n = 4
    arrivals = []
    for _ in range(4):
        W = rng.standard_normal((n, 3))
        v = rng.standard_normal(n)
        arrivals += [Arrival.from_matrix(np.zeros((n, n)), 1.0),
                     Arrival.from_matrix(W[:, :2] @ W[:, :2].T / 2.0, 1.0),
                     Arrival.from_matrix(np.eye(n), 3.0), Arrival.from_matrix(np.outer(v, v), 0.5),
                     Arrival.from_matrix(W @ W.T / 3.0, 0.5)]
    assert [np.linalg.matrix_rank(a.L @ a.L.T) for a in arrivals[:5]] == [0, 2, n, 1, 3]
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.2, 8.0)
    st = OnlineState(sm, budget, n)
    interior_ranks = set()
    U = np.zeros((n, n))
    for arr in arrivals:
        u = st.u
        x = st.step_simultaneous(arr)
        ref = _dense_sim_reference(sm, budget, U, u, arr)
        U = U + x * (arr.L @ arr.L.T)
        if 0.0 < x < 1.0:
            assert abs(x - ref) <= 1e-10 * ref
            interior_ranks.add(int(np.linalg.matrix_rank(arr.L @ arr.L.T)))
        else:
            assert x == ref
    assert {1, 2, 3, n} <= interior_ranks
    trace = st.finish("sim")
    assert audit_trace(trace, Instance(arrivals, b=4.0)).passed


def test_simultaneous_step_counts_its_quadratures(monkeypatch):
    # a rejection the bracket settles reads one cached bound; where the
    # bracket straddles Phi'(0)'s sign, z is made exact at u first.  A whole
    # purchase the bracket at u + c settles takes no quadrature and leaves the
    # bracket open; one it does not settle takes its x = 1 probe, which
    # becomes z.  A fractional purchase makes z exact at u if the bracket is
    # open, probes x = 1, solves a model of Phi', takes one exact Newton step
    # from its root and keeps that step's gs' as z
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    inst = gen_random(20, 200, seed=1)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta)
    calls = _counters(monkeypatch)
    st = OnlineState(sm, budget, inst.n)
    per_x = {"reject": [], "whole": [], "fractional": []}
    for arr in inst.arrivals:
        straddles, exact = _straddles(st, arr), st.u0 == st.u
        calls.update(eigh=0, eigvalsh=0, gs_prime=0)
        x = st.step_simultaneous(arr)
        assert calls["eigh"] == 0 and calls["eigvalsh"] == 0
        n = calls["gs_prime"]
        if x == 0.0:
            assert n == straddles
        elif x == 1.0:
            assert n == straddles + (st.u0 == st.u)
        else:
            assert n == 3 + (not exact) and st.u0 == st.u
        per_x["reject" if x == 0.0 else "whole" if x == 1.0 else "fractional"].append(n)
        _assert_bracket_holds(st)
    assert min(len(v) for v in per_x.values()) >= 10
    assert per_x["reject"].count(0) >= 10
    assert per_x["whole"].count(0) >= 10 and per_x["whole"].count(1) >= 1
    assert set(per_x["fractional"]) == {3, 4}


def _assert_eager_decisions(sm, budget, arrivals, variant):
    """Step the engine and EagerState side by side: the same decisions, spend and
    duals to the bit, with gs'(u) inside the engine's bracket after every step."""
    st, ref = OnlineState(sm, budget, arrivals[0].n), EagerState(sm, budget, arrivals[0].n)
    for arr in arrivals:
        if variant == "seq":
            x, want = st.step_sequential(arr), ref.step_sequential(arr)
        else:
            x, want = st.step_simultaneous(arr), ref.step_simultaneous(arr)
        assert float(x).hex() == float(want).hex()
        _assert_bracket_holds(st)
    assert float(st.u).hex() == float(ref.u).hex()
    assert st.Y.tobytes() == ref.Y.tobytes()
    return st


@pytest.mark.parametrize("b", [8.0, 0.5], ids=["loose", "tight"])
@pytest.mark.parametrize("rank", [1, 3])
@pytest.mark.parametrize("variant", ["seq", "sim"])
@pytest.mark.parametrize("kind", ["linear", "dopt", "aopt", "pmean0.5", "pmean2"])
def test_decisions_match_the_eager_reference(kind, variant, rank, b):
    # the bracket on gs' decides only where the exact gs' decides the same
    # way.  Costs near 1 put the tight sim budget at r c = 4 (gamma 2, b 0.5)
    obj = make_objective(kind)
    em = exact_measure(obj)
    sm = SmoothedObjective(em, obj) if em is not None else _many_atoms(obj)
    rng = np.random.default_rng(11)
    arrivals = [Arrival(rng.standard_normal((5, rank)) / rank, float(rng.uniform(0.8, 1.2)))
                for _ in range(60)]
    inst = Instance(arrivals, b=b)
    budget = BudgetSmoother(obj, 2.0, b, inst.theta, inst.Theta, inst.rho1, variant)
    st = _assert_eager_decisions(sm, budget, arrivals, variant)
    assert 3 <= np.count_nonzero(st.decisions) <= 57


def test_a_spend_past_the_overflow_guard_opens_the_bracket():
    # linear, y = 1, so <A, Y> = 1e16 on every step and seq buys until
    # gs'(u) = -theta expm1(r u)/(e - 1) passes -1e16: with theta = 1e-290 that
    # is past r u = OVERFLOW_EXP, where gs' is -inf.  The bracket grown past
    # the guard is open, and the next price makes z exact at -inf
    obj = make_objective("linear")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 1000.0, 1e-3, 1e-290, 1.0, 1.0, "seq")
    arrivals = [Arrival(np.array([[1e8]]), 1.0)] * 720
    st = _assert_eager_decisions(sm, budget, arrivals, "seq")
    assert budget.rate * st.u > OVERFLOW_EXP and st.z == -np.inf and st.u0 == st.u
    assert st.decisions[-1] == 0.0 and st.decisions[0] == 1.0
    st.step_sequential(arrivals[0])
    assert (st.zlo, st.zhi) == (-np.inf, -np.inf)


def test_a_bracket_whose_terms_overflow_is_open(monkeypatch):
    # gamma 1e8 puts scale near 6e6; a probe at r (u + c) = 697 <= OVERFLOW_EXP
    # has scale h'(0) expm1(697) past the float range, which opens its bracket
    obj = make_objective("linear")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 1e8, 10.0, 1.0, 1.0)
    seen = []

    def spy(*args, _fn=online.gs_prime_bracket):
        seen.append((budget.rate * args[3], _fn(*args)))
        return seen[-1][1]
    monkeypatch.setattr(online, "gs_prime_bracket", spy)
    arrivals = [Arrival(np.array([[1.0]]), 697.0 / budget.rate)] * 5
    st = _assert_eager_decisions(sm, budget, arrivals, "sim")
    assert 0.0 < st.decisions[0] < 1.0
    assert any(ru <= OVERFLOW_EXP and bracket == (-np.inf, np.inf) for ru, bracket in seen)


def test_budget_never_exceeds_certificate(rng):
    for variant in ("seq", "sim"):
        rho1 = 1.5 if variant == "seq" else 0.0
        rho2 = 3.0 if variant == "seq" else 0.0
        sm, budget = dopt_setup(gamma=1.0, b=2.0, rho1=rho1, variant=variant,
                                rho2=rho2)
        bp = b_prime(budget)
        arrivals = small_stream(rng, m=25)
        trace = run_stream(sm, budget, arrivals, variant)
        assert trace.decisions @ np.array([a.c for a in arrivals]) <= bp + 1e-9


def test_dual_value_weak_duality(rng):
    from psdalloc.oracle import offline_continuous_opt

    arrivals = small_stream(rng, n=4, m=15)
    inst = Instance(arrivals, b=4.0)
    sm, budget = dopt_setup(gamma=2.0, b=4.0, theta=inst.theta, Theta=inst.Theta)
    trace = run_stream(sm, budget, arrivals, "sim")
    p_star = offline_continuous_opt(inst, make_objective("dopt")).value
    assert audit_trace(trace, inst).d_value >= p_star - 1e-6


def test_primal_value_matches_trace_lift(rng):
    sm, budget = dopt_setup()
    arrivals = small_stream(rng, m=6)
    U = aggregate(arrivals, run_stream(sm, budget, arrivals, "sim").decisions, 3)
    w = np.linalg.eigvalsh(U)
    assert trace_lift(sm.base, U) == pytest.approx(float(np.sum(np.log1p(np.maximum(w, 0.0)))), abs=1e-9)


def test_empty_stream_with_explicit_n():
    sm, budget = dopt_setup()
    trace = run_stream(sm, budget, [], "sim", n=3)
    u = float(trace.decisions @ np.zeros(0))    # decisions @ costs, of no arrivals
    assert len(trace.decisions) == 0 and u == 0.0
    U = aggregate([], trace.decisions, 3)
    assert trace_lift(sm.base, U) == 0.0
    # no price terms, so the dual value is -H*(Y_0) - G*(z_0) = 0
    y_eigs = y_eval(sm.measure, np.linalg.eigvalsh(U))
    hstar = float(np.sum(h_conj(sm.base, y_eigs)))
    assert hstar + g_conj(gs_prime(budget, u), budget.b) == pytest.approx(0.0, abs=1e-12)


def test_linear_objective_run_keeps_finite_duals(rng):
    obj = make_objective("linear")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 1.0, 3.0, 0.5, 2.0)
    arrivals = small_stream(rng, m=10)
    trace = run_stream(sm, budget, arrivals, "sim")
    assert np.isfinite(audit_trace(trace, Instance(arrivals, b=3.0)).d_value)
    U = aggregate(arrivals, trace.decisions, 3)
    assert np.allclose(y_eval(sm.measure, np.linalg.eigvalsh(U)), 1.0, atol=1e-12)


def _many_atoms(obj, atoms=24):
    """A measure with `atoms` nodes spread over [0, 0.96] and slope y(0) = h'(0)."""
    nodes = np.linspace(0.0, 0.96, atoms)
    weights = obj.h_prime0 * (1.0 - nodes) / atoms
    return SmoothedObjective(AtomicMeasure(nodes, weights), obj)


def _resolvents(st):
    """The state's R_j, any pending Woodbury columns folded in by the engine's own
    fold on a shallow copy, so the state keeps them."""
    if not st.k:
        return st.R
    view = copy.copy(st)
    view.R = st.R.copy()
    view._fold()
    return view.R


def _assert_resolvents_match(st, sm, arrivals, tol=1e-12):
    """Y and every R_j of the state against their dense definitions at the
    aggregate of its decisions on arrivals, each R_j at the state's own node and shift."""
    U = aggregate(arrivals, st.decisions, st.n)
    Y = grad_hs(sm, U)
    assert np.linalg.norm(st.Y - Y) <= tol * np.linalg.norm(Y)
    for lam, kappa, R in zip(st.lam, st.kappa, _resolvents(st)):
        dense = np.linalg.inv(lam * U + kappa * np.eye(st.n))
        assert np.linalg.norm(R - dense) <= tol * np.linalg.norm(dense)


@pytest.mark.parametrize("measure", ["dopt-exact", "24-atoms"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_resolvents_track_grad_hs_over_the_longest_stream(measure, variant):
    # the Woodbury-updated resolvents stay on the dense gradient through every
    # purchase of a 500-arrival stream at n = 50
    obj = make_objective("dopt")
    sm = (SmoothedObjective(exact_measure(obj), obj) if measure == "dopt-exact"
          else _many_atoms(obj))
    inst = gen_random(50, 500)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    st = OnlineState(sm, budget, 50)
    # one R_j per atom; one atom's R is Y itself
    assert len(st.R) == np.count_nonzero(sm.measure.weights)
    assert np.shares_memory(st.Y, st.R) == (measure == "dopt-exact")
    for arr in inst.arrivals:
        (st.step_sequential if variant == "seq" else st.step_simultaneous)(arr)
    assert np.count_nonzero(st.decisions) >= 100
    _assert_resolvents_match(st, sm, inst.arrivals)


@pytest.mark.parametrize("measure", ["linear-exact", "zero-node-mix", "24-atoms"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_rank_k_purchases_and_zero_node_atoms(measure, variant):
    # dense rank-2 and rank-3 arrivals take the k > 1 Woodbury path; an atom
    # at lambda = 0 is a constant resolvent that no purchase touches
    if measure == "linear-exact":
        obj = make_objective("linear")
        sm = SmoothedObjective(exact_measure(obj), obj)
    elif measure == "zero-node-mix":
        obj = make_objective("dopt")
        sm = SmoothedObjective(AtomicMeasure([0.0, 0.5], [0.5, 0.25]), obj)
    else:
        obj = make_objective("aopt")
        sm = _many_atoms(obj)
    rng = np.random.default_rng(7)
    n = 6
    arrivals = []
    for t in range(40):
        W = rng.standard_normal((n, 2 + t % 2))
        arrivals.append(Arrival(W, float(rng.uniform(0.5, 1.5))))
    assert {a.L.shape[1] for a in arrivals} == {2, 3}
    inst = Instance(arrivals, b=8.0)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    st = OnlineState(sm, budget, n)
    for arr in arrivals:
        (st.step_sequential if variant == "seq" else st.step_simultaneous)(arr)
    assert np.count_nonzero(st.decisions) >= 5
    _assert_resolvents_match(st, sm, arrivals)
    assert 0.0 in st.lam
    j = list(st.lam).index(0.0)
    assert np.array_equal(st.R[j], OnlineState(sm, budget, n).R[j])
    assert audit_trace(st.finish(variant), inst).passed


@given(kind=strategies.sampled_from(["linear", "dopt", "aopt", "pmean0.5", "pmean2"]),
       share=strategies.floats(min_value=0.0, max_value=1.0),
       variant=strategies.sampled_from(["seq", "sim"]),
       rank=strategies.integers(min_value=1, max_value=3),
       n=strategies.sampled_from([5, 63, 64, 70]),
       seed=strategies.integers(min_value=0, max_value=2 ** 32 - 1))
@example(kind="dopt", share=1.0, variant="sim", rank=1, n=64, seed=0)
def test_one_atom_runs_as_its_two_atom_split(kind, share, variant, rank, n, seed):
    # one atom (lambda, mu) holds Y alone and never blocks; the same measure as
    # two atoms (lambda, mu/2) takes the general stack, blocked from n = 46 on.
    # Both make the same decisions to rounding, with Y on grad_hs of the
    # replayed aggregate, and both runs pass the audit.  A node at most
    # k/(1 + k), k = decay, keeps y >= h' (Bernoulli), so the audit's duals hold;
    # share 1 at dopt is its exact measure
    obj = make_objective(kind)
    lam = share * obj.decay / (1.0 + obj.decay)
    mu = obj.h_prime0 * (1.0 - lam)
    one = SmoothedObjective(AtomicMeasure([lam], [mu]), obj)
    two = SmoothedObjective(AtomicMeasure([lam, lam], [mu / 2.0, mu / 2.0]), obj)
    rng = np.random.default_rng(seed)
    arrivals = [Arrival(rng.standard_normal((n, rank)) / math.sqrt(n * rank),
                        float(rng.uniform(0.5, 1.5))) for _ in range(12)]
    inst = Instance(arrivals, b=4.0)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    states = OnlineState(one, budget, n), OnlineState(two, budget, n)
    assert states[0].W is None and (states[1].W is not None) == (n >= 46)
    for arr in arrivals:
        for state in states:
            (state.step_sequential if variant == "seq" else state.step_simultaneous)(arr)
    np.testing.assert_allclose(states[0].decisions, states[1].decisions, rtol=0, atol=1e-9)
    for state, sm in zip(states, (one, two)):
        _assert_resolvents_match(state, sm, arrivals)
        assert audit_trace(state.finish(variant), inst).passed


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_blocked_resolvents_match_their_definitions_across_folds(variant):
    # 24 atoms at n = 20 put the stack above the crossover: rank-1 and rank-3
    # purchases fill and fold the block of pending columns, and a rank-n one,
    # wider than a block, updates R at once while columns are pending; after
    # every purchase each R_j and Y match their dense definitions
    n = 20
    assert n > online.BLOCK_COLS
    obj = make_objective("aopt")
    sm = _many_atoms(obj)
    assert len(sm.measure.nodes) * n * n >= online.BLOCK_MIN_FLOATS
    rng = np.random.default_rng(5)
    arrivals = [Arrival(rng.standard_normal((n, (1, 3, 1, n)[t % 4])) / n,
                        float(rng.uniform(0.5, 1.5))) for t in range(48)]
    inst = Instance(arrivals, b=40.0)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    st = OnlineState(sm, budget, n)
    step = st.step_sequential if variant == "seq" else st.step_simultaneous
    folds = wide_with_pending = 0
    for t, arr in enumerate(arrivals):
        k, rank = st.k, arr.L.shape[1]
        if step(arr) == 0.0:
            continue
        if rank > online.BLOCK_COLS:
            assert st.k == k
            wide_with_pending += k > 0
        else:
            assert st.k == (k + rank if k + rank <= online.BLOCK_COLS else rank)
            folds += k + rank > online.BLOCK_COLS
        _assert_resolvents_match(st, sm, arrivals[:t + 1])
    assert folds >= 3 and wide_with_pending >= 3
    assert audit_trace(st.finish(variant), inst).passed


@pytest.mark.parametrize("atoms, n", [(1, 63), (6, 5), (24, 13)])
def test_a_stack_below_the_crossover_holds_no_pending_columns(atoms, n):
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj) if atoms == 1 else _many_atoms(obj, atoms)
    assert len(sm.measure.nodes) * n * n < online.BLOCK_MIN_FLOATS
    rng = np.random.default_rng(2)
    arrivals = [Arrival(rng.standard_normal((n, 1 + t % 3)) / n, float(rng.uniform(0.5, 1.5)))
                for t in range(30)]
    inst = Instance(arrivals, b=20.0)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, "sim")
    st = OnlineState(sm, budget, n)
    for arr in arrivals:
        st.step_simultaneous(arr)
        assert st.W is None and st.k == 0
    assert np.count_nonzero(st.decisions) >= 5
    _assert_resolvents_match(st, sm, arrivals)


def test_the_crossover_is_at_block_min_floats():
    # two atoms: the smallest n with 2 n^2 >= BLOCK_MIN_FLOATS is the first blocked one
    obj = make_objective("dopt")
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.5, 2.0)
    n = 46
    assert 2 * (n - 1) ** 2 < online.BLOCK_MIN_FLOATS <= 2 * n * n
    sm = _many_atoms(obj, 2)
    assert OnlineState(sm, budget, n - 1).W is None
    st = OnlineState(sm, budget, n)
    assert st.W.shape == st.P.shape == (2, online.BLOCK_COLS, n) and st.k == 0
    # one atom never blocks: pending columns would leave the prices' Y stale
    sm = SmoothedObjective(exact_measure(obj), obj)
    rng = np.random.default_rng(4)
    for n in (64, 200):
        assert n * n >= online.BLOCK_MIN_FLOATS
        st = OnlineState(sm, budget, n)
        for t in range(6):
            st.step_simultaneous(Arrival(rng.standard_normal((n, 1 + t % 3)) / n, 1.0))
            assert st.W is None and st.k == 0
        assert np.count_nonzero(st.decisions) >= 3


def test_arrival_from_factor(rng):
    a = rng.standard_normal(5)
    factored = Arrival(a[:, None], 0.7)
    assert np.array_equal(factored.L, a[:, None])
    # a rank-one arrival holds its column as a view of L; no other does
    assert np.shares_memory(factored.col, factored.L) and np.array_equal(factored.col, a)
    W = rng.standard_normal((5, 2))
    assert np.array_equal(Arrival(W, 1.0).L, W) and Arrival(W, 1.0).col is None
    L = Arrival.from_matrix(W @ W.T, 1.0).L
    np.testing.assert_allclose(L @ L.T, W @ W.T, rtol=0, atol=1e-13 * np.max(np.abs(W @ W.T)))
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="cost"):
            Arrival(a[:, None], c)


@pytest.mark.parametrize("c", [np.inf, np.nan])
def test_arrival_refuses_a_non_finite_cost(c):
    # an infinite cost once passed here and failed later, as a density theta of 0
    with pytest.raises(ValueError, match="cost c must be finite and positive"):
        Arrival(np.ones((2, 1)), c)


def test_generated_arrivals_decompose_nothing(monkeypatch):
    # the generators hand Arrival the factor they hold; Instance is swapped
    # for the bare list, since its statistics are not Arrival's work
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition called")

    monkeypatch.setattr("psdalloc.bench.Instance", lambda arrivals, b: arrivals)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for arrivals in (gen_random(6, 10, seed=3), gen_adversarial(6, 10, 3)):
        assert len(arrivals) == 10
        for arr in arrivals:
            a = arr.L[:, 0]
            assert arr.L.shape == (6, 1) and np.array_equal(np.outer(a, a), arr.L @ arr.L.T)
