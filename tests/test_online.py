import numpy as np
import pytest

from psdalloc import online
from psdalloc.bench import gen_adversarial, gen_random
from psdalloc.budget import BudgetSmoother, b_prime, g_conj, gs_prime, gs_value
from psdalloc.designer import DesignSpec, design_hs
from psdalloc.lowner import (
    AtomicMeasure,
    SmoothedObjective,
    exact_measure,
    grad_hs,
    hs_trace_lift,
    y_eval,
)
from psdalloc.objectives import h_conj, make_objective, trace_lift
from psdalloc.online import (
    Arrival,
    ConfigError,
    OnlineState,
    run_stream,
)
from psdalloc.oracle import Instance, audit_trace


def dopt_setup(gamma=2.0, b=4.0, theta=0.5, Theta=2.0, rho1=0.0, variant="sim",
               u_max=12.0, rho2=0.0):
    obj = make_objective("dopt")
    budget = BudgetSmoother(obj, gamma, b, theta, Theta, rho1, variant)
    spec = DesignSpec(obj, gamma, u_max, 40, 60, variant, rho2)
    return design_hs(spec).smoothed(), budget


def small_stream(rng, n=3, m=8):
    arrivals = []
    for _ in range(m):
        v = rng.standard_normal(n)
        arrivals.append(Arrival(np.outer(v, v), float(rng.uniform(0.5, 1.5))))
    return arrivals


def test_arrival_validation():
    with pytest.raises(Exception):
        Arrival(np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        Arrival(np.eye(2), 0.0)
    a = Arrival(np.array([[1.0, 0.3], [0.3001, 1.0]]), 1.0)
    assert np.array_equal(a.A, a.A.T)
    assert a.n == 2


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
    with pytest.raises(ConfigError):
        run_stream(sm, budget, [], "sim")
    bad = arrivals[:2] + [Arrival(np.eye(4), 1.0)]
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
        Y = grad_hs(sm, U)
        z = gs_prime(budget, u)
        if float(np.sum(arr.A * Y)) + arr.c * z > 0.0:
            expected.append(1.0)
            U = U + arr.A
            u += arr.c
        else:
            expected.append(0.0)
    assert np.array_equal(trace.decisions, expected)
    assert trace.u == pytest.approx(u)
    assert 0 < trace.u  # the stream is profitable enough to buy something


def test_sequential_tie_rejects():
    # zero matrix with any cost prices at exactly 0 from the start: reject
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.5, 2.0)
    st = OnlineState(sm, budget, 2)
    zero = Arrival(np.zeros((2, 2)), 1.0)
    assert st.step_sequential(zero) == 0.0


def test_simultaneous_grid_search_oracle(rng):
    # x matches the argmax of Phi on a dense grid, Phi built by quadrature of
    # H_S/G_S increments
    sm, budget = dopt_setup(gamma=2.0, b=3.0)
    st = OnlineState(sm, budget, 3)
    for arr in small_stream(rng, n=3, m=6):
        x = st.step_simultaneous(arr)
        # recompute the pre-step state by undoing the step
        U0 = st.U - x * arr.A
        u0 = st.u - x * arr.c
        xs = np.linspace(0.0, 1.0, 10_001)
        phi = np.array([
            hs_trace_lift(sm, U0 + t * arr.A) + gs_value(budget, u0 + t * arr.c)
            for t in xs
        ])
        assert abs(x - xs[int(np.argmax(phi))]) <= 1e-4 or (
            phi.max() - phi[int(round(x * 10_000))] <= 1e-10
        )


def test_simultaneous_interior_stationarity(rng):
    sm, budget = dopt_setup(gamma=4.0, b=1.5)
    st = OnlineState(sm, budget, 3)
    saw_interior = False
    for arr in small_stream(rng, n=3, m=10):
        x = st.step_simultaneous(arr)
        if 0.0 < x < 1.0:
            saw_interior = True
            U0 = st.U - x * arr.A
            u0 = st.u - x * arr.c
            dphi = (float(np.sum(arr.A * grad_hs(sm, U0 + x * arr.A)))
                    + arr.c * gs_prime(budget, u0 + x * arr.c))
            assert abs(dphi) <= 1e-6 * max(1.0, float(np.sum(arr.A * np.eye(3))))
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


def test_steps_decompose_only_to_buy(rng, monkeypatch):
    # a rejection leaves the duals alone; a rank-one purchase refreshes them by
    # a Woodbury update, so neither engine decomposes a matrix
    obj = make_objective("dopt")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.5, 2.0)
    tight = BudgetSmoother(obj, 2.0, 0.5, 0.5, 2.0)
    zero = Arrival(np.zeros((3, 3)), 1.0)
    ones = Arrival(np.ones((3, 3)), 1.0)   # rank one
    (arr,) = small_stream(rng, m=1)
    calls = {"eigh": 0, "eigvalsh": 0, "gs_prime": 0}
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def counted_gs(*args, _fn=online.gs_prime, **kwargs):
        calls["gs_prime"] += 1
        return _fn(*args, **kwargs)
    monkeypatch.setattr(online, "gs_prime", counted_gs)

    for step in ("step_sequential", "step_simultaneous"):
        assert getattr(OnlineState(sm, budget, 3), step)(zero) == 0.0
        assert calls == {"eigh": 0, "eigvalsh": 0, "gs_prime": 0}
    assert OnlineState(sm, budget, 3).step_sequential(arr) == 1.0
    assert calls == {"eigh": 0, "eigvalsh": 0, "gs_prime": 1}
    calls.update(gs_prime=0)
    assert 0.0 < OnlineState(sm, tight, 3).step_simultaneous(ones) < 1.0
    assert calls["eigh"] == 0 and calls["eigvalsh"] == 0
    assert 1 <= calls["gs_prime"] <= 20


def _dense_sim_reference(sm, budget, U, u, arr):
    """The simultaneous decision by bisection on the dense Phi' to 1e-12."""
    A, c = arr.A, arr.c

    def dphi(x):
        return float(np.vdot(A, grad_hs(sm, U + x * A))) + c * gs_prime(budget, u + x * c)

    if dphi(0.0) <= 0.0:
        return 0.0
    if dphi(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if dphi(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind", ["dopt", "aopt"])
def test_simultaneous_rank_k_matches_dense_reference(kind):
    # zero, rank-one, rank-two and full-rank arrivals through the Woodbury
    # path, against the dense root-find, for a one-atom and a designed measure
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
        W = rng.standard_normal((n, 2))
        v = rng.standard_normal(n)
        arrivals += [Arrival(np.zeros((n, n)), 1.0), Arrival(W @ W.T / 2.0, 1.0),
                     Arrival(np.eye(n), 3.0), Arrival(np.outer(v, v), 0.5)]
    assert [np.linalg.matrix_rank(a.A) for a in arrivals[:4]] == [0, 2, n, 1]
    budget = BudgetSmoother(obj, 2.0, 4.0, 0.2, 8.0)
    st = OnlineState(sm, budget, n)
    interior_ranks = set()
    for arr in arrivals:
        U, u = st.U, st.u
        x = st.step_simultaneous(arr)
        assert abs(x - _dense_sim_reference(sm, budget, U, u, arr)) <= 1e-8
        if 0.0 < x < 1.0:
            interior_ranks.add(int(np.linalg.matrix_rank(arr.A)))
    assert {1, 2, n} <= interior_ranks
    trace = st.finish("sim")
    assert audit_trace(trace, Instance(arrivals, b=4.0)).passed


def test_budget_never_exceeds_certificate(rng):
    for variant in ("seq", "sim"):
        rho1 = 1.5 if variant == "seq" else 0.0
        rho2 = 3.0 if variant == "seq" else 0.0
        sm, budget = dopt_setup(gamma=1.0, b=2.0, rho1=rho1, variant=variant,
                                rho2=rho2)
        bp = b_prime(budget)
        trace = run_stream(sm, budget, small_stream(rng, m=25), variant)
        assert trace.u <= bp + 1e-9


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
    trace = run_stream(sm, budget, small_stream(rng, m=6), "sim")
    w = np.linalg.eigvalsh(trace.U)
    assert trace_lift(sm.base, trace.U) == pytest.approx(float(np.sum(np.log1p(np.maximum(w, 0.0)))), abs=1e-9)


def test_empty_stream_with_explicit_n():
    sm, budget = dopt_setup()
    trace = run_stream(sm, budget, [], "sim", n=3)
    assert trace.m == 0 and trace.u == 0.0
    assert trace_lift(sm.base, trace.U) == 0.0
    # no price terms, so the dual value is -H*(Y_0) - G*(z_0) = 0
    y_eigs = y_eval(sm.measure, np.linalg.eigvalsh(trace.U))
    hstar = float(np.sum(h_conj(sm.base, y_eigs)))
    assert hstar + g_conj(trace.z, budget.b) == pytest.approx(0.0, abs=1e-12)


def test_linear_objective_run_keeps_finite_duals(rng):
    obj = make_objective("linear")
    sm = SmoothedObjective(exact_measure(obj), obj)
    budget = BudgetSmoother(obj, 1.0, 3.0, 0.5, 2.0)
    arrivals = small_stream(rng, m=10)
    trace = run_stream(sm, budget, arrivals, "sim")
    assert np.isfinite(audit_trace(trace, Instance(arrivals, b=3.0)).d_value)
    assert np.allclose(y_eval(sm.measure, np.linalg.eigvalsh(trace.U)), 1.0, atol=1e-12)


def _many_atoms(obj, atoms=24):
    """A measure with `atoms` nodes spread over [0, 0.96] and slope y(0) = h'(0)."""
    nodes = np.linspace(0.0, 0.96, atoms)
    weights = obj.h_prime0 * (1.0 - nodes) / atoms
    return SmoothedObjective(AtomicMeasure(nodes, weights), obj)


def _assert_resolvents_match(st, sm, tol=1e-12):
    """Y and every R_j of the state against their dense definitions at st.U."""
    Y = grad_hs(sm, st.U)
    assert np.linalg.norm(st.Y - Y) <= tol * np.linalg.norm(Y)
    for lam, R in zip(st.lam, st.R):
        dense = np.linalg.inv(lam * st.U + (1.0 - lam) * np.eye(st.n))
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
    assert len(st.R) == np.count_nonzero(sm.measure.weights)
    for arr in inst.arrivals:
        (st.step_sequential if variant == "seq" else st.step_simultaneous)(arr)
    assert np.count_nonzero(st.decisions) >= 100
    _assert_resolvents_match(st, sm)


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
        arrivals.append(Arrival(W @ W.T, float(rng.uniform(0.5, 1.5))))
    assert {a.L.shape[1] for a in arrivals} == {2, 3}
    inst = Instance(arrivals, b=8.0)
    budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    st = OnlineState(sm, budget, n)
    for arr in arrivals:
        (st.step_sequential if variant == "seq" else st.step_simultaneous)(arr)
    assert np.count_nonzero(st.decisions) >= 5
    _assert_resolvents_match(st, sm)
    if 0.0 in st.lam:
        assert np.array_equal(st.R[list(st.lam).index(0.0)], np.eye(n))
    assert audit_trace(st.finish(variant), inst).passed


def test_arrival_from_factor(rng):
    a = rng.standard_normal(5)
    dense, factored = Arrival(np.outer(a, a), 0.7), Arrival(np.outer(a, a), 0.7, a[:, None])
    assert np.array_equal(factored.A, dense.A)
    assert np.array_equal(factored.L, a[:, None])
    W = rng.standard_normal((5, 2))
    assert np.array_equal(Arrival(W @ W.T, 1.0, W).A, Arrival(W @ W.T, 1.0).A)
    for bad in (a, a[None, :], a[:4, None], np.where(np.arange(5) == 2, np.nan, a)[:, None]):
        with pytest.raises(ValueError, match="factor"):
            Arrival(np.outer(a, a), 1.0, bad)
    with pytest.raises(ValueError, match="factor"):
        Arrival(np.outer(a, a), 1.0, 2.0 * a[:, None])   # L L^T != A
    for c in (0.0, -1.0):
        with pytest.raises(ValueError, match="cost"):
            Arrival(np.outer(a, a), c, a[:, None])


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
            assert arr.L.shape == (6, 1) and np.array_equal(np.outer(a, a), arr.A)
