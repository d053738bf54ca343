import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psdalloc

from psdalloc.designer import (
    DESIGN_TOL,
    DesignSpec,
    _CutLP,
    _Tableau,
    _tail_grid,
    beta_for_measure,
    cr_bound,
    design_from_dict,
    design_grid,
    design_hs,
    design_to_dict,
)
from psdalloc.lowner import AtomicMeasure, exact_measure, y_eval
from psdalloc.objectives import h_conj, h_eval, make_objective
from reference import constraint_values

# small but representative problem size so each design solves in < 1 s
Q, D, UMAX = 40, 60, 8.0
NODES = np.arange(Q) / Q


def spec_for(kind="dopt", gamma=2.0, variant="sim", rho2=0.0, u_max=UMAX):
    return DesignSpec(make_objective(kind), gamma, u_max, Q, D, variant, rho2)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for(gamma=0.9)
    with pytest.raises(ValueError):
        spec_for(u_max=0.0)
    with pytest.raises(ValueError):
        DesignSpec(make_objective("dopt"), 1.0, 1.0, 1, 2)
    with pytest.raises(ValueError):
        spec_for(variant="sim", rho2=1.0)
    with pytest.raises(ValueError):
        spec_for(variant="seq", rho2=0.0)
    with pytest.raises(ValueError):
        spec_for(variant="parallel")
    # an infinite u_max gives an infinite grid, whose near-zero tail never ends
    for field in ("u_max", "gamma"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=field):
                spec_for(**{field: value})


def test_design_grid_shape_and_spacing():
    spec = spec_for()
    u = design_grid(spec)
    assert u.shape == (D,)
    assert np.all(np.diff(u) > 0.0)
    assert u[-1] == pytest.approx(UMAX, rel=1e-9)
    # levels are equispaced in h
    lv = h_eval(spec.objective, u)
    assert np.allclose(np.diff(lv), lv[0], rtol=1e-9)


def test_design_grid_nested():
    spec = spec_for()
    base, fine = design_grid(spec), design_grid(spec, 5)
    # h-equispaced grids are nested: every base point appears in the 5x grid
    assert np.allclose(fine[4::5], base, rtol=1e-12)


def test_tail_grid():
    t = _tail_grid(0.0125)
    assert np.allclose(t[1:] / t[:-1], 2.0 ** 0.5, rtol=1e-12)
    assert t[-1] == pytest.approx(0.0125 * 2.0 ** -0.5)
    assert 1e-8 < t[0] <= 2.0 ** 0.5 * 1e-8
    assert _tail_grid(1.2e-8).size == 0


def test_linear_design_closed_form():
    res = design_hs(spec_for(kind="linear", gamma=3.0))
    assert res.beta == 3.0
    assert res.iterations == 0 and res.cuts == 0 and res.atoms == 1
    assert res.residual == 0.0 and not res.flagged
    assert np.array_equal(res.measure.nodes, [0.0])
    assert np.array_equal(res.measure.weights, [1.0])


def test_linear_constraint_values_infeasible_elsewhere():
    spec = spec_for(kind="linear", gamma=2.0)
    off = AtomicMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.25]))
    vals = constraint_values(spec, off)
    assert np.all(np.isinf(vals)) and np.all(vals > 0)
    exact = AtomicMeasure(np.array([0.0]), np.array([1.0]))
    assert np.allclose(constraint_values(spec, exact), 2.0, atol=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_dopt_beta_bound_and_certificate(gamma):
    spec = spec_for(kind="dopt", gamma=gamma)
    res = design_hs(spec)
    assert res.beta <= gamma + 1.0 + 1e-6
    assert not res.flagged and res.residual <= 1e-6
    # certified: the 10x-denser grid never exceeds beta
    assert beta_for_measure(spec, res.measure, dense=10) <= res.beta + 1e-9
    # measure is normalized to the base slope
    assert res.measure.y0 == pytest.approx(spec.objective.h_prime0, abs=1e-7)
    assert res.smoothed().base == spec.objective


def test_dopt_beats_exact_measure():
    # the designed beta should not exceed the h-matching measure's certificate
    spec = spec_for(kind="dopt", gamma=1.5)
    res = design_hs(spec)
    baseline = beta_for_measure(spec, exact_measure(spec.objective), dense=1)
    assert res.beta <= baseline + 1e-7


def test_beta_nondecreasing_in_gamma():
    obj = make_objective("dopt")
    betas = [
        design_hs(DesignSpec(obj, g, UMAX, Q, D)).beta for g in (1.0, 1.5, 2.0, 3.0)
    ]
    assert all(a <= b + 1e-9 for a, b in zip(betas, betas[1:]))


def test_seq_design_dominates_sim():
    # the sequential program adds a nonnegative term, so its minimax is larger
    obj = make_objective("dopt")
    b_sim = design_hs(DesignSpec(obj, 2.0, UMAX, Q, D, "sim", 0.0)).beta
    b_seq = design_hs(DesignSpec(obj, 2.0, UMAX, Q, D, "seq", 1.0)).beta
    assert b_seq >= b_sim - 1e-9


def test_aopt_and_pmean_designs():
    for kind in ("aopt", "pmean2.0"):
        spec = spec_for(kind=kind, gamma=1.5)
        res = design_hs(spec)
        assert not res.flagged
        assert beta_for_measure(spec, res.measure, dense=10) <= res.beta + 1e-9


# certified beta of each spec with the numpy subgradient designer that the
# cutting-plane LP replaced; the LP design may match or beat it, never exceed it
FALLBACK_BETAS = [
    (("dopt", 1.5, "sim", 0.0), 1.735760018),
    (("aopt", 2.0, "seq", 1.0), 7.112640589),
]


@pytest.mark.parametrize("args,fallback_beta", FALLBACK_BETAS,
                         ids=["dopt-sim", "aopt-seq"])
def test_lp_design_is_certified_and_tight(args, fallback_beta):
    kind, gamma, variant, rho2 = args
    spec = spec_for(kind=kind, gamma=gamma, variant=variant, rho2=rho2)
    res = design_hs(spec)
    # the final LP value bounds the training-grid optimum from below ...
    assert res.beta_lb <= res.beta
    # ... and the certified beta is within the loop's stopping gap of it
    assert res.beta - res.beta_lb <= DESIGN_TOL * max(1.0, res.beta)
    assert res.residual <= 1e-6 and not res.flagged
    assert beta_for_measure(spec, res.measure, dense=10) <= res.beta + 1e-9
    assert res.beta <= fallback_beta
    assert res.measure.y0 == pytest.approx(spec.objective.h_prime0, abs=1e-8)
    # every tenth base abscissa keeps its two seed cuts; the measure has a few atoms
    assert res.cuts >= 2 * len(range(0, D, 10))
    assert res.atoms == np.count_nonzero(res.measure.weights) >= 1


@pytest.mark.parametrize("kind", ["dopt", "aopt", "pmean2.0", "pmean0.5"])
@pytest.mark.parametrize("variant,rho2", [("sim", 0.0), ("seq", 5.0)])
def test_tableau_ratio_matches_constraint_values(kind, variant, rho2):
    spec = spec_for(kind=kind, gamma=3.0, variant=variant, rho2=rho2)
    grid = np.concatenate([np.geomspace(1e-8, 1e-2, 25), design_grid(spec)])
    tab = _Tableau(spec, grid, NODES)
    rng = np.random.default_rng(5)
    for _ in range(3):
        w = rng.random(Q) * (rng.random(Q) < 0.3)
        w *= spec.objective.h_prime0 / (tab.a @ w)
        r, y = tab.ratio(w)
        measure = AtomicMeasure(tab.nodes, w)
        assert np.allclose(y, y_eval(measure, grid), rtol=1e-14, atol=0.0)
        assert np.allclose(r, constraint_values(spec, measure, grid), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,variant,rho2", [("aopt", "sim", 0.0), ("dopt", "seq", 5.0)])
def test_design_builds_each_atoms_column_once(monkeypatch, kind, variant, rho2):
    # a design-sweep spec at perfbench's full scale: its live atoms persist across solves
    spec = DesignSpec(make_objective(kind), 2.0, 10.0, 100, 200, variant, rho2)
    built, block = [], _Tableau._block

    def spy(self, i, j):
        if isinstance(i, slice):          # a whole-grid column, not a batch of cut rows
            built.extend(np.asarray(j).tolist())
        return block(self, i, j)

    monkeypatch.setattr(_Tableau, "_block", spy)
    res = design_hs(spec)
    assert res.iterations > 1
    assert len(built) == len(set(built))
    assert set(np.rint(res.measure.nodes * spec.q).astype(int).tolist()) <= set(built)


def test_cached_columns_give_the_ratio_of_a_fresh_block():
    spec = spec_for(kind="aopt", gamma=3.0, variant="seq", rho2=5.0)
    grid = np.concatenate([np.geomspace(1e-8, 1e-2, 25), design_grid(spec)])
    tab = _Tableau(spec, grid, NODES)
    rng, read = np.random.default_rng(11), 0
    for _ in range(5):
        w = rng.random(Q) * (rng.random(Q) < 0.3)
        w *= spec.objective.h_prime0 / (tab.a @ w)
        r, y = tab.ratio(w)
        live = np.flatnonzero(w)
        read += live.size
        lin, psi = tab._block(slice(None), live)
        y_fresh = psi @ w[live]
        r_fresh = spec.gamma * (lin @ w[live]) - h_conj(spec.objective, y_fresh) / tab.h
        assert np.array_equal(y, y_fresh) and np.array_equal(r, r_fresh)
    assert len(tab.cols) < read          # later supports met cached columns


SWEEP_SPECS = [("dopt", 1.0, "sim", 0.0), ("dopt", 2.0, "sim", 0.0), ("dopt", 4.0, "sim", 0.0),
               ("aopt", 1.0, "sim", 0.0), ("aopt", 2.0, "sim", 0.0), ("aopt", 4.0, "sim", 0.0),
               ("dopt", 2.0, "seq", 5.0)]


@pytest.mark.parametrize("kind,gamma,variant,rho2", SWEEP_SPECS,
                         ids=["-".join(map(str, s)) for s in SWEEP_SPECS])
def test_beta_for_measure_gives_a_design_its_beta(kind, gamma, variant, rho2):
    # the benchmark's design-sweep specs: one ratio on one grid certifies both
    spec = DesignSpec(make_objective(kind), gamma, 10.0, 100, 200, variant, rho2)
    res = design_hs(spec)
    assert beta_for_measure(spec, res.measure) == res.beta


def test_seq_design_with_steep_tail_is_certified():
    # the seq term a - Psi cancels at the tail's u ~ 1e-8; computed as the
    # difference, its noise kept HiGHS from an optimal status on this spec
    spec = DesignSpec(make_objective("dopt"), 8.0, 50.0, 100, 200, "seq", 5.0)
    res = design_hs(spec)
    assert res.beta - res.beta_lb <= DESIGN_TOL * max(1.0, res.beta)
    assert beta_for_measure(spec, res.measure, dense=10) <= res.beta + 1e-9


def test_design_with_atoms_outside_the_start_set_is_certified():
    # the LP starts on every fifth node; these atoms entered by pricing
    spec = spec_for(kind="aopt", gamma=1.5)
    res = design_hs(spec)
    start = _CutLP(np.ones(Q), 1.0).cols[1:]
    assert not np.isin(np.rint(res.measure.nodes * spec.q), start).all()
    assert res.beta - res.beta_lb <= DESIGN_TOL * max(1.0, res.beta)
    assert beta_for_measure(spec, res.measure, dense=10) <= res.beta + 1e-9


@pytest.mark.parametrize("kind", ["dopt", "aopt"])
def test_fine_node_grid_design_is_certified(kind):
    spec = DesignSpec(make_objective(kind), 2.0, 10.0, 400, 200)
    res = design_hs(spec)
    assert res.beta - res.beta_lb <= DESIGN_TOL * max(1.0, res.beta)
    assert beta_for_measure(spec, res.measure, dense=10) <= res.beta + 1e-9


def test_cr_bound():
    e1 = np.e - 1.0
    assert cr_bound(1.0, 2.0) == pytest.approx(1.0 / (1.0 / e1 + 2.0))
    with pytest.raises(ValueError):
        cr_bound(0.5, 1.0)
    with pytest.raises(ValueError):
        cr_bound(1.0, 0.0)


def test_design_serialization_round_trip():
    res = design_hs(spec_for(kind="dopt", gamma=1.5, variant="seq", rho2=0.8))
    back = design_from_dict(design_to_dict(res))
    assert back.beta == res.beta
    assert back.spec == res.spec
    assert np.array_equal(back.measure.nodes, res.measure.nodes)
    assert np.array_equal(back.measure.weights, res.measure.weights)
    assert back.flagged == res.flagged
    assert back.beta_lb == res.beta_lb
    assert (back.iterations, back.cuts, back.atoms) == (res.iterations, res.cuts, res.atoms)


def test_design_from_legacy_dict():
    # records written before beta_lb existed carry final_step instead
    legacy = {
        "objective": {"kind": "aopt", "p": 1.0}, "gamma": 2.0, "u_max": 10.0,
        "q": 4, "d": 8, "variant": "sim", "rho2": 0.0, "beta": 2.25,
        "residual": 0.0, "iterations": 51170, "final_step": 2.2e-06,
        "converged": True, "flagged": False,
        "nodes": [0.0, 0.25, 0.5, 0.75], "weights": [0.5, 0.0, 0.25, 0.0],
    }
    res = design_from_dict(legacy)
    assert res.beta == 2.25 and res.beta_lb is None
    assert res.iterations == 51170 and not res.flagged
    assert res.spec == DesignSpec(make_objective("aopt"), 2.0, 10.0, 4, 8)
    assert res.smoothed().measure.y0 == pytest.approx(1.0)
    assert design_to_dict(res)["beta_lb"] is None
    assert "final_step" not in design_to_dict(res) and "converged" not in design_to_dict(res)
    # the measure holds its two atoms; residual and flagged are read but no longer written
    assert res.cuts is None and res.atoms == 2
    assert design_to_dict(res)["cuts"] is None
    assert not {"atoms", "residual", "flagged"} & design_to_dict(res).keys()
    # an older record's atom count is ignored: the measure counts its own
    assert design_from_dict({**legacy, "atoms": 4}).atoms == 2


TOLS = {"primal_feasibility_tolerance": 1e-8, "dual_feasibility_tolerance": 1e-8}


def test_cut_lp_warm_resolves_match_cold_linprog():
    # pins scipy's private incremental HiGHS interface: one model, rows added and
    # deleted and columns added between solves; linprog (cold) is only the reference
    from scipy.optimize import linprog

    spec = spec_for(kind="dopt", gamma=2.0)
    h0 = spec.objective.h_prime0
    tab = _Tableau(spec, design_grid(spec), NODES)
    q = tab.a.size
    every = np.arange(tab.u.size)
    rng = np.random.default_rng(3)
    batches = [tab.cuts(every, tab.u), tab.cuts(every, np.zeros(every.size))]
    for _ in range(5):
        i = np.sort(rng.choice(every, 12, replace=False))
        batches.append(tab.cuts(i, tab.u[i] * rng.uniform(0.2, 5.0, i.size)))

    def cold(cols, rows, rhs):
        t = cols == q
        res = linprog(t.astype(float), A_ub=rows[:, cols], b_ub=rhs,
                      A_eq=np.append(tab.a, 0.0)[None, cols], b_eq=[h0],
                      bounds=[(None, None) if ti else (0.0, None) for ti in t],
                      method="highs", options=TOLS)
        assert res.status == 0
        return res.fun

    lp = _CutLP(tab.a, h0)
    start = lp.cols.copy()
    every_row, every_rhs = np.empty((0, q + 1)), np.empty(0)
    most_rows, entered = 0, False
    for rows, rhs in batches:
        lp.add(rows, rhs)
        every_row, every_rhs = np.vstack([every_row, rows]), np.append(every_rhs, rhs)
        most_rows = max(most_rows, lp.rhs.size)
        x, lb = lp.solve()
        # the model holds t/gamma, its columns and its live rows, and the warm value is theirs
        assert lp.rows.shape == (lp.rhs.size, q + 1)
        assert lp.highs.getNumRow() == 1 + lp.rhs.size and lp.highs.getNumCol() == lp.cols.size
        assert lp.cols[0] == q and np.unique(lp.cols).size == lp.cols.size
        assert x[-1] == pytest.approx(cold(lp.cols, lp.rows, lp.rhs), abs=1e-9)
        assert np.all(np.delete(x, lp.cols) == 0.0) and np.all(x[:q] >= -1e-12)
        assert tab.a @ x[:q] == pytest.approx(h0, abs=1e-8)
        assert np.all(lp.rows @ x <= lp.rhs + 1e-8)
        # weak duality: the bound holds for the LP over every node and every cut added
        full = cold(np.arange(q + 1), every_row, every_rhs)
        assert lb <= full + 1e-10
        if lp.pending.size == 0:
            # no node prices in: the held LP is the full one, and the bound is tight
            assert x[-1] <= full + 1e-9 and lb >= x[-1] - 1e-7
        assert not np.isin(lp.pending, lp.cols).any()
        entered |= lp.cols.size > start.size
    assert lp.added == every_rhs.size == 2 * tab.u.size + 5 * 12
    # both edits ran: some node entered past the start set, and some cut left
    assert entered and np.array_equal(lp.cols[:start.size], start)
    assert lp.rhs.size < most_rows


def test_cut_lp_failure_is_an_input_error_naming_gamma():
    # HiGHS drops a row with an entry past 1e15, so the LP it solves is not the
    # one the cutting-plane loop built; here no cut is left to bound t
    lp = _CutLP(np.ones(3), 1.0)
    lp.add(np.array([[1e16, 0.0, 0.0, -1.0]]), np.array([0.0]))
    with pytest.raises(ValueError, match=re.escape(
            "design LP failed (Unbounded, 0 of 1 cuts held) at this --gamma")):
        lp.solve()


@pytest.mark.parametrize("gamma,u_max", [(1e15, 10.0), (8.8e11, 97.2)],
                         ids=["gamma-1e15", "gamma-8.8e11"])
def test_cuts_over_gamma_design_at_large_gamma(gamma, u_max):
    # cuts not held over gamma have entries past 1e15 here, which HiGHS drops:
    # every cut of the first spec and one of 29 of the second
    spec = DesignSpec(make_objective("pmean2"), gamma, u_max, 37, 14, "seq", 3.7)
    res = design_hs(spec)
    assert np.isfinite(res.beta) and res.beta_lb <= res.beta
    assert beta_for_measure(spec, res.measure, dense=10) <= res.beta * (1.0 + 1e-9) + 1e-9


@st.composite
def design_specs(draw):
    """A DesignSpec at small q and d over the whole accepted range of gamma and u_max."""
    variant = draw(st.sampled_from(["sim", "seq"]))
    return DesignSpec(make_objective(draw(st.sampled_from(["dopt", "aopt", "pmean3"]))),
                      10.0 ** draw(st.floats(0.0, 15.0)), 10.0 ** draw(st.floats(-16.0, 3.0)),
                      draw(st.integers(2, 40)), draw(st.integers(2, 40)), variant,
                      10.0 ** draw(st.floats(-2.0, 2.0)) if variant == "seq" else 0.0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec=design_specs())
def test_every_spec_designs_a_certified_measure(spec):
    res = design_hs(spec)
    assert np.isfinite(res.beta) and res.beta_lb <= res.beta
    assert beta_for_measure(spec, res.measure, dense=10) == res.beta


def test_cut_lp_names_scipy_version_without_highs(monkeypatch):
    import scipy

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=re.escape("scipy %s" % scipy.__version__)):
        _CutLP(np.ones(3), 1.0)


def test_import_does_not_load_scipy_optimize():
    # design_hs imports HiGHS lazily: loading scipy.optimize with the
    # package would multiply the import time of every psdalloc process
    env = dict(os.environ)
    pkg_root = str(Path(psdalloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, psdalloc; "
             "print(psdalloc.__file__); print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    where, loaded = proc.stdout.split()
    assert Path(where).resolve() == Path(psdalloc.__file__).resolve()
    assert loaded == "False"
