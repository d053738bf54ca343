"""End-to-end acceptance gate: ten checks, one pass/fail line each under -v.

Each check pins a closed form, a certificate, or a guarantee at an explicit
tolerance and wall-clock cap.  Run with

    pytest tests/test_acceptance.py -v
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import psdalloc
from psdalloc.bench import (ExperimentConfig, cached_design, curve_rows,
                            gen_adversarial, gen_random, run_experiment)
from psdalloc.budget import (E1, BudgetSmoother, b_prime, gamma_for_budget, gs_prime,
                             gs_value)
from psdalloc.designer import DesignSpec, design_grid
from psdalloc.lowner import SmoothedObjective, exact_measure
from psdalloc.lowner import grad_hs, hs_trace_lift
from psdalloc.objectives import h_eval, make_objective
from psdalloc.online import run_stream
from psdalloc.oracle import offline_continuous_opt
from reference import certify_psd_dr, constraint_values, offline_integer_opt, trace_lift

Q, D = 100, 200
U_MAX = 10.0


def _design(kind, gamma, variant="sim", rho2=0.0):
    obj = make_objective(kind)
    return cached_design(DesignSpec(obj, gamma, U_MAX, Q, D, variant, rho2))


def test_criterion_01_linear_closed_form():
    start = time.perf_counter()
    obj = make_objective("linear")
    s = BudgetSmoother(obj, gamma=1.7, b=6.0, theta=0.8, Theta=2.0,
                       rho1=1.0, variant="sim")
    us = np.linspace(0.0, 3 * s.b, 200)
    quad = gs_prime(s, us)
    closed = s.theta * (1.0 - np.exp(s.gamma * us / s.b)) / (np.e - 1.0)
    assert float(np.max(np.abs(quad - closed))) <= 1e-8
    assert time.perf_counter() - start < 1.0


def test_criterion_02_budget_exactness():
    start = time.perf_counter()
    obj = make_objective("linear")
    s = BudgetSmoother(obj, gamma=1.0, b=10.0, theta=1.0, Theta=1.0,
                       rho1=1.0, variant="sim")
    assert b_prime(s) == pytest.approx(10.0, abs=1e-6)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_penalty_identity(gs_value_reference):
    # gamma G_S(u) = b gs'(u) + gamma/(e-1) h(theta u), with G_S = int_0^u gs'
    # computed here by quadrature, independently of gs_value
    start = time.perf_counter()
    grid = np.linspace(0.0, 10.0, 21)
    for kind in ("linear", "dopt", "aopt"):
        obj = make_objective(kind)
        for gamma in (1.0, 2.0, 4.0):
            s = BudgetSmoother(obj, gamma, b=5.0, theta=0.7, Theta=3.0,
                               rho1=1.0, variant="sim")
            G = np.array([gs_value_reference(s, u) for u in grid])
            rhs = s.b * gs_prime(s, grid) + (gamma / E1) * h_eval(obj, s.theta * grid)
            assert float(np.max(np.abs(gamma * G - rhs))) <= 1e-6, (kind, gamma)
            assert float(np.max(np.abs(gamma * (gs_value(s, grid) - G)))) <= 1e-6, (kind, gamma)
    assert time.perf_counter() - start < 10.0


def test_criterion_04_designer_baselines():
    start = time.perf_counter()
    for gamma in (1.0, 2.0, 4.0):
        res = _design("linear", gamma)
        assert res.beta == gamma  # closed-form case is exact
    for gamma in (1.0, 2.0, 4.0):
        res = _design("dopt", gamma)
        assert res.beta <= gamma + 1.0 + 1e-6, gamma
        assert not res.flagged
        fine = design_grid(res.spec, 10)
        residual = float(np.max(constraint_values(res.spec, res.measure, fine))
                         - res.beta)
        assert residual <= 1e-6, (gamma, residual)
    assert time.perf_counter() - start < 300.0


def test_criterion_05_order_reversing_gradient():
    start = time.perf_counter()
    for kind in ("dopt", "aopt"):
        for gamma in (1.0, 4.0):
            res = _design(kind, gamma)
            rep = certify_psd_dr(res.smoothed(), trials=200, dim=4, seed=31)
            assert rep.min_gap >= -1e-8, (kind, gamma, rep.min_gap)
    assert time.perf_counter() - start < 30.0


def test_criterion_06_gradient_vs_finite_differences():
    start = time.perf_counter()
    sm = _design("dopt", 1.0).smoothed()
    rng = np.random.default_rng(77)
    eps = 1e-6
    for _ in range(50):
        W = rng.standard_normal((4, 4))
        # ridge keeps M - eps*E inside the PSD domain of the trace lift
        M = W @ W.T / 2.0 + 1e-2 * np.eye(4)
        G = grad_hs(sm, M)
        fd = np.zeros((4, 4))
        for i in range(4):
            for j in range(i, 4):
                E = np.zeros((4, 4))
                E[i, j] = E[j, i] = 1.0
                slope = (hs_trace_lift(sm, M + eps * E)
                         - hs_trace_lift(sm, M - eps * E)) / (2 * eps)
                fd[i, j] = fd[j, i] = slope / (2.0 if i != j else 1.0)
        rel = np.linalg.norm(G - fd) / max(1.0, np.linalg.norm(fd))
        assert rel <= 1e-5
    assert time.perf_counter() - start < 10.0


def test_criterion_07_guarantee_suite():
    start = time.perf_counter()
    objectives = ["dopt", "aopt"]
    generators = ["adversarial", "random"]
    gammas = [1.0, 2.0, 4.0]
    groups = {}
    for i in range(100):
        kind = objectives[i % 2]
        gen = generators[(i // 2) % 2]
        gamma = gammas[i % 3]
        if gen == "adversarial":
            inst = gen_adversarial(5, 50, seed=1000 + i, b=10.0)
        else:
            inst = gen_random(5, 50, density=1.0, seed=1000 + i, b=10.0)
        groups.setdefault((kind, gamma), []).append(inst)
    checked = 0
    for (kind, gamma), insts in sorted(groups.items()):
        cfg = ExperimentConfig.from_dict({
            "objective": kind, "gammas": (gamma,), "variants": ("sim", "seq"),
            "instances": insts, "unsmoothed_arm": False, "q": Q, "d": D,
        })
        for rep in run_experiment(cfg):
            assert rep.budget_used <= rep.b_prime + 1e-9
            if not rep.umax_breached:
                assert rep.primal_H >= rep.bound * rep.p_star - 1e-6
            assert rep.audit_pass
            assert rep.d_value >= rep.p_star - 1e-6
            checked += 1
    assert checked == 200  # 100 instances x both variants
    assert time.perf_counter() - start < 600.0


def test_criterion_08_integer_baseline_sandwich():
    start = time.perf_counter()
    obj = make_objective("dopt")
    surrogate = SmoothedObjective(exact_measure(obj), obj)
    for i in range(30):
        inst = gen_adversarial(4, 12, seed=2000 + i, b=6.0)
        gamma = gamma_for_budget(obj, inst.b, inst.theta, inst.Theta,
                                 inst.rho1, "seq")
        s = BudgetSmoother(obj, gamma, inst.b, inst.theta, inst.Theta,
                           inst.rho1, "seq")
        trace = run_stream(surrogate, s, inst.arrivals, "seq", inst.n)
        assert trace.u <= inst.b + 1e-9
        U = sum((x * a.A for a, x in zip(inst.arrivals, trace.decisions) if x > 0.0),
                np.zeros((inst.n, inst.n)))     # the purchases, in stream order
        alg_value = trace_lift(obj, U)
        int_value, _ = offline_integer_opt(inst, obj)
        p_star = offline_continuous_opt(inst, obj).value
        assert alg_value <= int_value + 1e-9
        assert int_value <= p_star + 1e-9
    assert time.perf_counter() - start < 60.0


def test_criterion_09_bound_curve():
    start = time.perf_counter()
    rows = curve_rows("dopt", (1.0, 1.5, 2.0, 3.0, 4.0), U_MAX, q=Q, d=D)
    for row in rows:
        g = row["gamma"]
        formula = 1.0 / (g / (math.e - 1.0) + g + 1.0)
        assert row["bound_unsmoothed"] == pytest.approx(formula, rel=1e-12)
        assert row["bound_smoothed"] >= row["bound_unsmoothed"]
    # frozen arithmetic oracle for the formula at gamma = 1
    assert abs(rows[0]["bound_unsmoothed"] - 0.38730016321971794) <= 1e-4
    assert time.perf_counter() - start < 600.0


def test_criterion_10_bench_determinism(tmp_path):
    start = time.perf_counter()
    flags = ["bench", "--objective", "dopt", "--n", "4", "--m", "15",
             "--b", "3", "--gamma", "1.0,2.0", "--repeats", "2",
             "--seed", "7", "--variant", "sim,seq", "--generator", "random",
             "--q", "40", "--d", "60"]
    # The child runs from tmp_path, where a relative PYTHONPATH (such as
    # the Tier-1 `PYTHONPATH=src`) does not resolve; put the directory of
    # the package this process imported first so both run the same code.
    env = dict(os.environ)
    pkg_root = str(Path(psdalloc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "psdalloc"] + flags
                              + ["--out", str(out)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)
        assert proc.returncode == 0, (
            f"psdalloc bench exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 16
    assert time.perf_counter() - start < 60.0
