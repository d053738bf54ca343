"""Generators, the experiment pipeline, curve emission, and CSV determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from psdalloc import bench
from psdalloc.bench import (CSV_COLUMNS, CURVE_COLUMNS, ExperimentConfig,
                            cached_design, curve_rows, gen_adversarial, gen_random,
                            make_instance, run_experiment)
from psdalloc.budget import BudgetSmoother, gs_prime
from psdalloc.cli import main
from psdalloc.designer import DesignSpec, cr_bound
from psdalloc.lowner import SmoothedObjective, exact_measure
from psdalloc.objectives import h_eval, make_objective, psd_eigs
from psdalloc.online import Arrival
from psdalloc.oracle import Instance, instance_from_dict
from reference import constraint_values

Q, D = 40, 60  # small design grids keep the pipeline tests fast


# ---------------------------------------------------------------- generators

def test_adversarial_instance_stats():
    n, m = 4, 10
    inst = gen_adversarial(n, m, seed=3)
    assert len(inst.arrivals) == m
    assert inst.b == pytest.approx(m / 5)
    for t, arr in enumerate(inst.arrivals, start=1):
        assert arr.c == 1.0
        assert np.trace(arr.A) == pytest.approx(m - t + 1, rel=1e-12)
        assert np.linalg.matrix_rank(arr.A) == 1
    # unit costs and the decaying traces pin the density spread exactly
    assert inst.theta == pytest.approx(1.0, rel=1e-12)
    assert inst.Theta == pytest.approx(m, rel=1e-12)
    assert inst.rho1 == 1.0


def test_adversarial_deterministic_in_seed():
    a = gen_adversarial(3, 6, seed=9)
    b = gen_adversarial(3, 6, seed=9)
    c = gen_adversarial(3, 6, seed=10)
    for x, y in zip(a.arrivals, b.arrivals):
        np.testing.assert_array_equal(x.A, y.A)
    assert any(not np.array_equal(x.A, y.A)
               for x, y in zip(a.arrivals, c.arrivals))


def test_random_generator_costs_and_budget():
    inst = gen_random(3, 25, density=0.6, seed=4, b=7.5)
    assert inst.b == 7.5
    assert len(inst.arrivals) == 25
    for arr in inst.arrivals:
        assert 0.5 <= arr.c <= 1.5
        assert np.any(arr.A != 0.0)
    again = gen_random(3, 25, density=0.6, seed=4, b=7.5)
    for x, y in zip(inst.arrivals, again.arrivals):
        np.testing.assert_array_equal(x.A, y.A)
        assert x.c == y.c


def test_random_generator_rejects_bad_density():
    with pytest.raises(ValueError):
        gen_random(3, 5, density=0.0)
    with pytest.raises(ValueError):
        gen_random(3, 5, density=1.5)


@pytest.mark.parametrize("b", [np.nan, np.inf, 0.0, -1.0, "2", True])
@pytest.mark.parametrize("gen", [gen_adversarial, gen_random])
def test_generators_refuse_a_budget_before_drawing_an_arrival(gen, b, monkeypatch):
    # b was checked only when Instance was built, after every arrival was drawn
    made = []
    monkeypatch.setattr(bench, "Arrival", lambda *args: made.append(args) or Arrival(*args))
    with pytest.raises(ValueError, match="^--b must be"):
        gen(3, 100000, seed=0, b=b)
    assert not made
    assert gen(3, 4, seed=0, b=1.0).b == 1.0 and len(made) == 4


@pytest.mark.parametrize("generator", ["adversarial", "random"])
def test_make_instance_defaults_b_to_m_over_5(generator):
    inst = make_instance(generator, 3, 10, seed=2)
    assert inst.b == 2.0
    assert make_instance(generator, 3, 10, 2, b=4).b == 4.0


def test_make_instance_passes_density_and_seed_to_the_generator():
    inst = make_instance("random", 3, 10, 4, density=0.5)
    for x, y in zip(inst.arrivals, gen_random(3, 10, 0.5, 4).arrivals):
        np.testing.assert_array_equal(x.A, y.A)
        assert x.c == y.c


@pytest.mark.parametrize("gen", [lambda n: gen_adversarial(n, 5, 0),
                                 lambda n: gen_random(n, 5)],
                         ids=["adversarial", "random"])
def test_generators_reject_empty_dimension(gen):
    # with n = 0 every direction is all-zero, so gen_random would resample forever
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be"):
            gen(n)


@pytest.mark.parametrize("gen", [lambda m: gen_adversarial(3, m, 0),
                                 lambda m: gen_random(3, m)],
                         ids=["adversarial", "random"])
def test_generators_reject_an_empty_stream(gen):
    # named here, not by the Instance that would find no arrivals
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be"):
            gen(m)


# ------------------------------------------------------------------- config

def test_config_from_dict_roundtrip():
    cfg = ExperimentConfig.from_dict({"objective": "aopt", "n": 3, "m": 12,
                                      "gammas": (1.0, 2.0), "seed": 7,
                                      "variants": ("sim", "seq")})
    assert cfg.objective == "aopt"
    assert cfg.m == 12
    assert cfg.gammas == (1.0, 2.0)
    assert cfg.b is None and cfg.out is None


def test_config_rejects_no_repeats():
    for repeats in (0, -2):
        with pytest.raises(ValueError, match="repeats"):
            ExperimentConfig(repeats=repeats)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"objective": "dopt", "gamma": 2.0})


# ----------------------------------------------------------------- pipeline

@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_run_one_zero_trace_arrival(variant):
    # the zero arrival is rejected and sets no density: theta comes from eye(2)
    inst = Instance([Arrival(np.zeros((2, 0)), 1.0), Arrival(np.eye(2), 1.0)], 1.0)
    assert inst.theta == inst.Theta == 2.0
    obj = make_objective("dopt")
    smoother = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
    surrogate = SmoothedObjective(exact_measure(obj), obj)
    rep, trace = bench.run_one(inst, surrogate, smoother, 1.0, 10.0, "unsmoothed")
    assert trace.decisions[0] == 0.0 and trace.decisions[1] > 0.0
    assert rep.audit_pass


@pytest.mark.parametrize("arm", ["smoothed", "unsmoothed"])
@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_run_one_reports_the_aggregate_of_its_decisions(variant, arm):
    # primal_H, the u_max gate and the spend equal their values at
    # U = sum x_t A_t and u = sum x_t c_t, both added in stream order
    inst = gen_random(5, 40, seed=3, b=4.0)
    obj = make_objective("dopt")
    (smoother,), spec = bench.group_spec(obj, 2.0, variant, [inst], Q, D)
    if arm == "smoothed":
        dres = cached_design(spec)
        surrogate, beta = dres.smoothed(), dres.beta
    else:
        surrogate, beta = SmoothedObjective(exact_measure(obj), obj), 1.0
    rep, trace = bench.run_one(inst, surrogate, smoother, beta, spec.u_max, arm, p_star=1.0)
    U, u = np.zeros((inst.n, inst.n)), 0.0
    for a, x in zip(inst.arrivals, trace.decisions):
        if x > 0.0:
            U, u = U + x * a.A, u + x * a.c
    w, _ = psd_eigs(U)
    assert 0.0 < u and rep.budget_used == u
    assert rep.primal_H == float(np.sum(h_eval(obj, w)))
    gated = not (arm == "unsmoothed" and variant == "sim")
    for u_max in (0.5 * w[-1], w[-1], 2.0 * w[-1]):
        rep, _ = bench.run_one(inst, surrogate, smoother, beta, u_max, arm, p_star=1.0)
        assert rep.umax_breached == (gated and w[-1] > u_max + 1e-12)


@pytest.fixture(scope="module")
def small_reports():
    cfg = ExperimentConfig.from_dict({
        "objective": "dopt", "n": 3, "m": 8, "b": 2.0,
        "gammas": (1.0, 2.0), "repeats": 2, "seed": 5,
        "variants": ("sim", "seq"), "generator": "adversarial",
        "q": Q, "d": D,
    })
    return run_experiment(cfg)


def test_run_experiment_report_grid(small_reports):
    # 2 gammas x 2 variants x 2 repeats x 2 arms (dopt has an exact measure)
    assert len(small_reports) == 16
    combos = {(r.gamma, r.variant, r.repeat, r.arm) for r in small_reports}
    assert len(combos) == 16
    assert {r.arm for r in small_reports} == {"smoothed", "unsmoothed"}


def test_run_experiment_audits_and_budget(small_reports):
    for rep in small_reports:
        assert rep.audit_pass
        assert rep.budget_used <= rep.b_prime + 1e-9
        assert rep.d_value >= rep.p_star - 1e-6


def test_run_experiment_ratio_meets_bound(small_reports):
    for rep in small_reports:
        if not rep.umax_breached:
            assert rep.ratio >= rep.bound - 1e-6


def test_run_experiment_consistent_p_star(small_reports):
    by_repeat = {}
    for rep in small_reports:
        by_repeat.setdefault(rep.repeat, set()).add(rep.p_star)
    for vals in by_repeat.values():
        assert len(vals) == 1


# ------------------------------------------------------------ csv emission

def _run_to_csv(path):
    cfg = ExperimentConfig.from_dict({
        "objective": "dopt", "n": 3, "m": 8, "b": 2.0, "gammas": (1.5,),
        "repeats": 2, "seed": 11, "variants": ("sim",), "q": Q, "d": D,
        "out": str(path),
    })
    run_experiment(cfg)
    return path.read_bytes()


def test_csv_byte_identical_across_runs(tmp_path):
    first = _run_to_csv(tmp_path / "a.csv")
    bench._design_cache.clear()  # force a fresh design the second time round
    second = _run_to_csv(tmp_path / "b.csv")
    assert first == second


def test_csv_header_and_rows(tmp_path):
    text = _run_to_csv(tmp_path / "c.csv").decode()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4  # 1 gamma x 1 variant x 2 repeats x 2 arms
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "dopt"
        float(cells[1]), float(cells[3]), float(cells[7])  # numeric columns parse
        assert cells[9] in {"0", "1"} and cells[10] in {"0", "1"}


# -------------------------------------------------------------- bound curves

def test_curve_rows_dopt_bounds():
    rows = curve_rows("dopt", (1.0, 2.0), u_max=8.0, q=Q, d=D)
    for row in rows:
        g = row["gamma"]
        expected_u = 1.0 / (g / (math.e - 1.0) + g + 1.0)
        assert row["bound_unsmoothed"] == pytest.approx(expected_u, rel=1e-12)
        assert row["bound_smoothed"] >= row["bound_unsmoothed"] - 1e-12
        assert row["beta"] <= g + 1.0 + 1e-6


def test_curve_rows_linear_collapse():
    rows = curve_rows("linear", (1.0, 3.0), u_max=8.0, q=Q, d=D)
    for row in rows:
        g = row["gamma"]
        assert row["beta"] == g
        assert row["bound_smoothed"] == pytest.approx(cr_bound(g, g), rel=1e-12)
        assert row["bound_unsmoothed"] == pytest.approx(cr_bound(g, g), rel=1e-12)


def test_curve_rows_aopt_has_no_unsmoothed_bound():
    rows = curve_rows("aopt", (1.0,), u_max=8.0, q=Q, d=D)
    assert math.isnan(rows[0]["bound_unsmoothed"])
    assert rows[0]["bound_smoothed"] > 0


def test_unsmoothed_seq_beta_covers_the_ratio_near_zero():
    # the rho2 term's ratio climbs as u -> 0, below the first h-spaced abscissa
    spec = DesignSpec(make_objective("dopt"), 4.0, 10.0, 100, 200, "seq", 5.0)
    near_zero = constraint_values(spec, exact_measure(spec.objective), [1e-6])[0]
    assert bench._unsmoothed_beta(spec) >= near_zero


def test_emit_curve_file(tmp_path):
    path = tmp_path / "curve.csv"
    gammas = (1.0, 2.0)
    assert main(["curve", "--objective", "linear", "--gamma", "1,2", "--umax", "8",
                 "--q", str(Q), "--d", str(D), "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CURVE_COLUMNS)
    assert len(lines) == 1 + len(gammas)
    got = [float(x) for x in lines[1].split(",")]
    assert got[0] == 1.0 and got[1] == 1.0


def test_emit_gs_curve_file(tmp_path):
    path, out = tmp_path / "gs.csv", tmp_path / "run.json"
    assert main(["run", "--objective", "linear", "--n", "4", "--m", "12", "--b", "3",
                 "--gs-out", str(path), "--out", str(out)]) == 0
    inst = instance_from_dict(json.loads(out.read_text())["instance"])
    s = BudgetSmoother(make_objective("linear"), 1.0, inst.b, inst.theta, inst.Theta,
                       inst.rho1, "sim")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "u,gs_prime"
    assert len(lines) == 1 + 400  # run traces gs' at 400 points
    u5, v5 = (float(x) for x in lines[5].split(","))
    assert v5 == pytest.approx(float(gs_prime(s, u5)), abs=1e-12)


# ------------------------------------------------------------- design cache

def test_cached_design_returns_same_object():
    obj = make_objective("aopt")
    a = cached_design(DesignSpec(obj, 1.0, 8.0, Q, D, "sim", 0.0))
    b = cached_design(DesignSpec(obj, 1.0, 8.0, Q, D, "sim", 0.0))
    assert a is b


# ---------------------------------------------------------------- benchmark harness

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (ROOT / "perfbench" / "run.py").exists(),
                    reason="no perfbench/ in this checkout")
def test_perfbench_tracer_finds_every_bind_point():
    # perfbench --trace 1 rebinds package names by getattr; a name that src/
    # no longer binds (such as online.grad_hs) would break it only there
    probe = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
             "t = run.Tracer(); run.install(t); t.restore()")
    proc = subprocess.run([sys.executable, "-B", "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
