import contextlib
import io
import json
import math
import os
import re
import tempfile
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdalloc import bench, cli, designer, oracle
from psdalloc.bench import ExperimentConfig, _unsmoothed_beta, gen_adversarial, make_instance
from psdalloc.budget import BudgetSmoother, b_prime
from psdalloc.cli import _check_design, build_parser, main
from psdalloc.designer import DesignSpec, cr_bound
from psdalloc.objectives import make_objective
from psdalloc.oracle import instance_from_dict, offline_continuous_opt


# the ratio of the exact measure climbs to gamma (1 + rho2) = 51 gamma as u -> 0,
# and the certification grid's tail reaches u = 1e-8
@pytest.mark.parametrize("gamma,beta", [(1.0, 50.9999997306305),
                                        (2.0, 101.99999949943357)],
                         ids=["gamma1", "gamma2"])
def test_run_seq_reports_certified_bound(tmp_path, gamma, beta):
    out = tmp_path / "run.json"
    assert main(["run", "--variant", "seq", "--gamma", str(gamma), "--n", "5",
                 "--m", "50", "--b", "10", "--seed", "0", "--out", str(out)]) == 0
    bound = json.loads(out.read_text())["report"]["bound"]
    # the bound bench certifies for the exact dopt measure under seq
    obj = make_objective("dopt")
    inst = gen_adversarial(5, 50, 0, 10.0)
    smoother = BudgetSmoother(obj, gamma, inst.b, inst.theta, inst.Theta,
                              inst.rho1, "seq")
    spec = DesignSpec(obj, gamma, b_prime(smoother) * inst.max_lam_over_c,
                      100, 200, "seq", inst.rho2)
    assert bound == cr_bound(gamma, _unsmoothed_beta(spec))
    # the rho2 term dominates: far below the sim bound for beta = gamma + 1
    assert 1.0 / bound - gamma / (math.e - 1.0) == pytest.approx(beta, rel=1e-6, abs=0.0)
    assert bound < 0.1 * cr_bound(gamma, gamma + 1.0)


def test_run_sim_reports_gamma_plus_one_bound(tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--variant", "sim", "--gamma", "2", "--n", "5",
                 "--m", "50", "--b", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["bound"] == cr_bound(2.0, 3.0)
    assert report["umax_breached"] is False  # the gamma + 1 bound has no u_max gate


def test_run_at_a_tiny_budget_reports_a_certified_p_star(tmp_path):
    # with f near 1e-9 a stop on an absolute gap ends at the starting point,
    # which reports P* = 3e-9 and a ratio of 3.77
    out = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--m", "5", "--b", "1e-9", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["p_star"] == pytest.approx(5e-9, rel=1e-7, abs=0.0)
    assert report["ratio"] == pytest.approx(report["budget_used"] / 1e-9, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("b", ["1e-20", "1e-300"])
def test_run_far_below_the_costs_reports_p_star_at_the_best_density(tmp_path, capsys, b):
    # h is linear at such a b, so P* is b times the best tr(A_t)/c_t, which is m = 8 on
    # the adversarial stream.  A knapsack room of b - cumsum(c) + c rounds to 0 there,
    # and the solve stopped at its start, P* = 4.5e-20, reported as certified
    out = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--m", "8", "--b", b, "--out", str(out)]) == 0
    assert " P* = %g " % (8.0 * float(b)) in capsys.readouterr().err
    p_star = json.loads(out.read_text())["report"]["p_star"]
    assert p_star == pytest.approx(8.0 * float(b), rel=1e-7, abs=0.0)


def test_run_at_a_budget_below_the_rounding_of_the_spend_passes_its_audit(tmp_path, capsys):
    # the projection read the last knot for the segment's left end at b = 1e-14, and
    # P* came from an x that spent 1e15 b: P* = 45.6, ratio 1.9e-14 and a failed audit
    out = tmp_path / "run.json"
    assert main(["run", "--generator", "random", "--n", "20", "--m", "200", "--seed", "3",
                 "--b", "1e-14", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    inst = make_instance("random", 20, 200, 3, 1e-14)
    opt = offline_continuous_opt(inst, make_objective("dopt"))
    assert report["audit_pass"] is True and report["p_star"] == opt.value <= opt.upper
    assert float(inst.costs @ opt.x) <= 1e-14 * (1.0 + 1e-12)
    assert "audit = True" in capsys.readouterr().err


@pytest.mark.parametrize("gap", [0.0, 1e-3])
def test_run_and_audit_say_when_the_offline_gap_stayed_open(tmp_path, monkeypatch, capsys,
                                                           gap):
    trace = tmp_path / "run.json"
    solve = oracle.offline_continuous_opt

    def stopped(inst, obj):
        res = solve(inst, obj)
        return replace(res, value=res.upper / (1.0 + gap))

    monkeypatch.setattr(bench, "offline_continuous_opt", stopped)
    assert main(["run", "--n", "4", "--m", "12", "--b", "3", "--out", str(trace)]) == 0
    assert main(["audit", "--trace", str(trace), "--out", str(tmp_path / "audit.json")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "gap open" in line]
    assert len(lines) == (2 if gap else 0)
    for line in lines:
        assert line.startswith("P* solve stopped after ") and "<= P* <=" in line


def test_bench_says_when_the_offline_gap_stayed_open(tmp_path, capsys):
    # far below the rounding of v the P* solve stops uncertified after one iteration
    # (ROADMAP item 20); bench, which once printed its ratio 2.58 from that P* with no
    # word, says so as run and audit do: once, for the one instance both arms share
    out = tmp_path / "bench.csv"
    assert main(["bench", "--objective", "dopt", "--generator", "random", "--n", "20",
                 "--m", "200", "--seed", "5", "--b", "1e-50", "--gamma", "2",
                 "--variant", "sim", "--out", str(out)]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "gap open" in line]
    assert len(lines) == 1 and lines[0].startswith("P* solve stopped after 1 iterations ")
    inst = make_instance("random", 20, 200, 5, 1e-50)
    opt = offline_continuous_opt(inst, make_objective("dopt"))
    assert "<= P* <= %.9g" % opt.upper in lines[0]
    rows = out.read_text().splitlines()
    assert len(rows) == 3 and all(",%.12g," % opt.value in row for row in rows[1:])


def test_bench_names_the_instance_whose_offline_gap_stayed_open(tmp_path, capsys):
    # repeat 1 of seed 4 is seed 5's instance, whose P* solve stops with its gap open:
    # the one line names that repeat and seed, so a reader can tell which rows it is about
    assert main(["bench", "--objective", "dopt", "--generator", "random", "--n", "20",
                 "--m", "200", "--seed", "4", "--repeats", "2", "--b", "1e-50", "--gamma", "2",
                 "--variant", "sim", "--out", str(tmp_path / "bench.csv")]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "gap open" in line]
    assert len(lines) == 1 and lines[0].endswith(" (repeat 1, seed 5)")


def test_design_reports_lp_gap(tmp_path, capsys):
    out = tmp_path / "design.json"
    assert main(["design", "--objective", "aopt", "--gamma", "1.5", "--umax", "8",
                 "--q", "40", "--d", "60", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["beta_lb"] <= record["beta"] <= record["beta_lb"] + 1e-6
    line = capsys.readouterr().err
    assert "beta_lb = %.9g" % record["beta_lb"] in line
    assert "gap = %.3g" % (record["beta"] - record["beta_lb"]) in line
    # the record lists the measure's support only, so its atoms are its nodes
    atoms = len(record["nodes"])
    assert record["cuts"] > 0 and 0 < atoms < 40 and 0.0 not in record["weights"]
    assert ("lp_solves = %d  cuts = %d  atoms = %d"
            % (record["iterations"], record["cuts"], atoms)) in line


@pytest.mark.parametrize("cap", [None, 2], ids=["default", "capped"])
def test_design_says_when_the_solve_cap_ended_it(cap, tmp_path, monkeypatch, capsys):
    # stdout and the record stay as they are; only stderr gains the line
    if cap is not None:
        monkeypatch.setattr(designer, "DESIGN_MAX_SOLVES", cap)
    out = tmp_path / "design.json"
    assert main(["design", "--objective", "dopt", "--gamma", "2", "--umax", "100",
                 "--q", "40", "--d", "60", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    captured = capsys.readouterr()
    err = captured.err
    assert captured.out == "" and len(err.splitlines()) == (1 if cap is None else 2)
    if cap is None:
        assert record["iterations"] < designer.DESIGN_MAX_SOLVES and "cap" not in err
    else:
        assert record["iterations"] == 2 and record["beta"] - record["beta_lb"] > 1e-6
        assert "stopped at its cap of 2 LP solves with the gap still open" in err.splitlines()[1]


def test_audit_replays_a_recorded_run(tmp_path, capsys):
    trace = tmp_path / "run.json"
    assert main(["run", "--objective", "dopt", "--variant", "sim", "--n", "4",
                 "--m", "12", "--b", "3", "--out", str(trace)]) == 0
    report = tmp_path / "audit.json"
    assert main(["audit", "--trace", str(trace), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["passed"] is True
    assert "audit PASS" in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as after `| head -c 5`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["audit", "--trace", "{trace}"],
                                  ["run", "--n", "3", "--m", "6", "--b", "1"]],
                         ids=["audit", "run"])
def test_a_closed_stdout_exits_as_sigpipe_with_no_error_line(tmp_path, monkeypatch, capsys,
                                                             argv):
    trace = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--m", "8", "--b", "2", "--out", str(trace)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    # 141 = 128 + SIGPIPE; 1 would read as `audit FAIL` and 2 as a bad input
    assert main([a.format(trace=trace) for a in argv]) == 141
    assert "error" not in capsys.readouterr().err


def test_audit_reads_a_run_file_in_the_old_measure_layout(tmp_path, capsys):
    trace = tmp_path / "run.json"
    assert main(["run", "--objective", "dopt", "--variant", "seq", "--n", "4",
                 "--m", "12", "--b", "3", "--out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    assert "objective" not in payload and "b" not in payload
    # older run files wrote the measure as nodes and weights only, the objective beside it
    payload["objective"] = payload["measure"].pop("objective")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    assert main(["audit", "--trace", str(old), "--out", str(tmp_path / "audit.json")]) == 0
    assert "audit PASS" in capsys.readouterr().err


def test_audit_reads_the_measure_objective_over_a_top_level_one(tmp_path, capsys):
    # a top-level objective stands in only for a measure without one; this one is no objective
    trace = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--m", "8", "--b", "2", "--out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    payload["objective"] = {"kind": "dopt", "p": 3}
    trace.write_text(json.dumps(payload))
    assert main(["audit", "--trace", str(trace), "--out", os.devnull]) == 0
    assert "audit PASS" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_audit_reads_a_run_file_with_dense_arrivals(tmp_path, capsys, variant):
    trace = tmp_path / "run.json"
    assert main(["run", "--generator", "random", "--variant", variant, "--n", "4",
                 "--m", "12", "--b", "3", "--out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    arrivals = payload["instance"]["arrivals"]
    # a run file stores each arrival's factor, never its dense matrix
    assert all(set(e) == {"L", "c"} for e in arrivals)
    # older run files wrote each arrival as its dense matrix "A"
    for e in arrivals:
        L = np.asarray(e.pop("L"))
        e["A"] = (L @ L.T).tolist()
    old = tmp_path / "old.json"
    old.write_text(json.dumps(payload))
    assert main(["audit", "--trace", str(old), "--out", str(tmp_path / "audit.json")]) == 0
    assert "audit PASS" in capsys.readouterr().err


def test_run_replays_an_instance_file_in_either_layout(tmp_path):
    first, again, dense = tmp_path / "run.json", tmp_path / "again.json", tmp_path / "dense.json"
    assert main(["run", "--generator", "random", "--n", "4", "--m", "12", "--b", "3",
                 "--out", str(first)]) == 0
    payload = json.loads(first.read_text())
    (tmp_path / "inst.json").write_text(json.dumps(payload["instance"]))
    assert main(["run", "--instance", str(tmp_path / "inst.json"), "--out", str(again)]) == 0
    assert json.loads(again.read_text()) == payload
    for e in payload["instance"]["arrivals"]:
        L = np.asarray(e.pop("L"))
        e["A"] = (L @ L.T).tolist()
    (tmp_path / "inst.json").write_text(json.dumps(payload["instance"]))
    assert main(["run", "--instance", str(tmp_path / "inst.json"), "--out", str(dense)]) == 0
    # a dense arrival is factored again, so its decisions agree to rounding
    np.testing.assert_allclose(json.loads(dense.read_text())["decisions"], payload["decisions"],
                               rtol=1e-9, atol=1e-12)


def test_run_files_are_compact_and_indented_ones_still_load(tmp_path):
    # the writer runs json's C encoder, with no indent; a file written with indent=2,
    # as earlier versions did, replays and audits the same
    first, again = tmp_path / "run.json", tmp_path / "again.json"
    assert main(["run", "--generator", "random", "--n", "4", "--m", "12", "--b", "3",
                 "--out", str(first)]) == 0
    text = first.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload) + "\n"
    (tmp_path / "inst.json").write_text(json.dumps(payload["instance"], indent=2))
    assert main(["run", "--instance", str(tmp_path / "inst.json"), "--out", str(again)]) == 0
    assert json.loads(again.read_text()) == payload
    (tmp_path / "indented.json").write_text(json.dumps(payload, indent=2))
    assert main(["audit", "--trace", str(tmp_path / "indented.json"),
                 "--out", str(tmp_path / "audit.json")]) == 0


@pytest.mark.parametrize("variant", ["seq", "sim"])
def test_run_boundary_layer_instance(tmp_path, capsys, variant):
    # theta = 16.56: the integrand of gs' has a boundary layer of width 1/theta
    out = tmp_path / "run.json"
    assert main(["run", "--generator", "random", "--n", "50", "--m", "500",
                 "--gamma", "2", "--variant", variant, "--out", str(out)]) == 0
    assert "audit = True" in capsys.readouterr().err
    assert json.loads(out.read_text())["report"]["audit_pass"] is True


# the instance has rho2 = 50: its first arrival has trace m = 50
RUN_SEQ = ["run", "--variant", "seq", "--gamma", "1", "--n", "5", "--m", "50",
           "--b", "10"]


def _design(tmp_path, variant, gamma, rho2=0.0):
    path = tmp_path / "design.json"
    assert main(["design", "--variant", variant, "--gamma", str(gamma),
                 "--rho2", str(rho2), "--umax", "10", "--q", "40", "--d", "60",
                 "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("design,names", [
    (("sim", 2.0), "--gamma"),
    (("sim", 1.0), "--variant"),
    (("seq", 1.0, 5.0), "rho2"),
], ids=["gamma", "variant", "rho2"])
def test_run_refuses_a_design_for_another_run(tmp_path, capsys, design, names):
    # a sim gamma=2 design would label this seq gamma=1 run with bound 0.369;
    # the bound certified for it is 0.0194
    path = _design(tmp_path, *design)
    capsys.readouterr()
    # a bad input, so exit 2: exit 1 is a failed audit
    assert main(RUN_SEQ + ["--measure", str(path), "--out", str(tmp_path / "run.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: --measure: ") and err.count("\n") == 1
    assert names in err
    assert not (tmp_path / "run.json").exists()


# the instance's rho2 is defined only to TOL_EIG = 1e-10 relative
@pytest.mark.parametrize("rel,refused", [(1e-9, True), (1e-11, False)])
def test_check_design_compares_rho2_at_tol_eig(rel, refused):
    inst = gen_adversarial(5, 50, 0, 10.0)
    obj = make_objective("dopt")
    spec = SimpleNamespace(objective=obj, gamma=1.0, variant="seq", rho2=inst.rho2 * (1.0 - rel))
    group = SimpleNamespace(objective=obj, gamma=1.0, variant="seq", rho2=inst.rho2)
    if not refused:
        assert _check_design(spec, group) is None
        return
    with pytest.raises(ValueError) as exc:
        _check_design(spec, group)
    # both values with every digit the comparison reads
    assert str(exc.value) == ("--measure: design rho2 %.17g < the instance's rho2 %.17g"
                              % (spec.rho2, inst.rho2))


def test_run_takes_its_objective_from_the_design(tmp_path, capsys):
    path = tmp_path / "design.json"
    assert main(["design", "--objective", "aopt", "--gamma", "2", "--umax", "10", "--q", "40",
                 "--d", "60", "--out", str(path)]) == 0
    run = ["run", "--measure", str(path), "--gamma", "2", "--n", "3", "--m", "8", "--b", "2"]
    out, again = tmp_path / "run.json", tmp_path / "again.json"
    capsys.readouterr()
    assert main(run + ["--objective", "dopt", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: --measure: ") and err.count("\n") == 1
    assert "--objective aopt" in err and "--objective dopt" in err
    assert not out.exists()
    assert main(run + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["measure"]["objective"] == {"kind": "aopt", "p": 1.0}
    # a given --objective that names the design's runs the same
    assert main(run + ["--objective", "aopt", "--out", str(again)]) == 0
    assert again.read_text() == out.read_text()


@pytest.mark.parametrize("argv", [RUN_SEQ + ["--measure", "edited.json"],
                                  ["audit", "--trace", "edited.json"]],
                         ids=["measure", "trace"])
def test_a_file_objective_with_p_other_than_one_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":
        path = _design(tmp_path, "seq", 1.0, 50.0)
    else:
        path = tmp_path / "run.json"
        assert main(["run", "--n", "3", "--m", "8", "--b", "2", "--out", str(path)]) == 0
    record = json.loads(path.read_text())
    # a design record holds its objective at the top, a run file in its measure
    (record if argv[0] == "run" else record["measure"])["objective"] = {"kind": "dopt", "p": 3}
    (tmp_path / "edited.json").write_text(json.dumps(record))
    capsys.readouterr()
    assert main(argv + ["--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert "got p = 3" in err and "Traceback" not in err


@pytest.mark.parametrize("label", ["pmean", "pmeanx", "foo"])
@pytest.mark.parametrize("argv", [
    ["design", "--gamma", "2", "--umax", "5"],
    ["run", "--n", "3", "--m", "5"],
    ["curve", "--gamma", "1,2", "--umax", "5", "--out", "curve.csv"],
    ["bench", "--n", "3", "--m", "5"],
], ids=["design", "run", "curve", "bench"])
def test_an_unreadable_objective_label_exits_2_naming_objective(tmp_path, monkeypatch, capsys,
                                                                argv, label):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--objective", label]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: --objective %r " % label) and err.count("\n") == 1
    assert not (tmp_path / "curve.csv").exists()


def test_run_with_a_matching_design_reports_its_u_max_breach(tmp_path):
    path = _design(tmp_path, "seq", 1.0, 50.0)
    out = tmp_path / "run.json"
    assert main(RUN_SEQ + ["--measure", str(path), "--out", str(out)]) == 0
    design, payload = json.loads(path.read_text()), json.loads(out.read_text())
    report = payload["report"]
    assert report["audit_pass"] is True
    assert report["bound"] == cr_bound(1.0, design["beta"])
    # the design certifies lambda_max(U) <= u_max = 10 only, and this run
    # goes past it, as bench gates it
    inst = instance_from_dict(payload["instance"])
    As = np.stack([a.L @ a.L.T for a in inst.arrivals])
    U = np.tensordot(np.asarray(payload["decisions"]), As, axes=1)
    assert float(np.linalg.eigvalsh(U)[-1]) > design["u_max"] + 1e-12
    assert report["umax_breached"] is True


# instance files, each with one fault
BAD_INSTANCES = {
    "no-b.json": {"arrivals": [{"L": [[1.0], [0.0]], "c": 1.0}]},
    "no-c.json": {"b": 1.0, "arrivals": [{"L": [[1.0], [0.0]]}]},
    "no-factor.json": {"b": 1.0, "arrivals": [{"L": [[1.0], [0.0]], "c": 1.0}, {"c": 1.0}]},
    "two-n.json": {"b": 1.0, "arrivals": [{"L": [[1.0], [0.0]], "c": 1.0},
                                          {"L": [[1.0], [0.0], [2.0]], "c": 1.0}]},
    "inf-b.json": {"b": math.inf, "arrivals": [{"L": [[1.0], [0.0]], "c": 1.0}]},
    "inf-c.json": {"b": 1.0, "arrivals": [{"L": [[1.0], [0.0]], "c": math.inf}]},
    "arrivals-5.json": {"b": 1.0, "arrivals": 5},
    "null-c.json": {"b": 1.0, "arrivals": [{"L": [[1.0], [0.0]], "c": None}]},
    "object-L.json": {"b": 1.0, "arrivals": [{"L": {}, "c": 1.0}]},
    # a bench config, not an instance
    "negative-seed.json": {"seed": -1, "n": 3, "m": 5},
}


@pytest.mark.parametrize("argv,name", [
    (["design", "--objective", "dopt", "--gamma", "2", "--umax", "inf"], "--umax"),
    (["run", "--n", "0"], "--n"),
    # aopt is pmean at p = 1 and has no other p, so no label names one
    (["design", "--objective", "aopt3", "--gamma", "2", "--umax", "5"], "--objective"),
    (["run", "--density", "7"], "--density"),
    (["bench", "--density", "0.5", "--n", "3", "--m", "5"], "--density"),
    (["run", "--generator", "random", "--density", "7"], "--density"),
    # no entry of a direction survives the mask at these densities: refused, not redrawn
    (["run", "--generator", "random", "--n", "3", "--m", "5", "--density", "1e-300"],
     "--density"),
    (["run", "--generator", "random", "--n", "3", "--m", "5", "--density", "5e-324"],
     "--density"),
    (["run", "--instance", "no-b.json"], "'b'"),
    (["run", "--instance", "no-c.json"], "'c'"),
    (["run", "--instance", "no-factor.json"], "'L'"),
    (["run", "--instance", "two-n.json"], "n"),
    (["run", "--instance", "no-b.json", "--seed", "3"], "--seed"),
    (["run", "--m", "0"], "--m"),
    # the budget penalty's quadrature and its check disagree at these budgets
    (["run", "--b", "1e20"], "--b"),
    (["bench", "--b", "1e300", "--n", "3", "--m", "5"], "--b"),
    # gamma = 1 is the floor; HiGHS drops cuts whose entries grow with u_max
    (["design", "--gamma", "1", "--umax", "1e30"], "--umax"),
    # under seq the cut entries grow with rho2 as well
    (["design", "--variant", "seq", "--rho2", "1e300", "--gamma", "2", "--umax", "10"],
     "--rho2"),
    # an infinite budget would divide by zero in b'
    (["run", "--b", "inf"], "--b"),
    (["bench", "--b", "inf", "--n", "3", "--m", "5"], "--b"),
    # gs' scale gamma theta / (B (e-1)) underflows to 0, which b' would divide by
    (["run", "--n", "3", "--m", "8", "--b", "1.7e308"], "--b"),
    # the scale is subnormal here; at gamma 4 it is normal, and b' u_max overflows
    (["run", "--n", "3", "--m", "8", "--b", "1e308"], "--b"),
    (["run", "--n", "3", "--m", "8", "--b", "1e308", "--gamma", "4"], "--b"),
    # and overflows to inf at a tiny budget
    (["run", "--n", "3", "--m", "8", "--b", "1e-310"], "--b"),
    # or at a huge gamma, which the message names with the budget
    (["run", "--gamma", "1e308", "--b", "0.1"], "--gamma"),
    (["run", "--instance", "inf-b.json"], "--b"),
    (["run", "--instance", "inf-c.json"], "c"),
    # a value of the wrong JSON type names its key
    (["run", "--instance", "arrivals-5.json"], "'arrivals'"),
    (["run", "--instance", "null-c.json"], "'c'"),
    (["run", "--instance", "object-L.json"], "'L'"),
    # numpy's own message for a negative seed names no parameter
    (["run", "--seed", "-1"], "--seed"),
    (["bench", "--config", "negative-seed.json"], "--seed"),
    (["design", "--gamma", "0.5", "--umax", "5"], "--gamma"),
    (["design", "--gamma", "2", "--umax", "5", "--q", "1"], "--q"),
    (["design", "--gamma", "2", "--umax", "5", "--variant", "seq"], "--rho2"),
    (["design", "--gamma", "2", "--umax", "5", "--variant", "seq", "--rho2", "nan"], "--rho2"),
    (["design", "--gamma", "2", "--umax", "5", "--variant", "foo"], "--variant"),
    (["bench", "--variant", "foo"], "--variant"),
    # a size past its cap, before anything is allocated
    (["run", "--n", "1000000000000"], "--n"),
    (["run", "--m", "1000000000000"], "--m"),
    (["design", "--gamma", "2", "--umax", "5", "--q", "100000000"], "--q"),
    (["bench", "--d", "100000000"], "--d"),
    (["bench", "--repeats", "100000000"], "--repeats"),
    # a repeated entry would run twice and write its CSV rows twice
    (["bench", "--n", "3", "--m", "5", "--variant", "sim,sim"], "--variant"),
    (["bench", "--n", "3", "--m", "5", "--gamma", "1,1"], "--gamma"),
    (["curve", "--gamma", "2,2", "--umax", "5", "--out", os.devnull], "--gamma"),
    # within --umax's range, which ends at the float range's, but q^2 u_max overflows there
    (["design", "--gamma", "2", "--umax", "1e308"], "--umax"),
    # where p u_max overflows: h_eval's extension h'(0) u belongs to u < 0 only
    (["design", "--objective", "pmean3", "--gamma", "2", "--umax", "8.9e307"], "--umax"),
    (["design", "--gamma", "1e308", "--umax", "10"], "--gamma"),
    (["design", "--gamma", "2", "--umax", "10", "--variant", "seq", "--rho2", "1e307"],
     "--rho2"),
    # the budget penalty's rate gamma/B overflows where its scale is still normal; b' once
    # looped on it without end
    (["run", "--n", "3", "--m", "8", "--b", "5e-309"], "--b"),
], ids=["umax-inf", "n-zero", "aopt-p", "adversarial-density", "bench-adversarial-density",
        "random-density", "random-density-1e-300", "random-density-5e-324", "instance-no-b",
        "arrival-no-c", "arrival-no-factor", "arrivals-of-two-n",
        "instance-with-a-generator-flag", "m-zero", "huge-b", "bench-huge-b",
        "design-lp-at-huge-umax", "seq-design-lp-at-huge-rho2", "infinite-b", "bench-infinite-b",
        "b-scale-underflow", "b-scale-subnormal", "b-umax-overflow", "b-scale-overflow",
        "gamma-scale-overflow",
        "instance-infinite-b", "arrival-infinite-c", "instance-arrivals-not-an-array",
        "arrival-null-c", "arrival-object-factor", "negative-seed", "bench-config-negative-seed",
        "gamma-below-1", "q-1", "seq-without-rho2", "seq-nan-rho2", "design-variant-foo",
        "bench-variant-foo", "n-past-cap", "m-past-cap", "q-past-cap", "bench-d-past-cap",
        "bench-repeats-past-cap", "bench-variant-twice", "bench-gamma-twice",
        "curve-gamma-twice", "umax-past-half-the-float-range", "pmean3-p-umax-overflows",
        "gamma-times-h-overflows",
        "rho2-columns-overflow", "b-rate-overflow"])
def test_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    for path, instance in BAD_INSTANCES.items():
        (tmp_path / path).write_text(json.dumps(instance))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert " %s " % name in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gamma", ["1e302", "1e304", "1e308"])
def test_run_at_a_huge_gamma_passes_its_audit(tmp_path, capsys, gamma):
    # b' = 4.3e-304 at gamma 1e304: the sim root lies where r gs' overflows, so
    # Phi'' is -inf there and Newton bisects; reading its zero step as a root
    # once bought 5 times b' and failed the audit
    out = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--m", "8", "--gamma", gamma, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["audit_pass"] and report["budget_used"] <= report["b_prime"] * (1.0 + 1e-12)


@pytest.mark.parametrize("gamma", ["1e304", "1e308"])
def test_seq_run_at_a_huge_gamma_certifies_beta_without_overflow(tmp_path, gamma):
    # the exact measure's seq beta is gamma times a ratio above 1, past the
    # float range at 1e308: it is inf and the bound 0, with no overflow
    # warning, which pytest's filter makes an error
    out = tmp_path / "run.json"
    assert main(["run", "--n", "3", "--m", "8", "--gamma", gamma, "--variant", "seq",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["audit_pass"]
    assert (report["bound"] == 0.0) == (gamma == "1e308") and report["bound"] >= 0.0


@pytest.mark.parametrize("key", ["nodes", "objective"])
def test_run_with_a_design_file_missing_a_key_exits_2(tmp_path, capsys, key):
    path = _design(tmp_path, "seq", 1.0, 50.0)
    record = json.loads(path.read_text())
    del record[key]
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(RUN_SEQ + ["--measure", str(path), "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert " %r " % key in err and "Traceback" not in err


@pytest.mark.parametrize("key,value", [("gamma", None), ("q", "x"), ("weights", {}),
                                       ("residual", "x"), ("q", 40.5), ("gamma", True),
                                       ("gamma", "1"), ("iterations", True)],
                         ids=["null-gamma", "string-q", "object-weights", "string-residual",
                              "fraction-q", "true-gamma", "string-gamma", "true-iterations"])
def test_run_with_a_design_file_of_a_wrong_type_exits_2(tmp_path, capsys, key, value):
    path = _design(tmp_path, "seq", 1.0, 50.0)
    record = json.loads(path.read_text())
    record[key] = value
    path.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(RUN_SEQ + ["--measure", str(path), "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert " %r " % key in err and "Traceback" not in err


def test_run_with_a_design_file_without_residual_or_flagged(tmp_path, capsys):
    # both are constants of the designer, so a record leaves them out, and its atom count
    path = _design(tmp_path, "seq", 1.0, 50.0)
    record = json.loads(path.read_text())
    assert not {"residual", "flagged", "atoms"} & record.keys()
    assert main(RUN_SEQ + ["--measure", str(path), "--out", os.devnull]) == 0
    assert "audit = True" in capsys.readouterr().err


# faults in a run file that `psdalloc run` wrote
RUN_FILE_EDITS = {
    "no-decisions": lambda r: r.pop("decisions"),
    "null-gamma": lambda r: r.update(gamma=None),
    "null-nodes": lambda r: r["measure"].update(nodes=None),
    "object-decisions": lambda r: r.update(decisions={}),
    "string-gamma": lambda r: r.update(gamma="1"),
    "true-gamma": lambda r: r.update(gamma=True),
    "bool-and-string-decisions": lambda r: r.update(decisions=[True, 0.46, "0"]
                                                    + r["decisions"][3:]),
    "string-factor": lambda r: r["instance"]["arrivals"][0]["L"][0].__setitem__(0, "1"),
}


@pytest.mark.parametrize("argv,payload,name", [
    (["audit", "--trace", "run.json"], "no-decisions", "'decisions'"),
    (["audit", "--trace", "run.json"], [1, 2], "--trace"),
    (["bench", "--config", "run.json"], [1, 2], "--config"),
    (["audit", "--trace", "run.json"], "null-gamma", "'gamma'"),
    # null is not a number, so float_array refuses it as the key's value
    (["audit", "--trace", "run.json"], "null-nodes", "'nodes'"),
    (["audit", "--trace", "run.json"], "object-decisions", "'decisions'"),
    # a JSON string or bool is not a number, though float() would read it as one
    (["audit", "--trace", "run.json"], "string-gamma", "'gamma'"),
    (["audit", "--trace", "run.json"], "true-gamma", "'gamma'"),
    # nor is an entry of an array, though numpy would convert both
    (["audit", "--trace", "run.json"], "bool-and-string-decisions", "'decisions'"),
    (["audit", "--trace", "run.json"], "string-factor", "'L'"),
], ids=["audit-no-decisions", "audit-array", "bench-config-array", "audit-null-gamma",
        "audit-null-nodes", "audit-object-decisions", "audit-string-gamma", "audit-true-gamma",
        "audit-bool-and-string-decisions", "audit-string-factor"])
def test_malformed_file_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, payload,
                                               name):
    monkeypatch.chdir(tmp_path)
    if isinstance(payload, str):
        assert main(["run", "--n", "3", "--m", "8", "--b", "2", "--out", "run.json"]) == 0
        record = json.loads((tmp_path / "run.json").read_text())
        RUN_FILE_EDITS[payload](record)
        payload = record
    (tmp_path / "run.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert " %s " % name in err and "Traceback" not in err


@pytest.mark.parametrize("argv,scale,b", [
    (["run", "--instance", "big.json"], 1e150, 1.0),
    # at larger factors the audit's P* solve fails before b'
    (["audit", "--trace", "big.json"], 1e4, 1e9),
], ids=["run-instance", "audit-trace"])
def test_a_file_instance_past_the_budget_penalty_exits_2_naming_the_file(
        tmp_path, monkeypatch, capsys, argv, scale, b):
    # b' raises QuadratureError on the file's instance, whose message once named --b, a
    # flag neither command was given: it names the file and the instance's b, theta and Theta
    err = _exit_2_on_scaled_file(tmp_path, monkeypatch, capsys, argv, scale, b)
    assert "budget penalty" in err and "--b" not in err


def test_a_file_instance_at_a_tiny_budget_past_the_budget_penalty_blames_no_value(
        tmp_path, monkeypatch, capsys):
    # factors 1e100 times run --n 3 --m 8's at b = 1e-100 fail b''s quadrature, which the
    # message once blamed on b, theta and Theta being too large, b among them
    err = _exit_2_on_scaled_file(tmp_path, monkeypatch, capsys, ["run", "--instance", "big.json"],
                                 1e100, 1e-100)
    assert "budget penalty's quadrature fails there" in err and "too large" not in err


@pytest.mark.parametrize("argv", [["run", "--instance", "big.json"],
                                  ["audit", "--trace", "big.json"]],
                         ids=["run-instance", "audit-trace"])
def test_a_file_instance_past_the_p_star_factorization_exits_2_naming_the_file(
        tmp_path, monkeypatch, capsys, argv):
    # at factors 1e8 times run --n 3 --m 8's, I + X rounds to a singular matrix in the
    # P* solve, which exited 2 with a bare "Singular matrix": the error names its cause
    # and scale, and main the file and its b, theta and Theta
    err = _exit_2_on_scaled_file(tmp_path, monkeypatch, capsys, argv, 1e8, 1.0)
    assert ": P* solve: I + X is singular in float64 at the aggregate's scale" in err


def _exit_2_on_scaled_file(tmp_path, monkeypatch, capsys, argv, scale, b):
    """argv's stderr line, exit 2, on run --n 3 --m 8's record with its factors scaled and
    budget b, written as big.json: its instance for run, the whole record for audit."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--n", "3", "--m", "8", "--b", "2", "--out", "run.json"]) == 0
    record = json.loads((tmp_path / "run.json").read_text())
    record["instance"]["b"] = b
    for arrival in record["instance"]["arrivals"]:
        arrival["L"] = (scale * np.array(arrival["L"])).tolist()
    (tmp_path / "big.json").write_text(json.dumps(record if argv[0] == "audit"
                                                  else record["instance"]))
    capsys.readouterr()
    assert main(argv + ["--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: %s big.json: b %.6g, theta " % (argv[1], b))
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv,word", [
    (["bench", "--generator", "foo"], "'foo'"),
    (["run", "--objective", "aopt", "--n", "3", "--m", "5"], "(--measure)"),
], ids=["unknown-generator", "aopt-without-measure"])
def test_refused_input_exits_2_with_one_line(capsys, argv, word):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert word in err and "Traceback" not in err


DESIGN_AT_1E15 = ["design", "--gamma", "1e15", "--umax", "10", "--q", "10", "--d", "10"]


def test_design_at_gamma_1e15(tmp_path, capsys):
    # the LP holds its cuts over gamma, so their entries stay far below 1e15
    out = tmp_path / "design.json"
    assert main(DESIGN_AT_1E15 + ["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert math.isfinite(record["beta"]) and record["beta_lb"] <= record["beta"]


def test_design_lp_failure_exits_2_naming_gamma(tmp_path, monkeypatch, capsys):
    # a cut with an entry past 1e15, which HiGHS drops, stands in for an LP it loses
    cuts = designer._cuts

    def huge(spec, u, v, lam):
        rows, rhs = cuts(spec, u, v, lam)
        return rows * 1e16, rhs

    monkeypatch.setattr(designer, "_cuts", huge)
    assert main(DESIGN_AT_1E15 + ["--out", str(tmp_path / "design.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: design LP failed (") and err.count("\n") == 1
    assert "--gamma" in err and "Traceback" not in err
    assert not (tmp_path / "design.json").exists()


def test_bench_flag_dests_are_config_fields():
    # cmd_bench copies each given flag onto the config key of the same name
    dests = set(vars(build_parser().parse_args(["bench"])))
    assert dests - {f.name for f in fields(ExperimentConfig)} <= {"command", "func", "config"}


CONFIG_KEYS = [f.name for f in fields(ExperimentConfig)]


# the keys read through objectives.param as numbers or whole numbers
NUMERIC_CONFIG_KEYS = ("n", "m", "b", "gammas", "repeats", "seed", "density", "q", "d",
                       "umax_override")


# null is a key's default; a value of the wrong JSON type is refused by its key, and any
# other value runs or is refused by the check that reads it
@pytest.mark.parametrize("value", [None, "x", [], {}, 5.5, -1, math.inf, True, "2"],
                         ids=["null", "string", "array", "object", "5.5", "-1", "infinity",
                              "true", "string-2"])
@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_bench_config_value_of_any_json_type_runs_or_exits_2(tmp_path, monkeypatch, capsys,
                                                             key, value):
    monkeypatch.chdir(tmp_path)
    config = {"n": 2, "m": 4, "q": 10, "d": 10, "out": "bench.csv", key: value}
    (tmp_path / "config.json").write_text(json.dumps(config))
    code = main(["bench", "--config", "config.json"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert re.fullmatch(r"(\d+) runs, \1 audits passed, csv: .*\n", err), err
    else:
        assert code == 2 and err.startswith("psdalloc: error: ") and err.count("\n") == 1
    if (isinstance(value, (list, dict)) or key == "instances" and value
            or key == "unsmoothed_arm" and type(value) is not bool and value):
        assert code == 2 and " %r " % key in err
    # neither a bool nor a numeric string passes for a number
    if key in NUMERIC_CONFIG_KEYS and type(value) in (bool, str):
        assert code == 2 and " %r " % key in err


def test_bench_flag_overrides_its_config_key(tmp_path, capsys):
    config, out = tmp_path / "config.json", tmp_path / "bench.csv"
    config.write_text(json.dumps({"objective": "dopt", "n": 3, "m": 8, "b": 2.0,
                                  "gammas": [1.0], "variants": ["sim"], "q": 40, "d": 60,
                                  "out": str(tmp_path / "unused.csv")}))
    assert main(["bench", "--config", str(config), "--gamma", "2", "--variant", "seq",
                 "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    assert len(rows) == 2  # one instance, smoothed and unsmoothed arms
    assert {row[header.index("gamma")] for row in rows} == {"2"}
    assert {row[header.index("variant")] for row in rows} == {"seq"}
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv", [["bench", "--config", "missing.json"],
                                  ["run", "--instance", "missing.json"]],
                         ids=["bench-config", "run-instance"])
def test_missing_input_file_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert "missing.json" in err and "Traceback" not in err


def test_audit_of_a_bad_trace_file_exits_2(tmp_path, capsys):
    trace = tmp_path / "run.json"
    trace.write_text("{not json")
    assert main(["audit", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("psdalloc: error: ")


def test_failed_audit_still_exits_1(tmp_path, capsys):
    trace = tmp_path / "run.json"
    assert main(["run", "--objective", "dopt", "--variant", "sim", "--n", "4",
                 "--m", "12", "--b", "3", "--out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    # buying everything spends past the budget, so the replay fails its checks
    payload["decisions"] = [1.0] * len(payload["decisions"])
    trace.write_text(json.dumps(payload))
    assert main(["audit", "--trace", str(trace), "--out", str(tmp_path / "a.json")]) == 1
    assert "audit FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--m", "20", "--gamma", "1e13"],
    ["--objective", "linear", "--n", "2", "--m", "15", "--generator", "random",
     "--gamma", "7.81377e7", "--seed", "5", "--b", "0.0463074"],
    ["--objective", "linear", "--n", "1", "--m", "8", "--generator", "random",
     "--gamma", "13.3403", "--seed", "96", "--b", "1.05845e-06"],
], ids=["gamma-1e13", "linear-gamma-7.8e7", "linear-b-1e-6"])
def test_run_with_a_tiny_root_passes_its_audit(capsys, argv):
    # tiny sim roots (b' from 1.4e-12 to 6.6e-7): the spend stays within b'
    # only if the root-find stops relative to x and bisects when Newton stalls
    assert main(["run"] + argv + ["--out", os.devnull]) == 0
    assert "audit = True" in capsys.readouterr().err


@st.composite
def run_argvs(draw):
    """A `run` invocation at small sizes, over the whole accepted range of b and gamma.

    Repeated entries weight the draws toward inputs that run: the exact
    measures of linear and dopt, and the default density.
    """
    return ["run", "--objective", draw(st.sampled_from(["dopt", "linear"] * 3 + [
                "aopt", "pmean1", "pmean0.5", "pmean2"])),
            "--variant", draw(st.sampled_from(["sim", "seq"])),
            "--generator", draw(st.sampled_from(["adversarial", "random"])),
            "--density", repr(draw(st.sampled_from([1.0] * 12 + [0.3, 0.0, 7.0, math.nan,
                                                            1e-300, 5e-324]))),
            "--n", str(draw(st.integers(1, 4))), "--m", str(draw(st.integers(1, 20))),
            "--b", repr(10.0 ** draw(st.floats(-9.0, 9.0))),
            "--gamma", repr(10.0 ** draw(st.floats(0.0, 15.0))),
            "--seed", str(draw(st.integers(0, 99))), "--out", os.devnull]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=run_argvs())
def test_every_accepted_run_passes_its_audit_or_names_a_flag(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert "audit = True" in err
    else:
        assert code == 2 and err.startswith("psdalloc: error: ") and err.count("\n") == 1
        assert re.search(r"--[a-z]", err), err


@st.composite
def bench_configs(draw):
    """An ExperimentConfig for `bench --config`: small sizes, q and d up to 40, any b and gamma.

    Weighted as run_argvs is; umax_override is mostly left to group_spec.
    """
    return {"objective": draw(st.sampled_from(["dopt", "linear"] * 3 + [
                "aopt", "pmean1", "pmean0.5", "pmean2"])),
            "variants": draw(st.sampled_from([["sim"], ["seq"], ["sim", "seq"]])),
            "generator": draw(st.sampled_from(["adversarial", "random"])),
            "density": draw(st.sampled_from([1.0] * 12 + [0.3, 0.0, 7.0, 1e-300, 5e-324])),
            "n": draw(st.integers(1, 4)), "m": draw(st.integers(1, 12)),
            "b": 10.0 ** draw(st.floats(-9.0, 9.0)),
            "gammas": [10.0 ** g for g in draw(st.lists(st.floats(0.0, 15.0), min_size=1,
                                                          max_size=2))],
            "repeats": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 99)),
            "q": draw(st.integers(2, 40)), "d": draw(st.integers(2, 40)),
            "umax_override": draw(st.sampled_from([None] * 4 + [1e-3, 10.0])),
            "out": os.devnull}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(config=bench_configs())
def test_every_accepted_bench_passes_its_audits_or_names_a_flag(config):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stderr(err):
            code = main(["bench", "--config", path])
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert re.fullmatch(r"(\d+) runs, \1 audits passed, csv: .*\n", err), err
    else:
        assert code == 2 and err.startswith("psdalloc: error: ") and err.count("\n") == 1
        assert re.search(r"--[a-z]", err), err
