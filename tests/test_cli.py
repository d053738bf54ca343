import json
import math

import numpy as np
import pytest

from psdalloc.bench import _unsmoothed_beta, gen_adversarial
from psdalloc.budget import BudgetSmoother, b_prime
from psdalloc.cli import main
from psdalloc.designer import DesignSpec, cr_bound
from psdalloc.objectives import make_objective
from psdalloc.oracle import instance_from_dict


@pytest.mark.parametrize("gamma,beta", [(1.0, 50.9004752531962),
                                        (2.0, 101.81500400009259)],
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
    assert 1.0 / bound - gamma / (math.e - 1.0) == pytest.approx(beta, rel=1e-6)
    assert bound < 0.1 * cr_bound(gamma, gamma + 1.0)


def test_run_sim_reports_gamma_plus_one_bound(tmp_path):
    out = tmp_path / "run.json"
    assert main(["run", "--variant", "sim", "--gamma", "2", "--n", "5",
                 "--m", "50", "--b", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["bound"] == cr_bound(2.0, 3.0)
    assert report["umax_breached"] is False  # the gamma + 1 bound has no u_max gate


def test_design_reports_lp_gap(tmp_path, capsys):
    out = tmp_path / "design.json"
    assert main(["design", "--objective", "aopt", "--gamma", "1.5", "--umax", "8",
                 "--q", "40", "--d", "60", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["beta_lb"] <= record["beta"] <= record["beta_lb"] + 1e-6
    line = capsys.readouterr().err
    assert "beta_lb = %.9g" % record["beta_lb"] in line
    assert "gap = %.3g" % (record["beta"] - record["beta_lb"]) in line
    assert record["cuts"] > 0 and record["atoms"] > 0
    assert ("lp_solves = %d  cuts = %d  atoms = %d"
            % (record["iterations"], record["cuts"], record["atoms"])) in line


def test_audit_replays_a_recorded_run(tmp_path, capsys):
    trace = tmp_path / "run.json"
    assert main(["run", "--objective", "dopt", "--variant", "sim", "--n", "4",
                 "--m", "12", "--b", "3", "--out", str(trace)]) == 0
    report = tmp_path / "audit.json"
    assert main(["audit", "--trace", str(trace), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["passed"] is True
    assert "audit PASS" in capsys.readouterr().err


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
def test_run_refuses_a_design_for_another_run(tmp_path, design, names):
    # a sim gamma=2 design would label this seq gamma=1 run with bound 0.369;
    # the bound certified for it is 0.0194
    path = _design(tmp_path, *design)
    with pytest.raises(SystemExit) as exc:
        main(RUN_SEQ + ["--measure", str(path), "--out", str(tmp_path / "run.json")])
    assert "--measure" in str(exc.value.code) and names in str(exc.value.code)
    assert not (tmp_path / "run.json").exists()


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
    U = np.tensordot(np.asarray(payload["decisions"]), inst.As, axes=1)
    assert float(np.linalg.eigvalsh(U)[-1]) > design["u_max"] + 1e-12
    assert report["umax_breached"] is True


@pytest.mark.parametrize("argv,name", [
    (["design", "--objective", "dopt", "--gamma", "2", "--umax", "inf"], "u_max"),
    (["run", "--n", "0"], "n"),
    (["design", "--objective", "aopt", "--p", "3", "--gamma", "2", "--umax", "5"], "p"),
], ids=["umax-inf", "n-zero", "aopt-p"])
def test_bad_input_exits_2_with_one_line(capsys, argv, name):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("psdalloc: error: ") and err.count("\n") == 1
    assert " %s " % name in err
    assert "Traceback" not in err


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
