"""Command line front end: design / run / bench / audit / curve."""

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields

import numpy as np

from . import designer
from .bench import (CURVE_COLUMNS, ExperimentConfig, _p_star, _unsmoothed_beta, curve_rows,
                    group_spec, make_instance, run_experiment, run_one, write_csv)
from .budget import BudgetSmoother, QuadratureError, gs_prime
from .designer import DesignSpec, cr_bound, design_hs, design_to_dict, design_from_dict
from .lowner import SmoothedObjective, exact_measure, smoothed_from_dict, smoothed_to_dict
from .objectives import PARAMS, TOL_EIG, _key, float_array, make_objective, number, whole
from .oracle import audit_run, instance_from_dict, instance_to_dict


def _write_json(obj, path):
    # json.dumps runs the C encoder; json.dump, with or without an indent, runs the Python one
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w") as fh:
        fh.write(json.dumps(obj) + "\n")


def _gammas(text):
    return tuple(float(g) for g in str(text).split(","))


def cmd_design(args):
    obj = make_objective(args.objective)
    spec = DesignSpec(obj, args.gamma, args.umax, args.q, args.d,
                      args.variant, args.rho2)
    result = design_hs(spec)
    _write_json(design_to_dict(result), args.out)
    print("beta = %.9g  beta_lb = %.9g  gap = %.3g  bound = %.9g"
          "  lp_solves = %d  cuts = %d  atoms = %d"
          % (result.beta, result.beta_lb, result.beta - result.beta_lb,
             cr_bound(args.gamma, result.beta), result.iterations, result.cuts, result.atoms),
          file=sys.stderr)
    if (result.iterations == designer.DESIGN_MAX_SOLVES
            and result.beta - result.beta_lb > designer.DESIGN_TOL * max(1.0, result.beta_lb)):
        print("design stopped at its cap of %d LP solves with the gap still open; beta is "
              "certified, beta_lb is the bound at the cap" % result.iterations, file=sys.stderr)
    return 0


def _load_instance(args):
    # run's flags for make_instance, in args only when given; --instance refuses them
    given = {k: v for k, v in vars(args).items()
             if k in ("generator", "n", "m", "b", "density", "seed")}
    if args.instance:
        if given:
            raise ValueError("--%s is a generator flag; --instance reads the instance from %s"
                             % (next(iter(given)), args.instance))
        with open(args.instance) as fh:
            args.from_file = ("--instance " + args.instance, instance_from_dict(json.load(fh)))
        return args.from_file[1]
    return make_instance(**given)


def _check_design(design, spec):
    """Refuse a --measure design certified for another run: spec is group_spec's for this one."""
    if (design.objective, design.gamma, design.variant) != (spec.objective, spec.gamma,
                                                           spec.variant):
        raise ValueError("--measure: the design is for %s, not %s" % tuple(
            "--objective %s --gamma %r --variant %s" % (s.objective.label, s.gamma, s.variant)
            for s in (design, spec)))
    # an older design file's rho2, from the dense A_t, may differ from the factors' by
    # TOL_EIG relative; the seq audit's rho_bound check still judges the run with inst.rho2
    if design.rho2 < spec.rho2 * (1.0 - TOL_EIG):
        raise ValueError("--measure: design rho2 %.17g < the instance's rho2 %.17g"
                         % (design.rho2, spec.rho2))


def cmd_run(args):
    inst = _load_instance(args)
    if args.measure:
        with open(args.measure) as fh:
            dres = design_from_dict(json.load(fh))
        obj = dres.spec.objective if args.objective is None else make_objective(args.objective)
        (smoother,), spec = group_spec(obj, args.gamma, args.variant, [inst],
                                       u_max=dres.spec.u_max)
        _check_design(dres.spec, spec)
        surrogate, beta, arm = dres.smoothed(), dres.beta, "smoothed"
    else:
        obj = make_objective("dopt" if args.objective is None else args.objective)
        em = exact_measure(obj)
        if em is None:
            raise ValueError("objective %s needs a designed measure (--measure)" % obj.label)
        # the beta bench certifies for the exact measure on a one-instance group
        (smoother,), spec = group_spec(obj, args.gamma, args.variant, [inst])
        surrogate, beta, arm = SmoothedObjective(em, obj), _unsmoothed_beta(spec), "unsmoothed"
    rep, trace = run_one(inst, surrogate, smoother, beta, spec.u_max, arm,
                         _p_star(inst, surrogate.base))
    payload = {
        "gamma": args.gamma,
        "variant": args.variant,
        "measure": smoothed_to_dict(surrogate),
        "instance": instance_to_dict(inst),
        "decisions": [float(x) for x in trace.decisions],
        "report": {k: getattr(rep, k) for k in (
            "budget_used", "b_prime", "primal_H", "p_star", "ratio", "bound",
            "audit_pass", "umax_breached")},
    }
    _write_json(payload, args.out)
    if args.gs_out:
        us = np.linspace(0.0, 1.2 * max(rep.b_prime, inst.b), 400)
        write_csv(args.gs_out, ["u", "gs_prime"], zip(us, gs_prime(smoother, us)))
    print("primal = %.6g  P* = %.6g  ratio = %.4g  budget = %.4g/%.4g  audit = %s"
          % (rep.primal_H, rep.p_star, rep.ratio, rep.budget_used, rep.b_prime,
             rep.audit_pass), file=sys.stderr)
    return 0 if rep.audit_pass else 1


def cmd_bench(args):
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError("--config %s is not a JSON object" % args.config)
    # every flag's dest is a config field, so a given flag overrides its key
    base.update({f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                 if getattr(args, f.name, None) is not None})
    cfg = ExperimentConfig.from_dict(base)
    reports = run_experiment(cfg)
    npass = sum(1 for r in reports if r.audit_pass)
    print("%d runs, %d audits passed, csv: %s" % (len(reports), npass, cfg.out),
          file=sys.stderr)
    return 0 if npass == len(reports) else 1


def cmd_audit(args):
    with open(args.trace) as fh:
        payload = json.load(fh)
    measure, instance, variant, gamma = (
        _key(payload, "--trace file", k) for k in ("measure", "instance", "variant", "gamma"))
    decisions = _key(payload, "--trace file", "decisions", cast=float_array)
    # an older run file keeps its objective beside the measure, not in it
    objective = (_key(payload, "--trace file", "objective")
                 if isinstance(measure, dict) and "objective" not in measure else None)
    surrogate = smoothed_from_dict(measure, objective)
    inst = instance_from_dict(instance)
    args.from_file = ("--trace " + args.trace, inst)
    smoother = BudgetSmoother(surrogate.base, gamma, inst.b, inst.theta,
                              inst.Theta, inst.rho1, variant)
    report = audit_run(decisions, inst, surrogate, smoother, variant,
                       _p_star(inst, surrogate.base))
    _write_json(report.to_dict(), args.out)
    print("audit %s" % ("PASS" if report.passed else "FAIL"), file=sys.stderr)
    return 0 if report.passed else 1


def cmd_curve(args):
    rows = curve_rows(args.objective, args.gamma, args.umax, args.q, args.d,
                      args.variant, args.rho2)
    write_csv(args.out, CURVE_COLUMNS, ([row[c] for c in CURVE_COLUMNS] for row in rows))
    for row in rows:
        print("gamma=%g beta=%.6g bound=%.6g" %
              (row["gamma"], row["beta"], row["bound_smoothed"]), file=sys.stderr)
    return 0


def _add(p, key, **kw):
    """p's flag for a PARAMS entry, read as a literal of its cast; param checks it downstream."""
    kw.setdefault("default", PARAMS[key].default)
    p.add_argument(PARAMS[key].flag, type={whole: int, number: float}.get(PARAMS[key].cast), **kw)


def _add_design_flags(p):
    p.add_argument("--objective", default="dopt", help="linear, dopt, aopt or pmean<p> (pmean2)")
    for key in ("q", "d", "variant", "rho2"):
        _add(p, key)
    _add(p, "u_max", required=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="psdalloc",
        description="Budgeted online PSD allocation: design smoothings, run "
                    "engines, benchmark, audit, and trace ratio bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design a smoothed gain measure")
    _add_design_flags(p)
    _add(p, "gamma", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("run", help="run one engine over one instance")
    p.add_argument("--objective", help="linear, dopt, aopt or pmean<p> (pmean2); default "
                   "the --measure design's objective, else dopt")
    p.add_argument("--measure", help="design JSON from the design subcommand, whose objective "
                   "the run takes; --objective, if given, --gamma and --variant must match it")
    p.add_argument("--instance", help="instance JSON, in place of the generator flags")
    for key in ("generator", "n", "m", "b", "density", "seed"):
        _add(p, key, default=argparse.SUPPRESS)
    _add(p, "gamma")
    _add(p, "variant")
    p.add_argument("--out", default="-")
    p.add_argument("--gs-out", dest="gs_out", help="CSV trace of gs_prime")
    p.set_defaults(func=cmd_run)

    # a given flag overrides its config key, and the config checks every value
    p = sub.add_parser("bench", help="run the full experiment pipeline")
    p.add_argument("--config", help="JSON config; flags override its keys")
    p.add_argument("--objective")
    for key in ("generator", "n", "m", "b", "repeats", "seed", "density", "q", "d"):
        _add(p, key, default=None)
    _add(p, "u_max", dest="umax_override", default=None)
    p.add_argument("--gamma", dest="gammas", type=_gammas, help="comma-separated gamma grid")
    p.add_argument("--variant", dest="variants", type=lambda text: tuple(text.split(",")),
                   help="comma-separated: sim,seq")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("audit", help="re-verify a recorded run")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("curve", help="bound-vs-gamma curve CSV")
    _add_design_flags(p)
    p.add_argument("--gamma", type=_gammas, required=True, help="comma-separated gamma grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv=None):
    """Run one subcommand; a bad input exits 2 with a one-line error, as argparse does."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not a bad input, so no error line; stdout goes
        # to devnull so the flush at exit stays quiet; 141 is 128 + SIGPIPE
        try:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):   # a stdout with no file descriptor
            pass
        return 141
    except (ValueError, OSError, QuadratureError) as exc:
        # every validation error, bad JSON, a missing file, and two limits of the numerics:
        # a QuadratureError where exp(-r v) drops inside the rule's interval at a huge b, a
        # LinAlgError where float64 cannot invert a matrix at the instance's scale.  A
        # file's instance, which args.from_file holds, has no --b: they name the file
        what, inst = getattr(args, "from_file", (None, None))
        if inst is not None:
            what = "%s: b %.6g, theta %.6g and Theta %.6g" % (what, inst.b, inst.theta, inst.Theta)
        if isinstance(exc, QuadratureError):
            exc = "%s for the budget penalty (%s)" % (
                "--b is too large" if inst is None else what + " are too large", exc)
        elif isinstance(exc, np.linalg.LinAlgError) and inst is not None:
            exc = "%s: %s" % (what, exc)
        print("psdalloc: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
