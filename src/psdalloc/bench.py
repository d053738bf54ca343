"""Instance generators and the one experiment path of `psdalloc run`, `bench` and `curve`.

make_instance builds an instance from generator flags.  group_spec gives an
(objective, gamma, variant) group of instances its budget smoothers and the
one DesignSpec that serves them all.  _p_star is the P* of run, bench and
audit.  run_one streams and audits one run, and write_csv writes every CSV the
package emits, with 12 significant digits.
"""

import math
import os
import sys
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .budget import BudgetSmoother, b_prime
from .designer import DesignSpec, beta_for_measure, cr_bound, design_hs
from .lowner import SmoothedObjective, exact_measure
from .objectives import PARAMS, _key, make_objective, param
from .online import Arrival, run_stream
from .oracle import OFFLINE_TOL, Instance, audit_trace, offline_continuous_opt

# the eleven report columns fixed by the interface contract, then discriminators
CSV_COLUMNS = ["objective", "gamma", "repeat", "budget_used", "b_prime",
               "primal_H", "p_star", "ratio", "bound", "umax_breached",
               "audit_pass", "variant", "arm"]
CURVE_COLUMNS = ["gamma", "beta", "bound_smoothed", "bound_unsmoothed"]
# gen_random refuses a density at which a draw keeps an entry with a smaller chance
RANDOM_MIN_KEEP = 1e-4


def gen_adversarial(n, m, seed, b=None):
    """Hypercube-corner stream with decaying traces: tr(A_t) = m - t + 1, c_t = 1.

    Density bounds come out pinned at theta = 1, Theta = m, which is the
    worst-case spread the stopping budget is calibrated against.
    """
    n, m, seed = (param(k, v) for k, v in (("n", n), ("m", m), ("seed", seed)))
    b = m / 5 if b is None else param("b", b)
    rng = np.random.default_rng(seed)
    arrivals = []
    for t in range(1, m + 1):
        eta = rng.integers(0, 2, size=n) * 2.0 - 1.0
        a = np.sqrt((m - t + 1) / n) * eta
        arrivals.append(Arrival(a[:, None], 1.0))
    return Instance(arrivals, b)


def gen_random(n, m, density=PARAMS["density"].default, seed=PARAMS["seed"].default, b=None):
    """Rank-one Gaussian arrivals with uniform costs in [0.5, 1.5].

    density in (0, 1] sparsifies the directions entrywise (resampled if a
    direction comes out all-zero).  A density at which a draw keeps no entry
    of the n with chance above 1 - RANDOM_MIN_KEEP is refused, since its
    arrivals would take more than 1/RANDOM_MIN_KEEP draws each on average.
    """
    n, m, seed = (param(k, v) for k, v in (("n", n), ("m", m), ("seed", seed)))
    density = param("density", density)
    b = m / 5 if b is None else param("b", b)
    keep = -math.expm1(n * math.log1p(-density)) if density < 1.0 else 1.0  # 1 - (1 - d)^n
    if keep < RANDOM_MIN_KEEP:
        raise ValueError("--density %r keeps an entry of an n = %d direction with chance "
                         "%.3g per draw, below %g" % (density, n, keep, RANDOM_MIN_KEEP))
    rng = np.random.default_rng(seed)
    arrivals = []
    for _ in range(m):
        while True:
            g = rng.normal(size=n)
            mask = rng.random(n) < density
            a = g * mask
            if np.any(a != 0.0):
                break
        c = float(rng.uniform(0.5, 1.5))
        arrivals.append(Arrival(a[:, None], c))
    return Instance(arrivals, b)


def param_list(key, v):
    """A value or a nonempty list of distinct values, each through param(key), as a tuple."""
    vs = tuple(param(key, x) for x in (v if type(v) in (list, tuple) else [v]))
    if not vs or len(set(vs)) < len(vs):
        raise ValueError("%s takes one or more values, each once, got %s"
                         % (PARAMS[key].flag, ",".join(map(str, vs)) or "none"))
    return vs


def list_of_instances(v):
    if not (type(v) in (list, tuple) and v and all(isinstance(i, Instance) for i in v)):
        raise TypeError
    return list(v)


@dataclass
class ExperimentConfig:
    objective: str = "dopt"
    n: int = PARAMS["n"].default
    m: int = PARAMS["m"].default
    b: float = PARAMS["b"].default     # None is m/5
    gammas: tuple = (PARAMS["gamma"].default,)
    repeats: int = PARAMS["repeats"].default
    seed: int = PARAMS["seed"].default
    variants: tuple = (PARAMS["variant"].default,)
    generator: str = PARAMS["generator"].default
    density: float = PARAMS["density"].default
    q: int = PARAMS["q"].default
    d: int = PARAMS["d"].default
    umax_override: float = None    # None: group_spec derives u_max from the instances
    unsmoothed_arm: bool = True
    out: str = None            # CSV path; no file written when None
    instances: list = None     # explicit instances override the generator

    def __post_init__(self):
        param("repeats", self.repeats)

    @classmethod
    def from_dict(cls, d):
        """A config from a JSON object, each key read through its cast (by _key, which names
        the key of a value refused); a null value is the default."""
        casts = {"objective": str, "unsmoothed_arm": bool, "out": str,
                 "instances": list_of_instances, "umax_override": "u_max",
                 "gammas": partial(param_list, "gamma"), "variants": partial(param_list, "variant")}
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        return cls(**{k: _key(d, "config", k, cast=casts.get(k)) for k in d if d[k] is not None})


@dataclass
class RunReport:
    objective: str
    gamma: float
    repeat: int
    budget_used: float
    b_prime: float
    primal_H: float
    p_star: float
    ratio: float
    bound: float
    umax_breached: bool
    audit_pass: bool
    variant: str
    arm: str
    beta: float
    d_value: float


_design_cache = {}


def cached_design(spec):
    if spec not in _design_cache:
        _design_cache[spec] = design_hs(spec)
    return _design_cache[spec]


def make_instance(generator=PARAMS["generator"].default, n=PARAMS["n"].default,
                  m=PARAMS["m"].default, seed=PARAMS["seed"].default, b=None,
                  density=PARAMS["density"].default):
    """One instance from the named generator; both default b to m/5."""
    if param("generator", generator) == "random":
        return gen_random(n, m, density, seed, b)
    if density != 1.0:
        raise ValueError("--density %r: the adversarial generator takes no density" % (density,))
    return gen_adversarial(n, m, seed, b)


def group_spec(obj, gamma, variant, instances, q=PARAMS["q"].default, d=PARAMS["d"].default,
               u_max=None):
    """(smoothers, DesignSpec): one budget smoother per instance, one design for all.

    The design covers the largest u_max the instances induce,
    b' * max_t lambda_max(A_t)/c_t, unless u_max is given, and under seq it
    pays the largest rho2.
    """
    smoothers = [BudgetSmoother(obj, gamma, inst.b, inst.theta, inst.Theta, inst.rho1,
                                variant) for inst in instances]
    if u_max is None:
        ranges = [b_prime(s) * inst.max_lam_over_c for s, inst in zip(smoothers, instances)]
        for s, r in zip(smoothers, ranges):
            if not r < np.inf:
                raise ValueError("--gamma %r, theta %r and budget --b %r give an infinite design"
                                 " range b' max_t lambda_max(A_t)/c_t" % (s.gamma, s.theta, s.b))
        u_max = max(ranges)
    rho2 = max(inst.rho2 for inst in instances) if variant == "seq" else 0.0
    return smoothers, DesignSpec(obj, gamma, u_max, q, d, variant, rho2)


def _unsmoothed_beta(spec):
    """Certified beta of the raw h used as its own surrogate (exactly gamma for linear)."""
    if spec.variant == "sim" and spec.objective.kind == "dopt":
        # sup over all u >= 0 of the raw-ratio is gamma + 1, valid unconditionally
        return spec.gamma + 1.0
    return beta_for_measure(spec, exact_measure(spec.objective))


def _p_star(inst, obj, where=""):
    """The offline optimum's value; one stderr line, ending in `where`, if its gap stays open."""
    opt = offline_continuous_opt(inst, obj)
    if opt.upper - opt.value > OFFLINE_TOL * opt.value:
        print("P* solve stopped after %d iterations with its gap open: %.9g <= P* <= %.9g%s"
              % (opt.iterations, opt.value, opt.upper, where), file=sys.stderr)
    return opt.value


def run_one(inst, surrogate, smoother, beta, u_max, arm, p_star=None, repeat=0):
    """Stream one surrogate over one instance, audit the run; (RunReport, trace).

    The spend, H(U) and lambda_max(U) are the audit's, from its replay of
    the decisions.  The audit solves for P* when p_star is None.  A run
    breaches its design when lambda_max(U) passes u_max, except on the
    unsmoothed sim arm, whose gamma+1 / gamma certificate has no u_max gate.
    """
    variant = smoother.variant
    trace = run_stream(surrogate, smoother, inst.arrivals, variant, inst.n)
    audit = audit_trace(trace, inst, p_star=p_star)
    gated = not (arm == "unsmoothed" and variant == "sim")
    report = RunReport(
        objective=surrogate.base.label, gamma=smoother.gamma, repeat=repeat,
        budget_used=audit.budget_used, b_prime=audit.b_prime, primal_H=audit.primal_H,
        p_star=audit.p_star, ratio=audit.primal_H / audit.p_star if audit.p_star > 0 else np.nan,
        bound=cr_bound(smoother.gamma, beta),
        umax_breached=gated and audit.lambda_max > u_max + 1e-12,
        audit_pass=audit.passed, variant=variant, arm=arm, beta=beta,
        d_value=audit.d_value)
    return report, trace


def run_experiment(cfg):
    """Full pipeline: generate, smooth, design, run, audit, report.

    Each (gamma, variant) group gets one design from group_spec; each
    instance keeps its own budget smoother.  PSD-DR objectives also get an
    unsmoothed arm.
    """
    obj = make_objective(cfg.objective)
    if cfg.instances is not None:
        instances = list(cfg.instances)
    else:
        instances = [make_instance(cfg.generator, cfg.n, cfg.m, cfg.seed + r, cfg.b,
                                   cfg.density) for r in range(cfg.repeats)]
    p_stars = [_p_star(inst, obj, " (repeat %d%s)" % (r, "" if cfg.instances is not None
                                                    else ", seed %d" % (cfg.seed + r)))
               for r, inst in enumerate(instances)]
    em = exact_measure(obj)
    reports = []
    for gamma in cfg.gammas:
        for variant in cfg.variants:
            smoothers, spec = group_spec(obj, gamma, variant, instances, cfg.q, cfg.d,
                                         cfg.umax_override)
            dres = cached_design(spec)
            arms = [("smoothed", dres.smoothed(), dres.beta)]
            if em is not None and cfg.unsmoothed_arm:
                arms.append(("unsmoothed", SmoothedObjective(em, obj), _unsmoothed_beta(spec)))
            for r, (inst, smoother) in enumerate(zip(instances, smoothers)):
                for arm, surrogate, beta in arms:
                    reports.append(run_one(inst, surrogate, smoother, beta, spec.u_max,
                                           arm, p_stars[r], r)[0])
    if cfg.out:
        write_csv(cfg.out, CSV_COLUMNS,
                  ([getattr(rep, col) for col in CSV_COLUMNS] for rep in reports))
    return reports


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % v
    return str(v)


def write_csv(path, columns, rows):
    """Write the header, then one line per row of values; 12 significant digits."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def curve_rows(objective, gammas, u_max, q=PARAMS["q"].default, d=PARAMS["d"].default,
               variant=PARAMS["variant"].default, rho2=PARAMS["rho2"].default):
    """Per-gamma designed beta and the smoothed/unsmoothed ratio bounds of an objective label."""
    obj = make_objective(objective)
    rows = []
    for gamma in param_list("gamma", gammas):
        spec = DesignSpec(obj, gamma, u_max, q, d, variant, rho2)
        dres = cached_design(spec)
        bound_s = cr_bound(gamma, dres.beta)
        if exact_measure(obj) is not None:
            bound_u = cr_bound(gamma, _unsmoothed_beta(spec))
        else:
            bound_u = np.nan
        rows.append({"gamma": gamma, "beta": dres.beta,
                     "bound_smoothed": bound_s, "bound_unsmoothed": bound_u})
    return rows
