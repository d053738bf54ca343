"""Instance generators and the one experiment path of `psdalloc run`, `bench` and `curve`.

make_instance builds an instance from generator flags.  group_spec gives an
(objective, gamma, variant) group of instances its budget smoothers and the
one DesignSpec that serves them all.  run_one streams and audits one run, and
write_csv writes every CSV the package emits, with 12 significant digits.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .budget import BudgetSmoother, b_prime
from .designer import DesignSpec, beta_for_measure, cr_bound, design_hs
from .lowner import SmoothedObjective, exact_measure
from .objectives import _key, make_objective
from .online import Arrival, run_stream
from .oracle import Instance, audit_trace, offline_continuous_opt

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
    for name, value, least in (("n", n, 1), ("m", m, 1), ("--seed", seed, 0)):
        if not value >= least:
            raise ValueError("%s must be >= %d, got %r" % (name, least, value))
    rng = np.random.default_rng(seed)
    arrivals = []
    for t in range(1, m + 1):
        eta = rng.integers(0, 2, size=n) * 2.0 - 1.0
        a = np.sqrt((m - t + 1) / n) * eta
        arrivals.append(Arrival(a[:, None], 1.0))
    return Instance(arrivals, float(b) if b is not None else m / 5)


def gen_random(n, m, density=1.0, seed=0, b=None):
    """Rank-one Gaussian arrivals with uniform costs in [0.5, 1.5].

    density in (0, 1] sparsifies the directions entrywise (resampled if a
    direction comes out all-zero).  A density at which a draw keeps no entry
    of the n with chance above 1 - RANDOM_MIN_KEEP is refused, since its
    arrivals would take more than 1/RANDOM_MIN_KEEP draws each on average.
    """
    for name, value, least in (("n", n, 1), ("m", m, 1), ("--seed", seed, 0)):
        if not value >= least:
            raise ValueError("%s must be >= %d, got %r" % (name, least, value))
    if not 0.0 < density <= 1.0:
        raise ValueError("--density must be in (0, 1], got %r" % (density,))
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
    return Instance(arrivals, float(b) if b is not None else m / 5)


def whole_number(v):
    """v as an int where that loses nothing (3 or 3.0, not 3.5 or true): one of
    ExperimentConfig.from_dict's casts, as are the five below."""
    if type(v) is bool or int(v) != v:
        raise ValueError
    return int(v)


def boolean(v):
    if type(v) is not bool:
        raise TypeError
    return v


def string(v):
    if type(v) is not str:
        raise TypeError
    return v


def number_list(v):
    """A number or a nonempty list of numbers, as a tuple of floats."""
    vs = tuple(map(float, v if type(v) in (list, tuple) else [v]))
    if not vs:
        raise ValueError
    return vs


def variant_list(v):
    if not (type(v) in (list, tuple) and v and set(v) <= {"sim", "seq"}):
        raise ValueError
    return tuple(v)


def list_of_instances(v):
    if not (type(v) in (list, tuple) and v and all(isinstance(i, Instance) for i in v)):
        raise TypeError
    return list(v)


@dataclass
class ExperimentConfig:
    objective: str = "dopt"
    n: int = 5
    m: int = 50
    b: float = None            # defaults to m/5
    gammas: tuple = (1.0,)
    repeats: int = 1
    seed: int = 0
    variants: tuple = ("sim",)
    generator: str = "adversarial"
    density: float = 1.0
    q: int = 100
    d: int = 200
    umax_override: float = None
    unsmoothed_arm: bool = True
    out: str = None            # CSV path; no file written when None
    instances: list = None     # explicit instances override the generator

    def __post_init__(self):
        if not self.repeats >= 1:
            raise ValueError("repeats must be >= 1, got %r" % (self.repeats,))

    @classmethod
    def from_dict(cls, d):
        """A config from a JSON object, each key read through its cast, so a value of the
        wrong JSON type is a ValueError that names its key; a null value is the default."""
        casts = {"objective": string, "n": whole_number, "m": whole_number, "b": float,
                 "gammas": number_list, "repeats": whole_number, "seed": whole_number,
                 "variants": variant_list, "generator": string, "density": float,
                 "q": whole_number, "d": whole_number, "umax_override": float,
                 "unsmoothed_arm": boolean, "out": string, "instances": list_of_instances}
        unknown = set(d) - set(casts)
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        return cls(**{k: _key(d, "config", k, cast=casts[k]) for k in d if d[k] is not None})


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


def make_instance(generator="adversarial", n=5, m=50, seed=0, b=None, density=1.0):
    """One instance from the named generator; both default b to m/5."""
    if generator == "adversarial":
        if density != 1.0:
            raise ValueError("--density %r: the adversarial generator takes no density" % (density,))
        return gen_adversarial(n, m, seed, b)
    if generator == "random":
        return gen_random(n, m, density, seed, b)
    raise ValueError("unknown generator %r" % (generator,))


def group_spec(obj, gamma, variant, instances, q=100, d=200, u_max=None):
    """(smoothers, DesignSpec): one budget smoother per instance, one design for all.

    The design covers the largest u_max the instances induce,
    b' * max_t lambda_max(A_t)/c_t, unless u_max is given, and under seq it
    pays the largest rho2.
    """
    smoothers = [BudgetSmoother(obj, gamma, inst.b, inst.theta, inst.Theta, inst.rho1,
                                variant) for inst in instances]
    if u_max is None:
        u_max = max(b_prime(s) * inst.max_lam_over_c for s, inst in zip(smoothers, instances))
    rho2 = max(inst.rho2 for inst in instances) if variant == "seq" else 0.0
    return smoothers, DesignSpec(obj, gamma, u_max, q, d, variant, rho2)


def _unsmoothed_beta(spec):
    """Certified beta of the raw h used as its own surrogate (exactly gamma for linear)."""
    if spec.variant == "sim" and spec.objective.kind == "dopt":
        # sup over all u >= 0 of the raw-ratio is gamma + 1, valid unconditionally
        return spec.gamma + 1.0
    return beta_for_measure(spec, exact_measure(spec.objective))


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
    p_stars = [offline_continuous_opt(inst, obj).value for inst in instances]
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


def curve_rows(objective, gammas, u_max, q=100, d=200, variant="sim", rho2=0.0):
    """Per-gamma designed beta and the smoothed/unsmoothed ratio bounds of an objective label."""
    obj = make_objective(objective)
    rows = []
    for gamma in gammas:
        spec = DesignSpec(obj, float(gamma), u_max, q, d, variant, rho2)
        dres = cached_design(spec)
        bound_s = cr_bound(gamma, dres.beta)
        if exact_measure(obj) is not None:
            bound_u = cr_bound(gamma, _unsmoothed_beta(spec))
        else:
            bound_u = np.nan
        rows.append({"gamma": float(gamma), "beta": dres.beta,
                     "bound_smoothed": bound_s, "bound_unsmoothed": bound_u})
    return rows
