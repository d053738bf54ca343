"""Instance generators, the experiment pipeline, and deterministic CSV emission."""

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .budget import BudgetSmoother, b_prime
from .designer import DesignSpec, beta_for_measure, cr_bound, design_hs, design_to_dict
from .lowner import SmoothedObjective, exact_measure
from .objectives import make_objective, trace_lift
from .online import Arrival, run_stream
from .oracle import Instance, audit_trace, offline_continuous_opt

# the eleven report columns fixed by the interface contract, then discriminators
CSV_COLUMNS = ["objective", "gamma", "repeat", "budget_used", "b_prime",
               "primal_H", "p_star", "ratio", "bound", "umax_breached",
               "audit_pass", "variant", "arm"]
CURVE_COLUMNS = ["gamma", "beta", "bound_smoothed", "bound_unsmoothed"]


def gen_adversarial(n, m, seed, b=None):
    """Hypercube-corner stream with decaying traces: tr(A_t) = m - t + 1, c_t = 1.

    Density bounds come out pinned at theta = 1, Theta = m, which is the
    worst-case spread the stopping budget is calibrated against.
    """
    if not n >= 1:
        raise ValueError("n must be >= 1, got %r" % (n,))
    rng = np.random.default_rng(seed)
    arrivals = []
    for t in range(1, m + 1):
        eta = rng.integers(0, 2, size=n) * 2.0 - 1.0
        a = np.sqrt((m - t + 1) / n) * eta
        arrivals.append(Arrival(np.outer(a, a), 1.0, a[:, None]))
    return Instance(arrivals, float(b) if b is not None else m / 5)


def gen_random(n, m, density=1.0, seed=0, b=None):
    """Rank-one Gaussian arrivals with uniform costs in [0.5, 1.5].

    density in (0, 1] sparsifies the directions entrywise (resampled if a
    direction comes out all-zero).
    """
    if not n >= 1:
        raise ValueError("n must be >= 1, got %r" % (n,))
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
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
        arrivals.append(Arrival(np.outer(a, a), c, a[:, None]))
    return Instance(arrivals, float(b) if b is not None else m / 5)


@dataclass
class ExperimentConfig:
    objective: str = "dopt"
    p: float = 1.0
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
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError("unknown config keys: %s" % sorted(unknown))
        cfg = cls(**d)
        return cfg


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
    u_max: float
    lam_max_U: float
    design_hash: str
    d_value: float


_design_cache = {}


def cached_design(spec):
    key = (spec.objective.kind, spec.objective.p, spec.gamma, spec.u_max,
           spec.q, spec.d, spec.variant, spec.rho2)
    if key not in _design_cache:
        _design_cache[key] = design_hs(spec)
    return _design_cache[key]


def design_hash(result):
    blob = json.dumps(design_to_dict(result), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _make_instances(cfg):
    if cfg.instances is not None:
        return list(cfg.instances)
    b = cfg.b if cfg.b is not None else cfg.m / 5
    out = []
    for r in range(cfg.repeats):
        seed = cfg.seed + r
        if cfg.generator == "adversarial":
            out.append(gen_adversarial(cfg.n, cfg.m, seed, b))
        elif cfg.generator == "random":
            out.append(gen_random(cfg.n, cfg.m, cfg.density, seed, b))
        else:
            raise ValueError("unknown generator %r" % (cfg.generator,))
    return out


def _unsmoothed_beta(spec):
    """Certified beta of the raw h used as its own surrogate."""
    if spec.objective.kind == "linear":
        return spec.gamma
    if spec.variant == "sim" and spec.objective.kind == "dopt":
        # sup over all u >= 0 of the raw-ratio is gamma + 1, valid unconditionally
        return spec.gamma + 1.0
    return beta_for_measure(spec, exact_measure(spec.objective))


def run_one(inst, surrogate, smoother, beta, u_max, arm, p_star=None, repeat=0,
            dhash=""):
    """Stream one surrogate over one instance, audit the run; (RunReport, trace).

    The audit solves for P* when p_star is None.  A run breaches its design
    when lambda_max(U) passes u_max, except on the unsmoothed sim arm, whose
    gamma+1 / gamma certificate has no u_max gate.
    """
    variant, obj = smoother.variant, surrogate.base
    trace = run_stream(surrogate, smoother, inst.arrivals, variant, inst.n)
    primal = trace_lift(obj, trace.U)
    lam_max = float(np.linalg.eigvalsh(trace.U)[-1])
    audit = audit_trace(trace, inst, p_star=p_star)
    gated = not (arm == "unsmoothed" and variant == "sim")
    report = RunReport(
        objective=obj.label, gamma=smoother.gamma, repeat=repeat,
        budget_used=trace.u, b_prime=audit.b_prime, primal_H=primal,
        p_star=audit.p_star, ratio=primal / audit.p_star if audit.p_star > 0 else np.nan,
        bound=cr_bound(smoother.gamma, beta),
        umax_breached=gated and bool(lam_max > u_max + 1e-12),
        audit_pass=audit.passed, variant=variant, arm=arm, beta=beta,
        u_max=u_max, lam_max_U=lam_max, design_hash=dhash, d_value=audit.d_value)
    return report, trace


def run_experiment(cfg):
    """Full pipeline: generate, smooth, design, run, audit, report.

    Per (gamma, variant) a single design is produced at the largest u_max the
    instances induce (b' * max_t lambda_max(A_t)/c_t); each instance keeps its
    own budget smoother.  PSD-DR objectives also get an unsmoothed arm.
    """
    obj = make_objective(cfg.objective, cfg.p)
    instances = _make_instances(cfg)
    p_stars = [offline_continuous_opt(inst, obj).value for inst in instances]
    reports = []
    for gamma in cfg.gammas:
        for variant in cfg.variants:
            smoothers = [BudgetSmoother(obj, gamma, inst.b, inst.theta, inst.Theta,
                                        inst.rho1, variant) for inst in instances]
            if cfg.umax_override is not None:
                u_max = cfg.umax_override
            else:
                u_max = max(b_prime(s) * inst.max_lam_over_c
                            for s, inst in zip(smoothers, instances))
            rho2 = max(inst.rho2 for inst in instances) if variant == "seq" else 0.0
            dspec = DesignSpec(obj, gamma, u_max, cfg.q, cfg.d, variant, rho2)
            dres = cached_design(dspec)
            dhash = design_hash(dres)
            arms = [("smoothed", dres.smoothed(), dres.beta)]
            em = exact_measure(obj)
            if em is not None and cfg.unsmoothed_arm:
                arms.append(("unsmoothed", SmoothedObjective(em, obj),
                             _unsmoothed_beta(dspec)))
            for r, (inst, smoother) in enumerate(zip(instances, smoothers)):
                for arm_name, surrogate, beta_arm in arms:
                    reports.append(run_one(inst, surrogate, smoother, beta_arm, u_max,
                                           arm_name, p_stars[r], r, dhash)[0])
    if cfg.out:
        emit_csv(reports, cfg.out)
    return reports


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % v
    return str(v)


def emit_csv(reports, path):
    """Write reports with the fixed column set; 12 significant digits."""
    _ensure_dir(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rep in reports:
            fh.write(",".join(_fmt(getattr(rep, col)) for col in CSV_COLUMNS) + "\n")
    return path


def curve_rows(objective, gammas, u_max, q=100, d=200, variant="sim", rho2=0.0, p=1.0):
    """Per-gamma designed beta and the smoothed/unsmoothed ratio bounds."""
    obj = make_objective(objective, p)
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


def emit_curve(objective, gammas, u_max, path, q=100, d=200, variant="sim",
               rho2=0.0, p=1.0):
    rows = curve_rows(objective, gammas, u_max, q, d, variant, rho2, p)
    _ensure_dir(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CURVE_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in CURVE_COLUMNS) + "\n")
    return rows


def emit_gs_curve(smoother, us, path):
    """Trace the penalty derivative: CSV with columns u, gs_prime."""
    from .budget import gs_prime
    _ensure_dir(path)
    us = np.asarray(us, dtype=float)
    vals = gs_prime(smoother, us)
    with open(path, "w", newline="\n") as fh:
        fh.write("u,gs_prime\n")
        for u, v in zip(us, vals):
            fh.write("%s,%s\n" % (_fmt(float(u)), _fmt(float(v))))
    return path


def _ensure_dir(path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
