#!/usr/bin/env python3
"""Benchmark of the psdalloc pipeline: design sweep, online stream, cold experiment.

    python3 perfbench/run.py --workload {design-sweep,stream,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Everything runs in this one single-threaded process with BLAS
pinned to one thread.  Each workload is a closed loop: the next operation
starts when the previous one has returned.  Passes over a workload's
operations repeat until ``--seconds`` have elapsed (at least one pass).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, which runs
``design-sweep`` and ``stream``; ``pipeline`` is for traced runs by hand.  ``--trace 1``
runs one untraced pass, then one pass with every public function of the
package wrapped from outside (see tracer.py), and prints the per-layer
metrics together with the tracing overhead.  The last line of standard output
is the JSON result; lines before it record the environment, the failures by
exception class and a digest of the betas and decisions.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import importlib.metadata
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
AOPT_MEASURE = HERE / "aopt_gamma2_sim.json"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from tracer import END, ERROR, INFO, NAME, PARENT, START, Tracer  # noqa: E402

try:
    import psdalloc  # noqa: E402
except ImportError as _exc:
    raise SystemExit("perfbench: cannot import psdalloc from %s (%s)" % (SRC, _exc))
if Path(psdalloc.__file__).resolve().parent != SRC / "psdalloc":
    raise SystemExit("perfbench: psdalloc resolved to %s, not to %s"
                     % (psdalloc.__file__, SRC / "psdalloc"))

from psdalloc import bench, budget, designer, lowner, objectives, online, oracle  # noqa: E402

WORKLOADS = ("design-sweep", "stream", "pipeline")
IMPORT_REPEATS = 7
INPUT_REPEATS = 3
GAMMA_STREAM = 2.0

# Sizes per scale.  "full" is the benchmark; "tiny" only exercises the code
# paths, for the smoke test.
SCALES = {
    "full": {
        "q": 100, "d": 200, "u_max": 10.0, "sweep_gammas": (1.0, 2.0, 4.0),
        "seq_rho2": 5.0, "deploy": (5, 300),
        # certified beta of each sweep design with the numpy designer at
        # 53d7ff9; a design may match or beat it, never exceed it
        "reference_betas": {("dopt", 1.0, "sim"): 1.364805453797686,
                            ("dopt", 2.0, "sim"): 2.1354666816996475,
                            ("dopt", 4.0, "sim"): 4.0000650029241465,
                            ("aopt", 1.0, "sim"): 1.5241376096079489,
                            ("aopt", 2.0, "sim"): 2.255966187327787,
                            ("aopt", 4.0, "sim"): 4.005845503041509,
                            ("dopt", 2.0, "seq"): 8.275488672325054},
        # (generator, n, m, budget or None for the default m/5)
        "streams": [("random", 20, 200, None), ("adversarial", 50, 500, None),
                    ("random", 50, 500, 10.0)],
        # b' on this instance raises QuadratureError (the open boundary-layer bug)
        "crash_probe": ("random", 50, 500, None),
        # adversarial instances pin theta, Theta and max lambda/c, so u_max and
        # hence the four designs are the same for every seed
        "pipeline": {"generator": "adversarial", "n": 20, "m": 200, "repeats": 3,
                     "gammas": (1.0, 2.0)},
    },
    "tiny": {
        "q": 12, "d": 24, "u_max": 10.0, "sweep_gammas": (1.0,),
        "seq_rho2": 5.0, "deploy": (3, 12), "reference_betas": {},
        "streams": [("random", 4, 16, None), ("adversarial", 5, 20, None),
                    ("random", 8, 16, 2.0)],
        "crash_probe": ("random", 30, 8, 100.0),
        "pipeline": {"generator": "adversarial", "n": 3, "m": 10, "repeats": 1,
                     "gammas": (1.0,)},
    },
}

# Per-layer metrics that count work; two traced runs of one seed must agree on
# them exactly.
COUNT_METRICS = (
    "designer.calls", "designer.iterations", "designer.atoms",
    "budget.gs_prime_calls", "budget.gs_prime_per_sim_step",
    "budget.gs_value_calls", "budget.b_prime_calls", "budget.quadrature_errors",
    "lowner.grad_hs_calls", "lowner.grad_hs_per_sim_step",
    "spectral.eigh_per_seq_step", "spectral.eigh_per_sim_step",
    "spectral.eigvalsh_per_seq_step", "spectral.eigvalsh_per_sim_step",
    "online.accept_frac", "oracle.offline_iters", "oracle.audit_failed",
)

clock = time.perf_counter
# Set-up, pass and step times are CPU time of this (single-threaded) process:
# on a shared virtual machine it leaves out the time other tenants steal.  Wall
# times of the passes are kept in the record.
cpu = time.process_time

# The CPU itself also ran up to 30% faster or slower, for seconds to minutes
# at a time.  So a fixed reference kernel is timed at checkpoints through each
# pass (at its ends, before each design, after each stream and every
# REFERENCE_EVERY engine steps), and each stretch of CPU time between two
# checkpoints is scaled by REFERENCE_NOMINAL_S over the reference time measured
# at its ends: reported times are at the speed the machine had when
# REFERENCE_NOMINAL_S was taken.
REFERENCE_NOMINAL_S = 6.0e-4
REFERENCE_EVERY = 50
_REFERENCE_MATRIX = np.random.default_rng(0).normal(size=(40, 40))
_REFERENCE_MATRIX = _REFERENCE_MATRIX @ _REFERENCE_MATRIX.T
_eigvalsh = np.linalg.eigvalsh   # bound before any tracing


def speed_scale():
    """REFERENCE_NOMINAL_S over the median of three runs of the reference kernel."""
    runs = []
    for _ in range(3):
        t0 = cpu()
        for _ in range(3):
            _eigvalsh(_REFERENCE_MATRIX)
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        runs.append(cpu() - t0)
    return REFERENCE_NOMINAL_S / statistics.median(runs)


def environment():
    """Interpreter, library versions, optional solver, cores and BLAS threads."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        # with cvxpy importable, design_hs takes its cone-program path, so
        # design timings from the two environments are not comparable
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, else the env setting."""
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "OPENBLAS_NUM_THREADS=%s" % os.environ.get("OPENBLAS_NUM_THREADS")


# ---------------------------------------------------------------- inputs

def _instance(gen, n, m, b, seed):
    if gen == "adversarial":
        return bench.gen_adversarial(n, m, seed, b)
    return bench.gen_random(n, m, 1.0, seed, b)


def make_inputs(workload, seed, size):
    """Everything a pass needs, generated from the seed before timing."""
    inp = SimpleNamespace()
    dopt, aopt = objectives.make_objective("dopt"), objectives.make_objective("aopt")
    inp.objectives = {"dopt": dopt, "aopt": aopt}
    if workload == "design-sweep":
        specs = [designer.DesignSpec(obj, g, size["u_max"], size["q"], size["d"], "sim")
                 for obj in (dopt, aopt) for g in size["sweep_gammas"]]
        specs.append(designer.DesignSpec(dopt, 2.0, size["u_max"], size["q"], size["d"],
                                         "seq", size["seq_rho2"]))
        order = np.random.default_rng(seed).permutation(len(specs))
        inp.specs = [specs[i] for i in order]
        # one fixed deployment instance: its tail latencies shift by more than
        # the noise from one seed to the next, and the sweep is not about them
        n, m = size["deploy"]
        inp.deploy = bench.gen_random(n, m, 1.0, 0)
        inp.reference_betas = size["reference_betas"]
    elif workload == "stream":
        inp.instances = [_instance(g, n, m, b, seed) for g, n, m, b in size["streams"]]
        inp.crash_probe = _instance(*size["crash_probe"], seed)
        with open(AOPT_MEASURE) as fh:
            frozen = designer.design_from_dict(json.load(fh))
        inp.measures = [lowner.SmoothedObjective(lowner.exact_measure(dopt), dopt),
                        frozen.smoothed()]
        # certified beta of each loaded measure on the sweep's sim grid
        grid_spec = {o.kind: designer.DesignSpec(o, GAMMA_STREAM, size["u_max"],
                                                 size["q"], size["d"], "sim")
                     for o in (dopt, aopt)}
        inp.measure_betas = [designer.beta_for_measure(grid_spec[s.base.kind], s.measure)
                             for s in inp.measures]
    else:
        p = size["pipeline"]
        inp.instances = [_instance(p["generator"], p["n"], p["m"], None, seed + r)
                         for r in range(p["repeats"])]
        inp.pipeline = p
        inp.q, inp.d = size["q"], size["d"]
    return inp


def import_seconds():
    """CPU time of a fresh interpreter's import of the package (numpy included)."""
    probe = ("import time; t = time.process_time(); import psdalloc; "
             "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def setup(workload, seed, size):
    """Inputs and set-up seconds: median import time plus median time to make the inputs."""
    imports, makes = [], []
    scale = speed_scale()
    for _ in range(IMPORT_REPEATS):
        seconds = import_seconds()
        after = speed_scale()
        imports.append(seconds * 0.5 * (scale + after))
        scale = after
    for _ in range(INPUT_REPEATS):
        t0 = cpu()
        inp = make_inputs(workload, seed, size)
        seconds = cpu() - t0
        after = speed_scale()
        makes.append(seconds * 0.5 * (scale + after))
        scale = after
    return inp, statistics.median(imports) + statistics.median(makes)


# ---------------------------------------------------------------- passes

class Pass:
    """Outcome of one pass: operations, latency samples, betas and decisions."""

    def __init__(self):
        self.ops = []          # (kind, error class or gate name, or None when it passed)
        self.seq_us = []
        self.sim_us = []
        self.betas = []
        self.decisions = []
        self.probe_errors = {}
        self.wall_s = None
        self.cpu_s = 0.0          # CPU time of the pass, reference runs left out
        self.scaled_cpu_s = 0.0   # the same at nominal speed, stretch by stretch
        self.scale = speed_scale()
        self._t = cpu()

    def op(self, kind, error=None):
        self.ops.append((kind, error))

    def checkpoint(self):
        """Close the stretch since the last checkpoint and re-measure the speed."""
        seconds = cpu() - self._t
        scale = speed_scale()
        self.cpu_s += seconds
        self.scaled_cpu_s += seconds * 0.5 * (self.scale + scale)
        self.scale = scale
        self._t = cpu()

    def digest(self):
        h = hashlib.sha256()
        h.update(" ".join("%.9g" % b for b in self.betas).encode())
        for dec in self.decisions:
            h.update(b"|" + " ".join("%.6g" % x for x in dec).encode())
        return h.hexdigest()[:16]


def audited_stream(run, smoothed, inst, variant, gamma, p_star):
    """One operation: stream every arrival through one engine, then audit the run."""
    lat = run.seq_us if variant == "seq" else run.sim_us
    try:
        smoother = budget.BudgetSmoother(smoothed.base, gamma, inst.b, inst.theta,
                                         inst.Theta, inst.rho1, variant)
        state = online.OnlineState(smoothed, smoother, inst.n)
        step = state.step_sequential if variant == "seq" else state.step_simultaneous
        for k, arr in enumerate(inst.arrivals):
            if k % REFERENCE_EVERY == 0:
                run.checkpoint()
            t0 = cpu()
            step(arr)
            lat.append((cpu() - t0) * 1e6 * run.scale)
        trace = state.finish(variant)
        run.decisions.append(trace.decisions)
        run.checkpoint()
        report = oracle.audit_run(trace.decisions, inst, smoothed, smoother, variant,
                                  p_star=p_star)
    except Exception as exc:  # counted by class, never dropped
        run.op("stream", type(exc).__name__)
        return
    run.op("stream", None if report.passed else "audit_failed")


def design_gate(spec, result, reference=None, tol=1e-9):
    """None when the design is certified, else the name of the failed check."""
    if result.flagged:
        return "design_flagged"
    if not np.isfinite(result.beta):
        return "beta_not_finite"
    if designer.beta_for_measure(spec, result.measure, dense=10) > result.beta + tol:
        return "beta_below_dense_check"
    if reference is not None and result.beta > reference * (1.0 + 1e-7):
        return "beta_above_reference"
    return None


def sweep_pass(inp, run):
    inst = inp.deploy
    p_star = {k: oracle.offline_continuous_opt(inst, o).value
              for k, o in inp.objectives.items()}
    for spec in inp.specs:
        run.checkpoint()
        try:
            result = designer.design_hs(spec)
        except Exception as exc:
            run.op("design", type(exc).__name__)
            continue
        key = (spec.objective.kind, spec.gamma, spec.variant)
        run.op("design", design_gate(spec, result, inp.reference_betas.get(key)))
        run.betas.append(result.beta)
        # deploy the fresh design: one audited stream through each engine
        for variant in ("seq", "sim"):
            audited_stream(run, result.smoothed(), inst, variant, spec.gamma,
                           p_star[spec.objective.kind])


def stream_pass(inp, run):
    run.betas.extend(inp.measure_betas)
    for inst in inp.instances:
        p_star = {k: oracle.offline_continuous_opt(inst, o).value
                  for k, o in inp.objectives.items()}
        for smoothed in inp.measures:
            for variant in ("seq", "sim"):
                audited_stream(run, smoothed, inst, variant, GAMMA_STREAM,
                               p_star[smoothed.base.kind])
    # the known b' crash: counted every pass, not an operation of the workload
    probe = inp.crash_probe
    for smoothed in inp.measures:
        for variant in ("seq", "sim"):
            smoother = budget.BudgetSmoother(smoothed.base, GAMMA_STREAM, probe.b,
                                             probe.theta, probe.Theta, probe.rho1, variant)
            try:
                budget.b_prime(smoother)
            except budget.QuadratureError as exc:
                name = type(exc).__name__
                run.probe_errors[name] = run.probe_errors.get(name, 0) + 1


@contextmanager
def step_timer(run):
    """Time each engine step from outside by shadowing the two step methods."""
    cls = online.OnlineState
    originals = cls.step_sequential, cls.step_simultaneous

    def timed(fn, lat):
        def step(self, *args, **kwargs):
            if len(lat) % REFERENCE_EVERY == 0:
                run.checkpoint()
            t0 = cpu()
            x = fn(self, *args, **kwargs)
            lat.append((cpu() - t0) * 1e6 * run.scale)
            return x
        return step

    cls.step_sequential = timed(originals[0], run.seq_us)
    cls.step_simultaneous = timed(originals[1], run.sim_us)
    try:
        yield
    finally:
        cls.step_sequential, cls.step_simultaneous = originals


def pipeline_pass(inp, run, time_steps=True):
    p = inp.pipeline
    bench._design_cache.clear()   # cold, as in a fresh `psdalloc bench` process
    cfg = bench.ExperimentConfig(
        objective="dopt", gammas=p["gammas"], repeats=p["repeats"],
        variants=("sim", "seq"), generator=p["generator"], q=inp.q, d=inp.d,
        instances=inp.instances)
    expected = p["repeats"] * len(p["gammas"]) * 2 * 2   # variants x arms
    try:
        with step_timer(run) if time_steps else nullcontext():
            reports = bench.run_experiment(cfg)
    except Exception as exc:
        for _ in range(expected):
            run.op("report", type(exc).__name__)
        return
    betas = {}
    for rep in reports:
        if not rep.audit_pass:
            err = "audit_failed"
        elif not rep.budget_used <= rep.b_prime + 1e-9:
            err = "over_b_prime"
        elif not rep.d_value >= rep.p_star - 1e-6:
            err = "dual_below_p_star"
        else:
            err = None
        run.op("report", err)
        if rep.arm == "smoothed":
            betas[rep.gamma, rep.variant] = rep.beta   # one design per (gamma, variant)
        run.decisions.append([rep.budget_used, rep.primal_H])
    for _ in range(expected - len(reports)):
        run.op("report", "report_missing")
    run.betas = [betas[k] for k in sorted(betas)]


PASSES = {"design-sweep": sweep_pass, "stream": stream_pass, "pipeline": pipeline_pass}


def one_pass(workload, inp, traced=False):
    t0 = clock()
    run = Pass()
    if workload == "pipeline":
        pipeline_pass(inp, run, time_steps=not traced)
    else:
        PASSES[workload](inp, run)
    run.checkpoint()
    run.wall_s = clock() - t0
    return run


# ---------------------------------------------------------------- metrics

def _m(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(runs, setup_s):
    seq = np.concatenate([r.seq_us for r in runs])
    sim = np.concatenate([r.sim_us for r in runs])
    ops = [o for r in runs for o in r.ops]
    ok = sum(1 for _, err in ops if err is None)
    return {
        "setup_s": _m(setup_s, "s"),
        "pass_cpu_s": _m(statistics.median(r.scaled_cpu_s for r in runs), "s"),
        "beta_mean": _m(np.mean(runs[0].betas), "1"),
        "seq_step_cpu_us_p50": _m(np.percentile(seq, 50), "us"),
        "seq_step_cpu_us_p90": _m(np.percentile(seq, 90), "us"),
        "sim_step_cpu_us_p50": _m(np.percentile(sim, 50), "us"),
        "sim_step_cpu_us_p90": _m(np.percentile(sim, 90), "us"),
        "ops_ok_frac": _m(ok / max(len(ops), 1), "1"),
    }


def install(tracer):
    """Wrap each layer's public functions under every name the package binds them to."""
    w = tracer.wrap

    def design_info(r):
        return [int(r.iterations), int(np.count_nonzero(r.measure.weights)), float(r.residual)]

    for mod in (designer, bench):
        w(mod, "design_hs", "designer.design_hs", design_info)
    w(bench, "beta_for_measure", "designer.beta_for_measure")
    for mod in (budget, online, oracle):
        w(mod, "gs_prime", "budget.gs_prime")
    for mod in (budget, oracle):
        w(mod, "gs_value", "budget.gs_value")
    for mod in (budget, oracle, bench):
        w(mod, "b_prime", "budget.b_prime")
    for mod in (lowner, online, oracle):
        w(mod, "grad_hs", "lowner.grad_hs")
    w(oracle, "hs_trace_lift", "lowner.hs_trace_lift")
    for mod in (online, oracle):
        w(mod, "y_eval", "lowner.y_eval")
    w(online.OnlineState, "step_sequential", "online.step_seq", float)
    w(online.OnlineState, "step_simultaneous", "online.step_sim", float)
    w(online.OnlineState, "finish", "online.finish")
    for mod in (online, bench):
        w(mod, "run_stream", "online.run_stream")
    w(np.linalg, "eigh", "spectral.eigh")
    w(np.linalg, "eigvalsh", "spectral.eigvalsh")

    def offline_info(r):
        return [int(r.iterations), float(r.stationarity)]

    for mod in (oracle, bench):
        w(mod, "offline_continuous_opt", "oracle.offline_continuous_opt", offline_info)
    w(oracle, "audit_run", "oracle.audit_run", lambda r: bool(r.passed))
    w(bench, "audit_trace", "oracle.audit_trace")
    w(oracle, "instance_stats", "oracle.instance_stats")
    for gen in ("gen_random", "gen_adversarial"):
        w(bench, gen, "bench." + gen)
    w(bench, "run_experiment", "bench.run_experiment")


LAYERS = ("designer", "budget", "lowner", "online", "spectral", "oracle", "bench", "harness")


def per_layer(tracer, traced, untraced):
    """Per-layer metrics from the spans; ``traced``/``untraced`` are the two passes."""
    spans = tracer.spans
    selfs = tracer.self_times()
    dur = [s[END] - s[START] for s in spans]
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[NAME], []).append(i)

    def ids(name):
        return by.get(name, [])

    def total(name):
        return sum(dur[i] for i in ids(name))

    def mean(name, scale):
        k = len(ids(name))
        return total(name) / k * scale if k else 0.0

    # the step span enclosing each span, if any
    step_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        par = s[PARENT]
        if s[NAME] in ("online.step_seq", "online.step_sim"):
            step_of[i] = i
        elif par >= 0:
            step_of[i] = step_of[par]

    def per_step(name, variant):
        steps = ids("online.step_" + variant)
        if not steps:
            return 0.0
        inside = sum(1 for i in ids(name)
                     if step_of[i] >= 0 and spans[step_of[i]][NAME] == "online.step_" + variant)
        return inside / len(steps)

    designs = [spans[i][INFO] for i in ids("designer.design_hs") if spans[i][INFO]]
    offline = [spans[i][INFO] for i in ids("oracle.offline_continuous_opt") if spans[i][INFO]]
    audits = ids("oracle.audit_run")
    steps = ids("online.step_seq") + ids("online.step_sim")
    errors = {id(spans[i][ERROR]) for i in ids("budget.gs_prime") + ids("budget.gs_value")
              if isinstance(spans[i][ERROR], budget.QuadratureError)}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, st in zip(spans, selfs):
        layer_self[s[NAME].split(".")[0]] += st

    out = {
        "designer.design_s": _m(total("designer.design_hs"), "s"),
        "designer.calls": _m(len(ids("designer.design_hs")), "count"),
        "designer.iterations": _m(sum(d[0] for d in designs), "count"),
        "designer.atoms": _m(np.mean([d[1] for d in designs]) if designs else 0, "count"),
        "designer.residual": _m(max((d[2] for d in designs), default=0.0), "1"),
        "budget.gs_prime_calls": _m(len(ids("budget.gs_prime")), "count"),
        "budget.gs_prime_us": _m(mean("budget.gs_prime", 1e6), "us"),
        "budget.gs_prime_per_sim_step": _m(per_step("budget.gs_prime", "sim"), "count"),
        "budget.gs_value_calls": _m(len(ids("budget.gs_value")), "count"),
        "budget.gs_value_ms": _m(mean("budget.gs_value", 1e3), "ms"),
        "budget.b_prime_calls": _m(len(ids("budget.b_prime")), "count"),
        "budget.b_prime_ms": _m(mean("budget.b_prime", 1e3), "ms"),
        "budget.quadrature_errors": _m(len(errors), "count"),
        "lowner.grad_hs_calls": _m(len(ids("lowner.grad_hs")), "count"),
        "lowner.grad_hs_us": _m(mean("lowner.grad_hs", 1e6), "us"),
        "lowner.grad_hs_per_sim_step": _m(per_step("lowner.grad_hs", "sim"), "count"),
        "spectral.eigh_per_seq_step": _m(per_step("spectral.eigh", "seq"), "count"),
        "spectral.eigh_per_sim_step": _m(per_step("spectral.eigh", "sim"), "count"),
        "spectral.eigvalsh_per_seq_step": _m(per_step("spectral.eigvalsh", "seq"), "count"),
        "spectral.eigvalsh_per_sim_step": _m(per_step("spectral.eigvalsh", "sim"), "count"),
        "online.seq_step_self_us": _m(_mean_self(selfs, ids("online.step_seq")), "us"),
        "online.sim_step_self_us": _m(_mean_self(selfs, ids("online.step_sim")), "us"),
        "online.accept_frac": _m(np.mean([spans[i][INFO] > 0.0 for i in steps])
                                 if steps else 0.0, "1"),
        "oracle.offline_s": _m(total("oracle.offline_continuous_opt"), "s"),
        "oracle.offline_iters": _m(sum(o[0] for o in offline), "count"),
        "oracle.offline_stationarity": _m(max((o[1] for o in offline), default=0.0), "1"),
        "oracle.audit_s": _m(total("oracle.audit_run"), "s"),
        "oracle.audit_failed": _m(sum(1 for i in audits
                                      if spans[i][ERROR] is not None or spans[i][INFO] is False),
                                  "count"),
        "bench.instance_gen_s": _m(total("bench.gen_random") + total("bench.gen_adversarial"),
                                   "s"),
        # the layer self times sum to this wall time (traced set-up and pass)
        "trace.wall_s": _m(sum(d for s, d in zip(spans, dur) if s[PARENT] < 0), "s"),
        "trace.traced_cpu_s": _m(traced.cpu_s, "s"),
        "trace.untraced_cpu_s": _m(untraced.cpu_s, "s"),
        "trace.overhead_frac": _m((traced.cpu_s - untraced.cpu_s) / untraced.cpu_s, "1"),
        "trace.spans": _m(len(spans), "count"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = _m(layer_self[layer], "s")
    return out


def _mean_self(selfs, ids):
    return sum(selfs[i] for i in ids) / len(ids) * 1e6 if ids else 0.0


# ---------------------------------------------------------------- main

def measure(workload, seed, seconds, trace, size):
    """Run the workload; returns (runs, metrics, tracer or None)."""
    inp, setup_s = setup(workload, seed, size)
    if not trace:
        runs, t0 = [], clock()
        while not runs or clock() - t0 < seconds:
            runs.append(one_pass(workload, inp))
        return runs, end_to_end(runs, setup_s), None
    untraced = one_pass(workload, inp)
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("harness.setup"):
            inp = make_inputs(workload, seed, size)
        with tracer.span("harness.pass"):
            traced = one_pass(workload, inp, traced=True)
    finally:
        tracer.restore()
    return [untraced, traced], per_layer(tracer, traced, untraced), tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="'tiny' runs the same code paths on toy sizes (smoke test)")
    args = ap.parse_args(argv)

    env = environment()
    runs, metrics, tracer = measure(args.workload, args.seed, args.seconds, args.trace,
                                    SCALES[args.scale])
    ops = [o for r in runs for o in r.ops]
    failures = {}
    for _, err in ops:
        if err is not None:
            failures[err] = failures.get(err, 0) + 1
    digests = sorted({r.digest() for r in runs})
    result = {
        "correct": not failures and len(digests) == 1,
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "env": env,
        "passes": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "scaled_cpu_s": r.scaled_cpu_s}
                   for r in runs],
        "failures": failures, "known_bug_probe": runs[0].probe_errors,
        "digest": digests, "samples": {"seq_steps": sum(len(r.seq_us) for r in runs),
                                       "sim_steps": sum(len(r.sim_us) for r in runs)},
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.dump(OUT / (stem + ".spans.jsonl.gz"))
    with open(OUT / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for key in ("env", "passes", "samples", "failures", "known_bug_probe", "digest"):
        print("%s: %s" % (key, json.dumps(record[key], sort_keys=True)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
