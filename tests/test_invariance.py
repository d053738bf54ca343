"""Metamorphic properties of the engines: transforms of an instance that leave
the problem unchanged must leave the decisions unchanged, to rounding.

They need no reference implementation, so they keep holding through any
rewrite of the engines or the audit; CI runs them under the deep profile.
"""

import math

import numpy as np
from hypothesis import example, given, strategies

from psdalloc.budget import BudgetSmoother
from psdalloc.lowner import AtomicMeasure, SmoothedObjective, exact_measure
from psdalloc.objectives import make_objective
from psdalloc.online import Arrival, run_stream
from psdalloc.oracle import Instance, audit_trace


def _orthogonal(rng, k):
    """A random k x k orthogonal matrix, the Q of a Gaussian one."""
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


@given(measure=strategies.sampled_from(["dopt-exact", "dopt-two-atoms", "aopt-24-atoms"]),
       variant=strategies.sampled_from(["seq", "sim"]),
       n=strategies.integers(min_value=1, max_value=20),
       rank=strategies.integers(min_value=1, max_value=3),
       log_alpha=strategies.floats(min_value=-100.0, max_value=100.0),
       seed=strategies.integers(min_value=0, max_value=2 ** 32 - 1))
@example(measure="dopt-exact", variant="sim", n=20, rank=1, log_alpha=100.0, seed=0)
@example(measure="aopt-24-atoms", variant="seq", n=20, rank=3, log_alpha=-100.0, seed=0)
def test_engines_are_invariant_under_rotations_and_a_common_cost_scale(
        measure, variant, n, rank, log_alpha, seed):
    # L -> L Q_k leaves A = L L^T as it is, and L -> Q L takes A to Q A Q^T and Y to
    # Q Y Q^T, so every price <A, Y> is unchanged.  (c, b) -> (alpha c, alpha b) scales
    # theta and Theta by 1/alpha, gs' by 1/alpha and each spend by alpha, so every price
    # c gs' is unchanged.  Each transform makes the same purchases as the stream it
    # moves, with decisions within 1e-9, and every run passes its audit.  The exact dopt
    # measure buys a rank-one arrival as an update of Y alone; its two-atom split and
    # the 24 atoms take the stack, which the 24 atoms block from n = 14 on
    obj = make_objective(measure[:4])
    if measure == "aopt-24-atoms":
        # nodes over [0, 0.96] with slope y(0) = h'(0)
        nodes = np.linspace(0.0, 0.96, 24)
        sm = SmoothedObjective(AtomicMeasure(nodes, obj.h_prime0 * (1.0 - nodes) / 24), obj)
    else:
        em = exact_measure(obj)
        sm = SmoothedObjective(em if measure == "dopt-exact" else AtomicMeasure(
            np.repeat(em.nodes, 2), np.repeat(em.weights / 2.0, 2)), obj)
    rng = np.random.default_rng(seed)
    arrivals = [Arrival(rng.standard_normal((n, 1 + t % rank)) / math.sqrt(n),
                        float(rng.uniform(0.5, 1.5))) for t in range(12)]
    Q, alpha = _orthogonal(rng, n), 10.0 ** log_alpha
    streams = {
        "L": (arrivals, 4.0),
        "Q L": ([Arrival(Q @ a.L, a.c) for a in arrivals], 4.0),
        "L Q_k": ([Arrival(a.L @ _orthogonal(rng, a.L.shape[1]), a.c) for a in arrivals], 4.0),
        "alpha c, alpha b": ([Arrival(a.L, alpha * a.c) for a in arrivals], alpha * 4.0),
    }
    decisions = {}
    for name, (arrs, b) in streams.items():
        inst = Instance(arrs, b=b)
        budget = BudgetSmoother(obj, 2.0, inst.b, inst.theta, inst.Theta, inst.rho1, variant)
        trace = run_stream(sm, budget, arrs, variant)
        assert audit_trace(trace, inst).passed, name
        decisions[name] = trace.decisions
    base = decisions.pop("L")
    assert np.any(base > 0.0)
    for name, x in decisions.items():
        np.testing.assert_array_equal(x > 0.0, base > 0.0, err_msg=name)
        np.testing.assert_allclose(x, base, rtol=0, atol=1e-9, err_msg=name)
