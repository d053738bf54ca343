"""Reference checks that only the tests call, kept out of the package.

certify_psd_dr samples the PSD diminishing-returns property of a smoothed
gain: the order reversal of grad H_S, as the smallest eigenvalue of
grad H_S(U') - grad H_S(U) for U' <= U.  grad_hs_lift is grad H_S applied
through the spectrum for any number of atoms, the reference for
lowner.grad_hs's resolvent sums.  trace_lift and grad_trace_lift are the
unsmoothed gain H(M) = sum_i h(lambda_i(M)) and its gradient, and
offline_integer_opt is the exhaustive 0/1 optimum of a small instance.
constraint_values is the design ratio written with y_eval and hs_eval,
independently of the designer's tableau.
"""

from dataclasses import dataclass

import numpy as np

from psdalloc.designer import design_grid
from psdalloc.lowner import AtomicMeasure, grad_hs, hs_eval, y_eval
from psdalloc.objectives import h_conj, h_eval, h_prime, psd_eigs, sym


@dataclass(frozen=True)
class PsdDrReport:
    min_gap: float
    trials: int
    dim: int

    def passed(self, tol=1e-8):
        return self.min_gap >= -tol


def certify_psd_dr(smoothed, trials=200, dim=4, seed=0):
    """Sample ordered PSD pairs U' <= U and check grad_hs reverses the order.

    Pairs are built as U = U' + a sum of one to three random rank-one bumps.
    Reports the minimum of lambda_min(grad(U') - grad(U)) over all trials;
    nonnegative (up to tolerance) certifies the diminishing-returns property
    empirically.
    """
    rng = np.random.default_rng(seed)
    min_gap = np.inf
    for _ in range(trials):
        W = rng.normal(size=(dim, dim))
        U_lo = W @ W.T / dim
        V = rng.normal(size=(dim, int(rng.integers(1, 4))))
        U_hi = U_lo + V @ V.T
        gap = np.linalg.eigvalsh(grad_hs(smoothed, U_lo) - grad_hs(smoothed, U_hi))[0]
        min_gap = min(min_gap, gap)
    return PsdDrReport(min_gap=float(min_gap), trials=trials, dim=dim)


def grad_hs_lift(smoothed, M):
    """grad H_S(M) = V y(w) V^T from the eigh of M, or of each matrix in a stack."""
    w, V = psd_eigs(M)
    W = V * np.sqrt(y_eval(smoothed.measure, w))[..., None, :]
    return W @ np.swapaxes(W, -1, -2)


def trace_lift(obj, M):
    """H(M) = sum_i h(lambda_i(M)); requires M PSD up to tolerance."""
    w, _ = psd_eigs(M)
    return float(np.sum(h_eval(obj, w)))


def grad_trace_lift(obj, M):
    """Gradient of the trace lift: h' applied through the spectrum of M."""
    w, V = psd_eigs(M)
    return sym((V * h_prime(obj, w)) @ V.T)


class CapacityError(ValueError):
    """Instance too large for exhaustive enumeration."""


def offline_integer_opt(inst, obj, max_m=22):
    """Exhaustive 0/1 optimum; CapacityError beyond max_m arrivals."""
    m, batch = inst.m, 65536     # subsets per batched eigvalsh
    if m > max_m:
        raise CapacityError("m = %d exceeds the enumeration cap %d" % (m, max_m))
    As, c = np.stack([a.A for a in inst.arrivals]), inst.costs
    best_val, best_bits = 0.0, np.zeros(m)
    shifts = np.arange(m)
    for start in range(0, 2 ** m, batch):
        idx = np.arange(start, min(start + batch, 2 ** m), dtype=np.int64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        feas = bits @ c <= inst.b + 1e-12
        if not np.any(feas):
            continue
        bits = bits[feas]
        X = np.tensordot(bits, As, axes=(1, 0))
        w = np.linalg.eigvalsh(X)
        vals = np.sum(h_eval(obj, w), axis=1)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_bits = float(vals[k]), bits[k]
    return best_val, best_bits


def constraint_values(spec, measure, grid=None):
    """Ratios r_i whose maximum is the certified beta for this measure.

    y and h_S sum over the live atoms only (y_eval, hs_eval).  +inf where the
    conjugate is -inf (the measure fails the constraint there).
    """
    u = design_grid(spec) if grid is None else np.asarray(grid, dtype=float)
    ys = y_eval(measure, u)
    lhs = spec.gamma * hs_eval(measure, u) - h_conj(spec.objective, ys)
    if spec.variant == "seq":
        # y(0) - y(u) = u sum_j mu_j lambda_j a_j/(u lambda_j + 1 - lambda_j), which does
        # not cancel at small u (a_j = 1/(1 - lambda_j))
        drop = AtomicMeasure(measure.nodes, measure.weights * measure.nodes / (1.0 - measure.nodes))
        lhs = lhs + spec.gamma * spec.rho2 * u * y_eval(drop, u)
    return lhs / h_eval(spec.objective, u)
