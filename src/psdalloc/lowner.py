"""Atomic measures whose rational mixtures represent smoothed gain derivatives.

A measure mu = {(lambda_j, mu_j)} with nodes in [0, 1) and nonnegative weights
defines

    y(u)   = sum_j mu_j / (u lambda_j + (1 - lambda_j)),   u >= 0
    h_S(u) = integral of y, with the closed form
             h_S(u) = sum_j mu_j * phi(u, lambda_j),
             phi(u, 0) = u,  phi(u, lam) = log(1 + u lam/(1-lam)) / lam.

For u < 0 both extend linearly/constantly: y(u) = y(0), h_S(u) = y(0) * u.
Each summand of y is operator antitone in u, which is what makes the gradient
of the lifted H_S order-reversing (the PSD diminishing-returns property).
The lifts H_S and grad H_S apply h_S and y to the spectrum from
objectives.psd_eigs; certify_psd_dr samples the order reversal as the
smallest eigenvalue of grad H_S(U') - grad H_S(U) for U' <= U.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .objectives import TraceObjective, psd_eigs


@dataclass(frozen=True)
class AtomicMeasure:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty vectors")
        if np.any(nodes < 0.0) or np.any(nodes >= 1.0):
            raise ValueError("nodes must lie in [0, 1)")
        if np.any(weights < -1e-15):
            raise ValueError("weights must be nonnegative")
        weights = np.maximum(weights, 0.0)
        order = np.argsort(nodes, kind="stable")
        object.__setattr__(self, "nodes", nodes[order])
        object.__setattr__(self, "weights", weights[order])

    @property
    def y0(self):
        """y(0) = sum_j mu_j / (1 - lambda_j), the slope of h_S at zero."""
        return float(np.sum(self.weights / (1.0 - self.nodes)))

    @cached_property
    def live(self):
        """The atoms of positive weight, all that y and h_S sum; self if that is all or none."""
        keep = self.weights > 0.0
        if keep.all() or not keep.any():
            return self
        return AtomicMeasure(self.nodes[keep], self.weights[keep])


def phi_primitive(u, lam):
    """Antiderivative basis phi(u, lam) of 1/(u lam + 1 - lam); broadcasts."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam > 0.0, lam, 1.0)
    logpart = np.log1p(u * lam / (1.0 - lam)) / safe
    return np.where(lam > 0.0, logpart, u)


def y_eval(measure, u):
    """y(u) for scalar or array u; constant y(0) on u < 0."""
    u, scalar = np.asarray(u, dtype=float), np.ndim(u) == 0
    up = np.maximum(u, 0.0)
    den = up[..., None] * measure.nodes + (1.0 - measure.nodes)
    val = np.sum(measure.weights / den, axis=-1)
    out = np.where(u < 0.0, measure.y0, val)
    return float(out) if scalar else out


def hs_eval(measure, u):
    """h_S(u) for scalar or array u; linear slope y(0) on u < 0."""
    u, scalar = np.asarray(u, dtype=float), np.ndim(u) == 0
    up = np.maximum(u, 0.0)
    val = np.sum(measure.weights * phi_primitive(up[..., None], measure.nodes), axis=-1)
    out = np.where(u < 0.0, measure.y0 * u, val)
    return float(out) if scalar else out


@dataclass(frozen=True)
class SmoothedObjective:
    """An atomic measure paired with the base objective it smooths.

    Validated so the surrogate matches the base to first order at zero:
    h_S(0) = 0 by construction and h_S'(0) = y(0) must equal h'(0).
    """

    measure: AtomicMeasure
    base: TraceObjective

    def __post_init__(self):
        if abs(self.measure.y0 - self.base.h_prime0) > 1e-8:
            raise ValueError(
                "measure slope y(0) = %.12g does not match h'(0) = %.12g"
                % (self.measure.y0, self.base.h_prime0)
            )


def hs_trace_lift(smoothed, M):
    """H_S(M) = sum_i h_S(lambda_i(M)); requires M PSD up to tolerance."""
    w, _ = psd_eigs(M)
    return float(np.sum(hs_eval(smoothed.measure, w)))


def grad_hs(smoothed, M):
    """Gradient of H_S: the mixture y applied through the spectrum of M, or of each in a stack.

    y sums over the live atoms only, and W W^T with W = V sqrt(y(w)) is exactly
    symmetric as matmul gives it (syrk), so it needs no sym pass.
    """
    w, V = psd_eigs(M)
    W = V * np.sqrt(y_eval(smoothed.measure.live, w))[..., None, :]
    return W @ np.swapaxes(W, -1, -2)


def exact_measure(obj):
    """Exact atomic representation of h' when the base is representable.

    linear -> atom (0, 1); dopt -> atom (1/2, 1/2); otherwise None (aopt and
    pmean derivatives are not single-measure representable on [0, 1)).
    """
    if obj.kind == "linear":
        return AtomicMeasure(np.array([0.0]), np.array([1.0]))
    if obj.kind == "dopt":
        return AtomicMeasure(np.array([0.5]), np.array([0.5]))
    return None


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


def smoothed_to_dict(smoothed):
    return {
        "objective": {"kind": smoothed.base.kind, "p": smoothed.base.p},
        "nodes": [float(x) for x in smoothed.measure.nodes],
        "weights": [float(x) for x in smoothed.measure.weights],
    }


def smoothed_from_dict(d):
    obj = TraceObjective(d["objective"]["kind"], float(d["objective"].get("p", 1.0)))
    measure = AtomicMeasure(np.asarray(d["nodes"], dtype=float),
                            np.asarray(d["weights"], dtype=float))
    return SmoothedObjective(measure, obj)
