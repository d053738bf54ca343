"""Atomic measures whose rational mixtures represent smoothed gain derivatives.

A measure mu = {(lambda_j, mu_j)} with nodes in [0, 1) and nonnegative weights
defines

    y(u)   = sum_j mu_j / (u lambda_j + (1 - lambda_j)),   u >= 0
    h_S(u) = integral of y, with the closed form
             h_S(u) = sum_j mu_j * phi(u, lambda_j),
             phi(u, 0) = u,  phi(u, lam) = log(1 + u lam/(1-lam)) / lam.

For u < 0 both extend linearly/constantly: y(u) = y(0), h_S(u) = y(0) * u.
An AtomicMeasure holds its support only: the atoms of positive weight, so a
designed measure costs what its support costs.  Each summand of y is operator
antitone in u, which is what makes the gradient of the lifted H_S
order-reversing (the PSD diminishing-returns property).  The lift H_S applies
h_S to the spectrum from objectives.psd_eigs.  Its gradient is the Loewner
resolvent sum

    grad H_S(M) = sum_j mu_j (lambda_j M + (1 - lambda_j) I)^-1,

which grad_hs evaluates as written, or through the spectrum of M (RESOLVENT_ATOMS).
"""

from dataclasses import dataclass

import numpy as np

from .objectives import TOL_EIG, TraceObjective, _key, float_array, number, psd_eigs, sym

# grad_hs sums one inverse per atom up to this many atoms, and lifts y
# through one eigh past it: per n x n matrix with BLAS on one thread, at n = 5 to
# 50, the eigh and the lift cost between two and three inverses and a PSD check.
RESOLVENT_ATOMS = 2


@dataclass(frozen=True)
class AtomicMeasure:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty vectors")
        if not np.all((nodes >= 0.0) & (nodes < 1.0)):      # nan fails too
            raise ValueError("nodes must lie in [0, 1)")
        if not np.all((weights >= -1e-15) & (weights < np.inf)):
            raise ValueError("weights must be finite and nonnegative")
        # the support, sorted: an atom of weight 0, or rounded below it, is dropped
        keep = np.flatnonzero(weights > 0.0)
        order = keep[np.argsort(nodes[keep], kind="stable")]
        object.__setattr__(self, "nodes", nodes[order])
        object.__setattr__(self, "weights", weights[order])

    @property
    def y0(self):
        """y(0) = sum_j mu_j / (1 - lambda_j), the slope of h_S at zero."""
        return float(np.sum(self.weights / (1.0 - self.nodes)))


def phi_primitive(u, lam):
    """Antiderivative basis phi(u, lam) of 1/(u lam + 1 - lam); broadcasts.

    phi = (u/(1 - lam)) log1p(x)/x with x = u lam/(1 - lam).  Where x is a
    normal float that is log1p(x)/lam; where x is subnormal or 0 (lam = 0, or
    u lam underflowing at a tiny node) log1p(x)/x rounds to 1, and phi is
    u/(1 - lam).
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    x = u * lam / (1.0 - lam)
    out = np.log1p(x, out=np.empty(np.shape(x)))
    out /= np.where(lam > 0.0, lam, 1.0)
    np.divide(u, 1.0 - lam, out=out, where=x < np.finfo(float).tiny)
    return out


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
        if not abs(self.measure.y0 - self.base.h_prime0) <= 1e-8:     # nan fails too
            raise ValueError(
                "measure slope y(0) = %.12g does not match h'(0) = %.12g"
                % (self.measure.y0, self.base.h_prime0)
            )


def hs_trace_lift(smoothed, M):
    """H_S(M) = sum_i h_S(lambda_i(M)); requires M PSD up to tolerance."""
    w, _ = psd_eigs(M)
    return float(np.sum(hs_eval(smoothed.measure, w)))


def grad_hs(smoothed, M):
    """Gradient of H_S at M, or at each matrix of a stack; NotPSD as psd_eigs raises it.

    A measure of at most RESOLVENT_ATOMS atoms sums its resolvents
    mu_j (lambda_j S + (1 - lambda_j) I)^-1, S = sym(M), with one batched inverse
    per atom, after a batched Cholesky of S + TOL_EIG ||S||_F I has checked S
    PSD; the sum is made exactly symmetric.  A measure of more atoms applies
    y through the spectrum: W W^T with W = V sqrt(y(w)), exactly symmetric as
    matmul gives it (syrk).
    """
    measure = smoothed.measure
    if measure.weights.size > RESOLVENT_ATOMS:
        w, V = psd_eigs(M)
        W = V * np.sqrt(y_eval(measure, w))[..., None, :]
        return W @ np.swapaxes(W, -1, -2)
    S = _checked_psd(M)
    G = sum(mu * np.linalg.inv(_plus_identity(lam * S, 1.0 - lam))
            for lam, mu in zip(measure.nodes, measure.weights))
    G += np.swapaxes(G, -1, -2)
    G *= 0.5
    return G


def _plus_identity(A, s):
    """A + s I for A one matrix or a stack, s a scalar or one per matrix; in place."""
    np.einsum("...ii->...i", A)[...] += np.asarray(s)[..., None]
    return A


def _checked_psd(M):
    """sym(M), once a Cholesky of S + TOL_EIG ||S||_F I (I at S = 0) passes for each S.

    Where it fails psd_eigs decides, and raises NotPSD unless S sits on its
    tolerance.
    """
    S = sym(M)
    fro = np.sqrt(np.einsum("...ij,...ij->...", S, S))
    try:
        np.linalg.cholesky(_plus_identity(S.copy(), np.where(fro > 0.0, TOL_EIG * fro, 1.0)))
    except np.linalg.LinAlgError:
        psd_eigs(S)
    return S


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


def smoothed_to_dict(smoothed):
    return {"objective": {"kind": smoothed.base.kind, "p": smoothed.base.p},
            "nodes": smoothed.measure.nodes.tolist(), "weights": smoothed.measure.weights.tolist()}


def smoothed_from_dict(d, objective=None):
    """Inverse of smoothed_to_dict; a given objective stands for d's, which old run files lack."""
    o = _key(d, "measure", "objective") if objective is None else objective
    obj = TraceObjective(_key(o, "objective", "kind"),
                         _key(o, "objective", "p", cast=number) if "p" in o else 1.0)
    measure = AtomicMeasure(*(_key(d, "measure", k, cast=float_array) for k in ("nodes", "weights")))
    return SmoothedObjective(measure, obj)
