"""Scalar gain functions, their conjugates, and the PSD eigendecomposition.

Catalog of concave increasing h with h(0) = 0, used eigenvalue-wise as
H(X) = sum_i h(lambda_i(X)):

    linear  h(u) = u
    dopt    h(u) = log(1 + u)
    pmean   h(u) = 1 - (1+u)^(-p)       (0 < p < inf)
    aopt    pmean at p = 1: 1 - 1/(1+u), the shifted inverse-trace criterion

An objective is named by its label alone, as TraceObjective.label prints it:
linear, dopt, aopt or pmean<p> (pmean2, pmean0.5).  p is h'(0), and every
kind but pmean has p = 1.

Each h is extended linearly to u < 0 with slope h'(0).  The concave conjugate
h*(y) = inf_u { y u - h(u) } is over u >= 0 (over all u for linear), so
h*(y) = 0 for y > h'(0) and -inf for y < 0.

psd_eigs is the package's one dense eigendecomposition of a PSD matrix, in
numpy's ascending order; every lift applies a scalar function to its spectrum.
"""

import reprlib
from dataclasses import dataclass

import numpy as np

KINDS = ("linear", "dopt", "aopt", "pmean")

# relative tolerance for eigendecomposition-based identities and PSD checks
TOL_EIG = 1e-10


class InvalidMatrix(ValueError):
    """Input is not a usable symmetric matrix (non-square or non-finite)."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class RangeError(ValueError):
    """Scalar argument outside the range of h."""


@dataclass(frozen=True)
class TraceObjective:
    kind: str
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown objective kind %r (one of %s)" % (self.kind, list(KINDS)))
        if self.kind == "pmean" and not 0.0 < self.p < np.inf:
            raise ValueError("pmean needs a finite p > 0, got p = %r" % (self.p,))
        if self.kind != "pmean" and self.p != 1.0:
            raise ValueError("%s has p = 1 (only pmean takes another p), got p = %r"
                             % (self.kind, self.p))

    @property
    def h_prime0(self):
        """Slope at zero: p, which is 1 for every kind but pmean."""
        return float(self.p)

    @property
    def sup_h(self):
        return 1.0 if self.kind in ("aopt", "pmean") else np.inf

    @property
    def label(self):
        short = "%g" % self.p       # p's repr where six digits do not read back to p
        return ("pmean" + (short if float(short) == self.p else repr(float(self.p)))
                if self.kind == "pmean" else self.kind)


def make_objective(label):
    """The objective a label names: 'linear', 'dopt', 'aopt' or 'pmean<p>' ('pmean2'),
    as TraceObjective.label prints it; any other label is a ValueError naming --objective."""
    name = str(label).strip().lower()
    kind, p = ("pmean", name[5:]) if name.startswith("pmean") else (name, "1")
    try:
        return TraceObjective(kind, float(p))
    except ValueError:
        raise ValueError("--objective %r is not linear, dopt, aopt or pmean<p> with a finite "
                         "p > 0" % (label,)) from None


def _key(d, where, *keys, cast=None):
    """d[k] for the first of keys in d, a JSON object, through cast when given; else a
    ValueError that names them, or the key of a value cast refuses (float of null)."""
    if not isinstance(d, dict):
        raise ValueError("%s is not a JSON object" % where)
    for k in keys:
        if k in d:
            try:
                return d[k] if cast is None else cast(d[k])
            except (TypeError, ValueError, OverflowError):
                raise ValueError("%s key %r is not a %s: %s" % (
                    where, k, cast.__name__.replace("_", " "), reprlib.repr(d[k]))) from None
    raise ValueError("%s has no %s key" % (where, " or ".join(map(repr, keys))))


def float_array(v):
    """v as an array of floats: _key's cast for a JSON array of numbers."""
    return np.asarray(v, dtype=float)


def _shaped(u):
    arr = np.asarray(u, dtype=float)
    return arr, arr.ndim == 0


def h_eval(obj, u):
    """h(u), vectorized; linear extension h'(0)*u on u < 0."""
    u, scalar = _shaped(u)
    up = np.maximum(u, 0.0)
    if obj.kind == "linear":
        pos = up
    elif obj.kind == "dopt":
        pos = np.log1p(up)
    else:
        pos = -np.expm1(-obj.p * np.log1p(up))
    out = np.where(u < 0.0, obj.h_prime0 * u, pos)
    return float(out) if scalar else out


def h_prime(obj, u):
    """h'(u), vectorized; constant h'(0) on u < 0."""
    u, scalar = _shaped(u)
    up = np.maximum(u, 0.0)
    if obj.kind == "linear":
        out = np.ones_like(up)
    elif obj.kind == "dopt":
        out = 1.0 / (1.0 + up)
    else:
        out = obj.p * (1.0 + up) ** (-obj.p - 1.0)
    return float(out) if scalar else out


def h_inverse(obj, v):
    """Inverse of h on [0, sup h); RangeError outside."""
    v, scalar = _shaped(v)
    if np.any(v < 0.0) or np.any(v >= obj.sup_h):
        raise RangeError("value outside [0, sup h) for %s" % obj.label)
    if obj.kind == "linear":
        out = v.copy()
    elif obj.kind == "dopt":
        out = np.expm1(v)
    else:
        out = np.expm1(-np.log1p(-v) / obj.p)
    return float(out) if scalar else out


def h_conj(obj, y):
    """Concave conjugate h*(y) = inf_{u>=0} { y u - h(u) } (inf over R for linear).

    Piecewise: -inf below the domain, a closed form on (0, h'(0)] (reaching -1
    at y = 0 for aopt/pmean), and 0 for y > h'(0).  The closed forms vanish to
    second order at y = h'(0) and are written so they do not cancel there.
    """
    y, scalar = _shaped(y)
    if obj.kind == "linear":
        out = np.where(y == 1.0, 0.0, -np.inf)
        return float(out) if scalar else out
    out = np.full(y.shape, -np.inf)
    if obj.kind == "dopt":
        mid = (y > 0.0) & (y <= 1.0)
        ys = np.where(mid, y, 1.0)
        out = np.where(mid, 1.0 - ys + np.log(ys), out)
        out = np.where(y > 1.0, 0.0, out)
    else:
        p = obj.p
        mid = (y >= 0.0) & (y <= p)
        ys = np.where(mid, y, p)
        # (p+1) t^p - p t^(p+1) - 1 with t = (y/p)^(1/(p+1)) = exp(L)
        with np.errstate(divide="ignore"):
            L = np.log(ys / p) / (p + 1.0)
        out = np.where(mid, (p + 1.0) * np.expm1(p * L) - p * np.expm1((p + 1.0) * L), out)
        out = np.where(y > p, 0.0, out)
    return float(out) if scalar else out


def h_conj_prime(obj, y):
    """Derivative of h*: the minimizer u*(y) = (h')^{-1}(y) clipped at 0.

    Defined for y > 0; not meaningful for the linear kind.
    """
    if obj.kind == "linear":
        raise ValueError("conjugate of the linear kind has no usable derivative")
    y, scalar = _shaped(y)
    if np.any(y <= 0.0):
        raise RangeError("h_conj_prime needs y > 0")
    if obj.kind == "dopt":
        out = 1.0 / y - 1.0
    else:
        out = (obj.p / y) ** (1.0 / (obj.p + 1.0)) - 1.0
    out = np.maximum(out, 0.0)
    return float(out) if scalar else out


def sym(M):
    """Symmetric part (M + M.T)/2 as a float array, of one matrix or of each in a stack.

    The result is exactly symmetric entrywise, which downstream code relies on.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise InvalidMatrix("expected a square matrix, got shape %r" % (A.shape,))
    if not np.isfinite(A).all():
        raise InvalidMatrix("matrix has non-finite entries")
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def psd_eigs(M):
    """Eigenpairs (w, V) of sym(M), w ascending, with a PSD check at TOL_EIG * ||M||_F.

    V has orthonormal columns, V[:, i] pairing with w[i], so
    sym(M) == V @ diag(w) @ V.T up to TOL_EIG * ||M||_F.  A (..., n, n) stack
    gives (..., n) and (..., n, n), and each matrix is checked on its own.
    """
    w, V = np.linalg.eigh(sym(M))
    fro = np.sqrt(np.sum(w * w, axis=-1))
    bad = (fro > 0.0) & (w[..., 0] < -TOL_EIG * fro)
    if bad.any():
        raise NotPSD("smallest eigenvalue %g below -%g * ||M||"
                     % (w[..., 0][bad].flat[0], TOL_EIG))
    return w, V

