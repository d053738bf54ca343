"""Scalar gain functions, their conjugates, and the PSD eigendecomposition.

Catalog of concave increasing h with h(0) = 0, used eigenvalue-wise as
H(X) = sum_i h(lambda_i(X)):

    linear  h(u) = u
    dopt    h(u) = log(1 + u)
    pmean   h(u) = 1 - (1+u)^(-p)       (0 < p < inf)
    aopt    pmean at p = 1: 1 - 1/(1+u), the shifted inverse-trace criterion

An objective is named by its label alone, as TraceObjective.label prints it:
linear, dopt, aopt or pmean<p> (pmean2, pmean0.5).  p is h'(0), and every
kind but pmean has p = 1.  Every kind has h'(u) = h'(0) (1+u)^(-k) on u >= 0,
with the decay k = 0 (linear), 1 (dopt) or p + 1 (pmean and aopt), so h',
-log(h'/h'(0)) and the inverse of h' are each one formula in (p, k).

Each h is extended linearly to u < 0 with slope h'(0).  The concave conjugate
h*(y) = inf_u { y u - h(u) } is over u >= 0 (over all u for linear), so
h*(y) = 0 for y > h'(0) and -inf for y < 0.

psd_eigs is the package's one dense eigendecomposition of a PSD matrix, in
numpy's ascending order; every lift applies a scalar function to its spectrum.
scipy_extension loads one of scipy's compiled modules (HiGHS for the designer,
LAPACK for the audit) from its file, without importing the package around it.

PARAMS declares each external parameter once; everything reads it through param.
"""

import reprlib
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def decay(self):
        """k with h'(u) = h'(0) (1 + u)^(-k) on u >= 0: 0 linear, 1 dopt, p + 1 pmean, aopt."""
        return {"linear": 0.0, "dopt": 1.0}.get(self.kind, self.p + 1.0)

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


def number(v):
    """v as a float: a JSON number, not a bool or a string (nor is whole's v)."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.number)):
        raise TypeError
    return float(v)


def whole(v):
    """v as an int where that loses nothing (3 or 3.0, not 3.5)."""
    if int(v) != v or isinstance(v, bool) or not isinstance(v, (int, float, np.number)):
        raise ValueError
    return int(v)


# cast is number, whole or str; span the closed range (lo, hi), or for str the two words
Param = namedtuple("Param", "flag cast span default")

# Each external parameter, by its key in instance, design and run files.  A size's cap is
# the largest decade at which one run at the defaults finishes (CHANGES.md); DesignSpec
# refuses a u_max whose cuts leave the float range.  b = None is m/5; u_max has no default.
FLOAT_MAX = float(np.finfo(float).max)
PARAMS = {
    "n": Param("--n", whole, (1, 1000), 5),
    "m": Param("--m", whole, (1, 1000000), 50),
    "seed": Param("--seed", whole, (0, np.inf), 0),
    "repeats": Param("--repeats", whole, (1, 10000), 1),
    "generator": Param("--generator", str, ("adversarial", "random"), "adversarial"),
    "b": Param("--b", number, (5e-324, FLOAT_MAX), None),
    "density": Param("--density", number, (5e-324, 1.0), 1.0),
    "gamma": Param("--gamma", number, (1.0, FLOAT_MAX), 1.0),
    "variant": Param("--variant", str, ("sim", "seq"), "sim"),
    "q": Param("--q", whole, (2, 10000), 100),
    "d": Param("--d", whole, (2, 100000), 200),
    "u_max": Param("--umax", number, (float(np.finfo(float).tiny), FLOAT_MAX), None),
    "rho2": Param("--rho2", number, (0.0, FLOAT_MAX), 0.0),
}


def param(key, value):
    """value through PARAMS[key]'s cast if it is in range, else a ValueError naming the flag."""
    flag, cast, (lo, hi), _ = PARAMS[key]
    try:
        v = cast(value)
        if v in (lo, hi) if cast is str else lo <= v <= hi:
            return v
    except (TypeError, ValueError, OverflowError):
        pass
    span = (("positive" if lo == 5e-324 else ">= %r" % lo) if hi in (np.inf, FLOAT_MAX)
            else "in [%r, %r]" % (lo, hi))
    text = "%r or %r" % (lo, hi) if cast is str else (
        "a whole number " if cast is whole else "finite and " if hi == FLOAT_MAX else "") + span
    raise ValueError("%s must be %s, got %s" % (flag, text, reprlib.repr(value)))


def _key(d, where, *keys, cast=None):
    """d[k] for the first of keys in d, a JSON object, through cast when given: a type passes
    its own values alone, and a PARAMS key (cast, else k) reads by param.  Else a ValueError
    that names the keys, or the key of a value refused, with the reason."""
    if not isinstance(d, dict):
        raise ValueError("%s is not a JSON object" % where)
    for k in keys:
        if k in d:
            v = d[k]
            try:
                if (cast or k) in PARAMS:
                    return param(cast or k, v)
                if isinstance(cast, type) and type(v) is not cast:
                    raise TypeError
                return v if cast is None else cast(v)
            except (TypeError, ValueError, OverflowError) as exc:
                why = "refused: %s" % exc if str(exc) else "not a %s: %s" % (
                    cast.__name__.replace("_", " "), reprlib.repr(v))
                raise ValueError("%s key %r is %s" % (where, k, why)) from None
    raise ValueError("%s has no %s key" % (where, " or ".join(map(repr, keys))))


def float_array(v):
    """v as an array of floats: _key's cast for a JSON array of numbers, or of such arrays.
    Each entry is a JSON int or float; numpy alone would read a bool or a numeric string."""
    a = np.asarray(v, dtype=object)
    if not set(map(type, a.flat)) <= {int, float}:
        raise TypeError
    return a.astype(float)


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
    out = np.where(u < 0.0, obj.h_prime0 * np.minimum(u, 0.0), pos)
    return float(out) if scalar else out


def h_prime(obj, u):
    """h'(u) = h'(0) (1 + u)^(-k) (k = obj.decay), vectorized; constant h'(0) on u < 0."""
    u, scalar = _shaped(u)
    out = obj.h_prime0 * (1.0 + np.maximum(u, 0.0)) ** -obj.decay
    return float(out) if scalar else out


def h_prime_drop(obj, u):
    """-log(h'(u)/h'(0)) = k log1p(u) on finite u >= 0 (k = obj.decay), vectorized: the
    form in which the budget kernel folds h' into one exponential."""
    return obj.decay * np.log1p(u)


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
    p, dopt = obj.h_prime0, obj.kind == "dopt"
    mid = ((y > 0.0) if dopt else (y >= 0.0)) & (y <= p)
    ys = np.where(mid, y, p)              # the closed form is 0 at p
    if dopt:
        out = 1.0 - ys + np.log(ys)
    else:
        # (p+1) t^p - p t^(p+1) - 1 with t = (y/p)^(1/(p+1)) = exp(L)
        with np.errstate(divide="ignore"):
            L = np.log(ys / p) / (p + 1.0)
        out = (p + 1.0) * np.expm1(p * L) - p * np.expm1((p + 1.0) * L)
    out = np.where(mid, out, -np.inf)
    out = np.where(y > p, 0.0, out)
    return float(out) if scalar else out


def h_conj_prime(obj, y):
    """Derivative of h*: the minimizer u*(y) = (h')^{-1}(y) = (h'(0)/y)^(1/k) - 1 clipped at 0.

    Defined for y > 0; not meaningful for the linear kind (k = 0).
    """
    if obj.kind == "linear":
        raise ValueError("conjugate of the linear kind has no usable derivative")
    y, scalar = _shaped(y)
    if np.any(y <= 0.0):
        raise RangeError("h_conj_prime needs y > 0")
    out = np.maximum((obj.h_prime0 / y) ** (1.0 / obj.decay) - 1.0, 0.0)
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


def scipy_extension(name):
    """scipy's compiled module `name`, such as "scipy.linalg._flapack", loaded from its file.

    Importing the package around it (scipy.linalg, scipy.optimize) costs a
    process 0.3-0.4 s of CPU past the import of psdalloc, loading the file
    alone 0.03-0.05 s.  The module is registered under its own name, so a later
    import of the package uses it.  Where the direct load fails, it comes from
    the import, which raises ImportError where scipy has no such module.
    """
    import glob
    import importlib
    import importlib.util
    import scipy
    if name not in sys.modules:
        try:
            path, = glob.glob("/".join([scipy.__path__[0]] + name.split(".")[1:]) + "*.so")
            found = importlib.util.spec_from_file_location(name, path)
            sys.modules[name] = module = importlib.util.module_from_spec(found)
            found.loader.exec_module(module)
        except Exception:
            sys.modules.pop(name, None)
    return importlib.import_module(name)
