"""Budget penalty smoothing: the exponentially weighted derivative gs' and its tools.

For a budget b, competitiveness knob gamma >= 1, and instance density bounds
theta <= tr(A_t)/c_t <= Theta, the smoothed penalty derivative is

    gs'(u) = -(gamma theta / (B (e-1))) * F(u),   F(u) = int_0^u exp(r (u - v)) h'(theta v) dv

with rate r = gamma / B, where B = b for the simultaneous variant and
B = b + rho1 gamma for the sequential one (rho1 = max cost).  gs'(u) = 0 for
u <= 0, and gs' is nonpositive and nonincreasing.

Evaluation.  Both factors of the integrand of F fall fastest at v = 0:
exp(-r v) within 1/r, and h'(theta v) within 1/(k theta) where
k = -h''(0)/h'(0) (0 linear, 1 dopt, p+1 pmean and aopt).  The substitution
v = expm1(s)/kappa with kappa = max(r, k theta) spreads both layers over a
stretch of s of order one, so F is one fixed Gauss-Legendre rule in s on
[0, log(1 + kappa u)] for every kind, linear included.  Its integrand is one
exponential: h'(theta v)/h'(0) = (1 + theta v)^(-k) enters as -k log1p(theta v)
(objectives.h_prime_drop).  A coarser rule on the same interval checks it; a
disagreement raises QuadratureError.  The quadrature is the only evaluator
of gs'.  Between its values, the ODE below bounds F from one value F(u0): h'
falls on [theta u0, theta u], so for d = u - u0 >= 0 and E = exp(r d) F(u0)

    E + h'(theta u) expm1(r d)/r <= F(u) <= E + h'(theta u0) expm1(r d)/r,

a bracket of width second order in d (nil for linear).  gs_prime_bracket
takes it for one exponential and two powers, and an engine evaluates gs'
only for a price that falls inside it.

F solves F' = r F + h'(theta u) with F(0) = 0, which gives in closed form

    gs''(u)  = -(gamma theta / (B (e-1))) (r F(u) + h'(theta u))
    G_S(u)   = int_0^u gs' = (B/gamma) gs'(u) + h(theta u)/(e-1)   (penalty identity)

for both variants, so gs'' costs no quadrature beyond gs'; b_prime finds the
stopping budget b' with newton_root, the package's one scalar root-finder.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .objectives import PARAMS, h_eval, h_prime_drop, param

E1 = np.e - 1.0

# exponent guard: beyond this the convolution overflows the float range
OVERFLOW_EXP = 700.0


def _rules(n, m):
    """Nodes of the n- and m-point Gauss-Legendre rules on [0, 1], with their weights as two columns."""
    (xn, wn), (xm, wm) = np.polynomial.legendre.leggauss(n), np.polynomial.legendre.leggauss(m)
    weights = np.zeros((n + m, 2))
    weights[:n, 0] = 0.5 * wn
    weights[n:, 1] = 0.5 * wm
    return 0.5 * (np.concatenate([xn, xm]) + 1.0), weights


# F is the 64-node rule; the 48-node rule on the same interval checks it
NODES, WEIGHTS = _rules(64, 48)
CHECK_REL_TOL = 1e-9
# gs' rounds relative to its value while no step of the quadrature is subnormal:
# past this floor on u, kappa u and |gs'|, CHECK_REL_TOL of them is a normal float
NORMAL_FLOOR = np.finfo(float).tiny / CHECK_REL_TOL
# b' lies within this of the crossing, relative to b'
B_TOL = 1e-12


class QuadratureError(RuntimeError):
    """The check rule disagrees with the main rule on F."""


@dataclass(frozen=True)
class BudgetSmoother:
    objective: object          # TraceObjective
    gamma: float
    b: float
    theta: float
    Theta: float
    rho1: float = 0.0
    variant: str = PARAMS["variant"].default

    def __post_init__(self):
        for k in ("variant", "gamma", "b"):
            param(k, getattr(self, k))
        if not (0.0 < self.theta <= self.Theta and self.rho1 >= 0.0
                and (self.rho1 > 0.0 or self.variant == "sim")):
            raise ValueError("need 0 < theta <= Theta and rho1 >= 0, > 0 under seq; got %r, %r, %r"
                             % (self.theta, self.Theta, self.rho1))
        if not np.finfo(float).tiny <= self.scale < np.inf:     # b' divides by it
            raise ValueError("--gamma %r, theta %r and budget --b %r give gs' scale %r, not a "
                             "normal float" % (self.gamma, self.theta, self.b, self.scale))

    @property
    def B(self):
        return self.b + self.rho1 * self.gamma if self.variant == "seq" else self.b

    # the constants of gs' are computed once per smoother, not once per call
    @cached_property
    def rate(self):
        return self.gamma / self.B

    @cached_property
    def kappa(self):
        """The substitution's kappa = max(r, k theta)."""
        return max(self.rate, self.objective.decay * self.theta)

    @cached_property
    def scale(self):
        """gs' = -scale * F."""
        return self.gamma * self.theta / (self.B * E1)

    @cached_property
    def source(self):
        """(scale h'(0), k), which give the bracket scale h'(theta u) as (1 + theta u)^(-k)."""
        return self.scale * self.objective.h_prime0, self.objective.decay


def _conv(s, x):
    """F(x) for a float or an array of 0 < x with rate * x <= OVERFLOW_EXP.

    A float takes the steps of a one-element array, in fewer numpy calls, and
    gives the same bits.
    """
    r, kappa, one = s.rate, s.kappa, isinstance(x, float)
    S = np.log1p(kappa * x)
    sv = (S if one else S[:, None]) * NODES
    v = np.expm1(sv) / kappa
    # exp(r (x - v)) h'(theta v) dv/ds in one exponential, with exp(r x) and h'(0) taken out
    f = np.exp(sv - r * v - h_prime_drop(s.objective, s.theta * v))
    val, check = ((f @ WEIGHTS) * S).tolist() if one else (f @ WEIGHTS).T * S
    bad = abs(val - check) > CHECK_REL_TOL * val
    if bad if one else bad.any():
        raise QuadratureError("gs_prime: the Gauss-Legendre rule and its check disagree "
                              "on F(%g) by more than %g" % (np.extract(bad, x)[0], CHECK_REL_TOL))
    return np.exp(r * x) * val / kappa * s.objective.h_prime0


def gs_prime(s, u):
    """gs'(u) = -scale F(u) for scalar or array u: 0 on u <= 0, -inf past the overflow guard."""
    if isinstance(u, float) or np.ndim(u) == 0:
        u = float(u)
        F = np.inf if s.rate * u > OVERFLOW_EXP else float(_conv(s, u)) if u > 0.0 else 0.0
    else:
        u = np.asarray(u, dtype=float)
        over = s.rate * u > OVERFLOW_EXP
        F = np.where(over, np.inf, 0.0)
        ok = (u > 0.0) & ~over
        if ok.any():
            F[ok] = _conv(s, u[ok])
    return 0.0 - s.scale * F    # 0.0 - 0.0 keeps u <= 0 at +0.0


def gs_prime_bracket(s, u0, z0, u):
    """(zlo, zhi) around gs'(u), from z0 = gs'(u0) at u0 <= u, by the ODE bound on F.

    Each end is widened by CHECK_REL_TOL, so the bracket holds gs_prime's
    values where their rounding is relative: it is (-inf, inf) where a bound
    leaves the float range, or a spend, kappa times one, z0 or the lower
    bound falls below NORMAL_FLOOR.
    """
    if not (s.rate * u <= OVERFLOW_EXP and u >= NORMAL_FLOOR and s.kappa * u >= NORMAL_FLOOR
            and (u0 == 0.0 or u0 >= NORMAL_FLOOR and s.kappa * u0 >= NORMAL_FLOOR
                 and z0 <= -NORMAL_FLOOR)):
        return -np.inf, np.inf
    em1 = math.expm1(s.rate * (u - u0))
    # exp(r d) z0, less scale h'(theta v) expm1(r d)/r at v = u0 for lo and v = u for hi
    a, k = s.source
    z, a = z0 + em1 * z0, a * em1 / s.rate
    lo = z - a * (1.0 + s.theta * u0) ** -k
    lo += CHECK_REL_TOL * lo
    if not -np.inf < lo <= -NORMAL_FLOOR:
        return -np.inf, np.inf
    hi = z - a * (1.0 + s.theta * u) ** -k
    return lo, hi - CHECK_REL_TOL * hi


def gs_second(s, u, gp):
    """gs''(u) = r gs'(u) - scale h'(theta u) at a float u, given gp = gs'(u).

    From F' = r F + h'(theta u); gs' is an argument so that a caller holding
    it pays no second quadrature.  h'(theta u) is objectives.h_prime's, bit for
    bit, in floats.  0 on u < 0, the right derivative at u = 0.
    """
    obj = s.objective
    return (s.rate * gp - s.scale * (obj.h_prime0 * (1.0 + s.theta * u) ** -obj.decay)
            if u >= 0.0 else 0.0)


def gs_value(s, u):
    """G_S(u) = int_0^u gs'(v) dv by the penalty identity; 0 on u <= 0."""
    u = np.asarray(u, dtype=float)
    val = np.where(u > 0.0, (s.B / s.gamma) * gs_prime(s, u)
                   + h_eval(s.objective, s.theta * u) / E1, 0.0)
    return float(val) if u.ndim == 0 else val


def newton_root(fn, x, f, fp, lo, hi, tol):
    """(x, lo, hi) about the root of a decreasing fn in [lo, hi], 0 <= lo, from x with
    (f, fp) = fn(x); x is the point fn last evaluated.

    rtsafe's safeguard (Numerical Recipes 9.4): a Newton step that leaves the
    bracket, or is over half the step before last, becomes a bisection.  Each
    point fn evaluates moves an end, so fn(lo) > 0 >= fn(hi) where evaluated.
    It stops once the bracket or a Newton step is at most tol relative to x.
    f = -inf only lowers hi, and fp = -inf takes no Newton step, so a caller
    with no derivative bisects.
    """
    last = last2 = hi - lo
    for _ in range(200):
        lo, hi = (x, hi) if f > 0.0 else (lo, x)
        if hi - lo <= tol * hi:
            break
        step = f / fp if -np.inf < fp < 0.0 and f > -np.inf else np.inf
        if abs(step) <= tol * x:
            break
        halves = lo < x - step < hi and abs(step) <= 0.5 * abs(last2)
        nxt = x - step if halves else 0.5 * (lo + hi)
        last2, last, x = last, x - nxt, nxt
        f, fp = fn(x)
    return x, lo, hi


def b_prime(s):
    """Stopping budget: the crossing of gs' below -h'(0) Theta, plus rho1 if sequential.

    gs'' < 0, so doubling brackets the crossing and newton_root, with gs'' by
    gs_second, brings its right end within B_TOL of it.  That end is returned,
    so gs' at b' - rho1 is at most -h'(0) Theta as computed.
    """
    obj, r = s.objective, s.rate
    if not r < np.inf:      # the search below would double x without end
        raise ValueError("--gamma %r and budget --b %r give gs' rate %r" % (s.gamma, s.b, r))
    bound = -obj.h_prime0 * s.Theta

    def excess(x):      # gs'(x) + h'(0) Theta, decreasing, and gs''(x)
        gp = gs_prime(s, x)
        return gp - bound, gs_second(s, x, gp)

    # h' <= h'(0) gives gs'(u) >= -scale h'(0) expm1(r u)/r, above the bound up to lo
    lo = x = float(np.log1p(r * (s.Theta / s.scale)) / r)
    f, fp = excess(x)
    while f > 0.0:          # gs' is -inf past the overflow guard
        lo, x = x, 2.0 * x
        f, fp = excess(x)
    x, lo, hi = newton_root(excess, x, f, fp, lo, x, B_TOL)
    # the solve stops at lo when its last Newton step, below B_TOL, came from below: the
    # crossing lies just past lo, so start again there (a subnormal lo cannot move)
    while x < hi - B_TOL * hi and lo < (x := lo + 0.5 * B_TOL * lo):
        x, lo, hi = newton_root(excess, x, *excess(x), lo, hi, B_TOL)
    return hi + s.rho1 if s.variant == "seq" else hi


def gamma_for_budget(objective, b, theta, Theta, rho1=0.0, variant=PARAMS["variant"].default):
    """Smallest gamma >= 1 with b'(gamma) <= b, to 1e-6 by bisection (b' is nonincreasing)."""
    if variant == "seq" and not b > rho1:
        raise ValueError("the sequential b' exceeds rho1 for every gamma, so budget b = %g "
                         "must exceed rho1 = %g" % (b, rho1))

    def over(g):        # b'(g) - b, with no derivative, so newton_root bisects
        return b_prime(BudgetSmoother(objective, g, b, theta, Theta, rho1, variant)) - b, -np.inf

    lo = hi = 1.0
    for _ in range(201):
        f, fp = over(hi)
        if f <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise RuntimeError("no gamma found with b' <= b")
    return newton_root(over, hi, f, fp, lo, hi, 1e-6 / hi)[2]     # hi only falls from here


def g_conj(z, b):
    """Conjugate of the budget indicator: G*(z) = b z for z <= 0, else 0."""
    return b * z if z <= 0.0 else 0.0
