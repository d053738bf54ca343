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
[0, log(1 + kappa u)] for every kind, linear included.  A coarser rule on
the same interval checks it; a disagreement raises QuadratureError.

F solves F' = r F + h'(theta u) with F(0) = 0, which gives in closed form

    gs''(u)  = -(gamma theta / (B (e-1))) (r F(u) + h'(theta u))
    G_S(u)   = int_0^u gs' = (B/gamma) gs'(u) + h(theta u)/(e-1)   (penalty identity)

for both variants, so gs'' costs no quadrature beyond gs'.  The stopping
budget b' is the u with gs'(u) = -h'(0) Theta, plus rho1 for the sequential
variant; it is found by Newton steps on F kept inside a bracket.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .objectives import h_eval, h_prime

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
    variant: str = "sim"

    def __post_init__(self):
        if self.variant not in ("sim", "seq"):
            raise ValueError("variant must be 'sim' or 'seq', got %r" % (self.variant,))
        if not 1.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and >= 1, got %r" % (self.gamma,))
        if not self.b > 0.0:
            raise ValueError("budget b must be positive")
        if not (0.0 < self.theta <= self.Theta):
            raise ValueError("need 0 < theta <= Theta, got %r, %r" % (self.theta, self.Theta))
        if self.rho1 < 0.0:
            raise ValueError("rho1 must be nonnegative")
        if self.variant == "seq" and not self.rho1 > 0.0:
            raise ValueError("sequential variant requires rho1 > 0")

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
        obj = self.objective
        k = {"linear": 0.0, "dopt": 1.0}.get(obj.kind, obj.p + 1.0)
        return max(self.rate, k * self.theta)

    @cached_property
    def scale(self):
        """gs' = -scale * F."""
        return self.gamma * self.theta / (self.B * E1)


def _conv(s, x):
    """F(x) for a float or an array of 0 < x with rate * x <= OVERFLOW_EXP."""
    r, kappa = s.rate, s.kappa
    S = np.log1p(kappa * x)
    sv = S[..., None] * NODES
    v = np.expm1(sv) / kappa
    # exp(r (x - v)) h'(theta v) dv/ds, with exp(r x) taken out
    f = np.exp(sv - r * v) * h_prime(s.objective, s.theta * v)
    val, check = (f @ WEIGHTS).T * S
    bad = np.abs(val - check) > CHECK_REL_TOL * val
    if bad.any():
        raise QuadratureError("gs_prime: the Gauss-Legendre rule and its check disagree "
                              "on F(%g) by more than %g" % (np.extract(bad, x)[0], CHECK_REL_TOL))
    return np.exp(r * x) * val / kappa


def _F(s, u):
    """F(u) for scalar or array u: 0 on u <= 0, +inf past the overflow guard."""
    if np.ndim(u) == 0:
        u = float(u)
        if s.rate * u > OVERFLOW_EXP:
            return np.inf
        return float(_conv(s, u)) if u > 0.0 else 0.0
    u = np.asarray(u, dtype=float)
    over = s.rate * u > OVERFLOW_EXP
    out = np.where(over, np.inf, 0.0)
    ok = (u > 0.0) & ~over
    if ok.any():
        out[ok] = _conv(s, u[ok])
    return out


def gs_prime(s, u):
    """gs'(u) for scalar or array u; exponents past the overflow guard give -inf."""
    return 0.0 - s.scale * _F(s, u)    # 0.0 - 0.0 keeps u <= 0 at +0.0


def gs_second(s, u, gp):
    """gs''(u) = r gs'(u) - scale h'(theta u), given gp = gs'(u) for scalar or array u.

    From F' = r F + h'(theta u); gs' is an argument so that a caller holding
    it pays no second quadrature.  0 on u < 0, the right derivative at u = 0.
    """
    if np.ndim(u) == 0:
        return s.rate * gp - s.scale * h_prime(s.objective, s.theta * u) if u >= 0.0 else 0.0
    u = np.asarray(u, dtype=float)
    return np.where(u >= 0.0, s.rate * gp - s.scale * h_prime(s.objective, s.theta * u), 0.0)


def gs_value(s, u):
    """G_S(u) = int_0^u gs'(v) dv by the penalty identity; 0 on u <= 0."""
    u = np.asarray(u, dtype=float)
    val = np.where(u > 0.0, (s.B / s.gamma) * gs_prime(s, u)
                   + h_eval(s.objective, s.theta * u) / E1, 0.0)
    return float(val) if u.ndim == 0 else val


def b_prime(s):
    """Stopping budget: the crossing of gs' below -h'(0) Theta, plus rho1 if sequential.

    gs'(u) <= -h'(0) Theta means F(u) >= target.  F' = r F + h'(theta u) > 0,
    so the crossing is bracketed and refined by Newton steps, with bisection
    when a step leaves the bracket.  The right end of the bracket is
    returned, so gs'(b' - rho1) <= -h'(0) Theta holds.
    """
    obj, r = s.objective, s.rate
    target = obj.h_prime0 * s.Theta / s.scale
    # h' <= h'(0) gives F(u) <= h'(0) expm1(r u)/r, which stays below target up to lo
    lo = x = float(np.log1p(r * target / obj.h_prime0) / r)
    Fx = _F(s, x)
    while Fx < target:          # F is +inf past the overflow guard
        lo, x = x, 2.0 * x
        Fx = _F(s, x)
    hi = x
    for _ in range(100):
        if hi - lo <= 2e-12 * hi:
            break
        # Newton step on F - target; F' = r F + h'(theta x)
        dx = (Fx - target) / (r * Fx + h_prime(obj, s.theta * x))
        nxt = x - dx
        if abs(dx) < 1e-12 * x:
            # converged: step just across the crossing to close the bracket
            nxt += 1e-12 * x if Fx < target else -1e-12 * x
        x = nxt if lo < nxt < hi else 0.5 * (lo + hi)
        Fx = _F(s, x)
        if Fx >= target:
            hi = x
        else:
            lo = x
    return hi + s.rho1 if s.variant == "seq" else hi


def gamma_for_budget(objective, b, theta, Theta, rho1=0.0, variant="sim"):
    """Smallest gamma >= 1 with b'(gamma) <= b, to 1e-6 by bisection (b' is nonincreasing)."""
    if variant == "seq" and not b > rho1:
        raise ValueError("the sequential b' exceeds rho1 for every gamma, so budget b = %g "
                         "must exceed rho1 = %g" % (b, rho1))

    def bp(g):
        return b_prime(BudgetSmoother(objective, g, b, theta, Theta, rho1, variant))

    if bp(1.0) <= b:
        return 1.0
    lo, hi = 1.0, 2.0
    for _ in range(200):
        if bp(hi) <= b:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("no gamma found with b' <= b")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if bp(mid) <= b:
            hi = mid
        else:
            lo = mid
    return hi


def g_conj(z, b):
    """Conjugate of the budget indicator: G*(z) = b z for z <= 0, else 0."""
    return b * z if z <= 0.0 else 0.0
