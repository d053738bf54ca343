"""Online primal-dual allocation engines.

State tracks the running aggregate U = sum A_t x_t, spent budget u, and the
dual pair (Y, z) = (grad H_S(U), gs'(u)).  Two step rules:

  sequential   accept fully (x = 1) iff the stale price
               c_t z_{t-1} + <A_t, Y_{t-1}> is positive (ties reject);
               duals refresh after the decision.
  simultaneous pick x in [0, 1] maximizing
               Phi(x) = H_S(U + x A) + G_S(u + x c), via the scalar
               concave stationarity condition
               Phi'(x) = <A, grad H_S(U + x A)> + c gs'(u + x c).

The simultaneous root-find needs no matrix work per probe.  grad H_S is the
resolvent sum sum_j mu_j (lambda_j M + (1 - lambda_j) I)^{-1}, and each
arrival keeps a factor A = L L^T (n x k).  Woodbury turns the matrix term
into a scalar rational function,

    <A, grad H_S(U + x A)> = sum_j mu_j sum_i g_ji / (1 + x lambda_j g_ji),

where g_j. are the eigenvalues of the k x k matrix
G_j = L^T (lambda_j U + (1 - lambda_j) I)^{-1} L, formed once per step from
the eigenpair of U cached at the last purchase.  Phi'' is closed form (the
rational part by differentiation, gs'' by budget.gs_second), so the root is
found by Newton steps kept inside the bracket [0, 1].  A purchase refreshes
the duals and the cached eigenpair with one eigendecomposition of U.

The engines keep only their decisions; ``oracle.audit_run`` replays them to
recompute every dual, price and correction term.
"""

from dataclasses import dataclass, field

import numpy as np

from .budget import gs_prime, gs_second
# grad_hs is unused here; it stays bound because the perfbench tracer rebinds it
# (tests/test_bench.py checks every name the tracer binds)
from .lowner import grad_hs, y_eval  # noqa: F401
from .objectives import TOL_EIG, psd_eigs, sym

VARIANTS = ("seq", "sim")

# the simultaneous root-find stops when a Newton step or the bracket is this short
X_TOL = 1e-12


class ConfigError(ValueError):
    """Engine assembled from inconsistent pieces."""


@dataclass(frozen=True)
class Arrival:
    A: np.ndarray
    c: float
    L: np.ndarray = field(init=False, repr=False, compare=False)  # A = L L^T, n x rank

    def __post_init__(self):
        A = sym(self.A)
        w, V = psd_eigs(A)  # raises NotPSD on a bad matrix
        keep = w > TOL_EIG * max(w[-1], 0.0)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "L", V[:, keep] * np.sqrt(w[keep]))
        if not self.c > 0.0:
            raise ValueError("cost must be positive, got %r" % (self.c,))

    @property
    def n(self):
        return self.A.shape[0]


@dataclass
class RunTrace:
    smoothed: object
    budget: object
    variant: str
    n: int
    decisions: np.ndarray
    U: np.ndarray = None
    u: float = 0.0
    z: float = 0.0

    @property
    def m(self):
        return len(self.decisions)


class OnlineState:
    """Mutable engine state; one instance per stream."""

    def __init__(self, smoothed, budget, n):
        if smoothed.base != budget.objective:
            raise ConfigError("smoothed measure and budget smoother disagree on the objective")
        self.smoothed = smoothed
        self.budget = budget
        self.n = n
        self.U = np.zeros((n, n))
        self.u = 0.0
        self.w, self.V = np.zeros(n), np.eye(n)   # eigenpair of U
        self.Y = smoothed.base.h_prime0 * np.eye(n)
        self.z = 0.0
        self.decisions = []

    def _take(self, x, arr):
        """Commit the decision x; duals refresh only when something is bought."""
        if x > 0.0:
            self.U = self.U + x * arr.A
            self.u += x * arr.c
            self.w, self.V = psd_eigs(self.U)
            self.Y = sym((self.V * y_eval(self.smoothed.measure, self.w)) @ self.V.T)
            self.z = gs_prime(self.budget, self.u)
        self.decisions.append(x)
        return x

    def step_sequential(self, arr):
        """Threshold rule on the stale price; returns the decision x in {0, 1}."""
        price = float(np.vdot(arr.A, self.Y)) + arr.c * self.z
        return self._take(1.0 if price > 0.0 else 0.0, arr)

    def step_simultaneous(self, arr):
        """Fractional step maximizing Phi; returns x in [0, 1]."""
        c, u, s = arr.c, self.u, self.budget
        d0 = float(np.vdot(arr.A, self.Y)) + c * self.z  # Phi'(0) via cached duals
        if d0 <= 0.0:
            return self._take(0.0, arr)
        lam, mu = self.smoothed.measure.nodes, self.smoothed.measure.weights
        # (lambda_j U + (1 - lambda_j) I)^{-1} in U's eigenbasis, one row per atom
        D = 1.0 / (lam[:, None] * np.maximum(self.w, 0.0) + (1.0 - lam)[:, None])
        B = self.V.T @ arr.L
        if B.shape[1] == 1:
            g = D @ np.square(B)
        else:
            g = np.linalg.eigvalsh(np.einsum("ik,ji,il->jkl", B, D, B))
        lg = lam[:, None] * g

        def dphi(x, gp):
            """Phi'(x) and Phi''(x), given gp = gs'(u + x c)."""
            den = 1.0 + x * lg
            return (mu @ np.sum(g / den, axis=1) + c * gp,
                    -(mu @ np.sum(lg * g / den ** 2, axis=1))
                    + c * c * gs_second(s, u + x * c, gp))

        f1, fp1 = dphi(1.0, gs_prime(s, u + c))
        if f1 >= 0.0:
            return self._take(1.0, arr)
        # Newton from the end with the smaller residual, kept inside (lo, hi)
        lo, hi = 0.0, 1.0
        x, f, fp = (0.0, d0, dphi(0.0, self.z)[1]) if d0 < -f1 else (1.0, f1, fp1)
        for _ in range(100):
            dx = f / fp
            if abs(dx) <= X_TOL:
                x = min(max(x - dx, lo), hi)
                break
            x = x - dx if lo < x - dx < hi else 0.5 * (lo + hi)
            f, fp = dphi(x, gs_prime(s, u + x * c))
            if f > 0.0:
                lo = x
            elif f < 0.0:
                hi = x
            if hi - lo <= X_TOL:
                break
        return self._take(x, arr)

    def finish(self, variant):
        return RunTrace(self.smoothed, self.budget, variant, self.n,
                        np.array(self.decisions), self.U, self.u, self.z)


def run_stream(smoothed, budget, arrivals, variant, n=None):
    """Drive one engine over an arrival sequence and return its trace."""
    if variant not in VARIANTS:
        raise ConfigError("variant must be one of %s" % (VARIANTS,))
    arrivals = list(arrivals)
    if n is None:
        if not arrivals:
            raise ConfigError("empty stream needs an explicit dimension n")
        n = arrivals[0].n
    state = OnlineState(smoothed, budget, n)
    step = state.step_sequential if variant == "seq" else state.step_simultaneous
    for arr in arrivals:
        if arr.n != n:
            raise ConfigError("arrival dimension %d != %d" % (arr.n, n))
        step(arr)
    return state.finish(variant)
