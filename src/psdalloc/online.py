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

The engines keep only their decisions; ``oracle.audit_run`` replays them to
recompute every dual, price and correction term.
"""

from dataclasses import dataclass

import numpy as np

from .budget import gs_prime
from .lowner import grad_hs, y_eval
from .objectives import psd_eigs
from .spectral import sym

VARIANTS = ("seq", "sim")


class ConfigError(ValueError):
    """Engine assembled from inconsistent pieces."""


@dataclass(frozen=True)
class Arrival:
    A: np.ndarray
    c: float

    def __post_init__(self):
        A = sym(self.A)
        psd_eigs(A)  # raises NotPSD on a bad matrix
        object.__setattr__(self, "A", A)
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
    y_eigs: np.ndarray = None   # eigenvalues of the final dual Y_m

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
        self.Y = smoothed.base.h_prime0 * np.eye(n)
        self.z = 0.0
        self.decisions = []

    def _take(self, x, arr):
        """Commit the decision x; duals refresh only when something is bought."""
        if x > 0.0:
            self.U = self.U + x * arr.A
            self.u += x * arr.c
            self.Y = grad_hs(self.smoothed, self.U)
            self.z = gs_prime(self.budget, self.u)
        self.decisions.append(x)
        return x

    def step_sequential(self, arr):
        """Threshold rule on the stale price; returns the decision x in {0, 1}."""
        price = float(np.vdot(arr.A, self.Y)) + arr.c * self.z
        return self._take(1.0 if price > 0.0 else 0.0, arr)

    def step_simultaneous(self, arr):
        """Fractional step maximizing Phi; returns x in [0, 1]."""
        A, c = arr.A, arr.c

        def dphi(x):
            return (float(np.vdot(A, grad_hs(self.smoothed, self.U + x * A)))
                    + c * gs_prime(self.budget, self.u + x * c))

        d0 = float(np.vdot(A, self.Y)) + c * self.z  # dphi(0) via cached duals
        if d0 <= 0.0:
            x = 0.0
        elif dphi(1.0) >= 0.0:
            x = 1.0
        else:
            lo, hi = 0.0, 1.0
            while hi - lo > 1e-10:
                mid = 0.5 * (lo + hi)
                if dphi(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            x = 0.5 * (lo + hi)
        return self._take(x, arr)

    def finish(self, variant):
        w, _ = psd_eigs(self.U)
        return RunTrace(self.smoothed, self.budget, variant, self.n,
                        np.array(self.decisions), self.U, self.u, self.z,
                        y_eval(self.smoothed.measure, w))


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
