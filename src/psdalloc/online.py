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

Neither engine decomposes U.  grad H_S is the resolvent sum
Y = sum_j mu_j R_j with R_j = (lambda_j U + (1 - lambda_j) I)^{-1}, and the
state holds one R_j per atom of positive weight, starting at I/(1 - lambda_j).
Each arrival keeps a factor A = L L^T (n x k), so buying x A is a rank-k
Woodbury update (Hager 1989) of every R_j and of Y; nothing is rebuilt.  A
purchase costs O(atoms * n^2 * k), so near 50 atoms at n = 50 it costs as
much as the eigh of U it replaces; the measures in use have at most 24.

The same factor makes the simultaneous root-find scalar:

    <A, grad H_S(U + x A)> = sum_j mu_j sum_i g_ji / (1 + x lambda_j g_ji),

where g_j. are the eigenvalues of the k x k matrix G_j = L^T R_j L (for
k = 1, G_j is the scalar g_j itself).  Phi'' is closed form (the rational
part by differentiation, gs'' by budget.gs_second), so the root is found by
Newton steps kept inside the bracket [0, 1] with no matrix work per probe,
and the purchase reuses R_j L and G_j's eigenvectors.

The engines keep only their decisions; ``oracle.audit_run`` replays them to
recompute every dual, price and correction term.
"""

from dataclasses import dataclass, field

import numpy as np

from .budget import gs_prime, gs_second
# grad_hs and y_eval are unused here; they stay bound because the perfbench
# tracer rebinds online.grad_hs and online.y_eval (tests/test_bench.py checks
# every name the tracer binds)
from .lowner import grad_hs, y_eval  # noqa: F401
from .objectives import TOL_EIG, InvalidMatrix, psd_eigs, sym

VARIANTS = ("seq", "sim")

# the simultaneous root-find stops when a Newton step or the bracket is this short
X_TOL = 1e-12


class ConfigError(ValueError):
    """Engine assembled from inconsistent pieces."""


@dataclass(frozen=True)
class Arrival:
    """A PSD matrix A = L L^T with cost c.

    Without L the factor comes from psd_eigs(A) (eigenvalues at or below
    TOL_EIG times the largest are dropped); a given L is checked against A.
    """

    A: np.ndarray
    c: float
    L: np.ndarray = field(default=None, repr=False, compare=False)  # n x rank

    def __post_init__(self):
        A = sym(self.A)
        if A.ndim != 2:
            raise InvalidMatrix("expected a square matrix, got shape %r" % (A.shape,))
        if self.L is None:
            w, V = psd_eigs(A)  # raises NotPSD on a bad matrix
            keep = w > TOL_EIG * max(w[-1], 0.0)
            L = V[:, keep] * np.sqrt(w[keep])
        else:
            L = np.asarray(self.L, dtype=float)
            if L.ndim != 2 or L.shape[0] != A.shape[0] or not np.isfinite(L).all():
                raise InvalidMatrix("factor L must be a finite %d x k matrix, got shape %r"
                                    % (A.shape[0], L.shape))
            scale = np.max(np.abs(A), initial=0.0)
            if np.max(np.abs(L @ L.T - A), initial=0.0) > TOL_EIG * scale:
                raise InvalidMatrix("factor L does not reproduce A = L L^T")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "L", L)
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
        live = smoothed.measure.weights > 0.0
        self.lam, self.mu = smoothed.measure.nodes[live], smoothed.measure.weights[live]
        # R_j = (lambda_j U + (1 - lambda_j) I)^{-1}, one per atom of positive weight
        self.R = np.eye(n) / (1.0 - self.lam)[:, None, None]
        self.Y = np.tensordot(self.mu, self.R, axes=1)
        self.z = 0.0
        self.decisions = []

    def _split(self, L):
        """P_j = R_j L Q_j and g_j, with G_j = L^T R_j L = Q_j diag(g_j) Q_j^T.

        Rank one needs no decomposition (Q_j = 1); otherwise each k x k G_j is
        decomposed, so the purchase reuses its eigenvectors.
        """
        P = self.R @ L
        G = np.swapaxes(P, 1, 2) @ L
        if L.shape[1] == 1:
            return P, G[:, :, 0]
        g, Q = np.linalg.eigh(G)
        return P @ Q, g

    def _take(self, x, arr, split=None):
        """Commit the decision x; duals refresh only when something is bought.

        By Woodbury, buying x L L^T subtracts P_j diag(c_j) P_j^T from R_j,
        c_ji = x lambda_j / (1 + x lambda_j g_ji), and the mu-weighted sum of
        those terms from Y.  c_j vanishes with lambda_j, so no atom divides by it.
        """
        if x > 0.0:
            P, g = split if split is not None else self._split(arr.L)
            xl = x * self.lam[:, None]
            c = xl / (1.0 + xl * g)
            Pc = P * c[:, None, :]
            # einsum is numpy's fast kernel for one column, matmul for several
            if P.shape[2] == 1:
                self.R -= np.einsum("ank,amk->anm", Pc, P)
            else:
                self.R -= Pc @ np.swapaxes(P, 1, 2)
            # Y's term in one product, the atoms' columns side by side
            Z = np.swapaxes(P, 0, 1).reshape(self.n, -1)
            self.Y -= (Z * (self.mu[:, None] * c).ravel()) @ Z.T
            self.U = self.U + x * arr.A
            self.u += x * arr.c
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
        lam, mu = self.lam, self.mu
        split = self._split(arr.L)
        g = split[1]
        lg = lam[:, None] * g

        def dphi(x, gp):
            """Phi'(x) and Phi''(x), given gp = gs'(u + x c)."""
            den = 1.0 + x * lg
            return (mu @ np.sum(g / den, axis=1) + c * gp,
                    -(mu @ np.sum(lg * g / den ** 2, axis=1))
                    + c * c * gs_second(s, u + x * c, gp))

        f1, fp1 = dphi(1.0, gs_prime(s, u + c))
        if f1 >= 0.0:
            return self._take(1.0, arr, split)
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
        return self._take(x, arr, split)

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
