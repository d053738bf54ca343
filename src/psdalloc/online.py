"""Online primal-dual allocation engines.

State tracks the spent budget u, Y = grad H_S(U) at the aggregate
U = sum A_t x_t, which it never forms, and a bracket [zlo, zhi] on the dual
gs'(u) in place of gs'(u) itself.  Two step rules:

  sequential   accept fully (x = 1) iff the stale price
               c_t gs'(u_{t-1}) + <A_t, Y_{t-1}> is positive (ties reject);
               duals refresh after the decision.
  simultaneous pick x in [0, 1] maximizing
               Phi(x) = H_S(U + x A) + G_S(u + x c), via the scalar
               concave stationarity condition
               Phi'(x) = <A, grad H_S(U + x A)> + c gs'(u + x c).

Neither engine holds or decomposes U.  An arrival is given by its factor L
(n x k), A = L L^T, which is never formed: its price <A, Y>, the sum of
l^T Y l over the columns l of L as in the audit, is read off the product
Y L, and buying x A is a rank-k Woodbury update (Hager 1989).
grad H_S is Y = sum_j mu_j R_j, R_j = (lambda_j U + (1 - lambda_j) I)^{-1}.
One atom (dopt's and linear's exact measures) makes Y itself the resolvent
(node U + shift I)^{-1}, node lambda/mu and shift (1 - lambda)/mu: the state
holds the 2-D Y alone, splits each purchase from the price's Y L and
updates Y in place.  Two atoms or more hold an (atoms, n, n) stack of R_j,
from I/(1 - lambda_j), and update every R_j and Y: O(atoms * n^2 * k) a
purchase, as much as the eigh of U it replaces near 50 atoms at n = 50 (the
measures in use have at most 24).  A stack of BLOCK_MIN_FLOATS floats or
more holds R_j = B_j - W_j^T P_j, up to BLOCK_COLS pending columns that one
batched product folds into B_j (the compact form of Byrd, Nocedal &
Schnabel 1994); a smaller one updates at once.

The same factor makes the simultaneous root-find scalar:

    <A, grad H_S(U + x A)> = R(x) = sum_j mu_j sum_i g_ji / (1 + x lambda_j g_ji),

where g_j. are the eigenvalues of the k x k matrix G_j = L^T R_j L (for
k = 1, G_j is the scalar g_j itself), summed in Python floats; one atom is
the term of weight 1 and node lambda/mu, with R = Y.  A probe of
Phi' and the closed-form Phi'' (gs'' by budget.gs_second) costs one gs'
quadrature and no matrix work.
After the probe at x = 1, gs' and gs'' are known at both ends, so the model
R(x) + c H(x), H the cubic Hermite interpolant of gs'(u + x c), is solved at
no quadrature, and exact Newton steps polish its root.  Both solves are
budget.newton_root on [0, 1], which bisects on a step that leaves the
bracket or fails to halve, and stops at X_TOL relative to x.  It returns the
point it last evaluated, whose gs' becomes the new z: a fractional purchase
usually costs three quadratures.

z is gs' at the spend u0 where it was last evaluated, and from (u0, z)
budget.gs_prime_bracket bounds gs'(u) by h' at both ends of the step, for the
cost of one exponential and two powers and to second order in the step.  A
price whose sign is the same at both ends of the bracket is settled by it;
otherwise z is evaluated at u, which closes the bracket.  So a rejection reads
one cached bound, and a seq purchase or a sim whole purchase that the bracket
settles takes no quadrature.  Since the bracket holds gs', every decision is
the one the exact gs' makes, bit for bit.

A finished run keeps only its decisions, with the surrogate and budget
smoother that made them; ``oracle.audit_run`` replays them to rebuild U and
the spend and to recompute every dual, price and correction term.
"""

from dataclasses import dataclass, field

import numpy as np

from .budget import gs_prime, gs_prime_bracket, gs_second, newton_root
# grad_hs and y_eval are unused here; they stay bound because the perfbench
# tracer rebinds online.grad_hs and online.y_eval (tests/test_bench.py checks
# every name the tracer binds)
from .lowner import grad_hs, y_eval  # noqa: F401
from .objectives import TOL_EIG, InvalidMatrix, psd_eigs

# the simultaneous root-find stops when a step or the bracket is this short, relative to x
X_TOL = 1e-12
# a resolvent stack of BLOCK_MIN_FLOATS floats (atoms * n^2) or more holds up to BLOCK_COLS
# pending Woodbury columns; CHANGES.md has the measurements that chose both
BLOCK_MIN_FLOATS = 4096
BLOCK_COLS = 16


class ConfigError(ValueError):
    """Engine assembled from inconsistent pieces."""


@dataclass(frozen=True)
class Arrival:
    """A PSD matrix A = L L^T, given by its finite n x k factor L, with cost c > 0.

    A is never formed: every reader (prices, purchases, the audit's replay,
    the instance statistics) works from L.  A dense matrix enters through
    from_matrix.
    """

    L: np.ndarray    # n x k
    c: float
    col: np.ndarray = field(init=False, repr=False, compare=False)  # L[:, 0] at k = 1, else None

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2 or L.shape[0] < 1 or not np.isfinite(L).all():
            raise InvalidMatrix("factor L must be a finite n x k matrix with n >= 1, got shape %r"
                                % (L.shape,))
        if not 0.0 < self.c < np.inf:
            raise ValueError("cost c must be finite and positive, got %r" % (self.c,))
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "col", L[:, 0] if L.shape[1] == 1 else None)

    @classmethod
    def from_matrix(cls, A, c):
        """The arrival of a dense PSD matrix, factored by psd_eigs (NotPSD on a bad one);
        eigenvalues at or below TOL_EIG times the largest are dropped."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise InvalidMatrix("expected a square matrix, got shape %r" % (A.shape,))
        w, V = psd_eigs(A)
        keep = w > TOL_EIG * max(w[-1], 0.0)
        return cls(V[:, keep] * np.sqrt(w[keep]), c)

    @property
    def n(self):
        return self.L.shape[0]


@dataclass
class RunTrace:
    smoothed: object
    budget: object
    variant: str
    decisions: np.ndarray


class OnlineState:
    """Mutable engine state; one instance per stream."""

    def __init__(self, smoothed, budget, n):
        if smoothed.base != budget.objective:
            raise ConfigError("smoothed measure and budget smoother disagree on the objective")
        self.smoothed, self.budget, self.n = smoothed, budget, n
        lam, mu = smoothed.measure.nodes, smoothed.measure.weights
        if len(lam) == 1:
            # Y = (node U + shift I)^{-1} alone, node lambda/mu and shift (1 - lambda)/mu
            self.node = float(lam[0] / mu[0])
            self.Y = np.eye(n) / ((1.0 - lam[0]) / mu[0])
        else:
            # R_j = (lambda_j U + (1 - lambda_j) I)^{-1} = R[j] - W[j, :k]^T P[j, :k], one per atom
            self.node, self.lam, self.mu, self.ml = None, lam, mu, mu * lam
            self.R, self.k, self.W = np.eye(n) / (1.0 - lam)[:, None, None], 0, None
            if self.R.size >= BLOCK_MIN_FLOATS:
                self.W, self.P = np.empty((2, len(lam), BLOCK_COLS, n))
            self.Y = np.tensordot(mu, self.R, axes=1)
        # spend u; z = gs'(u0), u0 the spend of its last evaluation; [zlo, zhi] holds gs'(u)
        self.u = self.u0 = self.z = self.zlo = self.zhi = 0.0
        self.decisions = []

    def _close(self):
        """Make z exact at u, at one gs' quadrature unless it is already there."""
        if self.u0 != self.u:
            self.u0, self.z = self.u, gs_prime(self.budget, self.u)
        self.zlo = self.zhi = self.z

    def _fold(self):
        """Fold the pending columns into R, R_j -= W_j^T P_j, in one batched product."""
        self.R -= np.swapaxes(self.W[:, :self.k], 1, 2) @ self.P[:, :self.k]
        self.k = 0

    def _split(self, arr, YL, v):
        """The purchase's split (P, g), from the price's YL = Y L (Y l at rank one) and v.

        One atom takes it from YL: (Y l, v) at rank one, a vector and a float,
        and (YL Q, g) at rank k, L^T Y L = Q diag(g) Q^T.  A stack takes
        P_j = R_j L Q_j and g_j, G_j = L^T R_j L = Q_j diag(g_j) Q_j^T: two batched
        products at rank one (Q_j = 1), else one eigh of each k x k G_j, whose
        eigenvectors the purchase reuses.  Pending columns take W_j^T (P_j L) off R_j L.
        """
        L, col = arr.L, arr.col
        if self.node is not None:
            if col is not None:
                return YL, v
            g, Q = np.linalg.eigh(YL.T @ L)
            return YL @ Q, g
        if col is not None:
            p = self.R @ col
            if self.k:
                p -= (np.swapaxes(self.W[:, :self.k], 1, 2) @ (self.P[:, :self.k] @ L))[:, :, 0]
            return p[:, :, None], (p @ col)[:, None]
        P = self.R @ L
        if self.k:
            P -= np.swapaxes(self.W[:, :self.k], 1, 2) @ (self.P[:, :self.k] @ L)
        g, Q = np.linalg.eigh(np.swapaxes(P, 1, 2) @ L)
        return P @ Q, g

    def _terms(self, split):
        """(g, lambda g, mu, mu lambda) of each term of R(x) = sum mu g/(1 + x lambda g), as
        Python floats, from the split's eigenvalues g; one atom's terms have weight 1."""
        P, g = split
        if self.node is not None:
            return [(gi, self.node * gi, 1.0, self.node) for gi in ([g] if P.ndim == 1
                                                                    else g.tolist())]
        k, g = g.shape[1], g.ravel()
        lam, mu, ml = (self.lam, self.mu, self.ml) if k == 1 else np.repeat(
            [self.lam, self.mu, self.ml], k, axis=1)
        return list(zip(g.tolist(), (lam * g).tolist(), mu.tolist(), ml.tolist()))

    def _take(self, x, arr, split=None, z=None):
        """Commit the decision x, with the split of a purchase; duals refresh only on one.

        By Woodbury, buying x L L^T subtracts P diag(c) P^T, c_i = x lambda /
        (1 + x lambda g_i), from a resolvent.  One atom updates Y in place, by
        c p p^T at rank one, c in floats, and by (P c) P^T at rank k.  A stack
        does so to each R_j, and to Y by the mu-weighted sum; c_j vanishes with
        lambda_j, so no atom divides by it.  A blocked stack holds P_j diag(c_j)
        and P_j as pending columns; wider than BLOCK_COLS, they update R at once.
        A caller holding gs' at the new spend passes it as z; otherwise the
        bracket grows from the last exact point to the new spend.
        """
        if x > 0.0:
            P, g = split
            xl = x * (self.lam[:, None] if self.node is None else self.node)
            c = xl / (1.0 + xl * g)
            if self.node is not None:
                self.Y -= np.multiply.outer(c * P, P) if P.ndim == 1 else (P * c) @ P.T
            elif P.shape[2] == 1 and self.W is None:
                # one column: outer products, and Y's term over the atoms' columns
                p, c = P[:, :, 0], c[:, 0]
                self.R -= (p * c[:, None])[:, :, None] * p[:, None, :]
                self.Y -= (p.T * (self.mu * c)) @ p
            else:
                k, Pc, PT = P.shape[2], P * c[:, None, :], np.swapaxes(P, 1, 2)
                if self.W is None or k > BLOCK_COLS:
                    self.R -= Pc @ PT
                else:
                    if self.k + k > BLOCK_COLS:
                        self._fold()
                    new = slice(self.k, self.k + k)
                    self.W[:, new], self.P[:, new], self.k = Pc.swapaxes(1, 2), PT, self.k + k
                # Y's term in one product, the atoms' columns side by side
                Z = np.swapaxes(P, 0, 1).reshape(self.n, -1)
                self.Y -= (Z * (self.mu[:, None] * c).ravel()) @ Z.T
            self.u += x * arr.c
            if z is None:
                self.zlo, self.zhi = gs_prime_bracket(self.budget, self.u0, self.z, self.u)
            else:
                self.u0, self.z, self.zlo, self.zhi = self.u, z, z, z
        self.decisions.append(x)
        return x

    def step_sequential(self, arr):
        """Threshold rule on the stale price; returns the decision x in {0, 1}."""
        L, col, c = arr.L, arr.col, arr.c
        YL = self.Y.dot(L if col is None else col)
        v = float(np.vdot(L, YL) if col is None else YL.dot(col))
        if v + c * self.zhi <= 0.0:
            self.decisions.append(0.0)
            return 0.0
        if not v + c * self.zlo > 0.0:
            self._close()
            if not v + c * self.z > 0.0:
                return self._take(0.0, arr)
        return self._take(1.0, arr, self._split(arr, YL, v))

    def step_simultaneous(self, arr):
        """Fractional step maximizing Phi; returns x in [0, 1]."""
        L, col = arr.L, arr.col
        YL = self.Y.dot(L if col is None else col)
        v = float(np.vdot(L, YL) if col is None else YL.dot(col))
        if v + arr.c * self.zhi <= 0.0:     # Phi'(0) = v + c gs'(u), with gs'(u) <= zhi
            self.decisions.append(0.0)
            return 0.0
        return self._buy(arr, YL, v)

    def _buy(self, arr, YL, v):
        """Buy at the root of Phi' on [0, 1], given v = <A, Y>, read off YL, with v + c zhi > 0.

        Where the bracket leaves the sign of Phi'(0) = v + c gs'(u) open, z is
        made exact at u, and Phi'(0) <= 0 rejects.
        Phi'(1) >= 0 buys all: the bracket at u + c settles that at no
        quadrature, or the x = 1 probe's gs' does and becomes the new z.  Else
        z is made exact at u, the model R + c H is solved, then exact Newton
        from its root polishes it, and gs' at the point Newton returns, the
        last it evaluated, is the new z.
        """
        c, u, s = arr.c, self.u, self.budget
        if not v + c * self.zlo > 0.0:
            self._close()
            if not v + c * self.z > 0.0:
                return self._take(0.0, arr)
        split = self._split(arr, YL, v)
        terms = self._terms(split)

        def rational(x):
            """R(x) and R'(x), term by term in Python floats: quicker than numpy here."""
            r = dr = 0.0
            for gi, lgi, mi, mli in terms:
                q = gi / (1.0 + x * lgi)
                r += mi * q
                dr -= mli * (q * q)
            return r, dr

        def exact(x):
            """Phi'(x) and Phi''(x), at one gs' quadrature, kept as gp."""
            nonlocal gp
            gp = gs_prime(s, u + x * c)
            r, dr = rational(x)
            return r + c * gp, dr + c * c * gs_second(s, u + x * c, gp)

        r1, dr1 = rational(1.0)
        if r1 + c * gs_prime_bracket(s, self.u0, self.z, u + c)[0] >= 0.0:
            return self._take(1.0, arr, split)
        gp1 = gs_prime(s, u + c)
        f1 = r1 + c * gp1
        if f1 >= 0.0:
            return self._take(1.0, arr, split, gp1)
        self._close()
        z = self.z
        d0 = v + c * z
        m0, m1 = c * c * gs_second(s, u, z), c * c * gs_second(s, u + c, gp1)
        x, f, fp, gp = ((0.0, d0, rational(0.0)[1] + m0, z) if d0 < -f1
                        else (1.0, f1, dr1 + m1, gp1))
        if gp1 > -np.inf:
            # c H from c gs' and its slopes c^2 gs'' at both ends
            p0, dp = c * z, c * (gp1 - z)
            a, b = 3.0 * dp - 2.0 * m0 - m1, m0 + m1 - 2.0 * dp

            def model(x):
                r, dr = rational(x)
                return r + p0 + x * (m0 + x * (a + x * b)), dr + m0 + x * (2.0 * a + 3.0 * b * x)

            x = newton_root(model, x, f, fp, 0.0, 1.0, X_TOL)[0]
            f, fp = exact(x)
        x = newton_root(exact, x, f, fp, 0.0, 1.0, X_TOL)[0]
        return self._take(x, arr, split, gp)    # gp as exact last set it, at x

    def finish(self, variant):
        return RunTrace(self.smoothed, self.budget, variant, np.array(self.decisions))


def run_stream(smoothed, budget, arrivals, variant, n=None):
    """Drive one engine over an arrival sequence and return its trace."""
    if variant != budget.variant:       # a BudgetSmoother's variant is "seq" or "sim"
        raise ConfigError("variant %r disagrees with the budget smoother's %r"
                          % (variant, budget.variant))
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
