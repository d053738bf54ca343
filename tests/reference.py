"""Reference checks that only the tests call, kept out of the package.

certify_psd_dr samples the PSD diminishing-returns property of a smoothed
gain: the order reversal of grad H_S, as the smallest eigenvalue of
grad H_S(U') - grad H_S(U) for U' <= U.  grad_hs_lift is grad H_S applied
through the spectrum for any number of atoms, the reference for
lowner.grad_hs's resolvent sums.  trace_lift and grad_trace_lift are the
unsmoothed gain H(M) = sum_i h(lambda_i(M)) and its gradient, and
offline_integer_opt is the exhaustive 0/1 optimum of a small instance.
constraint_values is the design ratio written with y_eval and hs_eval,
independently of the designer's columns (designer._block).  reference_audit_run
is oracle.audit_run as a step-by-step loop, the reference for its block replay.
EagerState is the engines' step rules with gs' evaluated at every purchase,
the reference for the decisions OnlineState settles from its bracket on gs'.
engine_price is the engines' product Y L and price <A, Y>, written from the
factor as they write them, so that EagerState's prices and splits round as
theirs do.  h_prime_by_kind, h_prime_drop_by_kind and h_conj_prime_by_kind
are h', -log(h'/h'(0)) and the inverse of h' written once per kind, the
reference for objectives' single formulas in h'(0) and the decay k.
"""

from dataclasses import dataclass

import numpy as np

from psdalloc.budget import b_prime, g_conj, gs_prime, gs_second, gs_value, newton_root
from psdalloc.designer import design_grid
from psdalloc.lowner import AtomicMeasure, grad_hs, hs_eval, hs_trace_lift, y_eval
from psdalloc.objectives import h_conj, h_eval, h_prime, psd_eigs, sym
from psdalloc.online import X_TOL, OnlineState
from psdalloc.oracle import DEFAULT_TOLS, AuditReport


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


def grad_hs_lift(smoothed, M):
    """grad H_S(M) = V y(w) V^T from the eigh of M, or of each matrix in a stack."""
    w, V = psd_eigs(M)
    W = V * np.sqrt(y_eval(smoothed.measure, w))[..., None, :]
    return W @ np.swapaxes(W, -1, -2)


def trace_lift(obj, M):
    """H(M) = sum_i h(lambda_i(M)); requires M PSD up to tolerance."""
    w, _ = psd_eigs(M)
    return float(np.sum(h_eval(obj, w)))


def grad_trace_lift(obj, M):
    """Gradient of the trace lift: h' applied through the spectrum of M."""
    w, V = psd_eigs(M)
    return sym((V * h_prime(obj, w)) @ V.T)


def h_prime_by_kind(obj, u):
    """h'(u) kind by kind; constant h'(0) on u < 0."""
    u = np.asarray(u, dtype=float)
    up = np.maximum(u, 0.0)
    if obj.kind == "linear":
        out = np.ones_like(up)
    elif obj.kind == "dopt":
        out = 1.0 / (1.0 + up)
    else:
        out = obj.p * (1.0 + up) ** (-obj.p - 1.0)
    return float(out) if u.ndim == 0 else out


def h_prime_drop_by_kind(obj, u):
    """-log(h'(u)/h'(0)) on u >= 0, kind by kind."""
    return 0.0 if obj.kind == "linear" else obj.decay * np.log1p(u)


def h_conj_prime_by_kind(obj, y):
    """(h')^{-1}(y) clipped at 0 for 0 < y, kind by kind (not for linear)."""
    y = np.asarray(y, dtype=float)
    if obj.kind == "dopt":
        out = 1.0 / y - 1.0
    else:
        out = (obj.p / y) ** (1.0 / (obj.p + 1.0)) - 1.0
    out = np.maximum(out, 0.0)
    return float(out) if y.ndim == 0 else out


class CapacityError(ValueError):
    """Instance too large for exhaustive enumeration."""


def offline_integer_opt(inst, obj, max_m=22):
    """Exhaustive 0/1 optimum; CapacityError beyond max_m arrivals."""
    m, batch = inst.m, 65536     # subsets per batched eigvalsh
    if m > max_m:
        raise CapacityError("m = %d exceeds the enumeration cap %d" % (m, max_m))
    As, c = np.stack([a.L @ a.L.T for a in inst.arrivals]), inst.costs
    best_val, best_bits = 0.0, np.zeros(m)
    shifts = np.arange(m)
    for start in range(0, 2 ** m, batch):
        idx = np.arange(start, min(start + batch, 2 ** m), dtype=np.int64)
        bits = ((idx[:, None] >> shifts[None, :]) & 1).astype(float)
        feas = bits @ c <= inst.b + 1e-12
        if not np.any(feas):
            continue
        bits = bits[feas]
        X = np.tensordot(bits, As, axes=(1, 0))
        w = np.linalg.eigvalsh(X)
        vals = np.sum(h_eval(obj, w), axis=1)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_bits = float(vals[k]), bits[k]
    return best_val, best_bits


def constraint_values(spec, measure, grid=None):
    """Ratios r_i whose maximum is the certified beta for this measure.

    y and h_S are y_eval's and hs_eval's.  +inf where the conjugate is -inf (the
    measure fails the constraint there).  The seq term's drop measure has no
    atom at node 0, so the linear exact measure's is empty, with y = 0.
    """
    u = design_grid(spec) if grid is None else np.asarray(grid, dtype=float)
    ys = y_eval(measure, u)
    lhs = spec.gamma * hs_eval(measure, u) - h_conj(spec.objective, ys)
    if spec.variant == "seq":
        # y(0) - y(u) = u sum_j mu_j lambda_j a_j/(u lambda_j + 1 - lambda_j), which does
        # not cancel at small u (a_j = 1/(1 - lambda_j))
        drop = AtomicMeasure(measure.nodes, measure.weights * measure.nodes / (1.0 - measure.nodes))
        lhs = lhs + spec.gamma * spec.rho2 * u * y_eval(drop, u)
    return lhs / h_eval(spec.objective, u)


def reference_audit_run(decisions, inst, smoothed, budget, variant, p_star):
    """The audit as a step-by-step loop: the reference for oracle.audit_run's block replay.

    Each step takes its inner products with np.vdot, each purchase one
    dense gradient and one scalar gs_prime, and each Y gap one eigvalsh of
    the dense difference.  The gradients come from the spectrum
    (grad_hs_lift), so the audit's solves and its closed forms from each
    purchase's k x k Gram matrices are checked against them.  Y starts at
    grad_hs_lift at U = 0.
    """
    decisions = np.asarray(decisions, dtype=float)
    obj = smoothed.base
    n = inst.n
    U = np.zeros((n, n))
    u = 0.0
    Y0 = Y = grad_hs_lift(smoothed, U)
    z = 0.0
    pos_sum = 0.0
    corr_sum = 0.0
    min_y_gap = np.inf
    max_z_step = -np.inf
    decision_ok = True
    worst_resid = 0.0

    for arr, x in zip(inst.arrivals, decisions):
        A, c = arr.L @ arr.L.T, arr.c
        Y_new, z_new = Y, z
        if variant == "seq":
            price = float(np.vdot(A, Y)) + c * z
            pos_sum += max(price, 0.0)
            expect = 1.0 if price > 0.0 else 0.0
            if x != expect:
                decision_ok = False
                worst_resid = max(worst_resid, abs(price))
        if x > 0.0:
            U = U + x * A
            u += x * c
            Y_new = grad_hs_lift(smoothed, U)
            z_new = gs_prime(budget, u)
        if variant == "sim":
            d_at = float(np.vdot(A, Y_new)) + c * z_new     # z_new = gs'(u) at this u
            scale = max(1.0, abs(float(np.vdot(A, Y))) + c * abs(z))
            if x <= 0.0:
                resid = max(0.0, d_at)
            elif x >= 1.0:
                resid = max(0.0, -d_at)
            else:
                resid = abs(d_at)
            if resid > DEFAULT_TOLS["decision"] * scale:
                decision_ok = False
            worst_resid = max(worst_resid, resid / scale)
            pos_sum += max(d_at, 0.0)
        elif x > 0.0:
            corr_sum += x * (float(np.vdot(A, Y_new - Y)) + c * (z_new - z))
        # a rejected step leaves Y as it is: Y - Y_new is exactly 0
        y_gap = float(np.linalg.eigvalsh(Y - Y_new)[0]) if x > 0.0 else 0.0
        min_y_gap = min(min_y_gap, y_gap)
        max_z_step = max(max_z_step, z_new - z)
        Y, z = Y_new, z_new

    bprime = b_prime(budget)
    budget_residual = u - bprime
    HS = hs_trace_lift(smoothed, U)
    GS = gs_value(budget, u)
    w = np.linalg.eigvalsh(U)
    hstar = float(np.sum(h_conj(obj, y_eval(smoothed.measure, w))))
    gstar = g_conj(z, budget.b)
    D = pos_sum - hstar - gstar
    telescope = HS + GS - corr_sum
    dual_gap = HS + GS - D - hstar - gstar - corr_sum
    if variant == "seq":
        rho_bound = inst.rho2 * float(np.trace(Y0 - Y)) - inst.rho1 * z + corr_sum
    else:
        rho_bound = np.nan

    checks = {
        "budget": budget_residual <= DEFAULT_TOLS["budget"],
        "decisions": decision_ok,
        "z_monotone": max_z_step <= DEFAULT_TOLS["z_monotone"],
        "y_monotone": min_y_gap >= -DEFAULT_TOLS["y_monotone"],
        "telescope": telescope >= -DEFAULT_TOLS["telescope"],
        "dual_gap": dual_gap >= -DEFAULT_TOLS["dual_gap"],
        "d_vs_pstar": D >= p_star - DEFAULT_TOLS["d_vs_pstar"],
    }
    if variant == "seq":
        checks["rho_bound"] = rho_bound >= -DEFAULT_TOLS["rho_bound"]
    return AuditReport(
        variant=variant, m=inst.m, budget_used=u, b_prime=bprime,
        budget_residual=budget_residual, decision_consistent=decision_ok,
        worst_decision_residual=worst_resid, max_z_step=max_z_step,
        min_y_gap=min_y_gap, telescope_residual=telescope,
        dual_gap_residual=dual_gap, rho_bound_residual=float(rho_bound),
        primal_H=float(np.sum(h_eval(obj, w))), lambda_max=float(w[-1]),
        d_value=D, p_star=p_star, passed=all(checks.values()), checks=checks,
    )


def engine_price(arr, Y):
    """(Y L, <L L^T, Y>) as the engines form them: (Y l, Y l . l) at rank one, else
    (Y L, <L, Y L>)."""
    L, col = arr.L, arr.col
    YL = Y.dot(L if col is None else col)
    return YL, float(np.vdot(L, YL) if col is None else YL.dot(col))


class EagerState(OnlineState):
    """OnlineState whose every price reads z = gs'(u), evaluated at each purchase.

    The step rules are written out here with the exact z, so OnlineState's
    decisions, which its bracket on gs' settles where it can, must equal
    these bit for bit; the splits, taken from engine_price's Y L as the
    engines take them, the terms of R(x) and the Woodbury and Sherman-Morrison
    updates are OnlineState's.
    """

    def _take(self, x, arr, split=None, z=None):
        if x > 0.0 and z is None:
            z = gs_prime(self.budget, self.u + x * arr.c)
        return super()._take(x, arr, split, z)

    def step_sequential(self, arr):
        YL, v = engine_price(arr, self.Y)
        if not v + arr.c * self.z > 0.0:
            return self._take(0.0, arr)
        return self._take(1.0, arr, self._split(arr, YL, v))

    def step_simultaneous(self, arr):
        YL, v = engine_price(arr, self.Y)
        d0 = v + arr.c * self.z
        if d0 <= 0.0:
            return self._take(0.0, arr)
        c, u, s, z = arr.c, self.u, self.budget, self.z
        split = self._split(arr, YL, v)
        terms = self._terms(split)

        def rational(x):
            # the engine's float form, term by term, so the sums round alike
            r = dr = 0.0
            for gi, lgi, mi, mli in terms:
                q = gi / (1.0 + x * lgi)
                r += mi * q
                dr -= mli * (q * q)
            return r, dr

        def exact(x):
            nonlocal gp
            gp = gs_prime(s, u + x * c)
            r, dr = rational(x)
            return r + c * gp, dr + c * c * gs_second(s, u + x * c, gp)

        gp1, (r1, dr1) = gs_prime(s, u + c), rational(1.0)
        f1 = r1 + c * gp1
        if f1 >= 0.0:
            return self._take(1.0, arr, split, gp1)
        m0, m1 = c * c * gs_second(s, u, z), c * c * gs_second(s, u + c, gp1)
        x, f, fp, gp = ((0.0, d0, rational(0.0)[1] + m0, z) if d0 < -f1
                        else (1.0, f1, dr1 + m1, gp1))
        if gp1 > -np.inf:
            p0, dp = c * z, c * (gp1 - z)
            a, b = 3.0 * dp - 2.0 * m0 - m1, m0 + m1 - 2.0 * dp

            def model(x):
                r, dr = rational(x)
                return r + p0 + x * (m0 + x * (a + x * b)), dr + m0 + x * (2.0 * a + 3.0 * b * x)

            x = newton_root(model, x, f, fp, 0.0, 1.0, X_TOL)[0]
            f, fp = exact(x)
        return self._take(newton_root(exact, x, f, fp, 0.0, 1.0, X_TOL)[0], arr, split, gp)
