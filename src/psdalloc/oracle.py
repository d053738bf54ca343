"""Offline optima and end-to-end audits of online runs.

The continuous relaxation

    maximize H(sum_t A_t x_t)  s.t.  c . x <= b,  0 <= x <= 1

is solved by spectral projected gradient ascent (Birgin, Martinez & Raydan
2000): Barzilai-Borwein steps (1988), a nonmonotone Armijo search with
memory 10, and one factorization per point for both f and its gradient:
of I + X for dopt and aopt (see _offline_point), an eigh of X for the other
kinds.  The Euclidean projection onto the box-and-budget polytope is a
continuous quadratic knapsack: its budget multiplier is found exactly by
sorting the breakpoints of the piecewise-linear spend (Kiwiel 2008).  The
ascent stops on the Frank-Wolfe duality gap (Jaggi 2013): H is concave, so
for every x

    P* <= f(x) + max_{s in polytope} grad f(x) . (s - x),

and that maximum is a fractional knapsack solved by sorting grad f / c
(Dantzig 1957).  The result carries the value f(x) <= P* and this certified
upper bound.  X = sum_t x_t A_t and the gradient are O(n^2 sum(k)) products
with the arrivals' stacked factors (A_t = L_t L_t^T), not with the m n^2 stack.

Audits replay a recorded decision sequence from the decisions and the
factors alone, forming no dual Y_k = sum_j mu_j M_jk^-1 (M_jk = lambda_j U_k +
(1 - lambda_j) I) and no inverse.  Dual k prices the steps after purchase k up
to purchase k + 1, <A_t, Y_k> = sum of l^T Y_k l over the columns l of L_t, in
one of three ways that _audit_path picks by atoms and n: one batched solve of
M_jk per atom (Golub & Van Loan 4.2); one eigh of the U_k, sum_i y(w_i)(v_i^T
l)^2; or one tridiagonal reduction U_k = Q T Q^T (LAPACK dsytrd, G&VL 8.3.1)
that every atom shares, since each M_jk is a shift of U_k: Q^T l comes from
dormqr, and each lambda_j T + (1 - lambda_j) I = L D L^T from one sweep down
T's diagonal for every dual and atom at once, with no eigenvector formed.
With G_j = L^T M_jk^-1 L, H_j = I + lambda_j x G_j and P_j = M_jk^-1 L (Hager
1989), a purchase's sim price after it is sum_j mu_j tr(H_j^-1 G_j), its seq
correction <A, Y_k - Y_k+1> = sum_j mu_j lambda_j x tr(G_j H_j^-1 G_j), and its
Y gap sum_j mu_j lambda_j x P_j H_j^-1 P_j^T: PSD where each H_j is positive
definite and mu_j lambda_j x >= 0, with least eigenvalue 0 below n columns
P_j, else the eigvalsh of the gap formed from them (in any orthonormal basis),
while no gap of 0 has come before it.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .budget import b_prime, g_conj, gs_prime, gs_value
# grad_hs and hs_trace_lift are unused here; they stay bound because the perfbench tracer
# rebinds both (tests/test_bench.py checks every name the tracer binds)
from .lowner import _plus_identity, grad_hs, hs_eval, hs_trace_lift, y_eval  # noqa: F401
from .objectives import (InvalidMatrix, _key, float_array, h_conj, h_eval, h_prime, number,
                         param, psd_eigs, scipy_extension)

DEFAULT_TOLS = {
    "budget": 1e-9,
    "z_monotone": 1e-8,
    "y_monotone": 1e-8,
    "telescope": 1e-6,
    "dual_gap": 1e-6,
    "rho_bound": 1e-6,
    "d_vs_pstar": 1e-6,
    "decision": 1e-5,
}
OFFLINE_TOL = 1e-7          # stop when the Frank-Wolfe gap is at most this times f
OFFLINE_MAX_ITERS = 5000
# the audit replays a run in blocks of steps whose n x n aggregates and
# factors hold at most this many floats
AUDIT_BLOCK_FLOATS = 2 ** 22
# the audit's pricing path (_audit_path), measured with BLAS on one thread at n = 5 to
# 200: per-atom solves for one atom at any n, and below AUDIT_TRIDIAGONAL_N for up to
# min(AUDIT_SOLVE_ATOMS, n / 5) atoms; one eigh past them; from AUDIT_TRIDIAGONAL_N on,
# the tridiagonal reduction for two atoms or more.  At n = 50 a dsytrd costs about a
# fifth of an eigh, and one atom's solves tie the reduction.  Below n = 15 the two
# bounds on the solves' atoms coincide; at n = 10 and 12, three atoms solved were within
# 6% of an eigh, two atoms 10-30% faster
AUDIT_SOLVE_ATOMS = 2
AUDIT_TRIDIAGONAL_N = 15


class AuditError(ValueError):
    """Trace is incomplete or inconsistent with the instance."""


@dataclass
class Instance:
    arrivals: list
    b: float
    theta: float = field(init=False)
    Theta: float = field(init=False)
    rho1: float = field(init=False)
    rho2: float = field(init=False)
    max_lam_over_c: float = field(init=False)
    n: int = field(init=False)
    m: int = field(init=False)
    costs: np.ndarray = field(init=False, repr=False)    # c_t per arrival
    ranks: np.ndarray = field(init=False, repr=False)    # k_t, the columns of L_t

    def __post_init__(self):
        if not self.arrivals:
            raise ValueError("instance needs at least one arrival")
        self.b = param("b", self.b)
        n = self.arrivals[0].n
        for t, a in enumerate(self.arrivals):
            if a.n != n:
                raise ValueError("arrival %d has n = %d, arrival 0 has n = %d" % (t, a.n, n))
        for k, v in instance_stats(self.arrivals).items():
            setattr(self, k, v)


def instance_stats(arrivals):
    """Density bounds and caps recomputed from scratch: theta, Theta, rho1, rho2,
    with n, m and the costs and ranks of the arrivals.

    theta and rho1 range over the arrivals with a positive trace: both
    engines reject a zero arrival and it adds nothing to P*, so it can set
    neither the density nor the largest cost that can be spent.  The trace of
    A = L L^T is sum(L * L), and lambda_max(A) that of the k x k Gram matrix
    L^T L (0 at rank 0), by one batched eigvalsh per rank; A is never formed.
    """
    traces = np.array([np.sum(a.L * a.L) for a in arrivals])
    if not np.any(traces > 0.0):
        raise ValueError("instance needs an arrival with a positive trace")
    costs = np.array([a.c for a in arrivals])
    ranks = np.array([a.L.shape[1] for a in arrivals])
    lam_max = np.zeros(len(arrivals))
    for k in np.unique(ranks[ranks > 0]):
        idx = np.flatnonzero(ranks == k)
        Ls = np.stack([arrivals[i].L for i in idx])
        lam_max[idx] = np.linalg.eigvalsh(np.swapaxes(Ls, 1, 2) @ Ls)[:, -1]
    density = traces / costs
    live = traces > 0.0
    return {
        "theta": float(density[live].min()),
        "Theta": float(density.max()),
        "rho1": float(costs[live].max()),
        "rho2": float(lam_max.max()),
        "max_lam_over_c": float((lam_max / costs).max()),
        "n": arrivals[0].n,
        "m": len(arrivals),
        "costs": costs,
        "ranks": ranks,
    }


def instance_to_dict(inst):
    """The budget and each arrival's factor "L" and cost "c"."""
    return {
        "b": inst.b,
        "arrivals": [{"L": a.L.tolist(), "c": a.c} for a in inst.arrivals],
    }


def instance_from_dict(d):
    """Inverse of instance_to_dict; an arrival may give the dense "A" of older files."""
    from .online import Arrival
    arrivals = []
    for t, e in enumerate(_key(d, "instance", "arrivals", cast=list)):
        where = "arrival %d" % t
        L, c = _key(e, where, "L", "A", cast=float_array), _key(e, where, "c", cast=number)
        arrivals.append((Arrival if "L" in e else Arrival.from_matrix)(L, c))
    return Instance(arrivals, _key(d, "instance", "b"))


def project_box_budget(v, c, b):
    """Euclidean projection onto {0 <= x <= 1, c . x <= b}; returns (x, tau).

    tau is the budget multiplier (0 when the budget constraint is slack).  The
    spend phi(tau) = c . clip(v - tau c, 0, 1) is piecewise linear and
    nonincreasing: item i adds slope -c_i^2 at (v_i - 1)/c_i and removes it at
    v_i/c_i.  Sorting the breakpoints past 0 and summing the slopes gives phi
    at each one, which locates the segment where phi first reaches b.  tau is
    then solved from that segment's own items, so it does not inherit the
    rounding of the running sums; a Newton step on the spend of x then takes
    out what v - tau c rounds off at large v, and where x ~ b/c is below the
    rounding of v itself, x is scaled onto the budget: c . x <= b (1 + 1e-12).
    """
    x = np.clip(v, 0.0, 1.0)
    if c @ x <= b * (1.0 + 1e-12):
        return x, 0.0
    t = np.concatenate(((v - 1.0) / c, v / c))
    dslope = np.concatenate((-c * c, c * c))
    past0 = t > 0.0
    order = np.argsort(t[past0])
    t, dslope = t[past0][order], dslope[past0][order]
    knots = np.concatenate(([0.0], t))
    # slope on (knots[k], knots[k+1]); it returns to 0 past the last breakpoint
    slopes = np.cumsum(dslope) - dslope.sum() - dslope
    phi = c @ x + np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
    phi[-1] = 0.0       # exactly: past the last breakpoint every item is clipped to 0
    k = int(np.argmax(phi <= b))
    y = v - 0.5 * (knots[k - 1] + knots[k]) * c
    mid = (y > 0.0) & (y < 1.0)
    den = c[mid] @ c[mid]
    # rounding in the running sums can step past the start of a flat piece
    # of phi at level b; its left end is then the root
    tau = knots[k - 1] if den == 0.0 else (c[y >= 1.0].sum() + c[mid] @ v[mid] - b) / den
    x = np.clip(v - tau * c, 0.0, 1.0)
    step = (c @ x - b) / den if den > 0.0 else 0.0
    x[mid] = np.clip(x[mid] - step * c[mid], 0.0, 1.0)
    spend = c @ x
    if spend > b * (1.0 + 1e-12):   # v - tau c cancels where x ~ b/c is below eps v
        x *= b / spend
    return x, float(tau + step)


def _knapsack_max(g, c, b):
    """max g . s over {0 <= s <= 1, c . s <= b} for g >= 0: fill by decreasing g/c.

    The gradient of H is nonnegative on PSD arrivals, since h' > 0.
    """
    order = np.argsort(-g / c)
    g, c = g[order], c[order]
    room = b - (np.cumsum(c) - c)        # budget left when item i comes up, relative to b
    return float(g @ np.clip(room / c, 0.0, 1.0))


@dataclass
class OfflineResult:
    value: float                # f(x) <= P*
    upper: float                # value + Frank-Wolfe gap >= P*
    x: np.ndarray
    iterations: int
    stationarity: float         # norm of the projected-gradient step at x


def _offline_point(obj, X, Lc):
    """(H(X), l^T grad H(X) l for each column l of Lc).

    dopt and aopt factor I + X: grad H is G = (I + X)^-1 (dopt) or G^2 (aopt),
    so the terms are l^T G l or |G l|^2 from one product G Lc, and aopt's H
    is <X, G>, which does not cancel.  dopt's H = 2 sum log C_ii (C the
    Cholesky factor) carries about n eps of absolute rounding, an eigenvalue
    lift about n eps relative, so where H < 1 dopt takes H from an eigvalsh
    of X.  The other kinds lift h and h' through one eigh of X.
    """
    if obj.kind not in ("dopt", "aopt"):
        w, V = psd_eigs(X)
        G = (V * h_prime(obj, w)) @ V.T
        return float(np.sum(h_eval(obj, w))), np.einsum("ik,ik->k", Lc, G @ Lc)
    A = _plus_identity(X.copy(), 1.0)
    try:
        G, C = np.linalg.inv(A), np.linalg.cholesky(A) if obj.kind == "dopt" else None
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "P* solve: I + X is singular in float64 at the aggregate's scale, diagonal up "
            "to %g" % X.diagonal().max()) from exc
    GL = G @ Lc
    if obj.kind == "aopt":
        return float(np.sum(X * G)), np.einsum("ik,ik->k", GL, GL)
    f = 2.0 * float(np.sum(np.log(np.diag(C))))
    if f < 1.0:
        f = float(np.sum(h_eval(obj, np.linalg.eigvalsh(X))))
    return f, np.einsum("ik,ik->k", Lc, GL)


def offline_continuous_opt(inst, obj):
    """Spectral projected gradient ascent for the continuous relaxation.

    Works on the arrivals' factors A_t = L_t L_t^T, stacked once as the
    n x sum(k) matrix Lc with arrival index idx: X = (Lc * x[idx]) Lc^T, and
    f(x) and grad_t = sum over the columns l of L_t of l^T grad H(X) l come
    from one _offline_point, so no point is decomposed twice.

    An iteration projects once, d = P(x + s g) - x, with the Barzilai-Borwein
    step s = -|dx|^2 / (dx . dg) held to [1e-8 s0, 1e8 s0] (1e8 s0 where
    dx . dg >= 0, as on the linear kind), then halves t until f(x + t d) >=
    min(last 10 f) + 1e-4 t g . d.  The first step s0 = 1 / max(g) crosses the
    box, so the solve does not depend on the scale of the arrivals.
    Stops once the Frank-Wolfe gap certifies f(x) within OFFLINE_TOL * f of
    P*, when backtracking cannot move, or after OFFLINE_MAX_ITERS gradients.
    """
    c, m = inst.costs, inst.m
    Lc = np.concatenate([a.L for a in inst.arrivals], axis=1)
    idx = np.repeat(np.arange(m), inst.ranks)

    def value(x):
        f, terms = _offline_point(obj, (Lc * x[idx]) @ Lc.T, Lc)
        return f, np.bincount(idx, terms, minlength=m)

    x, _ = project_box_budget(np.full(m, min(1.0, inst.b / max(float(c.sum()), 1e-300))),
                              c, inst.b)
    f, g = value(x)
    s0 = 1.0 / (float(g.max()) or 1.0)        # g >= 0: a step that crosses the box
    fs, s = [f], s0
    for it in range(1, OFFLINE_MAX_ITERS + 1):
        gap = max(0.0, _knapsack_max(g, c, inst.b) - float(g @ x))
        if gap <= OFFLINE_TOL * f or it == OFFLINE_MAX_ITERS:
            break
        xp, _ = project_box_budget(x + s * g, c, inst.b)
        d = xp - x
        gd, ref, t = float(g @ d), min(fs[-10:]), 1.0
        for _ in range(60 if gd > 0.0 else 0):      # gd <= 0: no ascent left to take
            xt = xp if t == 1.0 else x + t * d
            ft, gt = value(xt)
            if ft >= ref + 1e-4 * t * gd:
                break
            t *= 0.5
        else:
            break
        dx = xt - x
        sty = float(dx @ (gt - g))
        s = 1e8 * s0 if sty >= 0.0 else min(max(-float(dx @ dx) / sty, 1e-8 * s0), 1e8 * s0)
        x, f, g = xt, ft, gt
        fs.append(f)
    probe, _ = project_box_budget(x + g, c, inst.b)     # g is the gradient at x
    return OfflineResult(f, f + gap, x, it, float(np.linalg.norm(probe - x)))


@dataclass
class AuditReport:
    variant: str
    m: int
    budget_used: float
    b_prime: float
    budget_residual: float        # u_m - b', must be <= budget tol
    decision_consistent: bool
    worst_decision_residual: float
    max_z_step: float             # max of z_t - z_{t-1}, <= tol
    min_y_gap: float              # the least lambda_min of Y_{t-1} - Y_t, >= -tol
    telescope_residual: float     # H_S(U) + G_S(u) less the seq correction sum, >= -tol
    dual_gap_residual: float      # the telescope less D + h* + g*, >= -tol
    rho_bound_residual: float     # seq only (nan on sim), from tr(Y0 - Y); >= -tol
    primal_H: float               # H(U) of the replayed aggregate
    lambda_max: float             # lambda_max(U), for the design's u_max gate
    d_value: float
    p_star: float
    passed: bool
    checks: dict

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["checks"] = {k: bool(v) for k, v in self.checks.items()}  # numpy bools break json
        out["tols"] = dict(DEFAULT_TOLS)    # the tolerance each residual is held to
        return out


def _audit_block(n, k):
    """Steps per block at dimension n, rank k: its n x max(n, k) arrays hold AUDIT_BLOCK_FLOATS."""
    return max(1, AUDIT_BLOCK_FLOATS // (n * max(n, k)))


def _audit_path(atoms, n):
    """How the audit prices a measure of `atoms` atoms at dimension n: "solve", "eigh" or
    "tridiagonal" (see AUDIT_SOLVE_ATOMS and AUDIT_TRIDIAGONAL_N)."""
    if n >= AUDIT_TRIDIAGONAL_N:
        return "solve" if atoms <= 1 else "tridiagonal"
    return "solve" if atoms <= max(1, min(AUDIT_SOLVE_ATOMS, n // 5)) else "eigh"


def _aggregates(U, Lb, xb):
    """The U carried in, then the U_k after each purchase (factors Lb, decisions xb)."""
    Us = np.empty((len(Lb) + 1,) + U.shape)
    Us[0] = U
    np.matmul(Lb, np.swapaxes(Lb, 1, 2), out=Us[1:])
    Us[1:] *= xb[:, None, None]
    np.cumsum(Us, axis=0, out=Us)
    if not np.isfinite(Us[-1]).all():   # each U_k is PSD, bounded by the last's diagonal
        raise InvalidMatrix("matrix has non-finite entries")
    return Us


def _singular(Us):
    return np.linalg.LinAlgError(
        "audit: lambda U + (1 - lambda) I is singular in float64 at the replayed "
        "aggregate's scale, diagonal up to %g" % Us[-1].diagonal().max())


def _tridiagonal_prices(lapack, Us, C, cd, pc, measure):
    """Each column's price sum_j mu_j l^T M_jk^-1 l, and P_j = M_jk^-1 l for columns pc.

    Column c of C is priced by dual cd[c], the columns of each dual contiguous.
    One reduction U_k = Q T Q^T (dsytrd) serves every atom: C becomes Q^T C in
    place (dormqr) and lambda_j T + (1 - lambda_j) I = L_j D_j L_j^T, whose
    pivots are swept down T's diagonal for all duals and atoms at once, so the
    price is sum_ji mu_j y_ji^2 / delta_ji, y = L_j^-1 Q^T l, a sum of
    nonnegative terms.  P_j, in dual k's basis Q^T, takes the back sweep too.
    """
    lam, mu = measure.nodes, measure.weights
    (D, n, _), bounds = Us.shape, np.searchsorted(cd, np.arange(len(Us) + 1))
    d, e = np.empty((n, D)), np.empty((n - 1, D))      # T's diagonals, a column per dual
    lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
    for k in range(D):
        R, d[:, k], e[:, k], tau, _ = lapack.dsytrd(Us[k], lower=1, lwork=lwork)
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo and n > 1:
            C[1:, lo:hi] = lapack.dormqr("L", "T", R[1:, :-1], tau, C[1:, lo:hi], hi - lo)[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b = d[..., None] * lam + (1.0 - lam), e[..., None] * lam  # by (row, dual, atom)
        delta, ell = np.empty_like(a), np.empty_like(b)
        delta[0] = a[0]
        for i in range(n - 1):
            np.divide(b[i], delta[i], out=ell[i])
            np.multiply(ell[i], b[i], out=delta[i + 1])
            np.subtract(a[i + 1], delta[i + 1], out=delta[i + 1])
    if not np.all((delta > 0.0) & (delta < np.inf)):
        raise _singular(Us)
    inv = 1.0 / delta
    y = C[0][:, None] * np.ones(lam.size)
    acc, t = y * y * inv[0][cd], np.empty_like(y)
    Y = np.empty((n, pc.size, lam.size))
    Y[0] = y[pc]
    for i in range(1, n):
        np.multiply(ell[i - 1][cd], y, out=t)
        np.subtract(C[i][:, None], t, out=y)
        np.multiply(y, y, out=t)
        t *= inv[i][cd]
        acc += t
        Y[i] = y[pc]
    Y *= inv[:, cd[pc]]
    for i in range(n - 2, -1, -1):
        Y[i] -= ell[i][cd[pc]] * Y[i + 1]
    return acc @ mu, Y


def audit_run(decisions, inst, smoothed, budget, variant, p_star=None):
    """Replay a decision sequence from scratch and verify every guarantee.

    Recomputes the aggregate, prices and correction terms with no reference
    to the engine's stored state, then checks: per-step decision consistency
    with the step rule, the budget cap u_m <= b' + tol, monotone duals,
    nonnegativity of the smoothed telescoping sum, the dual-gap inequality,
    the sequential correction bound, and D >= P* - tol, each at its tolerance
    in DEFAULT_TOLS.  The sim decision check prices the budget at the
    replayed z = gs'(u): u changes only on a purchase, which recomputes z,
    and gs'(0) = 0 is the initial z.  The replay (see the module docstring)
    runs over blocks of _audit_block steps: in each, the U_k and spends u_k
    after its purchases are running sums from the totals carried in, and
    z_k = gs'(u_k) is one array gs_prime call.  A rejected step adds exactly 0
    to the Y gap and the z step.  As in the engines, a budget smoother built
    for another objective is refused.
    """
    decisions = np.asarray(decisions, dtype=float)
    if decisions.shape != (inst.m,):
        raise AuditError("decision sequence length %s != m = %d" % (decisions.shape, inst.m))
    if variant != budget.variant:       # a BudgetSmoother's variant is "seq" or "sim"
        raise AuditError("variant %r disagrees with the budget smoother's %r"
                         % (variant, budget.variant))
    if smoothed.base != budget.objective:
        raise AuditError("objective %s of the surrogate disagrees with the budget smoother's %s"
                         % (smoothed.base.label, budget.objective.label))
    if not np.all((decisions >= 0.0) & (decisions <= 1.0)):
        raise AuditError("decisions must lie in [0, 1]")
    obj, measure = smoothed.base, smoothed.measure
    lam, mu = measure.nodes, measure.weights
    n, m, costs, ranks = inst.n, inst.m, inst.costs, inst.ranks
    a = int(ranks.max())
    block = _audit_block(n, a)
    path = _audit_path(lam.size, n)
    if path == "tridiagonal":
        lapack = scipy_extension("scipy.linalg._flapack")
    U = np.zeros((n, n))
    u = z = pos_sum = corr_sum = 0.0
    min_y_gap, max_z_step = np.inf, -np.inf
    decision_ok, worst_resid = True, 0.0

    for s in range(0, m, block):
        e = min(s + block, m)
        x, c, k = decisions[s:e], costs[s:e], ranks[s:e]
        buys = x > 0.0
        buy = np.flatnonzero(buys)
        after = np.cumsum(buys)
        before, K = after - buys, int(after[-1])   # each step's dual, 0 the one carried in
        D = K + (not buys[-1])          # and the one after the last purchase, if a step follows
        if path == "tridiagonal":       # the steps' columns in stream order, then a zero one
            C = np.concatenate([inst.arrivals[s + i].L for i in range(e - s)]
                               + [np.zeros((n, 1))], axis=1)
            step = np.repeat(np.arange(e - s), k)
            cd = np.append(before[step], D - 1)         # each column's dual
            # each purchase's columns, padded to a by the zero one
            pc = np.where(np.arange(a) < k[buy][:, None],
                          (np.cumsum(k) - k)[buy][:, None] + np.arange(a), step.size).ravel()
            Us = _aggregates(U, np.swapaxes(C[:, pc].reshape(n, K, a), 0, 1), x[buy])
            col, Pc = _tridiagonal_prices(lapack, Us[:D], C, cd, pc, measure)
            p0 = np.bincount(step, col[:-1], minlength=e - s)
            Lb = np.swapaxes(C[:, pc].reshape(n, K, a), 0, 1)     # in each dual's basis Q^T
            P = Pc.reshape(n, K, a, lam.size).transpose(1, 3, 0, 2)
        else:
            slot = np.arange(e - s) - np.searchsorted(before, before) + 1
            slot[buy] = 0               # a segment's purchase first, then its rejections
            need = np.bincount(before, minlength=D) + (np.arange(D) >= K)    # slots per dual
            # rows of W slots, a long segment taking several: a row costs about 2 + n / 4k
            # slots of k columns (a factorization, or a gather of V)
            wide = 2 ** np.arange(int(np.log2(need.max())) + 1)
            W = wide[np.argmin(np.sum(-(-need // wide[:, None]), axis=1)
                               * (wide + 2 + n / (4 * a)))]
            rows = -(-need // W)
            first, dual = np.cumsum(rows) - rows, np.repeat(np.arange(D), rows)
            row, slot = first[before] + slot // W, slot % W
            pick = dual if dual.size > D else slice(D)      # each row's dual
            R = np.zeros((dual.size, n, W, a))
            for r in np.unique(k[k > 0]):
                idx = np.flatnonzero(k == r)
                R[row[idx], :, slot[idx], :r] = [inst.arrivals[s + i].L for i in idx]
            Lb = R[first[:K], :, 0, :]      # the purchases' factors
            Us = _aggregates(U, Lb, x[buy])
            if path == "eigh":          # M_j^-1 = V diag(1 / (lambda_j w + 1 - lambda_j)) V^T
                w, V = np.linalg.eigh(Us[:D])
                Q = (np.swapaxes(V[pick], 1, 2) @ R.reshape(dual.size, n, -1)).reshape(R.shape)
                prices = np.einsum("ri,riwk,riwk->rw", y_eval(measure, w)[pick], Q, Q)
                Lb = Q[first[:K], :, 0, :]
                P = Lb[:, None] / (np.maximum(w[:K], 0.0)[:, None, :, None] * lam[:, None, None]
                                   + (1.0 - lam)[:, None, None])
            else:
                try:                    # each row's M_j, a long segment's repeated
                    X = [R if node == 0.0 else np.linalg.solve(_plus_identity(
                        node * Us[pick], 1.0 - node), R.reshape(dual.size, n, -1)).reshape(R.shape)
                        for node in lam]
                except np.linalg.LinAlgError as exc:
                    raise _singular(Us) from exc
                prices = sum(mj * np.einsum("riwk,riwk->rw", R, Xj) for mj, Xj in zip(mu, X))
                P = np.stack([Xj[first[:K], :, 0, :] for Xj in X], axis=1)     # M_j^-1 L
            p0 = prices[row, slot]
        us = np.cumsum(np.concatenate([[u], x[buy] * c[buy]]))[1:]
        zb = np.concatenate([[z], gs_prime(budget, us) if K else us])
        p1 = p0.copy()
        if K:
            G = np.einsum("kia,kjib->kjab", Lb, P)             # L^T M_j^-1 L
            ax = lam * x[buy][:, None]
            H = _plus_identity(G * ax[..., None, None], 1.0)   # I + lambda_j x G_j
            S = G / H if a == 1 else np.linalg.solve(H, G)     # LAPACK takes 1 x 1 one by one
            p1[buy] = np.trace(S, axis1=-2, axis2=-1) @ mu
            coef = mu * ax
            least = H[..., 0, 0] if a == 1 else np.linalg.eigvalsh(H)[..., 0]
            sure = np.all((least > 0.0) & (coef >= 0.0), axis=1)   # each gap PSD
            # a gap certified PSD has lambda_min 0 below n columns P_j, and >= 0 past them
            thin = sure & (np.count_nonzero(lam) * k[buy] < n)
            if K < x.size or thin.any():
                min_y_gap = min(min_y_gap, 0.0)
            formed = ~sure | ~thin & (min_y_gap > 0.0)        # the gaps that can lower it,
            if formed.any():            # formed from their factors
                Pf, T = P[formed], np.swapaxes(P[formed], -1, -2) * coef[formed][..., None, None]
                T = T / H[formed] if a == 1 else np.linalg.solve(H[formed], T)
                gap = np.swapaxes(Pf, 1, 2).reshape(len(Pf), n, -1) @ T.reshape(len(Pf), -1, n)
                min_y_gap = min(min_y_gap, float(np.min(np.linalg.eigvalsh(gap)[:, 0])))
            dz = np.diff(zb)
            if variant == "seq":        # <A, Y_k - Y_k+1> = sum_j mu_j lambda_j x tr(G_j S_j)
                corr = np.einsum("kj,kjab,kjba->k", coef, G, S)
                corr_sum += float(np.sum(x[buy] * (c[buy] * dz - corr)))
            max_z_step = max(max_z_step, float(np.max(dz)))
            U, u, z = Us[-1], float(us[-1]), float(zb[-1])
        if K < x.size:
            min_y_gap, max_z_step = min(min_y_gap, 0.0), max(max_z_step, 0.0)
        price_before = p0 + c * zb[before]
        if variant == "seq":
            pos_sum += float(np.sum(np.maximum(price_before, 0.0)))
            wrong = x != (price_before > 0.0)
            if wrong.any():
                decision_ok = False
                worst_resid = max(worst_resid, float(np.max(np.abs(price_before[wrong]))))
        else:
            d_at = p1 + c * zb[after]
            scale = np.maximum(1.0, np.abs(p0) + c * np.abs(zb[before]))
            resid = np.where(x <= 0.0, np.maximum(0.0, d_at),
                             np.where(x >= 1.0, np.maximum(0.0, -d_at), np.abs(d_at)))
            if np.any(resid > DEFAULT_TOLS["decision"] * scale):
                decision_ok = False
            worst_resid = max(worst_resid, float(np.max(resid / scale)))
            pos_sum += float(np.sum(np.maximum(d_at, 0.0)))

    bprime = b_prime(budget)
    budget_residual = u - bprime
    # one decomposition of the final U gives H_S(U), H(U), lambda_max and y at its spectrum
    w, _ = psd_eigs(U)
    ys = y_eval(measure, w)
    HS = float(np.sum(hs_eval(measure, w)))
    GS = gs_value(budget, u)
    hstar = float(np.sum(h_conj(obj, ys)))
    gstar = g_conj(z, budget.b)
    D = pos_sum - hstar - gstar
    telescope = HS + GS - corr_sum      # corr_sum stays 0 on sim
    dual_gap = telescope - D - hstar - gstar
    rho_bound = (inst.rho2 * float(np.sum(measure.y0 - ys)) - inst.rho1 * z + corr_sum
                 if variant == "seq" else np.nan)
    if p_star is None:
        p_star = offline_continuous_opt(inst, obj).value

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
        primal_H=float(np.sum(h_eval(obj, w))), lambda_max=float(w[-1]), d_value=D,
        p_star=p_star, passed=all(checks.values()), checks=checks,
    )


def audit_trace(trace, inst, p_star=None):
    """Audit an engine trace against the instance it was produced from."""
    return audit_run(trace.decisions, inst, trace.smoothed, trace.budget,
                     trace.variant, p_star=p_star)
