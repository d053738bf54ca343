"""Offline convex design of the smoothed gain and its competitiveness constant.

Over atomic measures mu supported on the node grid lambda_j = j/q (j < q, the
boundary node 1 is excluded so y(0) stays finite), minimize beta subject to

    gamma h_S(u_i) [+ gamma rho2 (y(0) - y(u_i)) for the sequential variant]
        - h*(y(u_i)) <= beta h(u_i)

on the grid u_i = h^{-1}(i h(u_max)/d), i = 1..d, with the slope normalization
sum_j mu_j/(1 - lambda_j) = h'(0) and mu >= 0.  The certified competitive
ratio is then 1/(gamma/(e-1) + beta).

h_S and y are linear in mu, and -h*(y) = sup_{v>=0} h(v) - v y is a supremum
of lines, so the grid minimax is a semi-infinite LP in (mu, beta).  Kelley's
cutting-plane method solves it, adding the tangent cut v = u*(y_i) wherever a
ratio still exceeds the LP value; the row duals bound the grid optimum below.
One HiGHS model holds the LP for a whole design: cuts are only ever added, so
each re-solve is a dual simplex warm-started from the previous basis.  An
exchange loop appends any probe points (10x-denser grid, grid midpoints,
geometric near-zero tail) found rising above the trained maximum.  A cut's
row depends only on its abscissa, so every cut stays valid as the training
grid grows and is kept; only the new points get seed cuts.  The returned beta
is the trained maximum inflated one-sidedly by any excess still seen on the
probe set.
"""

from dataclasses import dataclass

import numpy as np

from .lowner import AtomicMeasure, SmoothedObjective, hs_eval, phi_primitive, y_eval
from .objectives import TraceObjective, h_conj, h_conj_prime, h_eval, h_inverse

E1 = np.e - 1.0
DESIGN_TOL = 1e-7          # stop once the best iterate is within this times max(1, t) of the bound
DESIGN_MAX_SOLVES = 200    # LP solves per exchange round


@dataclass(frozen=True)
class DesignSpec:
    objective: TraceObjective
    gamma: float
    u_max: float
    q: int = 100
    d: int = 200
    variant: str = "sim"
    rho2: float = 0.0

    def __post_init__(self):
        if not self.gamma >= 1.0:
            raise ValueError("gamma must be >= 1")
        if not self.u_max > 0.0:
            raise ValueError("u_max must be positive")
        if self.q < 2 or self.d < 2:
            raise ValueError("need q >= 2 and d >= 2")
        if self.variant not in ("sim", "seq"):
            raise ValueError("variant must be 'sim' or 'seq'")
        if self.rho2 < 0.0:
            raise ValueError("rho2 must be nonnegative")
        if self.variant == "sim" and self.rho2 != 0.0:
            raise ValueError("rho2 > 0 only applies to the sequential variant")
        if self.variant == "seq" and not self.rho2 > 0.0:
            raise ValueError("sequential design needs rho2 > 0")


@dataclass
class DesignResult:
    measure: AtomicMeasure
    beta: float
    beta_lb: float       # final LP value (from its duals): bounds the grid optimum below
    residual: float      # one-sided inflation applied after dense-grid verification
    iterations: int      # LP solves, the first cold and every later one warm
    converged: bool
    flagged: bool
    spec: DesignSpec
    cuts: int = None     # cut rows of the final LP (None in records written without it)
    atoms: int = None    # nonzero weights of the measure (likewise)

    def smoothed(self):
        return SmoothedObjective(self.measure, self.spec.objective)


def design_grid(spec, dense=1):
    """Constraint abscissae u_i = h^{-1}(i h(u_max)/d), i = 1..dense*d."""
    d = dense * spec.d
    levels = np.arange(1, d + 1) * (h_eval(spec.objective, spec.u_max) / d)
    # guard the top level against roundoff past h(u_max)
    levels = np.minimum(levels, np.nextafter(spec.objective.sup_h, -np.inf))
    return h_inverse(spec.objective, levels)


def _tail_grid(u1, ratio=0.5, floor=1e-8):
    """Geometric safeguard points below the first grid abscissa.

    For larger gamma the binding region of the ratio constraint hugs u -> 0+
    where the h-spaced grid has no samples; these points keep the design
    honest there (extra constraints only tighten the feasible set).  The floor
    stays above the scale where cancellation in h* makes the ratio noisy.
    """
    pts = []
    u = u1 * ratio
    while u > floor:
        pts.append(u)
        u *= ratio
    return np.array(pts[::-1])


def constraint_values(spec, measure, grid=None):
    """Ratios r_i whose maximum is the certified beta for this measure.

    +inf where the conjugate is -inf (the measure fails the constraint there).
    """
    u = design_grid(spec) if grid is None else np.asarray(grid, dtype=float)
    ys = y_eval(measure, u)
    lhs = spec.gamma * hs_eval(measure, u) - h_conj(spec.objective, ys)
    if spec.variant == "seq":
        lhs = lhs + spec.gamma * spec.rho2 * (measure.y0 - ys)
    return lhs / h_eval(spec.objective, u)


def beta_for_measure(spec, measure, dense=10):
    """Certified beta of a fixed measure: max ratio on a dense grid."""
    return float(np.max(constraint_values(spec, measure, design_grid(spec, dense))))


def cr_bound(gamma, beta):
    """Competitive-ratio bound 1/(gamma/(e-1) + beta)."""
    if not gamma >= 1.0:
        raise ValueError("gamma must be >= 1")
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    return 1.0 / (gamma / E1 + beta)


class _Tableau:
    """Constraint arrays over (u-grid x node-grid).

    ratio_i(mu) = lin_i . mu - h*(Psi_i . mu)/h_i, with the part linear in mu
    lin_i = (gamma Phi_i [+ gamma rho2 (a - Psi_i)])/h_i.
    """

    def __init__(self, spec, grid):
        self.spec = spec
        self.nodes = np.arange(spec.q) / spec.q
        self.u = grid
        self.a = 1.0 / (1.0 - self.nodes)                      # y(0) coefficients
        self.h = h_eval(spec.objective, grid)
        self.Psi = 1.0 / (grid[:, None] * self.nodes + (1.0 - self.nodes))
        lin = spec.gamma * phi_primitive(grid[:, None], self.nodes[None, :])
        if spec.variant == "seq":
            lin = lin + spec.gamma * spec.rho2 * (self.a - self.Psi)
        self.lin = lin / self.h[:, None]

    def cuts(self, i, v):
        """LP rows (lin_i - v Psi_i/h_i, -1) and right sides -h(v)/h_i of the cuts v at rows i."""
        rows = np.column_stack([self.lin[i] - (v / self.h[i])[:, None] * self.Psi[i],
                                -np.ones(i.size)])
        return rows, -h_eval(self.spec.objective, v) / self.h[i]


class _CutLP:
    """The design LP in (mu, t), kept in one HiGHS model across all its solves.

        min t  s.t.  a . mu = h'(0),  mu >= 0,  t free,  cuts . (mu, t) <= rhs

    Cuts are only ever added (addRows), so HiGHS keeps its optimal basis with
    the new rows basic and re-solves by dual simplex from there; only the
    first solve is cold.  The rows are also kept here for the dual bound.
    """

    def __init__(self, a, h_prime0):
        # imported here, not at module level: scipy.optimize roughly quadruples
        # the import time of the package, and only designing needs it.  The
        # incremental interface is private to scipy; tests/test_designer.py pins it.
        try:
            from scipy.optimize._highspy._core import HighsModelStatus, _Highs, kHighsInf
        except ImportError as exc:
            import scipy
            raise ImportError("the designer needs scipy.optimize._highspy._core._Highs, "
                              "which scipy %s does not provide" % scipy.__version__) from exc
        self.optimal, self.inf = HighsModelStatus.kOptimal, kHighsInf
        self.highs = hs = _Highs()
        hs.setOptionValue("output_flag", False)
        # HiGHS's default feasibility tolerance 1e-7 equals DESIGN_TOL: at dopt
        # gamma=4 the loop then stalled, re-adding cuts the LP kept violating by 6e-8
        hs.setOptionValue("primal_feasibility_tolerance", 1e-8)
        hs.setOptionValue("dual_feasibility_tolerance", 1e-8)
        q = a.size
        hs.addVars(q + 1, np.append(np.zeros(q), -kHighsInf), np.full(q + 1, kHighsInf))
        hs.changeColsCost(1, np.array([q], dtype=np.int32), np.array([1.0]))
        hs.addRows(1, np.array([h_prime0]), np.array([h_prime0]), q,
                   np.array([0], dtype=np.int32), np.arange(q, dtype=np.int32), a)
        self.a, self.h_prime0 = a, h_prime0
        self.rows, self.rhs = np.empty((0, q + 1)), np.empty(0)
        self.seeded = np.empty(0)    # abscissae whose seed cuts are in

    def add(self, rows, rhs):
        k, width = rows.shape
        self.highs.addRows(k, np.full(k, -self.inf), rhs, rows.size,
                           np.arange(0, rows.size, width, dtype=np.int32),
                           np.tile(np.arange(width, dtype=np.int32), k), rows.ravel())
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])

    def solve(self):
        """Optimal (mu, t) and a lower bound on the LP value from the row duals.

        Weak duality, whatever the solver's tolerances: the duals lam >= 0 of
        the cuts, scaled to sum 1, give max_i ratio_i(mu) >= lam.(A mu - b)
        >= h'(0) min_j (lam A)_j / a_j - lam.b for every feasible mu.
        """
        hs = self.highs
        hs.run()
        status = hs.getModelStatus()
        if status != self.optimal:
            raise RuntimeError("design LP failed: %s" % hs.modelStatusToString(status))
        sol = hs.getSolution()
        lam = np.maximum(-np.array(sol.row_dual)[1:], 0.0)
        lam /= lam.sum()
        q = self.a.size
        lb = (self.h_prime0 * float(np.min((lam @ self.rows[:, :q]) / self.a))
              - float(lam @ self.rhs))
        return np.array(sol.col_value), lb


def _lp_weights(tab, lp):
    """Kelley's cutting-plane method for min_mu max_i ratio_i on the tableau grid.

    -h*(y) = sup_{v>=0} h(v) - v y is a supremum of lines, so every cut v
    turns constraint i into the row

        (lin_i - v Psi_i/h_i) . mu - t <= -h(v)/h_i

    of the LP in (mu, t).  The row depends on u_i alone, so the cuts already
    in lp stay valid; abscissae new to lp get the seed cuts v = u_i, where the
    exact-h measure is tangent, and v = 0.  After each solve the tangent cut
    v = u*(y_i) is added at every row whose true ratio is above t + DESIGN_TOL
    (relative to t once t exceeds 1).  Returns the weights of the best
    iterate, a lower bound on the grid minimax, the number of LP solves, and
    whether the best iterate came within DESIGN_TOL of the bound.  It also
    stops when no row is above t + DESIGN_TOL, as the LP could not move.
    """
    obj = tab.spec.objective
    q = tab.nodes.size
    new = np.flatnonzero(~np.isin(tab.u, lp.seeded))
    lp.add(*tab.cuts(new, tab.u[new]))
    lp.add(*tab.cuts(new, np.zeros(new.size)))
    lp.seeded = tab.u
    best_w, best_F, lb = None, np.inf, -np.inf
    for solves in range(1, DESIGN_MAX_SOLVES + 1):
        x, lp_lb = lp.solve()
        lb = max(lb, lp_lb)
        t = float(x[-1])
        w = np.maximum(x[:q], 0.0)
        w *= obj.h_prime0 / float(tab.a @ w)
        measure = AtomicMeasure(tab.nodes, w)
        r, y = constraint_values(tab.spec, measure, tab.u), y_eval(measure, tab.u)
        if float(np.max(r)) < best_F:
            best_w, best_F = w, float(np.max(r))
        step = DESIGN_TOL * max(1.0, abs(t))
        hot = np.flatnonzero(r > t + step)
        if best_F - lb <= step or hot.size == 0:   # certified, or nothing left to cut
            return best_w, lb, solves, best_F - lb <= step
        lp.add(*tab.cuts(hot, h_conj_prime(obj, y[hot])))
    return best_w, lb, solves, False


def design_hs(spec):
    """Design the measure minimizing the certified beta for this spec.

    Solves the grid minimax as a cutting-plane LP, then runs an exchange
    loop: probe the ratio on a 10x-denser grid, grid midpoints, and a
    geometric near-zero tail; any probe points rising above the trained
    maximum are appended to the constraint set and the design is re-solved
    in the same LP, which keeps every cut.  The returned beta is the trained
    maximum plus any residual excess still seen on the probe set (an excess
    above 1e-6 flags the result); beta_lb is the final LP's lower bound on
    the minimax over the training grid.
    """
    obj = spec.objective
    if obj.kind == "linear":
        # h* is -inf off y = 1, so the only admissible measure is the atom at 0
        # with weight 1; every ratio is then exactly gamma.
        measure = AtomicMeasure(np.array([0.0]), np.array([1.0]))
        return DesignResult(measure, float(spec.gamma), float(spec.gamma), 0.0, 0,
                            True, False, spec, cuts=0, atoms=1)

    base = design_grid(spec)
    train = np.concatenate([_tail_grid(base[0], floor=1e-5), base])
    fine = design_grid(spec, 10)
    mids = 0.5 * (fine[:-1] + fine[1:])
    probe = np.unique(np.concatenate(
        [_tail_grid(fine[0], ratio=2.0 ** -0.5), fine, mids]))

    measure, best_F, inflation = None, np.inf, np.inf
    total_solves = 0
    lp = None
    for round_no in range(4):
        tab = _Tableau(spec, grid=train)
        if lp is None:
            lp = _CutLP(tab.a, obj.h_prime0)
        w, beta_lb, solves, converged = _lp_weights(tab, lp)
        total_solves += solves
        measure = AtomicMeasure(tab.nodes, w)
        best_F = float(np.max(constraint_values(spec, measure, train)))
        pv = constraint_values(spec, measure, probe)
        inflation = max(0.0, float(np.max(pv)) - best_F)
        if inflation <= 2e-7:
            break
        mask = pv > best_F - 1e-8
        offenders = probe[mask][np.argsort(-pv[mask])][:40]
        train = np.unique(np.concatenate([train, offenders]))

    beta = best_F + inflation
    flagged = inflation > 1e-6
    return DesignResult(measure, float(beta), float(beta_lb), float(inflation),
                        total_solves, converged and not flagged, flagged, spec,
                        cuts=int(lp.rhs.size), atoms=int(np.count_nonzero(measure.weights)))


def design_to_dict(result):
    return {
        "objective": {"kind": result.spec.objective.kind, "p": result.spec.objective.p},
        "gamma": result.spec.gamma,
        "u_max": result.spec.u_max,
        "q": result.spec.q,
        "d": result.spec.d,
        "variant": result.spec.variant,
        "rho2": result.spec.rho2,
        "beta": result.beta,
        "beta_lb": result.beta_lb,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "flagged": result.flagged,
        "cuts": result.cuts,
        "atoms": result.atoms,
        "nodes": [float(x) for x in result.measure.nodes],
        "weights": [float(x) for x in result.measure.weights],
    }


def design_from_dict(d):
    """Inverse of design_to_dict; beta_lb, cuts and atoms are None for records written without them."""
    obj = TraceObjective(d["objective"]["kind"], float(d["objective"].get("p", 1.0)))
    spec = DesignSpec(obj, float(d["gamma"]), float(d["u_max"]), int(d["q"]),
                      int(d["d"]), d["variant"], float(d["rho2"]))
    measure = AtomicMeasure(np.asarray(d["nodes"], dtype=float),
                            np.asarray(d["weights"], dtype=float))
    beta_lb, cuts, atoms = d.get("beta_lb"), d.get("cuts"), d.get("atoms")
    return DesignResult(measure, float(d["beta"]),
                        None if beta_lb is None else float(beta_lb),
                        float(d["residual"]), int(d["iterations"]),
                        bool(d["converged"]), bool(d["flagged"]), spec,
                        None if cuts is None else int(cuts),
                        None if atoms is None else int(atoms))
