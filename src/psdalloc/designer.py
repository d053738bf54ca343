"""Offline convex design of the smoothed gain and its competitiveness constant.

Over atomic measures mu supported on the node grid lambda_j = j/q (j < q, the
boundary node 1 is excluded so y(0) stays finite), minimize beta subject to

    gamma h_S(u_i) [+ gamma rho2 (y(0) - y(u_i)) for the sequential variant]
        - h*(y(u_i)) <= beta h(u_i)

on the grid u_i = h^{-1}(i h(u_max)/d), i = 1..d, with the slope normalization
sum_j mu_j/(1 - lambda_j) = h'(0) and mu >= 0.  The certified competitive
ratio is then 1/(gamma/(e-1) + beta).

h_S and y are linear in mu, and -h*(y) = sup_{v>=0} h(v) - v y is a supremum
of lines, so the minimax is a semi-infinite LP in (mu, beta) over nodes in
[0, 1) and abscissae in (0, u_max].  Its core takes node and abscissa values,
never grid indices (_block, _cuts, _Ratio), so a node or abscissa off the
grids can join it, as in the exchange method (Hettich and Kortanek, SIAM
Review 1993).  Kelley's cutting-plane method solves it over the q nodes on the
certification grid: a geometric near-zero tail, then 20 d abscissae spaced
like u_i in h.  Every tenth u_i is seeded; after each solve the tangent cut
v = u*(y_i) is added at every local maximum of the ratio still above the LP
value.  Each cut is held over gamma, so the LP's entries do not grow with
gamma.  One HiGHS model holds only the binding part of the LP (_CutLP).  The
returned beta is the largest ratio of the best iterate on the whole
certification grid, as beta_for_measure computes it for any fixed measure;
the row duals, priced over every node, bound the grid optimum below.

The ratio's columns over that grid are cached as one row per node, built the
first time an iterate gives the node weight, and stacked as columns for the
products with each iterate's weights (_Ratio).
"""

import importlib.util
import sys
from dataclasses import dataclass

import numpy as np

from .budget import E1
from .lowner import (AtomicMeasure, SmoothedObjective, exact_measure, phi_primitive,
                     smoothed_from_dict, smoothed_to_dict)
from .objectives import (PARAMS, TraceObjective, _key, h_conj, h_conj_prime,
                         h_eval, h_inverse, number, param, whole)

DESIGN_TOL = 1e-7          # stop once the best iterate is within this times max(1, t) of the bound
DESIGN_MAX_SOLVES = 200    # LP solves per design


@dataclass(frozen=True)
class DesignSpec:
    objective: TraceObjective
    gamma: float
    u_max: float
    q: int = PARAMS["q"].default
    d: int = PARAMS["d"].default
    variant: str = PARAMS["variant"].default
    rho2: float = PARAMS["rho2"].default

    def __post_init__(self):
        for k in ("gamma", "u_max", "q", "d", "variant", "rho2"):
            param(k, getattr(self, k))
        if (self.variant == "seq") != (self.rho2 > 0.0):
            raise ValueError("--variant %s takes %s, got --rho2 %r" % (
                self.variant, "--rho2 > 0" if self.variant == "seq" else "no --rho2", self.rho2))
        # _block's entries hold Phi_j + rho2 u a_j Psi_j <= (1 + rho2) q^2 u, and that over
        # h(u); u/h(u) is largest at u_max, as h is concave
        u, h = self.u_max, h_eval(self.objective, self.u_max)
        if not (1.0 + self.rho2) * self.q**2 * max(u, u / h) < np.inf:
            raise ValueError("--umax %r and --rho2 %r put the design past the float range"
                             % (u, self.rho2))


@dataclass
class DesignResult:
    measure: AtomicMeasure
    beta: float
    beta_lb: float       # final LP value (from its duals): bounds the grid optimum below
    iterations: int      # LP solves, the first cold and every later one warm
    spec: DesignSpec
    cuts: int = None     # cuts the design added, seeds included (None in records written without it)
    residual: float = 0.0    # read from older records, which inflated beta by it
    flagged: bool = False    # likewise: set when that inflation exceeded 1e-6

    @property
    def atoms(self):
        return len(self.measure.nodes)

    def smoothed(self):
        return SmoothedObjective(self.measure, self.spec.objective)


def design_grid(spec, dense=1):
    """Constraint abscissae u_i = h^{-1}(i h(u_max)/d), i = 1..dense*d."""
    d = dense * spec.d
    levels = np.arange(1, d + 1) * (h_eval(spec.objective, spec.u_max) / d)
    # guard the top level against roundoff past h(u_max)
    levels = np.minimum(levels, np.nextafter(spec.objective.sup_h, -np.inf))
    return h_inverse(spec.objective, levels)


def _tail_grid(u1):
    """Geometric points u1 2^(-k/2) in (1e-8, u1), below the first grid abscissa.

    For larger gamma the binding region of the ratio constraint hugs u -> 0+
    where the h-spaced grid has no samples; these points keep the design
    honest there.
    """
    pts = []
    u = u1 * 2.0 ** -0.5
    while u > 1e-8:
        pts.append(u)
        u *= 2.0 ** -0.5
    return np.array(pts[::-1])


def certification_grid(spec, dense=10):
    """The abscissae a beta is certified on, increasing: a geometric near-zero tail,
    then design_grid(spec, 2 dense), the dense grid and its midpoints in h."""
    fine = design_grid(spec, 2 * dense)
    return np.concatenate([_tail_grid(fine[0]), fine])


def beta_for_measure(spec, measure, dense=10):
    """Certified beta of a fixed measure: its largest _Ratio on the certification grid,
    so a designed measure gets its design's beta bit for bit."""
    r, _ = _Ratio(spec, certification_grid(spec, dense))(measure.nodes, measure.weights)
    return float(np.max(r))


def cr_bound(gamma, beta):
    """Competitive-ratio bound 1/(gamma/(e-1) + beta)."""
    param("gamma", gamma)
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    return 1.0 / (gamma / E1 + beta)


def _block(spec, u, h, lam):
    """lin = (Phi [+ rho2 (a - Psi)])/h(u) and Psi at abscissae u and nodes lam, which broadcast
    against each other: lam[:, None] gives one row per node, u[:, None] and h[:, None] one per
    abscissa.  Either way every entry takes the same operations, so the same bits."""
    psi = 1.0 / (u * lam + (1.0 - lam))
    lin = phi_primitive(u, lam)
    if spec.variant == "seq":
        # a - Psi = u lambda a Psi exactly; the difference cancels at small u
        lin = lin + spec.rho2 * u * lam * (1.0 / (1.0 - lam)) * psi
    return lin / h, psi


def _cuts(spec, u, v, lam):
    """Rows (lin - v Psi/(gamma h), -1) over nodes lam, right sides -h(v)/(gamma h): cuts v at u."""
    h = h_eval(spec.objective, u)
    lin, psi = _block(spec, u[:, None], h[:, None], lam)
    gh = spec.gamma * h
    return (np.column_stack([lin - (v / gh)[:, None] * psi, -np.ones(u.size)]),
            -h_eval(spec.objective, v) / gh)


class _Ratio:
    """ratio(u) = gamma lin(u) . mu - h*(Psi(u) . mu)/h(u) of a measure mu at the abscissae u.

    An atom's (lin, Psi) pair is built the first time a measure holds its node,
    as one row per node over u, and cached by the node's value.  Every call
    stacks its support's rows as columns, in node order, so the products match
    those of one fresh _block of the measure's nodes bit for bit.
    """

    def __init__(self, spec, u):
        self.spec, self.u, self.h = spec, u, h_eval(spec.objective, u)
        self.rows = {}                                         # node -> its (lin, Psi) rows

    def __call__(self, nodes, w):
        """Every abscissa's ratio for the atoms (nodes, w), nodes increasing, and y = Psi w."""
        keys = nodes.tolist()
        new = [lam for lam in keys if lam not in self.rows]
        if new:
            lin, psi = _block(self.spec, self.u, self.h, np.array(new)[:, None])
            self.rows.update(zip(new, zip(lin, psi)))
        lin, psi = (np.column_stack([self.rows[lam][k] for lam in keys]) for k in (0, 1))
        y = psi @ w
        with np.errstate(over="ignore"):    # past the float range at a huge gamma: beta = inf
            lin = self.spec.gamma * (lin @ w)
        return lin - h_conj(self.spec.objective, y) / self.h, y


def _dense(block):
    """(entries, starts, indices, values) of a dense block, one vector per row, for HiGHS."""
    k, width = block.shape
    return (block.size, np.arange(0, block.size, width, dtype=np.int32),
            np.tile(np.arange(width, dtype=np.int32), k), block.ravel())


class _CutLP:
    """The design LP in (mu, t/gamma), one HiGHS model holding only its binding part.

        min t/gamma  s.t.  a . mu = h'(0),  mu >= 0,  t free,  cuts . (mu, t/gamma) <= rhs

    The model starts with t/gamma and every fifth node.  Cut rows are kept here
    at full width, so after each solve every node whose reduced cost is below
    those of the nodes in the model enters at the next solve (addCols), its
    column read off these rows.  A cut that is slack with zero dual at two
    consecutive solves leaves the model (deleteRows); at zero dual that
    leaves the LP value unchanged.  HiGHS keeps its basis across both edits,
    so only the first solve is cold.
    """

    TOL = 1e-8       # HiGHS's primal and dual feasibility tolerances

    def __init__(self, spec, nodes):
        # HiGHS's extension is loaded here, once per process, from its file: importing
        # scipy.optimize would roughly quadruple the package's import time, and the import
        # below is only the fallback.  Its interface is private; tests/test_designer.py pins it.
        import glob
        import scipy
        name = "scipy.optimize._highspy._core"
        if name not in sys.modules:
            try:
                path, = glob.glob(scipy.__path__[0] + "/optimize/_highspy/_core*.so")
                found = importlib.util.spec_from_file_location(name, path)
                sys.modules[name] = core = importlib.util.module_from_spec(found)
                found.loader.exec_module(core)
            except Exception:
                sys.modules.pop(name, None)
        try:
            from scipy.optimize._highspy._core import HighsModelStatus, _Highs, kHighsInf
        except ImportError as exc:
            raise ImportError("the designer needs scipy.optimize._highspy._core._Highs, "
                              "which scipy %s does not provide" % scipy.__version__) from exc
        self.optimal, self.inf = HighsModelStatus.kOptimal, kHighsInf
        self.highs = hs = _Highs()
        hs.setOptionValue("output_flag", False)
        # in units of t/gamma, about 1 or more as the ratio tends to gamma at u -> 0; at
        # HiGHS's default 1e-7 = DESIGN_TOL the loop stalled, re-adding violated cuts
        hs.setOptionValue("primal_feasibility_tolerance", self.TOL)
        hs.setOptionValue("dual_feasibility_tolerance", self.TOL)
        # presolve was most of each cold first solve on these small dense LPs;
        # the designs come out bit-identical without it
        hs.setOptionValue("presolve", "off")
        q, h_prime0 = nodes.size, spec.objective.h_prime0
        self.cols = np.append(q, np.arange(0, q, 5))     # each model column in a full row: t, nodes
        self.a = a = 1.0 / (1.0 - nodes)                 # y(0) coefficients
        self.spec, self.nodes, self.eq, self.h_prime0 = spec, nodes, np.append(a, 0.0), h_prime0
        self.flags = ("this --gamma, --umax and --rho2 (cut entries grow with u_max, which run "
                      "and bench derive from --b, and under seq with rho2)")
        k = self.cols.size
        hs.addVars(k, np.append(-kHighsInf, np.zeros(k - 1)), np.full(k, kHighsInf))
        hs.changeColsCost(1, np.array([0], dtype=np.int32), np.array([1.0]))
        hs.addRows(1, np.array([h_prime0]), np.array([h_prime0]), *_dense(self.eq[None, self.cols]))
        self.rows, self.rhs = np.empty((0, q + 1)), np.empty(0)
        self.idle = np.empty(0, dtype=int)      # consecutive solves each cut was slack at zero dual
        self.pending = np.empty(0, dtype=int)   # nodes that enter at the next solve
        self.added = 0                          # cuts ever added

    def add(self, u, v):
        """Add the tangent cuts v at the abscissae u, each row over every node."""
        rows, rhs = _cuts(self.spec, u, v, self.nodes)
        k = rhs.size
        self.highs.addRows(k, np.full(k, -self.inf), rhs, *_dense(rows[:, self.cols]))
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.idle = np.concatenate([self.idle, np.zeros(k, dtype=int)])
        self.added += k

    def _refit(self):
        """Drop the cuts idle at two consecutive solves, then enter the pending nodes."""
        hs, drop = self.highs, np.flatnonzero(self.idle >= 2)
        if drop.size:
            hs.deleteRows(drop.size, (1 + drop).astype(np.int32))
            keep = self.idle < 2
            self.rows, self.rhs, self.idle = self.rows[keep], self.rhs[keep], self.idle[keep]
        new, k = self.pending, self.pending.size
        if k:
            hs.addCols(k, np.zeros(k), np.zeros(k), np.full(k, self.inf),
                       *_dense(np.vstack([self.eq[new], self.rows[:, new]]).T))
            self.cols = np.append(self.cols, new)
            self.pending = new[:0]

    def solve(self):
        """Optimal (mu, t) over all q + 1 variables and a lower bound on the LP value.

        Weak duality, whatever the solver's tolerances and whichever rows and
        columns the model holds: the duals lam >= 0 of its cuts, scaled to sum
        1, give max_i ratio_i(mu) >= lam.(A mu - b) >= h'(0) min_j (lam A)_j / a_j
        - lam.b for every feasible mu over all q nodes.  (lam A)_j / a_j is
        also node j's price: below the least price in the model, j enters.
        """
        hs = self.highs
        self._refit()
        hs.run()
        status = hs.getModelStatus()
        # HiGHS drops a cut with an entry past 1e15; cuts held over gamma do not grow with it
        if (status != self.optimal or hs.getNumRow() != 1 + self.rhs.size
                or hs.getNumCol() != self.cols.size):
            raise ValueError("design LP failed (%s, %d of %d cuts held) at %s" % (
                hs.modelStatusToString(status), hs.getNumRow() - 1, self.rhs.size, self.flags))
        sol = hs.getSolution()
        dual = -np.array(sol.row_dual)[1:]
        lam = np.maximum(dual, 0.0)
        lam /= lam.sum()
        price = lam @ self.rows[:, :-1] / self.a
        lb = self.h_prime0 * float(np.min(price)) - float(lam @ self.rhs)
        self.pending = np.flatnonzero(price < np.min(price[self.cols[1:]]))   # none in the model
        slack = np.array(sol.row_value)[1:] < self.rhs - self.TOL
        self.idle = np.where(slack & (dual == 0.0), self.idle + 1, 0)
        x = np.zeros(self.a.size + 1)
        x[self.cols] = sol.col_value
        return x, lb


def design_hs(spec):
    """Design the measure minimizing the certified beta for this spec.

    The abscissae design_grid(spec)[::10] are seeded with the cuts v = u_i, where
    the exact-h measure is tangent, and v = 0; any one cut bounds the LP, so the
    seeds are only a warm start.  After each solve a tangent cut is added at
    every local maximum of the ratio above t + DESIGN_TOL (relative to t once
    t exceeds 1), and the nodes that price in enter the LP with them.  The
    loop stops once the best iterate is within that of the dual bound
    beta_lb, or when no ratio is above it and no node prices in, as the LP
    could not move.
    """
    obj = spec.objective
    if obj.kind == "linear":
        # h* is -inf off y = 1, so the only admissible measure is the atom at 0
        # with weight 1; every ratio is then exactly gamma.
        return DesignResult(exact_measure(obj), float(spec.gamma), float(spec.gamma), 0, spec,
                            cuts=0)
    if not spec.gamma * h_eval(obj, spec.u_max) < np.inf:   # _cuts divides by it
        raise ValueError("--gamma %r and --umax %r put the design's cuts past the float range"
                         % (spec.gamma, spec.u_max))
    ratio = _Ratio(spec, certification_grid(spec))
    lp = _CutLP(spec, np.arange(spec.q) / spec.q)
    seeds = design_grid(spec)[::10]
    lp.add(seeds, seeds)
    lp.add(seeds, np.zeros(seeds.size))
    best, best_F, lb = None, np.inf, -np.inf
    for solves in range(1, DESIGN_MAX_SOLVES + 1):
        x, lp_lb = lp.solve()
        lb = max(lb, spec.gamma * lp_lb)
        t = spec.gamma * float(x[-1])
        w = np.maximum(x[:-1], 0.0)
        w *= obj.h_prime0 / float(lp.a @ w)
        support = np.flatnonzero(w > 0.0)      # the atoms an AtomicMeasure of the iterate keeps
        atoms = lp.nodes[support], w[support]
        r, y = ratio(*atoms)
        if float(np.max(r)) < best_F:
            best, best_F = atoms, float(np.max(r))
        step = DESIGN_TOL * max(1.0, abs(t))
        peak = r > t + step                    # and no lower than either neighbour
        peak[:-1] &= r[:-1] >= r[1:]
        peak[1:] &= r[1:] >= r[:-1]
        hot = np.flatnonzero(peak)
        if best_F - lb <= step or hot.size + lp.pending.size == 0:   # certified, or stuck
            break
        if hot.size:
            lp.add(ratio.u[hot], h_conj_prime(obj, y[hot]))
    if best is None:
        raise ValueError("--gamma %r puts every design ratio past the float range" % spec.gamma)
    # the grid optimum is at most best_F; lb alone can pass it by rounding once the gap closes
    return DesignResult(AtomicMeasure(*best), best_F, min(lb, best_F), solves, spec,
                        cuts=lp.added)


def design_to_dict(result):
    """lowner.smoothed_to_dict of the measure, with the spec and the design's counts."""
    spec = result.spec
    return {**smoothed_to_dict(result.smoothed()),
            **{k: getattr(spec, k) for k in ("gamma", "u_max", "q", "d", "variant", "rho2")},
            **{k: getattr(result, k) for k in ("beta", "beta_lb", "iterations", "cuts")}}


def design_from_dict(d):
    """Inverse of design_to_dict; a missing key is a ValueError that names it.  beta_lb and
    cuts are None, residual 0 and flagged False, for records written without them.  An older
    record's atoms and converged are ignored: the measure counts its atoms, and beta -
    beta_lb says whether the loop closed its gap."""
    smoothed = smoothed_from_dict(d)
    spec = DesignSpec(smoothed.base, *(_key(d, "design", k) for k in (
        "gamma", "u_max", "q", "d", "variant", "rho2")))
    beta = _key(d, "design", "beta", cast=number)
    iterations = _key(d, "design", "iterations", cast=whole)
    beta_lb, cuts, residual = (
        None if d.get(k) is None else _key(d, "design", k, cast=t) for k, t in (
            ("beta_lb", number), ("cuts", whole), ("residual", number)))
    return DesignResult(smoothed.measure, beta, beta_lb, iterations, spec, cuts,
                        residual or 0.0, bool(d.get("flagged", False)))
