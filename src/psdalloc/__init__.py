"""Competitive online budgeted allocation over the PSD cone.

Pick fractions of arriving PSD matrices under a knapsack budget to maximize a
concave spectral gain.  The package designs smoothed surrogates (atomic
measures of operator-antitone kernels) and budget penalties whose primal-dual
engines carry certified competitive-ratio and budget-overrun guarantees.
"""

from .budget import BudgetSmoother, b_prime, gamma_for_budget, gs_prime, gs_value
from .designer import DesignSpec, cr_bound, design_hs
from .lowner import AtomicMeasure, SmoothedObjective, exact_measure
from .objectives import TraceObjective, make_objective
from .online import Arrival, OnlineState, run_stream
from .oracle import Instance, audit_run, offline_continuous_opt

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "Arrival", "BudgetSmoother", "DesignSpec", "Instance",
    "OnlineState", "SmoothedObjective", "TraceObjective", "audit_run",
    "b_prime", "cr_bound", "design_hs", "exact_measure", "gamma_for_budget",
    "gs_prime", "gs_value", "make_objective", "offline_continuous_opt",
    "run_stream",
]
