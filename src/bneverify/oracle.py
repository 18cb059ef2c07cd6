"""Independent reference computations used by tests and diagnostics.

Nothing here feeds the certified pipeline; the CLI only exposes these behind
an explicit flag so production runs never substitute a diagnostic value for
a certified bound.
"""
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .mechanisms import assignment_value

__all__ = [
    "OracleResult",
    "analytic_fpsb_loss",
    "exhaustive_wd",
    "quadrature_tv",
]


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str     # exhaustive_lattice, closed_form, quadrature
    resolution: dict = field(default_factory=dict)


def analytic_fpsb_loss(n_agents: int, c: float) -> OracleResult:
    """Ex interim sup-loss of a linear shade c in the symmetric single-item
    first-price game with i.i.d. uniform values, opponents shading by
    (n-1)/n.

    The opponents' max bid has density (n-1) x^(n-2) / c*^(n-1) on [0, c*];
    the best response to it is the shade c* itself, so the best-response
    utility is closed-form up to the win probability, which we integrate
    numerically. The sup over valuations is a dense scan plus bounded
    refinement.
    """
    # scipy is imported here, not at module level, so importing bneverify
    # (and every verify run without --oracle) does not load it
    from scipy.integrate import quad
    from scipy.optimize import minimize_scalar

    if n_agents < 2:
        raise ValueError("need at least two agents")
    if not (0.0 < c <= 1.0):
        raise ValueError("shade factor must lie in (0, 1]")
    c_star = (n_agents - 1) / n_agents

    def opp_max_density(x):
        return (n_agents - 1) * x ** (n_agents - 2) / c_star ** (n_agents - 1)

    def win_prob(b):
        if b <= 0.0:
            return 0.0
        if b >= c_star:
            return 1.0
        val, _ = quad(opp_max_density, 0.0, b, epsabs=1e-12, epsrel=1e-12)
        return val

    def gain(theta):
        # best response maximizes (theta - b) * P(win); the maximizer over
        # b <= c* is b = c* theta for this opponent distribution
        br_bid = c_star * theta
        br_util = (theta - br_bid) * win_prob(br_bid)
        cur_util = (1.0 - c) * theta * win_prob(c * theta)
        return br_util - cur_util

    scan = np.linspace(0.0, 1.0, 2001)
    gains = np.array([gain(t) for t in scan])
    t0 = int(np.argmax(gains))
    lo = scan[max(0, t0 - 1)]
    hi = scan[min(len(scan) - 1, t0 + 1)]
    res = minimize_scalar(lambda t: -gain(t), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    value = max(float(gains[t0]), float(-res.fun))
    return OracleResult(value=value, method="closed_form",
                        resolution={"theta_scan": len(scan),
                                    "quad_tol": 1e-12, "xatol": 1e-12})


def exhaustive_wd(bids: np.ndarray, items: int) -> np.ndarray:
    """Optimal item-disjoint XOR assignment by full enumeration.

    Iterates every (2^l + 1)^n choice vector in lexicographic order with
    decline (-1) first, keeping the first strict improvement; totals are
    accumulated by assignment_value so the optimal total is float-for-float
    the production solver's. The assignments agree when bundle sums are
    exact; see winner_determination for ties made by rounding.
    """
    bids = np.asarray(bids, dtype=np.float64)
    n = bids.shape[0]
    if n > 5 or items > 3:
        raise ValueError(
            "size cap exceeded: exhaustive enumeration supports at most "
            "5 agents and 3 items")
    n_bundles = 2 ** items
    if bids.shape[1] != n_bundles:
        raise ValueError("bid vectors must have length 2^l")
    best_val = -math.inf
    best_choice = None
    for combo in itertools.product(range(-1, n_bundles), repeat=n):
        used = 0
        feasible = True
        for ch in combo:
            if ch < 0:
                continue
            if used & ch:
                feasible = False
                break
            used |= ch
        if not feasible:
            continue
        total = assignment_value(bids, np.asarray(combo, dtype=np.intp))
        if total > best_val:
            best_val = total
            best_choice = combo
    return np.asarray(best_choice, dtype=np.intp)


def _midpoint_tv(density_a, density_b, grid_points, lo, hi):
    h = (hi - lo) / grid_points
    mids = lo + (np.arange(grid_points) + 0.5) * h
    fa = np.asarray(density_a(mids), dtype=np.float64)
    fb = np.asarray(density_b(mids), dtype=np.float64)
    return fa, fb, h


def quadrature_tv(density_a, density_b, grid_points: int,
                  support=(0.0, 1.0)) -> OracleResult:
    """Total variation distance (1/2) * integral |phi_a - phi_b| by composite
    midpoint rule, with the achieved refinement delta recorded.

    Both densities must integrate to 1 within 1e-6 on the quadrature grid.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    lo, hi = float(support[0]), float(support[1])
    if not hi > lo:
        raise ValueError("support must be a nondegenerate interval")
    fa, fb, h = _midpoint_tv(density_a, density_b, grid_points, lo, hi)
    if float(np.min(fa)) < -1e-12 or float(np.min(fb)) < -1e-12:
        raise ValueError(
            "non-normalized density: negative values on the quadrature grid")
    norm_a = float(np.sum(fa) * h)
    norm_b = float(np.sum(fb) * h)
    for name, norm in (("first", norm_a), ("second", norm_b)):
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(
                f"non-normalized density: {name} density integrates to "
                f"{norm!r} on the quadrature grid")
    tv = 0.5 * float(np.sum(np.abs(fa - fb)) * h)
    ca, cb, ch = _midpoint_tv(density_a, density_b, grid_points // 2, lo, hi)
    tv_coarse = 0.5 * float(np.sum(np.abs(ca - cb)) * ch)
    delta = abs(tv - tv_coarse)
    return OracleResult(value=tv, method="quadrature",
                        resolution={"grid_points": grid_points,
                                    "support": [lo, hi],
                                    "refinement_delta": delta})
