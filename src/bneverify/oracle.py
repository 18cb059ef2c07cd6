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
    "analytic_fpsb_ex_ante_loss",
    "exhaustive_wd",
    "quadrature_tv",
]


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str     # closed_form or quadrature
    resolution: dict = field(default_factory=dict)


def analytic_fpsb_loss(n_agents: int, c: float) -> OracleResult:
    """Ex interim sup-loss of a linear shade c in the symmetric single-item
    first-price game with i.i.d. uniform values on [0, 1], opponents at the
    symmetric equilibrium shade c* = (n-1)/n (Krishna, Auction Theory, 2nd
    ed., 2010, section 2.3). Exact, in closed form:

    1. Win probability. The opponents' max bid is the max of n-1 uniforms
       on [0, c*], so a bid b wins with probability min(1, (b/c*)^(n-1)).
    2. Best response. Below c*, (theta - b)(b/c*)^(n-1) peaks at b = c*
       theta and earns theta^n/n. A bid b >= c* earns at most theta - c*,
       and f(theta) = theta^n/n - theta + c* has f(1) = 0 and f' <= 0 on
       [0, 1], so no such bid earns more: the best response over all of
       [0, 1] earns theta^n/n.
    3. Gain. The shade earns (1-c) theta min(1, c theta/c*)^(n-1), so
       gain(theta) = theta^n/n - (1-c) theta min(1, c theta/c*)^(n-1).
    4. Sup. On theta <= c*/c the gain is theta^n times a constant, so it is
       monotone; above c*/c it is theta^n/n - (1-c) theta, which is convex.
       Either way its sup over [0, 1] sits at an end of the piece:
       max(0, gain(1), gain(min(1, c*/c))).
    """
    if n_agents < 2:
        raise ValueError("need at least two agents")
    if not (0.0 < c <= 1.0):
        raise ValueError("shade factor must lie in (0, 1]")
    n = n_agents
    c_star = (n - 1) / n

    def gain(theta):
        win = min(1.0, c * theta / c_star) ** (n - 1)
        return theta ** n / n - (1.0 - c) * theta * win

    value = max(0.0, gain(1.0), gain(min(1.0, c_star / c)))
    return OracleResult(value=value, method="closed_form")


def analytic_fpsb_ex_ante_loss(n_agents: int, c: float) -> OracleResult:
    """Ex ante loss of a linear shade c in the game of analytic_fpsb_loss:
    its per-type gain integrated over theta in [0, 1]. The best response
    earns theta^n/n, which integrates to 1/(n(n+1)). The shade earns
    (1-c) theta min(1, r theta)^(n-1) with r = c/c*; above t0 = min(1, c*/c)
    it always wins, so it integrates to
    (1-c) (r^(n-1) t0^(n+1)/(n+1) + (1-t0^2)/2).
    """
    if n_agents < 2:
        raise ValueError("need at least two agents")
    if not (0.0 < c <= 1.0):
        raise ValueError("shade factor must lie in (0, 1]")
    n = n_agents
    c_star = (n - 1) / n
    t0 = min(1.0, c_star / c)
    shade = (1.0 - c) * ((c / c_star) ** (n - 1) * t0 ** (n + 1) / (n + 1)
                         + (1.0 - t0 * t0) / 2.0)
    return OracleResult(value=1.0 / (n * (n + 1)) - shade,
                        method="closed_form")


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
