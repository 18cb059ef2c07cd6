"""Ex post outcome and utility evaluation for the four sealed-bid auctions.

eval(config, theta, bids) is the ex post reference: it gives the
allocation, payments and utilities of one full profile under any of the
four rules, and the tests compare the estimator's outcomes against it.

Conventions shared by every rule:
  * bids and valuations live in [0,1] per coordinate;
  * exact bid ties never win in the single-item auction (strict inequality);
  * multi-unit rank ties follow a stable sort by (bid desc, agent asc,
    slot asc), so any deterministic outcome is reproducible;
  * utilities are quasilinear, (allocation . valuation - payment) / scale,
    which keeps them inside [-1, 1] for the default scale.
"""
import math
from dataclasses import dataclass

import numpy as np

from .model import GameConfig

__all__ = [
    "Outcome",
    "best_total_tables",
    "winner_determination",
    "assignment_value",
    "multiunit_allocation",
    "eval",
]


@dataclass(frozen=True)
class Outcome:
    """Allocation indicators, payments, and normalized utilities per agent."""
    allocation: np.ndarray  # (n_agents, bid_dim) 0/1 indicators
    payments: np.ndarray    # (n_agents,)
    utilities: np.ndarray   # (n_agents,) in [-1, 1]


def assignment_value(bids: np.ndarray, choice) -> float:
    """Total accepted bid of an XOR assignment (-1 = no accepted bundle).

    Accumulated from the last agent backwards, as winner_determination's
    table builds its totals, so the solver and the exhaustive oracle give
    bit-identical floats for every candidate assignment.
    """
    total = 0.0
    for agent in range(len(choice) - 1, -1, -1):
        opt = choice[agent]
        if opt >= 0:
            total = float(bids[agent, opt]) + total
    return total


def best_total_tables(bids, items):
    """Best-total table of a batch of XOR profiles, and each agent's picks.

    bids has shape (..., n, 2**items) as in winner_determination; the
    profiles are taken in C order of the leading batch shape, size in all.
    Returns (value, picks): value[used, p] is the optimal total of profile
    p's n agents when the items in the mask `used` are already taken, an
    (2**items, size) array, and picks[a][used, p] is the bundle agent a
    takes in that state given the optimal choices of agents a+1.., -1 to
    decline. With the agent of a market left out of the profiles, value is
    its opponents' best total once it takes a bundle (value[0] when it
    declines).

    The table is built from the last agent backwards. For agent a,
    value[used] is the optimal total of agents a..n-1 when the items in
    `used` are taken. Agent a starts from declining (agent a+1's totals,
    pick -1) and scans its bundles in index order: bids[a, b] +
    value[used | b] replaces an entry, and sets its pick to b, only when it
    is strictly greater. Totals are thus the floats assignment_value gives,
    and a pick is the first option in the order (-1, 0, 1, ...) that
    reaches the optimum of agents a..n-1. Only the current agent's totals
    are kept. All profiles of a batch are solved together with array
    operations.
    """
    bids = np.asarray(bids, dtype=np.float64)
    n_bundles = 1 << items
    if bids.ndim < 2 or bids.shape[-1] != n_bundles:
        raise ValueError(
            f"bid vectors must have length {n_bundles} for {items} items, "
            f"got shape {bids.shape}")
    n = bids.shape[-2]
    size = math.prod(bids.shape[:-2])
    # tables hold one row per item mask and one column per profile, so a
    # set of masks is gathered as whole rows
    cols = np.ascontiguousarray(
        bids.reshape((size, n, n_bundles)).transpose(1, 2, 0))
    masks = np.arange(n_bundles)
    # per bundle, the masks it fits beside and their unions with it
    fits = []
    for bundle in range(n_bundles):
        free = masks[(masks & bundle) == 0]
        fits.append((bundle, free, free | bundle))
    # the smallest signed type that holds -1 and every bundle index
    pick_type = np.min_scalar_type(-n_bundles)

    value = np.zeros((n_bundles, size), dtype=np.float64)
    picks = [None] * n
    for agent in range(n - 1, -1, -1):
        after = value
        value = after.copy()  # decline every bundle
        pick = np.full((n_bundles, size), -1, dtype=pick_type)
        for bundle, free, union in fits:
            cand = cols[agent, bundle] + after[union]
            cur = value[free]
            better = (cand > cur).astype(pick_type)
            # entries start at +0.0 and only grow, so they are never NaN or
            # -0.0 and fmax is the strict update; a pick is -1 or an
            # earlier bundle, so the larger of it and (bundle if better
            # else -1) is the updated pick
            value[free] = np.fmax(cur, cand)
            pick[free] = np.maximum(pick[free],
                                    better * bundle + (better - 1))
        picks[agent] = pick
    return value, picks


def winner_determination(bids, items: int) -> np.ndarray:
    """Optimal item-disjoint XOR assignment of bundles to agents, batched.

    bids has shape (..., n, 2**items): one bid per bundle (indexed by item
    subsets) for each of n agents, for every profile in the leading batch
    shape; an (n, 2**items) profile is the batch of shape (). At most one
    bundle per agent is accepted and accepted bundles must not share items.
    Returns the (..., n) bundle index per agent, -1 when no bid is accepted.

    Each profile is solved exactly by the tables of best_total_tables,
    which also yield, for profiles without the agent, the opponents' best
    totals the estimator reads. Reconstruction replays the picks in agent
    order from used = 0, one gather per agent. When bundle sums are exact
    this is the first optimal assignment in exhaustive enumeration order
    (agents by index, options in the order -1, 0, 1, ...). When rounding
    makes a total tie with one built on a smaller sum for the later agents,
    the larger sum is kept: both totals are optimal, but the enumeration
    may take the other.
    """
    bids = np.asarray(bids, dtype=np.float64)
    _, picks = best_total_tables(bids, items)
    n = bids.shape[-2]
    batch = bids.shape[:-2]
    size = math.prod(batch)
    profiles = np.arange(size)
    choice = np.empty((size, n), dtype=np.intp)
    used = np.zeros(size, dtype=np.intp)
    for agent in range(n):
        taken = picks[agent][used, profiles]
        choice[:, agent] = taken
        used |= np.maximum(taken, 0)
    return choice.reshape(batch + (n,))


def _check_monotone_rows(bids: np.ndarray):
    if np.any(np.diff(bids, axis=1) > 0.0):
        raise ValueError("non-monotone bid vector")


def multiunit_allocation(bids) -> np.ndarray:
    """Units won per agent when the m highest of all n*m bids win.

    Rank of an agent's mu-th bid = mu + senior opponents' bids >= it
    + junior opponents' bids > it, reproducing a stable sort by
    (bid desc, agent asc, slot asc). Requires non-increasing rows.
    """
    bids = np.asarray(bids, dtype=np.float64)
    n, m = bids.shape
    _check_monotone_rows(bids)
    wins = np.zeros(n, dtype=np.intp)
    for i in range(n):
        for mu in range(m):
            b = bids[i, mu]
            rank = mu
            for j in range(n):
                if j == i:
                    continue
                if j < i:
                    rank += int(np.count_nonzero(bids[j] >= b))
                else:
                    rank += int(np.count_nonzero(bids[j] > b))
            if rank < m:
                wins[i] += 1
            else:
                break  # ranks increase with mu, later slots cannot win
    return wins


def _uniform_clearing_price(bids: np.ndarray, i: int, m_i: int) -> float:
    """Uniform price paid per unit by agent i, winner of m_i units: the
    larger of its own highest losing bid and the competitors' (m - m_i + 1)-th
    bid, an out-of-range position counting as 0."""
    m = bids.shape[1]
    own_next = float(bids[i, m_i]) if m_i < m else 0.0
    opp = np.sort(np.delete(bids, i, axis=0).ravel())[::-1]
    pos = m - m_i  # 0-indexed slot of the (m - m_i + 1)-th competing bid
    opp_next = float(opp[pos]) if pos < opp.size else 0.0
    return max(own_next, opp_next)


def eval(config: GameConfig, theta, bids) -> Outcome:
    """Dispatch full-profile evaluation for the configured mechanism."""
    theta = np.asarray(theta, dtype=np.float64)
    bids = np.asarray(bids, dtype=np.float64)
    n = config.n_agents
    mech = config.mechanism
    want = (n, mech.bid_dim)
    if bids.shape != want:
        raise ValueError(f"bid profile shaped {bids.shape}, expected {want}")
    if theta.shape != want:
        raise ValueError(
            f"valuation profile shaped {theta.shape}, expected {want}")
    H = config.utility_scale
    alloc = np.zeros((n, mech.bid_dim), dtype=np.float64)
    pay = np.zeros(n, dtype=np.float64)

    if mech.kind == "first_price_single_item":
        flat = bids[:, 0]
        top = flat.max()
        winners = np.flatnonzero(flat == top)
        if winners.size == 1 and n > 1:
            w = winners[0]
            alloc[w, 0] = 1.0
            pay[w] = flat[w]
    elif mech.kind == "first_price_combinatorial":
        choice = winner_determination(bids, mech.items)
        for agent, bundle in enumerate(choice):
            if bundle >= 0:
                alloc[agent, bundle] = 1.0
                pay[agent] = bids[agent, bundle]
    else:
        wins = multiunit_allocation(bids)
        for agent in range(n):
            m_i = int(wins[agent])
            alloc[agent, :m_i] = 1.0
            if mech.kind == "discriminatory":
                pay[agent] = np.sum(bids[agent, :m_i])
            else:
                pay[agent] = float(m_i) * _uniform_clearing_price(bids, agent, m_i)

    utilities = (np.sum(alloc * theta, axis=1) - pay) / H
    return Outcome(allocation=alloc, payments=pay, utilities=utilities)
