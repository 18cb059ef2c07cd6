"""Grid-search estimators of the empirical utility loss.

  * estimate_ex_interim: double-grid sweep over (valuation, deviation bid)
    pairs for private-value data; each candidate's allocation counts and
    payment sum are computed once, so each grid pair is a lookup.
  * estimate_ex_ante: one constant best-response search per partition cell
    plus a direct estimate of the current strategy's expected utility.

Both run on one market view of the records, built by _market, the only
place besides valid_actions that reads the rule. A market gives the
per-record utility of the recorded bids and, per candidate bid, allocation
counts, payment sum and (ex ante) utility sum.

  * Slots (first price, discriminatory, uniform price): against a record's
    competing bids, the agent's slot mu wins exactly when its bid reaches
    the record's critical bid for that slot (Lehmann, O'Callaghan and
    Shoham 2002). First price is the one-slot pay-as-bid auction in which
    every opponent counts as senior, so exact ties lose.
  * Bundles (combinatorial): one batched winner determination per candidate
    over all records, with the candidate spliced into the agent's row.

Determinism contract: every mean over records is fixed by the multiset of
records alone, never by their order, the numpy version or the platform.
Allocation means are exact counts over N; slot win counts come from
searchsorted over each slot's sorted critical bids. Ex ante, the value won
in a slot is a sequential prefix sum over the records sorted by (critical
bid, own marginal value), and the slots' sums are added in slot order. A
pay-as-bid payment sum is the correctly rounded sum over j of n_j * P_j (n_j
records win exactly j units, P_j is the float sum of the first j bids),
which equals math.fsum over the records; first price is its one-term case.
Uniform-price payments, combinatorial outcomes and the current strategy's
utility are math.fsum over the per-record values. Argmax ties break toward
the lexicographically smallest grid point; worker threads only fill
disjoint output slots, so results are identical for any worker count.
"""
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .model import (GRID_POINT_CAP, Dataset, GameConfig, Grid, Partition,
                    split_by_partition)
from .mechanisms import winner_determination

__all__ = [
    "ExInterimEstimate",
    "ExAnteEstimate",
    "estimate_ex_interim",
    "estimate_ex_ante",
    "brute_force_best_response",
    "valid_actions",
    "profile_point_utilities",
    "worker_count",
    "FLAG_DEGRADED",
    "FLAG_UNOBSERVED",
]

FLAG_DEGRADED = ("degraded: current-strategy term evaluated at stored bids; "
                 "mapped-width dispersion term inapplicable")
FLAG_UNOBSERVED = "unobserved cell"

# gain-table elements per block of valuation rows in estimate_ex_interim
_GAIN_BLOCK = 1 << 18


def worker_count() -> int:
    """Worker cap from BNE_VERIFY_THREADS (default 1). Results never depend
    on this value, only wall-clock time does."""
    raw = os.environ.get("BNE_VERIFY_THREADS", "").strip()
    if not raw:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError("BNE_VERIFY_THREADS must be a positive integer")
    return count


def _chunked(n_items: int, n_chunks: int):
    bounds = np.linspace(0, n_items, min(n_items, n_chunks) + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _run_parallel(n_items: int, work, threads: int):
    """Run work(start, stop) over a fixed chunking of range(n_items).

    Each invocation writes only to its own slice of preallocated outputs, so
    any thread count yields identical results.
    """
    if n_items == 0:
        return
    if threads <= 1:
        work(0, n_items)
        return
    chunks = _chunked(n_items, threads * 4)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, a, b) for a, b in chunks]
        for f in futures:
            f.result()


def valid_actions(config: GameConfig, points: np.ndarray) -> np.ndarray:
    """Filter lattice points down to the mechanism's feasible action set.

    Multi-unit bid vectors must be non-increasing; the other mechanisms
    accept the whole cube.
    """
    points = np.asarray(points, dtype=np.float64)
    if config.mechanism.kind in ("discriminatory", "uniform_price"):
        keep = np.all(np.diff(points, axis=1) <= 0.0, axis=1)
        return points[keep]
    return points


def _record_mean(values: np.ndarray, n_rec: int) -> float:
    """Correctly rounded sum of per-record values divided by n_rec, so the
    mean does not depend on record order or numpy's summation internals."""
    return math.fsum(values.tolist()) / n_rec


def _count_weighted_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Correctly rounded sum over j of counts[k, j] * values[k, j], per k:
    the float math.fsum gives over counts[k, j] copies of each values[k, j].

    Each count (below 2**53) splits into a multiple of 2**26 with at most 27
    significant bits and a remainder below 2**26, each value into two halves
    of at most 26 significant bits (Veltkamp's split), so every partial
    product fits in 53 bits and is exact; math.fsum then rounds once.
    """
    low = counts & ((1 << 26) - 1)
    scaled = values * 134217729.0   # 2**27 + 1
    high = scaled - (scaled - values)
    terms = np.concatenate(
        [c * v for c in ((counts - low).astype(np.float64),
                         low.astype(np.float64))
         for v in (high, values - high)], axis=1)
    return np.array([math.fsum(row) for row in terms.tolist()],
                    dtype=np.float64)


class _Slots:
    """Agent's m slots against every record's competing bids.

    Slot mu wins a record exactly when the mu-th bid reaches the record's
    critical bid for it; critical bids rise with mu, so a non-increasing bid
    vector wins its first slots, and the records a bid b wins in slot mu are
    those with a critical bid <= b[mu]. Winners pay as bid, or the uniform
    price read off comp, the competing bids sorted per record.
    """

    def __init__(self, bids, agent, senior, units, uniform, scale):
        opp = np.delete(bids, agent, axis=1)
        self.own = bids[:, agent]
        self.crit = kernels.multiunit_critical_bids(opp, senior, units)
        self.comp = kernels.multiunit_competing_desc(opp) if uniform else None
        self.units = units
        self.scale = scale

    def utilities(self, vals):
        """Per-record normalized utility of the recorded bids."""
        wins = kernels.multiunit_wins_rows(self.own, self.crit)
        if self.comp is None:
            pay = kernels.multiunit_pay_disc_rows(self.own, wins)
        else:
            pay = kernels.multiunit_pay_unif_rows(self.own, self.comp, wins,
                                                  self.units)
        return (kernels.won_sums(vals, wins) - pay) / self.scale

    def outcomes(self, cands, vals=None, threads=1):
        """Allocation counts (K, m) and payment sums (K,) of constant bids,
        and given the records' values (N, m) their summed normalized
        utilities (K,), else None."""
        counts = np.stack(
            [np.searchsorted(col, cands[:, mu], side="right")
             for mu, col in enumerate(np.sort(self.crit.T, axis=1))], axis=1)
        pays = self._pay_sums(cands, counts, threads)
        if vals is None:
            return counts, pays, None
        won = []
        for mu in range(self.units):
            # a slot's winners are a prefix of the records sorted by critical
            # bid; ties are ordered by own marginal value
            order = np.lexsort((vals[:, mu], self.crit[:, mu]))
            prefix = np.concatenate([[0.0], np.cumsum(vals[:, mu][order])])
            won.append(prefix[counts[:, mu]])
        won = sum(won[1:], won[0])  # slot by slot
        return counts, pays, (won - pays) / self.scale

    def _pay_sums(self, cands, counts, threads):
        if self.comp is None:
            # exactly j units are won by counts[j-1] - counts[j] records, each
            # paying the float sum of the first j bids
            exact = counts - np.pad(counts[:, 1:], ((0, 0), (0, 1)))
            return _count_weighted_sums(exact, np.cumsum(cands, axis=1))
        sums = np.empty(len(cands), dtype=np.float64)

        def work(start, stop):
            for k in range(start, stop):
                wins = kernels.multiunit_wins_fixed(cands[k], self.crit)
                sums[k] = math.fsum(kernels.multiunit_pay_unif_fixed(
                    cands[k], self.comp, wins, self.units).tolist())

        _run_parallel(len(cands), work, threads)
        return sums


class _Bundles:
    """Agent's bundle bids in the combinatorial auction: each outcome is one
    exact winner determination over all records at once."""

    def __init__(self, bids, agent, items, scale):
        self.bids = bids
        self.agent = agent
        self.items = items
        self.scale = scale

    def _solve(self, profiles, vals):
        """Agent's won flag, bundle (0 when none is won), bid paid and, given
        the records' values, normalized utility in every profile of an
        (N, n, 2**items) stack."""
        choice = winner_determination(profiles, self.items)[:, self.agent]
        won = choice >= 0
        bundle = np.where(won, choice, 0)
        rows = np.arange(len(profiles))
        paid = np.where(won, profiles[rows, self.agent, bundle], 0.0)
        if vals is None:
            return won, bundle, paid, None
        return won, bundle, paid, np.where(
            won, (vals[rows, bundle] - paid) / self.scale, 0.0)

    def utilities(self, vals):
        """Per-record normalized utility of the recorded bids."""
        return self._solve(self.bids, vals)[3]

    def outcomes(self, cands, vals=None, threads=1):
        """Allocation counts (K, 2**items) and payment sums (K,) of constant
        bids, and given the records' values their summed normalized
        utilities (K,), else None."""
        counts = np.zeros(cands.shape, dtype=np.intp)
        pays = np.empty(len(cands), dtype=np.float64)
        sums = None if vals is None else np.empty(len(cands), dtype=np.float64)

        def work(start, stop):
            profiles = self.bids.copy()  # each worker splices its own copy
            for k in range(start, stop):
                profiles[:, self.agent] = cands[k]
                won, bundle, paid, utils = self._solve(profiles, vals)
                counts[k] = np.bincount(bundle[won], minlength=cands.shape[1])
                pays[k] = math.fsum(paid.tolist())
                if sums is not None:
                    sums[k] = math.fsum(utils.tolist())

        _run_parallel(len(cands), work, threads)
        return counts, pays, sums


def _market(config: GameConfig, bids: np.ndarray, agent: int):
    """The records' bids (N, n, dim) as agent's market: bundles for the
    combinatorial rule, slots for the others. First price is the one-slot
    pay-as-bid auction in which every opponent counts as senior, so exact
    ties lose; multi-unit ties go to the lower agent index."""
    kind = config.mechanism.kind
    scale = config.utility_scale
    if kind == "first_price_combinatorial":
        return _Bundles(bids, agent, config.mechanism.items, scale)
    multiunit = kind in ("discriminatory", "uniform_price")
    senior = [j < agent or not multiunit
              for j in range(bids.shape[1]) if j != agent]
    return _Slots(bids, agent, senior, config.mechanism.bid_dim,
                  kind == "uniform_price", scale)


def profile_point_utilities(config: GameConfig, ds: Dataset, agent: int) -> np.ndarray:
    """Per-record normalized utility of the stored (valuation, bid) pairs."""
    return _market(config, ds.bids, agent).utilities(ds.vals[:, agent])


@dataclass(frozen=True)
class ExInterimEstimate:
    """Sup over grid pairs (valuation, deviation bid) of the mean gain."""
    agent: int
    value: float
    argmax_pair: tuple          # (valuation point, deviation bid point)
    per_point_gains: np.ndarray  # best gain per valuation grid point
    theta_points: np.ndarray
    n_records: int
    flags: tuple = ()


def estimate_ex_interim(ds: Dataset, profile, grid: Grid, config: GameConfig,
                        agent: int, threads: int = None) -> ExInterimEstimate:
    """Empirical ex interim utility-loss estimate for one agent.

    profile may be None (bids-only datasets): the current-strategy term then
    falls back to the dataset's stored pairs, which is flagged because the
    mapped-width dispersion term no longer applies.
    """
    ds.validate(config)
    if grid.dim != config.mechanism.bid_dim:
        raise ValueError(
            f"grid dimension {grid.dim} does not match the action dimension "
            f"{config.mechanism.bid_dim}")
    if not np.array_equal(ds.obs, ds.vals):
        raise ValueError(
            "ex interim estimation requires private values "
            "(observations identical to valuations)")
    if threads is None:
        threads = worker_count()
    H = config.utility_scale
    flags = []

    candidates = valid_actions(config, grid.points())
    theta_pts = candidates  # private values share the action space
    n_rec = len(ds)

    market = _market(config, ds.bids, agent)
    counts, pay_sums, _ = market.outcomes(candidates, threads=threads)
    mean_alloc = counts / n_rec
    mean_pay = pay_sums / n_rec

    if profile is not None:
        cur_bids = np.column_stack(
            [np.asarray(profile[agent].apply(theta_pts[:, d]), dtype=np.float64)
             for d in range(theta_pts.shape[1])])
        cur_counts, cur_pay_sums, _ = market.outcomes(cur_bids,
                                                      threads=threads)
        cur = np.zeros(theta_pts.shape[0], dtype=np.float64)
        for d in range(theta_pts.shape[1]):
            cur += theta_pts[:, d] * (cur_counts[:, d] / n_rec)
        cur = (cur - cur_pay_sums / n_rec) / H
    else:
        flags.append(FLAG_DEGRADED)
        point_utils = profile_point_utilities(config, ds, agent)
        cur_scalar = _record_mean(point_utils, n_rec)
        cur = np.full(theta_pts.shape[0], cur_scalar)

    def gains(rows):
        # gains[t, k] = dev[t, k] - cur[t] for the valuation rows given
        dev = np.zeros((len(rows), candidates.shape[0]))
        for d in range(theta_pts.shape[1]):
            dev += np.multiply.outer(theta_pts[rows, d], mean_alloc[:, d])
        return (dev - mean_pay[None, :]) / H - cur[rows, None]

    # the K x K table is built a block of rows at a time, so memory stays
    # O(K); the first maximum (lexicographic tie-break) lies in the first
    # row holding the largest per-point gain
    step = max(1, _GAIN_BLOCK // candidates.shape[0])
    per_point = np.concatenate(
        [gains(np.arange(lo, min(lo + step, len(theta_pts)))).max(axis=1)
         for lo in range(0, len(theta_pts), step)])
    t_idx = int(np.argmax(per_point))
    row = gains(np.array([t_idx]))[0]
    k_idx = int(np.argmax(row))
    return ExInterimEstimate(
        agent=agent,
        value=float(row[k_idx]),
        argmax_pair=(tuple(float(x) for x in theta_pts[t_idx]),
                     tuple(float(x) for x in candidates[k_idx])),
        per_point_gains=per_point,
        theta_points=theta_pts,
        n_records=n_rec,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class ExAnteEstimate:
    """Per-cell constant best responses minus the current expected utility."""
    agent: int
    value: float
    current_utility: float
    br_terms: tuple             # dicts: cell, n_records, weight, best_bid, br_mean
    gain_curve: np.ndarray      # weighted mean utility per candidate - current
    candidates: np.ndarray
    n_records: int
    flags: tuple = ()


def estimate_ex_ante(ds: Dataset, profile, partition: Partition, grid: Grid,
                     config: GameConfig, agent: int,
                     threads: int = None) -> ExAnteEstimate:
    """Empirical ex ante utility-loss estimate for one agent.

    The current-strategy term always uses the dataset's stored bids, so no
    Strategy object is needed for the empirical part.
    """
    ds.validate(config)
    if grid.dim != config.mechanism.bid_dim:
        raise ValueError(
            f"grid dimension {grid.dim} does not match the action dimension "
            f"{config.mechanism.bid_dim}")
    if partition.agent != agent:
        raise ValueError(
            f"partition belongs to agent {partition.agent}, estimating {agent}")
    if threads is None:
        threads = worker_count()
    candidates = valid_actions(config, grid.points())
    if candidates.shape[0] == 0:
        raise ValueError("empty grid after feasibility filtering")
    n_rec = len(ds)
    flags = []

    point_utils = profile_point_utilities(config, ds, agent)
    current = _record_mean(point_utils, n_rec)

    index_lists = split_by_partition(ds, partition)
    n_cells = len(partition)
    cell_means = [None] * n_cells

    def work(start, stop):
        for k in range(start, stop):
            idx = index_lists[k]
            if len(idx) == 0:
                continue
            market = _market(config, ds.bids[idx], agent)
            cell_means[k] = market.outcomes(
                candidates, ds.vals[idx, agent])[2] / len(idx)

    _run_parallel(n_cells, work, threads)

    br_terms = []
    weighted_sum = 0.0
    curve = np.zeros(candidates.shape[0], dtype=np.float64)
    for k in range(n_cells):
        idx = index_lists[k]
        n_cell = len(idx)
        weight = n_cell / n_rec
        if n_cell == 0:
            flags.append(f"{FLAG_UNOBSERVED} {k}")
            br_terms.append({"cell": k, "n_records": 0, "weight": 0.0,
                             "best_bid": None, "br_mean": 0.0})
            continue
        means = cell_means[k]
        best = int(np.argmax(means))  # first maximum = lexicographic tie-break
        br_terms.append({
            "cell": k,
            "n_records": n_cell,
            "weight": weight,
            "best_bid": tuple(float(x) for x in candidates[best]),
            "br_mean": float(means[best]),
        })
        weighted_sum += weight * float(means[best])
        curve += weight * means
    value = weighted_sum - current
    return ExAnteEstimate(
        agent=agent,
        value=float(value),
        current_utility=current,
        br_terms=tuple(br_terms),
        gain_curve=curve - current,
        candidates=candidates,
        n_records=n_rec,
        flags=tuple(flags),
    )


def brute_force_best_response(config: GameConfig, theta_i, opponent_bids,
                              resolution: float, agent: int = 0,
                              cap: int = GRID_POINT_CAP):
    """Exhaustive fine-lattice best response against recorded opponent bids.

    Testing/diagnostic oracle: maximizes the empirical mean utility of a
    constant bid over a lattice of the given resolution. Returns
    (best bid vector, best mean utility).
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    theta_i = np.atleast_1d(np.asarray(theta_i, dtype=np.float64))
    opponent_bids = np.asarray(opponent_bids, dtype=np.float64)
    if opponent_bids.ndim == 2:
        opponent_bids = opponent_bids[:, :, None]
    dim = config.mechanism.bid_dim
    segments = int(np.ceil(1.0 / resolution - 1e-9))
    if (segments + 1) ** dim > cap:
        raise ValueError(
            f"resolution lattice exceeds size cap: {(segments + 1) ** dim} "
            f"points over cap {cap}")
    grid = Grid(dim=dim, radius=resolution * dim / 2.0, step=1.0 / segments,
                points_per_axis=segments + 1)
    lattice = valid_actions(config, grid.points())
    others = [j for j in range(config.n_agents) if j != agent]
    bids = np.zeros((opponent_bids.shape[0], config.n_agents, dim))
    bids[:, others, :] = opponent_bids
    counts, pay_sums, _ = _market(config, bids, agent).outcomes(lattice)
    n_rec = bids.shape[0]
    utilities = ((counts / n_rec) @ theta_i - pay_sums / n_rec) \
        / config.utility_scale
    best = int(np.argmax(utilities))
    return lattice[best].copy(), float(utilities[best])
