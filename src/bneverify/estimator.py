"""Grid-search estimators of the empirical utility loss.

Two pipelines share the machinery here:

  * estimate_ex_interim: double-grid sweep over (valuation, deviation bid)
    pairs for private-value data; the mechanism's allocation/payment are
    averaged over opponent bids once per candidate, making each grid pair a
    constant-time lookup afterwards.
  * estimate_ex_ante: one constant best-response search per partition cell
    plus a direct estimate of the current strategy's expected utility.

The combinatorial rule makes one batched winner determination per candidate
bid: the candidate is spliced into agent i's row of every record's profile
and the whole (N, n, 2**items) stack is solved in one call, as is the stack
of stored profiles for the current-strategy term.

Determinism contract: kernels emit per-sample values or exact integer
counts, and every mean over records is fixed by the multiset of records
alone, never by their order, the numpy version or the platform. Allocation
means are exact integer counts divided by the record count. First-price ex
ante means take the winners' value sum as a sequential prefix sum over the
records sorted by (opponent max bid, own value). Every other mean is a
correctly rounded sum (math.fsum) divided by the record count. Argmax ties
break toward the lexicographically smallest grid point; worker threads only
fill disjoint output slots, so results are identical for any worker count.
"""
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._backend import get_kernels
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


def _opponent_view(bids: np.ndarray, agent: int):
    others = [j for j in range(bids.shape[1]) if j != agent]
    opp = np.ascontiguousarray(bids[:, others, :])
    senior = np.array([j < agent for j in others], dtype=np.uint8)
    return opp, senior


def _record_mean(values: np.ndarray, n_rec: int) -> float:
    """Correctly rounded sum of per-record values divided by n_rec, so the
    mean does not depend on record order or numpy's summation internals."""
    return math.fsum(values.tolist()) / n_rec


def _value_prefix(vals: np.ndarray) -> np.ndarray:
    # vals (N, m) -> (N, m+1) prefix sums of marginal values
    return np.concatenate(
        [np.zeros((vals.shape[0], 1)), np.cumsum(vals, axis=1)], axis=1)


def _own_bundle(profiles: np.ndarray, agent: int, items: int):
    """Agent's accepted bundle in every profile of an (N, n, 2**items) stack,
    from one batched winner determination: (won, bundle), bundle 0 where
    the agent wins nothing."""
    choice = winner_determination(profiles, items)[:, agent]
    won = choice >= 0
    return won, np.where(won, choice, 0)


def profile_point_utilities(config: GameConfig, ds: Dataset, agent: int) -> np.ndarray:
    """Per-record normalized utility of the stored (valuation, bid) pairs."""
    kern = get_kernels()
    H = config.utility_scale
    kind = config.mechanism.kind
    own = np.ascontiguousarray(ds.bids[:, agent, :])
    vals = np.ascontiguousarray(ds.vals[:, agent, :])
    opp, senior = _opponent_view(ds.bids, agent)
    if kind == "first_price_single_item":
        opp_max = np.max(opp[:, :, 0], axis=1)
        return kern.fpsb_point_utils(vals[:, 0], own[:, 0], opp_max) / H
    if kind in ("discriminatory", "uniform_price"):
        m = config.mechanism.units
        wins = kern.multiunit_wins_rows(own, opp, senior, m)
        if kind == "discriminatory":
            pay = kern.multiunit_pay_disc_rows(own, wins)
        else:
            pay = kern.multiunit_pay_unif_rows(own, opp, wins, m)
        prefix = _value_prefix(vals)
        value = np.take_along_axis(prefix, wins[:, None], axis=1)[:, 0]
        return (value - pay) / H
    # combinatorial: one exact winner determination over all records
    won, bundle = _own_bundle(ds.bids, agent, config.mechanism.items)
    rows = np.arange(len(ds))
    return np.where(won, (vals[rows, bundle] - own[rows, bundle]) / H, 0.0)


def _bid_stats(config: GameConfig, candidates: np.ndarray, bids: np.ndarray,
               agent: int, threads: int):
    """Mean allocation vector and mean payment of each constant candidate bid
    against the recorded opponent bids.

    Allocation means come from exact integer win counts and payment means
    from correctly rounded sums, so both are independent of record order.
    """
    kern = get_kernels()
    n_rec = bids.shape[0]
    kind = config.mechanism.kind
    k_cand = candidates.shape[0]
    dim = candidates.shape[1]
    mean_alloc = np.zeros((k_cand, dim), dtype=np.float64)
    mean_pay = np.zeros(k_cand, dtype=np.float64)
    opp, senior = _opponent_view(bids, agent)

    if kind == "first_price_single_item":
        sorted_max = np.sort(np.max(opp[:, :, 0], axis=1))
        counts = kern.fpsb_win_counts(sorted_max, candidates[:, 0])
        mean_alloc[:, 0] = counts.astype(np.float64) / n_rec
        mean_pay[:] = (candidates[:, 0] * counts.astype(np.float64)) / n_rec
        return mean_alloc, mean_pay

    if kind in ("discriminatory", "uniform_price"):
        m = config.mechanism.units

        def work(start, stop):
            for k in range(start, stop):
                cand = candidates[k]
                wins = kern.multiunit_wins_fixed(cand, opp, senior, m)
                for mu in range(dim):
                    mean_alloc[k, mu] = float(
                        np.count_nonzero(wins > mu)) / n_rec
                if kind == "discriminatory":
                    pay = kern.multiunit_pay_disc_fixed(cand, wins)
                else:
                    pay = kern.multiunit_pay_unif_fixed(cand, opp, wins, m)
                mean_pay[k] = _record_mean(pay, n_rec)

        _run_parallel(k_cand, work, threads)
        return mean_alloc, mean_pay

    # combinatorial: splice the candidate into every profile, solve them all
    items = config.mechanism.items

    def work(start, stop):
        profiles = bids.copy()
        for k in range(start, stop):
            profiles[:, agent] = candidates[k]
            won, bundle = _own_bundle(profiles, agent, items)
            counts = np.bincount(bundle[won], minlength=dim)
            mean_alloc[k] = counts.astype(np.float64) / n_rec
            mean_pay[k] = _record_mean(
                np.where(won, candidates[k, bundle], 0.0), n_rec)

    _run_parallel(k_cand, work, threads)
    return mean_alloc, mean_pay


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

    mean_alloc, mean_pay = _bid_stats(config, candidates, ds.bids, agent, threads)

    if profile is not None:
        cur_bids = np.column_stack(
            [np.asarray(profile[agent].apply(theta_pts[:, d]), dtype=np.float64)
             for d in range(theta_pts.shape[1])])
        cur_alloc, cur_pay = _bid_stats(config, cur_bids, ds.bids, agent, threads)
        cur = np.zeros(theta_pts.shape[0], dtype=np.float64)
        for d in range(theta_pts.shape[1]):
            cur += theta_pts[:, d] * cur_alloc[:, d]
        cur = (cur - cur_pay) / H
    else:
        flags.append(FLAG_DEGRADED)
        point_utils = profile_point_utilities(config, ds, agent)
        cur_scalar = _record_mean(point_utils, n_rec)
        cur = np.full(theta_pts.shape[0], cur_scalar)

    dev = np.zeros((theta_pts.shape[0], candidates.shape[0]), dtype=np.float64)
    for d in range(theta_pts.shape[1]):
        dev += np.multiply.outer(theta_pts[:, d], mean_alloc[:, d])
    dev = (dev - mean_pay[None, :]) / H

    gains = dev - cur[:, None]
    flat_idx = int(np.argmax(gains))  # first maximum = lexicographic tie-break
    t_idx, k_idx = np.unravel_index(flat_idx, gains.shape)
    return ExInterimEstimate(
        agent=agent,
        value=float(gains[t_idx, k_idx]),
        argmax_pair=(tuple(float(x) for x in theta_pts[t_idx]),
                     tuple(float(x) for x in candidates[k_idx])),
        per_point_gains=gains.max(axis=1),
        theta_points=theta_pts,
        n_records=n_rec,
        flags=tuple(flags),
    )


def _cell_candidate_means(config: GameConfig, candidates: np.ndarray,
                          cell_bids: np.ndarray, cell_vals: np.ndarray,
                          agent: int) -> np.ndarray:
    """Mean normalized utility of each candidate bid over one cell's records.

    First price: a bid b wins the c records whose opponent max lies strictly
    below it, so its summed utility is (value sum of those records) - b*c.
    The records are sorted once by (opponent max, own value); the value sums
    are then a sequential prefix sum read off at each win count.
    """
    kern = get_kernels()
    H = config.utility_scale
    kind = config.mechanism.kind
    n_rec = cell_bids.shape[0]
    opp, senior = _opponent_view(cell_bids, agent)
    if kind == "first_price_single_item":
        opp_max = np.max(opp[:, :, 0], axis=1)
        theta = cell_vals[:, 0]
        order = np.lexsort((theta, opp_max))
        value_prefix = np.concatenate([[0.0], np.cumsum(theta[order])])
        bids = candidates[:, 0]
        counts = kern.fpsb_win_counts(opp_max[order], bids)
        return (value_prefix[counts] - bids * counts) / H / n_rec
    if kind in ("discriminatory", "uniform_price"):
        m = config.mechanism.units
        prefix = _value_prefix(cell_vals)
        means = np.empty(candidates.shape[0], dtype=np.float64)
        for k in range(candidates.shape[0]):
            cand = candidates[k]
            wins = kern.multiunit_wins_fixed(cand, opp, senior, m)
            if kind == "discriminatory":
                pay = kern.multiunit_pay_disc_fixed(cand, wins)
            else:
                pay = kern.multiunit_pay_unif_fixed(cand, opp, wins, m)
            value = np.take_along_axis(prefix, wins[:, None], axis=1)[:, 0]
            means[k] = _record_mean((value - pay) / H, n_rec)
        return means
    items = config.mechanism.items
    means = np.empty(candidates.shape[0], dtype=np.float64)
    profiles = cell_bids.copy()
    rows = np.arange(n_rec)
    for k in range(candidates.shape[0]):
        profiles[:, agent] = candidates[k]
        won, bundle = _own_bundle(profiles, agent, items)
        utils = np.where(
            won, (cell_vals[rows, bundle] - candidates[k, bundle]) / H, 0.0)
        means[k] = _record_mean(utils, n_rec)
    return means


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
    H = config.utility_scale
    candidates = valid_actions(config, grid.points())
    if candidates.shape[0] == 0:
        raise ValueError("empty grid after feasibility filtering")
    n_rec = len(ds)
    flags = []

    point_utils = profile_point_utilities(config, ds, agent)
    current = _record_mean(point_utils, n_rec)

    index_lists, _ = split_by_partition(ds, partition)
    n_cells = len(partition)
    cell_means = [None] * n_cells

    def work(start, stop):
        for k in range(start, stop):
            idx = index_lists[k]
            if len(idx) == 0:
                continue
            cell_means[k] = _cell_candidate_means(
                config, candidates,
                np.ascontiguousarray(ds.bids[idx]),
                np.ascontiguousarray(ds.vals[idx, agent, :]), agent)

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
    n = config.n_agents
    dim = config.mechanism.bid_dim
    segments = int(np.ceil(1.0 / resolution - 1e-9))
    if (segments + 1) ** dim > cap:
        raise ValueError(
            f"resolution lattice exceeds size cap: {(segments + 1) ** dim} "
            f"points over cap {cap}")
    axis = np.linspace(0.0, 1.0, segments + 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    lattice = np.stack([g.ravel() for g in mesh], axis=1)
    lattice = valid_actions(config, lattice)

    others = [j for j in range(n) if j != agent]
    bids = np.zeros((opponent_bids.shape[0], n, dim), dtype=np.float64)
    bids[:, others, :] = opponent_bids

    mean_alloc, mean_pay = _bid_stats(config, lattice, bids, agent, threads=1)
    utilities = (mean_alloc @ theta_i - mean_pay) / config.utility_scale
    best = int(np.argmax(utilities))
    return lattice[best].copy(), float(utilities[best])
