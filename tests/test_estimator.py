"""Empirical loss estimators against direct ex post evaluation."""
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bneverify import estimator, model
from bneverify.cli import parse_config, run
from bneverify.estimator import (FLAG_DEGRADED, estimate_ex_ante,
                                 estimate_ex_interim, profile_point_utilities,
                                 valid_actions)
from bneverify.mechanisms import winner_determination, eval as eval_game
from bneverify.model import (Cell, Dataset, GameConfig, MechanismSpec,
                             Partition, make_grid, split_by_partition)
from bneverify.priors import (CorrelatedCommonValue, IndependentProduct,
                              Uniform, sample_dataset)
from bneverify.strategies import Identity, LinearShade, StrategyProfile


def fpsb_game(n=2):
    return GameConfig(n_agents=n,
                      mechanism=MechanismSpec(kind="first_price_single_item"))


FPSB = fpsb_game()


def utility(config, theta_i, bids, i):
    """Agent i's ex post utility under eval when every other agent values
    the units at 0."""
    bids = np.asarray(bids, dtype=np.float64).reshape(config.n_agents, -1)
    theta = np.zeros_like(bids)
    theta[i] = theta_i
    return eval_game(config, theta, bids).utilities[i]


def identity_profile(n=2):
    return StrategyProfile(tuple(Identity() for _ in range(n)))


def uniform_dataset(n_records, seed, profile=None, n=2):
    prior = IndependentProduct([[Uniform()] for _ in range(n)])
    return sample_dataset(prior, profile or identity_profile(n), n_records, seed)


def full_partition():
    return Partition(0, [Cell(lo=(0.0,), hi=(1.0,))])


def comb_game(n=3, items=2):
    return GameConfig(n_agents=n,
                      mechanism=MechanismSpec(kind="first_price_combinatorial",
                                              items=items))


def lattice_comb_dataset(n_records, seed, n=3, items=2):
    """Valuations and bids on the lattice {0, 0.5, 1} of make_grid(2**items,
    1.0), so recorded bids coincide with grid points and ties are common."""
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (n_records, n, 1 << items)
    vals = rng.integers(0, 3, shape) / 2.0
    return Dataset(vals, vals.copy(), rng.integers(0, 3, shape) / 2.0)


# ----------------------------------------------------------- input checking


def test_ex_interim_requires_private_values():
    ds = uniform_dataset(10, seed=0)
    shifted = Dataset(ds.obs, np.clip(ds.vals + 0.1, 0.0, 1.0), ds.bids)
    with pytest.raises(ValueError, match="requires private values"):
        estimate_ex_interim(shifted, identity_profile(), make_grid(1, 0.25),
                            fpsb_game(), 0)


def test_ex_interim_checks_grid_dimension():
    ds = uniform_dataset(10, seed=0)
    with pytest.raises(ValueError, match="grid dimension 2 does not match"):
        estimate_ex_interim(ds, identity_profile(), make_grid(2, 0.25),
                            fpsb_game(), 0)


def test_dataset_ranges_are_scanned_once_per_dataset(monkeypatch):
    scanned = []
    scan = model._in_unit_range

    def counted(arr):
        scanned.append(arr.shape)
        return scan(arr)

    monkeypatch.setattr(model, "_in_unit_range", counted)
    ds = uniform_dataset(40, seed=2)
    for width in (0.25, 0.1):
        for agent in (0, 1):
            estimate_ex_interim(ds, identity_profile(), make_grid(1, width),
                                fpsb_game(), agent)
            estimate_ex_ante(ds, identity_profile(),
                             Partition(agent, [Cell(lo=(0.0,), hi=(1.0,))]),
                             make_grid(1, width), fpsb_game(), agent)
    assert scanned == [(40, 2, 1)] * 3   # obs, vals and bids, once each
    with pytest.raises(ValueError, match="read-only"):
        ds.bids[0, 0, 0] = 2.0
    # shapes are still checked on every call
    with pytest.raises(ValueError, match="does not match config"):
        ds.validate(fpsb_game(n=3))
    # separate arrays: identity bids share the observations' memory
    obs = uniform_dataset(40, seed=2).obs
    bad = Dataset(obs, obs.copy(), obs.copy())
    bad.bids[3, 1, 0] = 1.5
    for _ in range(2):
        with pytest.raises(ValueError, match="bids coordinate out of range"):
            bad.validate(fpsb_game())
    assert len(scanned) == 6


def test_ex_ante_checks_partition_owner():
    ds = uniform_dataset(10, seed=0)
    part = Partition(1, [Cell(lo=(0.0,), hi=(1.0,))])
    with pytest.raises(ValueError, match="partition belongs to agent 1, estimating 0"):
        estimate_ex_ante(ds, identity_profile(), part, make_grid(1, 0.25),
                         fpsb_game(), 0)


def test_valid_actions_filters_multiunit_lattice():
    mu = GameConfig(n_agents=2,
                    mechanism=MechanismSpec(kind="discriminatory", units=2))
    pts = make_grid(2, 0.5).points()
    kept = valid_actions(mu, pts)
    assert len(kept) == 6  # of 9: rows with non-increasing coordinates
    assert np.all(np.diff(kept, axis=1) <= 0.0)
    assert np.array_equal(valid_actions(fpsb_game(), pts), pts)
    # one unit's bid vector has a single coordinate, so nothing is dropped
    one_unit = GameConfig(n_agents=2, mechanism=MechanismSpec(
        kind="uniform_price", units=1))
    axis = make_grid(1, 0.25).points()
    assert np.array_equal(valid_actions(one_unit, axis), axis)


# ------------------------------------------------------ ex interim estimate


def test_silent_opponent_makes_the_smallest_winning_bid_optimal():
    rng = np.random.Generator(np.random.Philox(1))
    obs = np.zeros((50, 2, 1))
    obs[:, 0, 0] = rng.random(50)
    obs[:, 1, 0] = rng.random(50)
    ds = Dataset(obs, obs.copy(), np.zeros((50, 2, 1)))
    est = estimate_ex_interim(ds, identity_profile(), make_grid(1, 0.1),
                              fpsb_game(), 0)
    # identity bids theta and wins at price theta; deviating to the lowest
    # positive lattice bid 0.2 collects 1.0 - 0.2 at the top valuation
    assert est.value == 0.8
    assert est.argmax_pair == ((1.0,), (0.2,))
    assert est.n_records == 50
    assert est.flags == ()


def test_single_record_estimate_is_the_pointwise_maximum():
    obs = np.full((1, 2, 1), 0.35)
    ds = Dataset(obs, obs.copy(), obs.copy())
    grid = make_grid(1, 0.25)
    est = estimate_ex_interim(ds, identity_profile(), grid, fpsb_game(), 0)
    best = max(utility(FPSB, t, [c, 0.35], 0)
               - utility(FPSB, t, [t, 0.35], 0)
               for t in grid.axis for c in grid.axis)
    assert est.value == best


def test_on_lattice_profile_gains_are_nonnegative():
    ds = uniform_dataset(400, seed=2)
    est = estimate_ex_interim(ds, identity_profile(), make_grid(1, 0.05),
                              fpsb_game(), 0)
    # the identity bid of every valuation grid point is itself a candidate
    assert est.value >= 0.0
    assert np.all(est.per_point_gains >= 0.0)
    assert est.value == est.per_point_gains.max()


def test_argmax_gain_recomputes_from_ex_post_evaluations():
    profile = StrategyProfile((LinearShade(0.8), LinearShade(0.6)))
    ds = uniform_dataset(300, seed=3, profile=profile)
    est = estimate_ex_interim(ds, profile, make_grid(1, 0.05), fpsb_game(), 0)
    (theta,), (cand,) = est.argmax_pair
    cur_bid = profile[0].apply(theta)
    dev = np.mean([utility(FPSB, theta, [cand, ds.bids[j, 1, 0]], 0)
                   for j in range(len(ds))])
    cur = np.mean([utility(FPSB, theta, [cur_bid, ds.bids[j, 1, 0]], 0)
                   for j in range(len(ds))])
    assert est.value == pytest.approx(dev - cur, abs=1e-12)


def test_lattice_refinement_never_lowers_the_supremum():
    ds = uniform_dataset(500, seed=4)
    coarse = estimate_ex_interim(ds, identity_profile(), make_grid(1, 0.1),
                                 fpsb_game(), 0)
    fine = estimate_ex_interim(ds, identity_profile(), make_grid(1, 0.05),
                               fpsb_game(), 0)
    # halving the radius keeps every coarse lattice pair available
    assert fine.value >= coarse.value


def test_bids_only_dataset_is_estimated_but_flagged():
    ds = uniform_dataset(200, seed=6,
                         profile=StrategyProfile((LinearShade(0.5),
                                                  LinearShade(0.5))))
    grid = make_grid(1, 0.1)
    est = estimate_ex_interim(ds, None, grid, fpsb_game(), 0)
    assert FLAG_DEGRADED in est.flags
    # the current term falls back to the mean utility of the stored pairs
    cur = float(np.mean([utility(FPSB, ds.vals[j, 0, 0], ds.bids[j, :, 0],
                                 0) for j in range(len(ds))]))
    dev = max(np.mean([utility(FPSB, t, [c, ds.bids[j, 1, 0]], 0)
                       for j in range(len(ds))])
              for t in grid.axis for c in grid.axis)
    assert est.value == pytest.approx(dev - cur, abs=1e-12)
    cur_kernel = float(np.mean(profile_point_utilities(fpsb_game(), ds, 0)))
    assert cur_kernel == pytest.approx(cur, abs=1e-12)


def test_bids_only_ex_interim_builds_one_market_per_agent(monkeypatch):
    market = estimator._market
    calls = []

    def counted(*args):
        calls.append(args[2])
        return market(*args)

    monkeypatch.setattr(estimator, "_market", counted)
    ds = uniform_dataset(100, seed=7, n=3)
    for agent in range(3):
        est = estimate_ex_interim(ds, None, make_grid(1, 0.25),
                                  fpsb_game(3), agent)
        assert FLAG_DEGRADED in est.flags
    assert calls == [0, 1, 2]


def test_multiunit_estimate_matches_direct_evaluation():
    game = GameConfig(n_agents=2,
                      mechanism=MechanismSpec(kind="discriminatory", units=2))
    prior = IndependentProduct([[Uniform(), Uniform()]] * 2, sort_desc=True)
    profile = identity_profile()
    ds = sample_dataset(prior, profile, 40, seed=7)
    grid = make_grid(2, 0.5)
    est = estimate_ex_interim(ds, profile, grid, game, 0)
    actions = valid_actions(game, grid.points())
    best = -np.inf
    for t in actions:
        cur = np.mean([utility(game, t, np.vstack([t[None, :],
                                                   ds.bids[j, 1:]]), 0)
                       for j in range(len(ds))])
        for c in actions:
            dev = np.mean([utility(game, t, np.vstack([c[None, :],
                                                       ds.bids[j, 1:]]), 0)
                           for j in range(len(ds))])
            best = max(best, dev - cur)
    assert est.value == pytest.approx(best, abs=1e-12)


def test_uniform_price_sums_make_no_per_candidate_record_scan(monkeypatch):
    # candidate outcomes come from prefix sums over sorted critical bids;
    # the per-candidate kernels over every record must not be reached
    def refuse(*args):
        raise AssertionError("per-candidate scan over the records")

    monkeypatch.setattr(estimator.kernels, "multiunit_wins_fixed", refuse)
    monkeypatch.setattr(estimator.kernels, "multiunit_pay_unif_fixed", refuse)
    game = GameConfig(n_agents=3,
                      mechanism=MechanismSpec(kind="uniform_price", units=2))
    prior = IndependentProduct([[Uniform(), Uniform()]] * 3, sort_desc=True)
    profile = identity_profile(3)
    ds = sample_dataset(prior, profile, 40, seed=9)
    grid = make_grid(2, 0.5)
    est = estimate_ex_interim(ds, profile, grid, game, 1)
    actions = valid_actions(game, grid.points())

    def mean_utility(t, c):
        return math.fsum(utility(game, t, np.vstack(
            [ds.bids[j, :1], c[None, :], ds.bids[j, 2:]]), 1)
            for j in range(len(ds))) / len(ds)

    best = max(mean_utility(t, c) - mean_utility(t, t)
               for t in actions for c in actions)
    assert est.value == pytest.approx(best, abs=1e-12)


def test_combinatorial_estimate_matches_direct_evaluation():
    game = GameConfig(n_agents=2,
                      mechanism=MechanismSpec(kind="first_price_combinatorial",
                                              items=1))
    rng = np.random.Generator(np.random.Philox(8))
    obs = rng.random((20, 2, 2))
    profile = identity_profile()
    ds = Dataset(obs, obs.copy(), obs.copy())
    grid = make_grid(2, 0.5)
    est = estimate_ex_interim(ds, profile, grid, game, 0)
    pts = grid.points()
    best = -np.inf
    for t in pts:
        def mean_util(action):
            total = 0.0
            for j in range(len(ds)):
                prof_bids = np.vstack([action[None, :], ds.bids[j, 1:]])
                out = eval_game(game, np.vstack([t[None, :], ds.vals[j, 1:]]),
                                prof_bids)
                total += out.utilities[0]
            return total / len(ds)
        cur = mean_util(t)
        for c in pts:
            best = max(best, mean_util(c) - cur)
    assert est.value == pytest.approx(best, abs=1e-12)


def ex_post(game, ds, agent, action=None):
    """mechanisms.eval of every record, with agent's bid replaced by action
    (None: the recorded bid)."""
    bids = ds.bids.copy()
    if action is not None:
        bids[:, agent] = action
    return [eval_game(game, ds.vals[j], bids[j]) for j in range(len(ds))]


def fsum_mean_utility(game, ds, agent, action=None):
    utils = [float(out.utilities[agent])
             for out in ex_post(game, ds, agent, action)]
    return math.fsum(utils) / len(ds)


def test_combinatorial_estimates_beyond_agent_zero_match_direct_evaluation():
    game = comb_game()
    ds = lattice_comb_dataset(24, seed=21)
    grid = make_grid(4, 1.0)
    pts = grid.points()
    profile = identity_profile(3)
    for agent in (1, 2):
        # ex ante: each mean is fsum of the ex post utilities over N
        part = Partition(agent, [Cell(lo=(0.0,) * 4, hi=(1.0, 0.5, 1.0, 1.0)),
                                 Cell(lo=(0.0, 0.5, 0.0, 0.0), hi=(1.0,) * 4)])
        est = estimate_ex_ante(ds, profile, part, grid, game, agent)
        assert est.current_utility == fsum_mean_utility(game, ds, agent)
        for term, cell in zip(est.br_terms, part.cells):
            idx = [j for j in range(len(ds)) if cell.contains(ds.obs[j, agent])]
            assert term["n_records"] == len(idx) > 0
            sub = Dataset(ds.obs[idx], ds.vals[idx], ds.bids[idx])
            means = [fsum_mean_utility(game, sub, agent, c) for c in pts]
            best = int(np.argmax(means))
            assert term["best_bid"] == tuple(pts[best])
            assert term["br_mean"] == means[best]
        # ex interim: allocation and payment do not depend on the valuation,
        # so one evaluation per bid serves every valuation grid point
        est = estimate_ex_interim(ds, profile, grid, game, agent)
        stats = []
        for c in pts:
            outs = ex_post(game, ds, agent, c)
            stats.append((np.array([o.allocation[agent] for o in outs]),
                          np.array([o.payments[agent] for o in outs])))
        best = -np.inf
        for t, (cur_alloc, cur_pay) in zip(pts, stats):  # identity: bid t
            cur = np.mean(cur_alloc @ t - cur_pay) / game.utility_scale
            for alloc, pay in stats:
                dev = np.mean(alloc @ t - pay) / game.utility_scale
                best = max(best, dev - cur)
        assert est.value == pytest.approx(best, abs=1e-12)


def test_gain_table_blocks_do_not_change_the_estimate(monkeypatch):
    # lattice bids make many gains tie, across blocks of valuation rows too
    cases = [(uniform_dataset(300, seed=24), identity_profile(),
              make_grid(1, 0.01), fpsb_game()),
             (lattice_comb_dataset(40, seed=25), identity_profile(3),
              make_grid(4, 1.0), comb_game())]
    # every block reuses one buffer: one row per block; 7 (101 points) or 8
    # (81 points) rows per block, so the last block is short and stale rows
    # sit past it; and a step past the row count, so one block holds all
    for ds, profile, grid, game in cases:
        whole = estimate_ex_interim(ds, profile, grid, game, 0)
        for block in (1, 7 * 101, 10 ** 6):
            with monkeypatch.context() as patch:
                patch.setattr(estimator, "_GAIN_BLOCK", block)
                rows = estimate_ex_interim(ds, profile, grid, game, 0)
            assert rows.value == whole.value
            assert rows.argmax_pair == whole.argmax_pair
            assert np.array_equal(rows.per_point_gains, whole.per_point_gains)


def test_solve_blocks_do_not_change_bundle_outcomes(monkeypatch):
    # lattice bids tie often; 100 records make the default block hold all
    # 81 candidates, a 1000-pair block 10, a 700-pair block 7, a 1-pair
    # block one. Ex interim stacks the 81 current bids after the 81
    # candidates, so blocks of 7 and 10 bids hold some of each
    game = comb_game()
    ds = lattice_comb_dataset(100, seed=28)
    grid = make_grid(4, 1.0)
    cands = valid_actions(game, grid.points())
    agent = 1
    vals = ds.vals[:, agent]
    profile = StrategyProfile((LinearShade(0.5),) * 3)
    runs, estimates = [], []
    for block in (1, 700, 1000, estimator._PAIR_BLOCK, 10 ** 6):
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_PAIR_BLOCK", block)
            market = estimator._market(game, ds.bids, agent)
            runs.append((market.outcomes(cands),
                         market.outcomes(cands, vals)))
            estimates.append(estimate_ex_interim(ds, profile, grid, game,
                                                 agent))
    (counts, pays, none), (_, _, sums) = runs[0]
    assert none is None
    for run in runs:
        for got, want in zip(run[0][:2] + run[1], (counts, pays) * 2 + (sums,)):
            assert np.array_equal(got, want)
    for est in estimates:
        assert est.value == estimates[0].value
        assert est.argmax_pair == estimates[0].argmax_pair
        assert np.array_equal(est.per_point_gains.view(np.int64),
                              estimates[0].per_point_gains.view(np.int64))
    for k, cand in enumerate(cands):
        outs = ex_post(game, ds, agent, cand)
        alloc = np.sum([o.allocation[agent] for o in outs], axis=0)
        assert np.array_equal(counts[k], alloc)
        assert pays[k] == math.fsum(float(o.payments[agent]) for o in outs)
        assert sums[k] == math.fsum(float(o.utilities[agent]) for o in outs)


def test_bundle_solver_sees_exactly_the_in_band_profiles(monkeypatch):
    # the benchmark's shape: 250 records, 121 candidates, 2 agents, 1 item
    game = comb_game(n=2, items=1)
    rng = np.random.Generator(np.random.Philox(29))
    vals = rng.random((250, 2, 2))
    profile = StrategyProfile((LinearShade(0.7), LinearShade(0.95)))
    bids = np.stack([profile[i].apply(vals[:, i]) for i in range(2)], axis=1)
    cands = make_grid(2, 0.1).points()
    assert len(cands) == 121
    solve = estimator.winner_determination
    seen = []

    def recorded(profiles, items):
        seen.append(profiles.copy())
        return solve(profiles, items)

    monkeypatch.setattr(estimator, "winner_determination", recorded)
    estimator._market(game, bids, 0).outcomes(cands)
    # the lone opponent's best total with the item free, and taken; a zero
    # bid never wins its bundle, so that option scores -inf
    opp = bids[:, 1]
    free = np.maximum(0.0, opp.max(axis=1))
    taken = np.maximum(0.0, opp[:, 0])
    options = np.sort([np.broadcast_to(free, (121, 250)),
                       np.where(cands[:, 0, None] == 0, -np.inf,
                                cands[:, 0, None] + free),
                       np.where(cands[:, 1, None] == 0, -np.inf,
                                cands[:, 1, None] + taken)], axis=0)
    top, runner_up = options[-1], options[-2]
    k, r = np.nonzero(top - runner_up <= 24 * 2.0 ** -52 * np.maximum(top, 1))
    want = bids[r]
    want[:, 0] = cands[k]
    # here only exact ties fall in the band, a small share of the pairs
    assert 0 < len(k) < 121 * 250 // 10
    blocks = math.ceil(121 / (estimator._PAIR_BLOCK // 250))
    assert 1 <= len(seen) <= blocks
    assert np.array_equal(np.concatenate(seen), want)


LATTICES = [(0.0, 0.1, 0.2, 0.3, 0.6), (0.0, 0.25, 0.5, 0.75, 1.0)]


@st.composite
def bundle_markets(draw):
    """(bids (N, n, 2**items), agent, candidates (K, 2**items), values
    (N, 2**items)) for n = 2..4 and 1..3 items, on a lattice or continuous
    with zeros mixed in, so exact and rounding ties both occur."""
    n = draw(st.integers(2, 4))
    width = 1 << draw(st.integers(1, 3))
    lattice = draw(st.sampled_from(LATTICES + [None]))
    values = (st.sampled_from(lattice) if lattice is not None
              else st.just(0.0) | st.floats(0.0, 1.0))
    n_rec = draw(st.integers(1, 6))
    bids = draw(arrays(np.float64, (n_rec, n, width), elements=values))
    cands = draw(arrays(np.float64, (draw(st.integers(1, 5)), width),
                        elements=values))
    vals = draw(arrays(np.float64, (n_rec, width), elements=values))
    return bids, draw(st.integers(0, n - 1)), cands, vals


# the solver and the options add the same bids in different orders, and
# here 0.3 + (0.2 + 0.6) and 0.2 + (0.3 + 0.6) round apart
@example((np.array([[[0.2, 0.6], [0.0, 0.3], [0.1, 0.2]]]), 1,
          np.array([[0.2, 0.6]]), np.array([[1.0, 1.0]])))
# the same profile, as the agent's recorded bids
@example((np.array([[[0.2, 0.6], [0.2, 0.6], [0.1, 0.2]]]), 1,
          np.array([[0.0, 0.3]]), np.array([[1.0, 1.0]])))
@given(bundle_markets())
@settings(max_examples=150, deadline=None)
def test_bundle_outcomes_match_a_full_solve_of_every_profile(market):
    bids, agent, cands, vals = market
    _, n, width = bids.shape
    game = comb_game(n=n, items=width.bit_length() - 1)
    market = estimator._market(game, bids, agent)
    # the recorded bids, record by record
    recorded = winner_determination(bids, game.mechanism.items)[:, agent]
    assert market.utilities(vals).tolist() == [
        (vals[r, b] - bids[r, agent, b]) / game.utility_scale if b >= 0
        else 0.0 for r, b in enumerate(recorded.tolist())]
    # constant bids
    counts, pays, sums = market.outcomes(cands, vals)
    profiles = np.repeat(bids[None], len(cands), axis=0)
    profiles[:, :, agent] = cands[:, None]
    choice = winner_determination(profiles, game.mechanism.items)[..., agent]
    for k, cand in enumerate(cands):
        won = [(r, b) for r, b in enumerate(choice[k].tolist()) if b >= 0]
        assert counts[k].tolist() == [sum(b == j for _, b in won)
                                      for j in range(width)]
        assert pays[k] == math.fsum(cand[b] for _, b in won)
        assert sums[k] == math.fsum((vals[r, b] - cand[b])
                                    / game.utility_scale for r, b in won)


@st.composite
def zero_bid_markets(draw):
    """(bids (N, n, 2**items), agent, candidates (K, 2**items)) whose
    entries are exact zeros (+0.0 or -0.0) about half the time, so many
    options are zero bids, some tied with declining."""
    n = draw(st.integers(2, 4))
    width = 1 << draw(st.integers(1, 3))
    lattice = draw(st.sampled_from(LATTICES + [None]))
    nonzero = (st.sampled_from(lattice[1:]) if lattice is not None
               else st.floats(2.0 ** -60, 1.0))
    values = st.sampled_from([0.0, -0.0]) | nonzero
    bids = draw(arrays(np.float64, (draw(st.integers(1, 6)), n, width),
                       elements=values))
    cands = draw(arrays(np.float64, (draw(st.integers(1, 5)), width),
                        elements=values))
    return bids, draw(st.integers(0, n - 1)), cands


@given(zero_bid_markets())
@settings(max_examples=200, deadline=None)
def test_zero_bid_options_leave_every_choice_the_solvers(market):
    bids, agent, cands = market
    _, n, width = bids.shape
    items = width.bit_length() - 1
    bundles = estimator._market(comb_game(n=n, items=items), bids, agent)
    # the recorded bids, one bid vector per record
    recorded = bundles._choices(bids[:, agent].T[None])[0]
    assert recorded.tolist() == winner_determination(
        bids, items)[:, agent].tolist()
    # constant bids
    profiles = np.repeat(bids[None], len(cands), axis=0)
    profiles[:, :, agent] = cands[:, None]
    assert bundles._choices(cands[:, :, None]).tolist() == \
        winner_determination(profiles, items)[..., agent].tolist()


def test_zero_bids_send_no_profile_to_the_solver(monkeypatch):
    # continuous bids tie nowhere, so every in-band profile would come from
    # a zero bid: on the empty bundle it ties declining in every record
    rng = np.random.Generator(np.random.Philox(33))
    bids = rng.random((200, 3, 4))
    bids[:, 0, 0] = 0.0
    bids[rng.random(200) < 0.5, 0, 3] = -0.0
    cands = rng.random((40, 4))
    cands[rng.random(cands.shape) < 0.5] = 0.0
    seen = []
    solve = estimator.winner_determination

    def recorded(profiles, items):
        seen.append(len(profiles))
        return solve(profiles, items)

    monkeypatch.setattr(estimator, "winner_determination", recorded)
    bundles = estimator._market(comb_game(), bids, 0)
    choice = bundles._choices(cands[:, :, None])
    own = bundles._choices(bids[:, 0].T[None])[0]
    assert sum(seen) == 0
    profiles = np.repeat(bids[None], len(cands), axis=0)
    profiles[:, :, 0] = cands[:, None]
    assert np.array_equal(choice, winner_determination(profiles, 2)[..., 0])
    assert np.array_equal(own, winner_determination(bids, 2)[:, 0])


# a sampled correlated dataset, split by the benchmark's 8-cell partition
MEMORY_RECORDS = 40_000
MEMORY_CELLS = (0.0, 0.027, 0.067, 0.12, 0.187, 0.271, 0.381, 0.545, 1.0)


def traced_peak_per_record(fn, *args):
    """fn(*args)'s traced allocation peak above what was allocated before
    it, per record of the memory-test dataset."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / MEMORY_RECORDS


def memory_job():
    ds = correlated_dataset(MEMORY_RECORDS, seed=4)
    ds.validate(FPSB)
    part = Partition(0, [Cell(lo=(a,), hi=(b,))
                         for a, b in zip(MEMORY_CELLS, MEMORY_CELLS[1:])])
    return ds, part


def test_partition_split_holds_little_beyond_its_index_arrays():
    # the index arrays take 8 bytes per record, the labels 1
    ds, part = memory_job()
    assert traced_peak_per_record(
        lambda *args: list(split_by_partition(*args)), ds, part) < 14.0


def test_ex_ante_estimate_holds_no_per_record_copies():
    ds, part = memory_job()
    assert traced_peak_per_record(
        estimate_ex_ante, ds, identity_profile(), part, make_grid(1, 0.005),
        FPSB, 0) < 46.0


def test_ex_ante_holds_one_cell_at_a_time():
    # 16 equal cells: a per-record array over all records (8 bytes each)
    # would take 8 N bytes on its own, and the labels take N
    n_cells, n_rec = 16, 120_000
    ds = uniform_dataset(n_rec, seed=5)
    ds.validate(FPSB)
    part = Partition(0, [Cell(lo=(k / n_cells,), hi=((k + 1) / n_cells,))
                         for k in range(n_cells)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = estimate_ex_ante(ds, identity_profile(), part,
                               make_grid(1, 0.005), FPSB, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(t["n_records"] > 0 for t in est.br_terms)
    assert peak < 1.5 * n_rec * 8


def test_fine_grid_gain_table_is_not_held_in_memory():
    ds = uniform_dataset(200, seed=26)
    grid = make_grid(1, 1.25e-4)
    # a whole K x K table would take 128 MB
    assert grid.points_per_axis ** grid.dim == 4001
    tracemalloc.start()
    try:
        est = estimate_ex_interim(ds, identity_profile(), grid, fpsb_game(), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert est.value == est.per_point_gains.max()


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 40),
                          st.floats(min_value=0.0, max_value=1.0)),
                min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_count_weighted_sums_are_correctly_rounded(pairs):
    counts = np.array([[c for c, _ in pairs]], dtype=np.int64)
    values = np.array([[v for _, v in pairs]])
    exact = sum(c * Fraction(v) for c, v in pairs)
    assert estimator._count_weighted_sums(counts, values)[0] == float(exact)


def fsum_or_error(values):
    """repr of math.fsum(values), which shows the sign of a zero, or the
    name of the error it raises: OverflowError when its partial sums
    overflow, ValueError for infinities of both signs."""
    try:
        return repr(math.fsum(values))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def exact_sum_or_error(values):
    try:
        return repr(estimator._exact_sum(np.array(values, dtype=np.float64)))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),   # up to 1.8e308
    st.floats(min_value=-1e-300, max_value=1e-300),     # subnormals too
    st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def cancelling_lists(draw):
    """Values, their negations and a few more, in a drawn order: the exact
    sum is small or zero against the terms."""
    values = draw(st.lists(FLOATS, max_size=12))
    extra = draw(st.lists(FLOATS, max_size=3))
    return draw(st.permutations(values + [-v for v in values] + extra))


@given(st.one_of(st.lists(FLOATS, max_size=40), cancelling_lists()))
@settings(max_examples=1000, deadline=None)
def test_exact_sum_equals_math_fsum_bit_for_bit(values):
    assert exact_sum_or_error(values) == fsum_or_error(values)


def test_exact_sum_edge_cases_and_chunks():
    cases = [[], [-0.0], [-0.0, -0.0], [1.0, -1.0], [-5e-324, 5e-324],
             [5e-324] * 3, [2.0 ** 1023, 2.0 ** 1023, -(2.0 ** 1023)],
             [1e308, -1e308, 1e-300], [0.5, 2.0 ** -53, 2.0 ** -53]]
    rng = np.random.Generator(np.random.Philox(30))
    # more values than one pass takes, spread over many binades
    spread = rng.standard_normal(100_000) * 10.0 ** rng.integers(-300, 300,
                                                                 100_000)
    cancelled = np.concatenate([spread, -spread[::-1]])
    cases += [spread.tolist(), cancelled.tolist(),
              (rng.random(100_000) - 0.5).tolist()]
    for values in cases:
        assert exact_sum_or_error(values) == fsum_or_error(values)


def test_exact_sum_falls_back_to_fsum_past_its_exactness_limit(monkeypatch):
    fsum = math.fsum
    calls = []

    def counted(values):
        calls.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counted)
    values = [0.1, 0.2, 0.3, -0.6, 1e-17]
    want = repr(fsum(values))
    assert repr(estimator._exact_sum(np.array(values))) == want
    assert calls == []
    monkeypatch.setattr(estimator, "_EXACT_SUM_MAX", len(values) - 1)
    assert repr(estimator._exact_sum(np.array(values))) == want
    assert calls == [len(values)]


def cell_sum_or_error(cells):
    """repr of _ExactSum over the cells, added in turn, or the name of the
    error it raises."""
    total = estimator._ExactSum()
    for cell in cells:
        total.add(np.array(cell, dtype=np.float64))
    try:
        return repr(total.value())
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def split_at(values, cuts):
    bounds = [0] + sorted(c % (len(values) + 1) for c in cuts) + [len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


@given(st.one_of(st.lists(FLOATS, max_size=40), cancelling_lists()),
       st.lists(st.integers(min_value=0), max_size=5))
@settings(max_examples=1000, deadline=None)
def test_cell_sums_add_up_to_the_exact_sum_of_all_values(values, cuts):
    got = cell_sum_or_error(split_at(values, cuts))
    want = fsum_or_error(values)
    if want == "OverflowError":
        # math.fsum overflows in its running partial sums, which depend on
        # the order; the exact sum, rounded, has no such dependence
        try:
            rounded = repr(float(sum(map(Fraction, values))))
        except OverflowError:   # the exact sum lies past the float range
            rounded = "OverflowError"
        assert got == rounded
    else:
        assert got == want == exact_sum_or_error(values)


def test_cell_sums_are_rounded_once_over_all_cells():
    tiny = 2.0 ** -53   # half an ulp of 1.0
    cases = [
        [[-0.0], [-0.0]], [[], [-0.0], []], [[0.0], [-0.0]], [[]],
        [[5e-324], [5e-324, -1e-323], [5e-324]],         # subnormals
        [[2.0 ** -1022, -5e-324], [5e-324]],
        # each cell rounds to 1.0 alone; together the halves make an ulp
        [[1.0, tiny], [tiny]],
        [[0.1] * 10, [0.2] * 10, [-0.3] * 10],
        [[1e16, 1.0], [1.0, -1e16]],
    ]
    for cells in cases:
        values = [v for cell in cells for v in cell]
        assert cell_sum_or_error(cells) == fsum_or_error(values) == \
            exact_sum_or_error(values), cells
    one_ulp = [[1.0, tiny], [tiny]]
    rounded_apart = sum(estimator._exact_sum(np.array(c)) for c in one_ulp)
    assert rounded_apart == 1.0
    assert cell_sum_or_error(one_ulp) == repr(1.0 + 2 * tiny)


def test_cell_sums_follow_fsum_on_non_finite_and_long_input(monkeypatch):
    inf, nan = math.inf, math.nan
    cases = [[[1.0, inf], [2.0]], [[-inf], [1.0, -inf]], [[inf], [-inf]],
             [[nan], [1.0]], [[1.0], [inf, nan]], [[inf, 0.5], [0.25, -inf]],
             [[1e308, inf], [1e-300]]]
    for cells in cases:
        values = [v for cell in cells for v in cell]
        assert cell_sum_or_error(cells) == fsum_or_error(values), cells
    # past _EXACT_SUM_MAX values in one cell or in all, the exact sum is
    # kept a block at a time; _exact_sum itself hands over to math.fsum
    monkeypatch.setattr(estimator, "_EXACT_SUM_MAX", 3)
    rng = np.random.Generator(np.random.Philox(42))
    spread = (rng.standard_normal(40)
              * 10.0 ** rng.integers(-30, 30, 40)).tolist()
    values = spread + [-v for v in spread[::3]] + [2.0 ** -60, 2.0 ** -60]
    for cells in (split_at(values, [5, 11, 40]), [values],
                  [[v] for v in values]):
        assert cell_sum_or_error(cells) == fsum_or_error(values) == \
            exact_sum_or_error(values)


# -------------------------------------------------------- ex ante estimate


def test_dominant_opponents_leave_no_profitable_deviation():
    rng = np.random.Generator(np.random.Philox(9))
    obs = np.zeros((60, 2, 1))
    obs[:, 0, 0] = rng.random(60)
    obs[:, 1, 0] = rng.random(60)
    bids = obs.copy()
    bids[:, 1, 0] = 1.0  # opponent always bids the maximum; ties lose
    ds = Dataset(obs, obs.copy(), bids)
    est = estimate_ex_ante(ds, identity_profile(), full_partition(),
                           make_grid(1, 0.1), fpsb_game(), 0)
    assert est.value == 0.0
    assert est.current_utility == 0.0
    assert est.br_terms[0]["best_bid"] == (0.0,)
    assert est.br_terms[0]["br_mean"] == 0.0


def test_trivial_partition_recovers_the_plain_best_response_gap():
    profile = StrategyProfile((LinearShade(0.7), LinearShade(0.5)))
    ds = uniform_dataset(250, seed=10, profile=profile)
    grid = make_grid(1, 0.1)
    est = estimate_ex_ante(ds, profile, full_partition(), grid, fpsb_game(), 0)
    cur = np.mean([utility(FPSB, ds.vals[j, 0, 0], ds.bids[j, :, 0], 0)
                   for j in range(len(ds))])
    dev_means = [np.mean([utility(FPSB, ds.vals[j, 0, 0],
                                  [c, ds.bids[j, 1, 0]], 0)
                          for j in range(len(ds))]) for c in grid.axis]
    assert est.current_utility == pytest.approx(cur, abs=1e-12)
    assert est.value == pytest.approx(max(dev_means) - cur, abs=1e-12)
    assert est.br_terms[0]["weight"] == 1.0
    assert est.br_terms[0]["n_records"] == 250


def test_ex_ante_flags_unobserved_cells():
    rng = np.random.Generator(np.random.Philox(11))
    obs = rng.random((80, 2, 1)) * 0.5  # agent 0 never lands in [0.5, 1]
    ds = Dataset(obs, obs.copy(), obs.copy())
    part = Partition(0, [Cell(lo=(0.0,), hi=(0.5,)),
                         Cell(lo=(0.5,), hi=(1.0,))])
    est = estimate_ex_ante(ds, identity_profile(), part, make_grid(1, 0.25),
                           fpsb_game(), 0)
    assert "unobserved cell 1" in est.flags
    empty = est.br_terms[1]
    assert empty["n_records"] == 0
    assert empty["weight"] == 0.0
    assert empty["best_bid"] is None
    assert est.br_terms[0]["weight"] == 1.0


def test_ex_ante_weights_average_the_per_cell_best_responses():
    ds = uniform_dataset(400, seed=12)
    part = Partition(0, [Cell(lo=(0.0,), hi=(0.5,)),
                         Cell(lo=(0.5,), hi=(1.0,))])
    grid = make_grid(1, 0.1)
    est = estimate_ex_ante(ds, identity_profile(), part, grid, fpsb_game(), 0)
    weights = [t["weight"] for t in est.br_terms]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert sum(t["n_records"] for t in est.br_terms) == 400
    combined = sum(t["weight"] * t["br_mean"] for t in est.br_terms)
    assert est.value == pytest.approx(combined - est.current_utility, abs=1e-12)


def correlated_dataset(n_records, seed):
    return sample_dataset(CorrelatedCommonValue(2), identity_profile(),
                          n_records, seed)


def quarter_partition(agent):
    return Partition(agent, [Cell(lo=(q / 4,), hi=((q + 1) / 4,))
                             for q in range(4)])


def shuffles(ds, n_shuffles=3):
    """The dataset with its records in n_shuffles seeded random orders."""
    for seed in range(n_shuffles):
        perm = np.random.Generator(np.random.Philox(seed)).permutation(len(ds))
        yield Dataset(ds.obs[perm], ds.vals[perm], ds.bids[perm])


def assert_order_free_ex_ante(ds, *args):
    a = estimate_ex_ante(ds, *args)
    for other in shuffles(ds):
        b = estimate_ex_ante(other, *args)
        assert a.value == b.value
        assert a.current_utility == b.current_utility
        assert a.br_terms == b.br_terms
        assert np.array_equal(a.gain_curve, b.gain_curve)


def assert_order_free_ex_interim(ds, *args):
    a = estimate_ex_interim(ds, *args)
    for other in shuffles(ds):
        b = estimate_ex_interim(other, *args)
        assert a.value == b.value
        assert np.array_equal(a.per_point_gains, b.per_point_gains)


def record_tables(monkeypatch, owner, name):
    """Wrap estimator._market and owner.name, the function that builds a
    market's per-record table from the opponents' bids; return the list
    that collects (agent, those bids) per table built."""
    market, table = estimator._market, getattr(owner, name)
    agents, seen = [], []

    def counted_market(config, bids, agent):
        agents.append(agent)
        return market(config, bids, agent)

    def counted_table(opp, *args):
        seen.append((agents[-1], np.array(opp)))
        return table(opp, *args)

    monkeypatch.setattr(estimator, "_market", counted_market)
    monkeypatch.setattr(owner, name, counted_table)
    return seen


def assert_each_record_once(seen, bids, agent):
    """The agent's tables were built from every record's opponents' bids,
    each record once: their rows add up to N and, sorted, are the records'."""
    got = np.concatenate([opp for a, opp in seen if a == agent])
    want = np.delete(bids, agent, axis=1)
    assert len(got) == len(want)

    def ordered(rows):
        flat = rows.reshape(len(rows), -1)
        return flat[np.lexsort(flat.T[::-1])]

    assert np.array_equal(ordered(got), ordered(want))


def test_ex_ante_computes_each_records_critical_bids_once(monkeypatch):
    seen = record_tables(monkeypatch, estimator.kernels,
                         "multiunit_critical_bids")
    ds = correlated_dataset(400, seed=31)
    for agent in range(2):
        est = estimate_ex_ante(ds, identity_profile(),
                               quarter_partition(agent), make_grid(1, 0.05),
                               fpsb_game(), agent)
        assert all(t["n_records"] > 0 for t in est.br_terms)
        assert sum(a == agent for a, _ in seen) == 4   # one table per cell
        assert_each_record_once(seen, ds.bids, agent)
    # the bundles market computes no critical bids, but its W once a record
    seen.clear()
    solved = record_tables(monkeypatch, estimator, "best_total_tables")
    comb = lattice_comb_dataset(60, seed=32)
    quarters = Partition(1, [Cell(lo=(a, b, 0.0, 0.0), hi=(a + 0.5, b + 0.5,
                                                          1.0, 1.0))
                             for a in (0.0, 0.5) for b in (0.0, 0.5)])
    est = estimate_ex_ante(comb, identity_profile(3), quarters,
                           make_grid(4, 1.0), comb_game(), 1)
    assert all(t["n_records"] > 0 for t in est.br_terms)
    assert seen == []
    assert_each_record_once(solved, comb.bids, 1)


def test_bundles_market_solves_each_record_once_per_agent(monkeypatch,
                                                         tmp_path):
    # the ex ante combinatorial golden: 2 agents, 2 cells each, 300 records;
    # each cell's market solves W for its own records, which the recorded
    # bids and the candidates both read
    seen = record_tables(monkeypatch, estimator, "best_total_tables")
    path = Path(__file__).resolve().parent / "golden" / (
        "combinatorial_ante_config.json")
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["out_dir"] = str(tmp_path)
    assert run(parse_config(raw, base_dir=str(path.parent))) == 0
    assert [a for a, _ in seen] == [0, 0, 1, 1]
    for agent in range(2):
        rows = np.concatenate([opp for a, opp in seen if a == agent])
        assert rows.shape == (300, 1, 2)
        assert len(np.unique(rows.reshape(300, -1), axis=0)) == 300


@pytest.mark.parametrize("kind, units", [
    ("first_price_single_item", 1), ("discriminatory", 1),
    ("discriminatory", 2), ("discriminatory", 3)])
def test_pay_as_bid_current_utility_matches_the_kernel_formula(kind, units):
    # a lattice with tied critical bids and values, signed zeros, 0 and 1,
    # and entries whose sums round, so the order of the additions shows
    lattice = np.array([-0.0, -0.0, 0.0, 0.0, 0.1, 0.2, 1 / 3, 0.7, 1.0])
    rng = np.random.Generator(np.random.Philox(41 + units))
    shape = (3000, 3, units)
    vals = lattice[rng.integers(0, len(lattice), shape)]
    bids = np.sort(lattice[rng.integers(0, len(lattice), shape)],
                   axis=2)[..., ::-1]
    ds = Dataset(vals, vals, bids)
    mech = (MechanismSpec(kind=kind) if kind == "first_price_single_item"
            else MechanismSpec(kind=kind, units=units))
    game = GameConfig(n_agents=3, mechanism=mech)
    won_sums = estimator.kernels.won_sums
    signed_zeros = 0
    # multi-unit, agent 2 is junior to both opponents, agent 1 to one and
    # agent 0 to none; first price counts every opponent as senior
    for agent in range(3):
        others = [j for j in range(3) if j != agent]
        senior = [kind == "first_price_single_item" or j < agent
                  for j in others]
        crit = estimator.kernels.multiunit_critical_bids(bids[:, others],
                                                         senior, units)
        own = bids[:, agent]
        wins = np.count_nonzero(crit <= own, axis=1)
        want = ((won_sums(vals[:, agent], wins) - won_sums(own, wins))
                / game.utility_scale)
        got = profile_point_utilities(game, ds, agent)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        signed_zeros += np.count_nonzero(np.signbit(want) & (want == 0.0))
    # -0.0 - 0.0 = -0.0: won at a zero bid, which beats only junior bids
    assert signed_zeros > 0 or kind == "first_price_single_item"


def test_record_order_does_not_change_any_estimate():
    # first price, ex ante over a 4-cell partition
    ds = correlated_dataset(3000, seed=14)
    for agent in range(2):
        assert_order_free_ex_ante(ds, identity_profile(),
                                  quarter_partition(agent), make_grid(1, 0.02),
                                  fpsb_game(), agent)
    # multi-unit, ex ante
    unif = GameConfig(n_agents=2,
                      mechanism=MechanismSpec(kind="uniform_price", units=2))
    prior = IndependentProduct([[Uniform(), Uniform()]] * 2, sort_desc=True)
    mu = sample_dataset(prior, identity_profile(), 600, seed=16)
    whole = Partition(0, [Cell(lo=(0.0, 0.0), hi=(1.0, 1.0))])
    assert_order_free_ex_ante(mu, identity_profile(), whole, make_grid(2, 0.25),
                              unif, 0)
    # ex interim: multi-unit payments, and the bids-only current term
    assert_order_free_ex_interim(mu, identity_profile(), make_grid(2, 0.25),
                                 unif, 0)
    shaded = StrategyProfile((LinearShade(0.7), LinearShade(0.7)))
    assert_order_free_ex_interim(
        uniform_dataset(3000, seed=18, profile=shaded), None,
        make_grid(1, 0.05), fpsb_game(), 0)
    # combinatorial, 3 agents and 2 items, ex interim and ex ante
    comb = lattice_comb_dataset(60, seed=19)
    assert_order_free_ex_interim(comb, identity_profile(3), make_grid(4, 1.0),
                                 comb_game(), 1)
    halves = Partition(2, [Cell(lo=(0.0,) * 4, hi=(0.5, 1.0, 1.0, 1.0)),
                           Cell(lo=(0.5, 0.0, 0.0, 0.0), hi=(1.0,) * 4)])
    assert_order_free_ex_ante(comb, identity_profile(3), halves,
                              make_grid(4, 1.0), comb_game(), 2)


def exact_mean(values):
    return sum(map(Fraction, values.tolist()), Fraction(0)) / len(values)


def assert_within_rounding_bounds(est, game, ds, agent, part, exact_utils):
    """current_utility is a correctly rounded sum divided by N: at most one
    ulp from the exact mean. Each br_mean rests on sequential prefix sums
    over the cell's n records: relative error at most n * 2**-53.
    exact_utils(idx, bid) gives the exact utility of each record in idx when
    the agent bids bid."""
    exact = exact_mean(profile_point_utilities(game, ds, agent))
    assert abs(Fraction(est.current_utility) - exact) \
        <= Fraction(math.ulp(float(exact)))
    for term, cell in zip(est.br_terms, part.cells):
        idx = [r for r in range(len(ds)) if cell.contains(ds.obs[r, agent])]
        assert term["n_records"] == len(idx)
        exact = sum(exact_utils(idx, np.array(term["best_bid"])),
                    Fraction(0)) / len(idx)
        assert exact > 0
        assert abs(Fraction(term["br_mean"]) - exact) \
            <= exact * Fraction(term["n_records"], 2 ** 53)


def test_ex_ante_means_are_within_their_rounding_bounds_of_the_exact_means():
    ds = correlated_dataset(20_000, seed=20)
    game = fpsb_game()
    for agent in range(2):
        part = quarter_partition(agent)
        est = estimate_ex_ante(ds, identity_profile(), part, make_grid(1, 0.02),
                               game, agent)

        def exact_utils(idx, bid):
            opp_max = ds.bids[idx, 1 - agent, 0]
            utils = np.where(bid[0] > opp_max, ds.vals[idx, agent, 0] - bid[0],
                             0.0)
            return [Fraction(u) / Fraction(game.utility_scale)
                    for u in utils.tolist()]

        assert_within_rounding_bounds(est, game, ds, agent, part, exact_utils)

    # multi-unit: exact value won minus the ex post rule's payment, per record
    prior = IndependentProduct([[Uniform(), Uniform()]] * 3, sort_desc=True)
    ds = sample_dataset(prior, identity_profile(3), 3000, seed=27)
    for kind in ("discriminatory", "uniform_price"):
        game = GameConfig(n_agents=3,
                          mechanism=MechanismSpec(kind=kind, units=2))
        for agent in range(3):
            part = Partition(agent, [Cell(lo=(0.0, 0.0), hi=(0.5, 1.0)),
                                     Cell(lo=(0.5, 0.0), hi=(1.0, 1.0))])
            est = estimate_ex_ante(ds, identity_profile(3), part,
                                   make_grid(2, 0.05), game, agent)

            def exact_utils(idx, bid):
                for r in idx:
                    bids = ds.bids[r].copy()
                    bids[agent] = bid
                    out = eval_game(game, ds.vals[r], bids)
                    won = int(out.allocation[agent].sum())
                    value = sum(map(Fraction, ds.vals[r, agent, :won].tolist()),
                                Fraction(0))
                    yield (value - Fraction(float(out.payments[agent]))) \
                        / Fraction(game.utility_scale)

            assert_within_rounding_bounds(est, game, ds, agent, part,
                                          exact_utils)
