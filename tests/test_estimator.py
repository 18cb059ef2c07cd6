"""Empirical loss estimators against direct ex post evaluation."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bneverify import estimator, model
from bneverify.estimator import (FLAG_DEGRADED, estimate_ex_ante,
                                 estimate_ex_interim, profile_point_utilities,
                                 valid_actions)
from bneverify.mechanisms import winner_determination, eval as eval_game
from bneverify.model import (Cell, Dataset, GameConfig, MechanismSpec,
                             Partition, make_grid)
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
    bad = uniform_dataset(40, seed=2)
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
    for ds, profile, grid, game in cases:
        whole = estimate_ex_interim(ds, profile, grid, game, 0)
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_GAIN_BLOCK", 1)  # one row per block
            rows = estimate_ex_interim(ds, profile, grid, game, 0)
        assert rows.value == whole.value
        assert rows.argmax_pair == whole.argmax_pair
        assert np.array_equal(rows.per_point_gains, whole.per_point_gains)


def test_solve_blocks_do_not_change_bundle_outcomes(monkeypatch):
    # lattice bids tie often; 100 records make the default block hold all
    # 81 candidates, a 1000-pair block 10, a 1-pair block one
    game = comb_game()
    ds = lattice_comb_dataset(100, seed=28)
    cands = valid_actions(game, make_grid(4, 1.0).points())
    agent = 1
    vals = ds.vals[:, agent]
    runs = []
    for block in (1, 1000, estimator._PAIR_BLOCK, 10 ** 6):
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "_PAIR_BLOCK", block)
            market = estimator._market(game, ds.bids, agent)
            runs.append((market.outcomes(cands),
                         market.outcomes(cands, vals)))
    (counts, pays, none), (_, _, sums) = runs[0]
    assert none is None
    for run in runs:
        for got, want in zip(run[0][:2] + run[1], (counts, pays) * 2 + (sums,)):
            assert np.array_equal(got, want)
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
    # the lone opponent's best total with the item free, and taken
    opp = bids[:, 1]
    free = np.maximum(0.0, opp.max(axis=1))
    taken = np.maximum(0.0, opp[:, 0])
    options = np.sort([np.broadcast_to(free, (121, 250)),
                       cands[:, 0, None] + free,
                       cands[:, 1, None] + taken], axis=0)
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
@given(bundle_markets())
@settings(max_examples=150, deadline=None)
def test_bundle_outcomes_match_a_full_solve_of_every_profile(market):
    bids, agent, cands, vals = market
    _, n, width = bids.shape
    game = comb_game(n=n, items=width.bit_length() - 1)
    counts, pays, sums = estimator._market(game, bids, agent).outcomes(
        cands, vals)
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


def fsum_or_overflow(values):
    """repr of math.fsum(values), which shows the sign of a zero, or the
    name of the error when its partial sums overflow."""
    try:
        return repr(math.fsum(values))
    except OverflowError:
        return "OverflowError"


def exact_sum_or_overflow(values):
    try:
        return repr(estimator._exact_sum(np.array(values, dtype=np.float64)))
    except OverflowError:
        return "OverflowError"


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
    assert exact_sum_or_overflow(values) == fsum_or_overflow(values)


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
        assert exact_sum_or_overflow(values) == fsum_or_overflow(values)


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


def test_ex_ante_builds_one_market_per_agent(monkeypatch):
    market = estimator._market
    critical = estimator.kernels.multiunit_critical_bids
    calls = []

    def counted(fn, name):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(estimator, "_market", counted(market, "market"))
    monkeypatch.setattr(estimator.kernels, "multiunit_critical_bids",
                        counted(critical, "critical"))
    ds = correlated_dataset(400, seed=31)
    for agent in range(2):
        calls.clear()
        part = quarter_partition(agent)
        est = estimate_ex_ante(ds, identity_profile(), part,
                               make_grid(1, 0.05), fpsb_game(), agent)
        assert all(t["n_records"] > 0 for t in est.br_terms)
        assert sorted(calls) == ["critical", "market"]
    # the bundles market computes no critical bids; cells are its row subsets
    comb = lattice_comb_dataset(60, seed=32)
    quarters = Partition(1, [Cell(lo=(a, b, 0.0, 0.0), hi=(a + 0.5, b + 0.5,
                                                          1.0, 1.0))
                             for a in (0.0, 0.5) for b in (0.0, 0.5)])
    calls.clear()
    est = estimate_ex_ante(comb, identity_profile(3), quarters,
                           make_grid(4, 1.0), comb_game(), 1)
    assert all(t["n_records"] > 0 for t in est.br_terms)
    assert calls == ["market"]


def test_row_subsets_match_markets_built_from_the_subset():
    # a subset's market gathers the whole market's rows; a uniform-price
    # view must not reuse the whole market's cached prefix sums. A slots
    # view carries no own bids, so utilities are read off the whole market
    multiunit = IndependentProduct([[Uniform(), Uniform()]] * 3,
                                   sort_desc=True)
    cases = [(fpsb_game(), correlated_dataset(300, seed=33), 1),
             (comb_game(), lattice_comb_dataset(60, seed=34), 4)]
    for kind in ("discriminatory", "uniform_price"):
        game = GameConfig(n_agents=3,
                          mechanism=MechanismSpec(kind=kind, units=2))
        cases.append((game, sample_dataset(multiunit, identity_profile(3),
                                           300, seed=35), 2))
    for game, ds, dim in cases:
        cands = valid_actions(game, make_grid(dim, 0.5).points())
        rng = np.random.Generator(np.random.Philox(36))
        for agent in (0, 1):
            whole = estimator._market(game, ds.bids, agent)
            whole.outcomes(cands)   # fills any cache of the whole market
            idx = np.flatnonzero(rng.random(len(ds)) < 0.4)
            view = whole.rows(idx)
            own = estimator._market(game, ds.bids[idx], agent)
            vals = ds.vals[idx, agent]
            assert np.array_equal(whole.utilities(ds.vals[:, agent])[idx],
                                  own.utilities(vals))
            got = view.outcomes(cands) + view.outcomes(cands, vals)
            want = own.outcomes(cands) + own.outcomes(cands, vals)
            for g, w in zip(got, want):
                assert (g is None and w is None) or np.array_equal(g, w)


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
