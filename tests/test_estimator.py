"""Empirical loss estimators against direct ex post evaluation."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bneverify import estimator
from bneverify.estimator import (FLAG_DEGRADED, brute_force_best_response,
                                 estimate_ex_ante, estimate_ex_interim,
                                 profile_point_utilities, valid_actions)
from bneverify.mechanisms import eval_discriminatory, eval_fpsb, eval as eval_game
from bneverify.model import (Cell, Dataset, GameConfig, MechanismSpec,
                             Partition, make_grid)
from bneverify.priors import (CorrelatedCommonValue, IndependentProduct,
                              Uniform, sample_dataset)
from bneverify.strategies import Identity, LinearShade, StrategyProfile


def fpsb_game(n=2):
    return GameConfig(n_agents=n,
                      mechanism=MechanismSpec(kind="first_price_single_item"))


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
    best = max(eval_fpsb(t, [c, 0.35], 0) - eval_fpsb(t, [t, 0.35], 0)
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
    dev = np.mean([eval_fpsb(theta, [cand, ds.bids[j, 1, 0]], 0)
                   for j in range(len(ds))])
    cur = np.mean([eval_fpsb(theta, [cur_bid, ds.bids[j, 1, 0]], 0)
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


def test_thread_count_does_not_change_results():
    cases = [(uniform_dataset(800, seed=5), identity_profile(),
              make_grid(1, 0.05), fpsb_game()),
             # each worker splices candidates into its own copy of the records
             (lattice_comb_dataset(60, seed=22), identity_profile(3),
              make_grid(4, 1.0), comb_game())]
    for ds, profile, grid, game in cases:
        a = estimate_ex_interim(ds, profile, grid, game, 0, threads=1)
        b = estimate_ex_interim(ds, profile, grid, game, 0, threads=8)
        assert a.value == b.value
        assert a.argmax_pair == b.argmax_pair
        assert np.array_equal(a.per_point_gains, b.per_point_gains)


def test_bids_only_dataset_is_estimated_but_flagged():
    ds = uniform_dataset(200, seed=6,
                         profile=StrategyProfile((LinearShade(0.5),
                                                  LinearShade(0.5))))
    grid = make_grid(1, 0.1)
    est = estimate_ex_interim(ds, None, grid, fpsb_game(), 0)
    assert FLAG_DEGRADED in est.flags
    # the current term falls back to the mean utility of the stored pairs
    cur = float(np.mean([eval_fpsb(ds.vals[j, 0, 0], ds.bids[j, :, 0], 0)
                         for j in range(len(ds))]))
    dev = max(np.mean([eval_fpsb(t, [c, ds.bids[j, 1, 0]], 0)
                       for j in range(len(ds))])
              for t in grid.axis for c in grid.axis)
    assert est.value == pytest.approx(dev - cur, abs=1e-12)
    cur_kernel = float(np.mean(profile_point_utilities(fpsb_game(), ds, 0)))
    assert cur_kernel == pytest.approx(cur, abs=1e-12)


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
        cur = np.mean([eval_discriminatory(t, np.vstack([t[None, :],
                                                         ds.bids[j, 1:]]), 0)
                       for j in range(len(ds))])
        for c in actions:
            dev = np.mean([eval_discriminatory(t, np.vstack([c[None, :],
                                                             ds.bids[j, 1:]]), 0)
                           for j in range(len(ds))])
            best = max(best, dev - cur)
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


def test_fine_grid_gain_table_is_not_held_in_memory():
    ds = uniform_dataset(200, seed=26)
    grid = make_grid(1, 1.25e-4)
    assert grid.size == 4001   # a whole K x K table would take 128 MB
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
    cur = np.mean([eval_fpsb(ds.vals[j, 0, 0], ds.bids[j, :, 0], 0)
                   for j in range(len(ds))])
    dev_means = [np.mean([eval_fpsb(ds.vals[j, 0, 0], [c, ds.bids[j, 1, 0]], 0)
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


# ----------------------------------------------------------- brute force


def test_brute_force_best_response_known_instance():
    bid, gain = brute_force_best_response(fpsb_game(), 1.0, [[0.5]], 1.0 / 16)
    assert list(bid) == [0.5625]
    assert gain == 0.4375
    bid0, gain0 = brute_force_best_response(fpsb_game(), 0.0, [[0.5]], 1.0 / 16)
    assert list(bid0) == [0.0] and gain0 == 0.0


def test_brute_force_lattice_cap():
    with pytest.raises(ValueError, match="resolution lattice exceeds size cap"):
        brute_force_best_response(fpsb_game(), 1.0, [[0.5]], 1e-9)


def test_brute_force_agrees_with_the_grid_deviation_term():
    ds = uniform_dataset(300, seed=13)
    grid = make_grid(1, 0.1)
    est = estimate_ex_interim(ds, identity_profile(), grid, fpsb_game(), 0)
    # same lattice -> the estimator's top-valuation deviation sup equals the
    # brute-force sweep minus the current-strategy mean at that valuation
    bf_bid, bf_gain = brute_force_best_response(
        fpsb_game(), 1.0, ds.bids[:, 1:, 0], grid.step)
    cur = np.mean([eval_fpsb(1.0, [1.0, ds.bids[j, 1, 0]], 0)
                   for j in range(len(ds))])
    assert est.per_point_gains[-1] == pytest.approx(bf_gain - cur, abs=1e-12)
