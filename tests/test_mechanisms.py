"""Ex post allocation, payment and utility rules for the four auctions."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bneverify import _kernels_py as kernels
from bneverify import estimator
from bneverify.mechanisms import (assignment_value, eval, multiunit_allocation,
                                  winner_determination)
from bneverify.model import GameConfig, MechanismSpec
from bneverify.oracle import exhaustive_wd


def game(kind, n=2, **kw):
    return GameConfig(n_agents=n, mechanism=MechanismSpec(kind=kind, **kw))


def ex_post(config, theta_i, bids, i):
    """eval's outcome of the bid profile when agent i values the units at
    theta_i and every other agent values them at 0."""
    bids = np.asarray(bids, dtype=np.float64).reshape(config.n_agents, -1)
    theta = np.zeros_like(bids)
    theta[i] = theta_i
    return eval(config, theta, bids)


# ------------------------------------------------------- single-item rule


FPSB = game("first_price_single_item")


def test_fpsb_highest_bid_wins_and_pays_own_bid():
    out = ex_post(game("first_price_single_item", n=3), 0.8, [0.5, 0.4, 0.3],
                  0)
    assert out.utilities[0] == pytest.approx(0.3)
    assert out.allocation.tolist() == [[1.0], [0.0], [0.0]]
    assert out.payments.tolist() == [0.5, 0.0, 0.0]


def test_fpsb_exact_tie_loses():
    for i in (0, 1):
        out = ex_post(FPSB, 0.8, [0.4, 0.4], i)
        assert out.utilities.tolist() == [0.0, 0.0]
        assert out.allocation.tolist() == [[0.0], [0.0]]
        assert out.payments.tolist() == [0.0, 0.0]


def test_fpsb_winning_above_value_is_a_loss():
    out = ex_post(FPSB, 0.2, [0.5, 0.1], 0)
    assert out.utilities[0] == pytest.approx(-0.3)
    assert out.payments.tolist() == [0.5, 0.0]


def test_fpsb_loser_gets_zero():
    out = ex_post(FPSB, 0.9, [0.3, 0.5], 0)
    assert out.utilities[0] == 0.0
    assert out.allocation.tolist() == [[0.0], [1.0]]
    assert out.payments.tolist() == [0.0, 0.5]


def test_fpsb_discontinuity_is_a_step_at_the_opponent_max():
    theta, opp = 0.9, 0.4
    below = [ex_post(FPSB, theta, [b, opp], 0).utilities[0]
             for b in (0.1, 0.2, 0.39)]
    assert below == [0.0, 0.0, 0.0]
    above = np.array([ex_post(FPSB, theta, [b, opp], 0).utilities[0]
                      for b in (0.41, 0.5, 0.6)])
    # linear with slope -1 above the jump
    assert np.allclose(np.diff(above), np.diff([-0.41, -0.5, -0.6]))


# --------------------------------------------------- combinatorial auction


def test_wd_single_item_goes_to_higher_bundle_bid():
    bids = np.array([[0.0, 0.6], [0.0, 0.4]])
    choice = winner_determination(bids, items=1)
    assert list(choice) == [1, -1]
    assert assignment_value(bids, choice) == 0.6


def test_wd_one_bundle_per_agent_limits_singleton_double_wins():
    # agent 0 bids only on the full bundle; agent 1 bids on both singletons.
    # Each agent may win at most one bundle, so the optimum takes the full
    # bundle at 0.9 rather than handing agent 1 both singletons.
    bids = np.array([[0.0, 0.0, 0.0, 0.9],
                     [0.0, 0.5, 0.5, 0.0]])
    choice = winner_determination(bids, items=2)
    assert list(choice) == [3, -1]
    assert assignment_value(bids, choice) == 0.9


def test_wd_splits_items_when_that_raises_total_value():
    bids = np.array([[0.0, 0.6, 0.1, 0.65],
                     [0.0, 0.1, 0.5, 0.55]])
    choice = winner_determination(bids, items=2)
    assert list(choice) == [1, 2]
    assert assignment_value(bids, choice) == pytest.approx(1.1)


def test_wd_all_zero_bids_allocates_nothing():
    bids = np.zeros((3, 4))
    assert list(winner_determination(bids, items=2)) == [-1, -1, -1]


def test_wd_dimension_mismatch():
    with pytest.raises(ValueError, match="bid vectors must have length"):
        winner_determination(np.zeros((2, 3)), items=2)


def test_wd_winners_hold_disjoint_items():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(50):
        n, items = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        bids = rng.random((n, 2 ** items))
        bids[:, 0] = 0.0
        choice = winner_determination(bids, items)
        used = 0
        for ch in choice:
            if ch < 0:
                continue
            assert used & int(ch) == 0
            used |= int(ch)


def test_wd_solves_every_profile_of_a_batch():
    rng = np.random.Generator(np.random.Philox(6))
    bids = rng.random((2, 3, 4, 8))
    choice = winner_determination(bids, items=3)
    assert choice.shape == (2, 3, 4)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(choice[idx], winner_determination(bids[idx], 3))
    assert winner_determination(np.zeros((0, 4, 8)), items=3).shape == (0, 4)
    with pytest.raises(ValueError, match="bid vectors must have length"):
        winner_determination(np.zeros(2), items=1)


# a dyadic lattice, on which every bundle sum is exact, and one whose sums
# collide or miss each other by an ulp (0.1 + 0.2 != 0.3)
BID_LATTICES = [(0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.1, 0.2, 0.3, 0.6)]
BID_LATTICE = st.sampled_from(BID_LATTICES[0])
BATCH_SHAPES = st.one_of(
    st.just(()), st.just((0,)), st.tuples(st.integers(1, 5)),
    st.tuples(st.integers(1, 3), st.integers(1, 2)))


@st.composite
def lattice_profiles(draw):
    """A batch of profiles with bids on a 5-point lattice, the empty bundle
    included, so equal bids and equal bundle sums are common."""
    lattice = draw(st.sampled_from(BID_LATTICES))
    items = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=4 if items < 3 else 3))
    batch = draw(BATCH_SHAPES)
    size = math.prod(batch) * n * (1 << items)
    flat = draw(st.lists(st.sampled_from(lattice), min_size=size,
                         max_size=size))
    return lattice, items, np.array(flat, dtype=np.float64).reshape(
        batch + (n, 1 << items))


@given(lattice_profiles())
@settings(max_examples=300, deadline=None)
def test_wd_batched_unbatched_and_exhaustive_agree_at_exact_ties(case):
    lattice, items, bids = case
    batched = winner_determination(bids, items)
    assert batched.shape == bids.shape[:-1]
    for idx in np.ndindex(bids.shape[:-2]):
        profile, choice = bids[idx], batched[idx]
        single = winner_determination(profile, items)
        exhaustive = exhaustive_wd(profile, items)
        assert np.array_equal(choice, single)
        assert assignment_value(profile, choice) \
            == assignment_value(profile, exhaustive)
        if lattice == BID_LATTICES[0]:   # exact sums: the same assignment
            assert np.array_equal(choice, exhaustive)


def test_wd_keeps_the_best_suffix_when_rounding_ties_the_totals():
    # agents 1 and 2 reach 0.1 + 0.2 = 0.30000000000000004 together, just
    # above agent 2's 0.3 alone, and 0.1 plus either rounds to 0.4. The
    # table keeps the larger suffix; enumeration order would take the first
    # assignment reaching 0.4, declining agent 1. Both totals are optimal.
    bids = np.array([[0.1, 0.0], [0.0, 0.1], [0.2, 0.3]])
    choice = winner_determination(bids, 1)
    assert list(choice) == [0, 1, 0]
    assert list(exhaustive_wd(bids, 1)) == [0, -1, 1]
    assert assignment_value(bids, choice) == 0.4 \
        == assignment_value(bids, [0, -1, 1])
    assert np.array_equal(winner_determination(np.stack([bids] * 3), 1),
                          np.stack([choice] * 3))


# ------------------------------------------------------- multi-unit rules


def test_discriminatory_worked_example():
    bids = np.array([[0.8, 0.3], [0.6, 0.5]])
    # top-2 of all bids are 0.8 and 0.6: one unit each, paid at own bid;
    # utilities are normalized by the payoff range, 2 units
    out = eval(game("discriminatory", units=2), np.ones((2, 2)), bids)
    assert out.utilities.tolist() == pytest.approx([(1.0 - 0.8) / 2,
                                                    (1.0 - 0.6) / 2])
    assert out.allocation.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert out.payments.tolist() == [0.8, 0.6]
    assert list(multiunit_allocation(bids)) == [1, 1]


def test_discriminatory_zero_bidder_wins_nothing():
    bids = np.array([[0.0, 0.0], [0.6, 0.5]])
    out = ex_post(game("discriminatory", units=2), [0.9, 0.8], bids, 0)
    assert out.utilities[0] == 0.0
    assert out.allocation.tolist() == [[0.0, 0.0], [1.0, 1.0]]
    assert out.payments.tolist() == [0.0, 0.6 + 0.5]
    assert list(multiunit_allocation(bids)) == [0, 2]


def test_uniform_price_worked_example():
    bids = np.array([[0.8, 0.3], [0.6, 0.5]])
    # agent 0 wins one unit; price = max(own next bid 0.3, opponents' 0.5);
    # agent 1 wins one unit; price = max(own next bid 0.5, opponents' 0.3)
    out = eval(game("uniform_price", units=2), np.ones((2, 2)), bids)
    assert out.utilities.tolist() == [(1.0 - 0.5) / 2, (1.0 - 0.5) / 2]
    assert out.allocation.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert out.payments.tolist() == [0.5, 0.5]


def test_uniform_price_sweep_against_zero_opponents_is_free():
    bids = np.array([[0.7, 0.6], [0.0, 0.0]])
    # winner of all units: both clearing-price candidates are out of range
    out = ex_post(game("uniform_price", units=2), [0.9, 0.8], bids, 0)
    assert out.utilities[0] == pytest.approx(1.7 / 2)
    assert out.allocation.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    assert out.payments.tolist() == [0.0, 0.0]


def test_multiunit_identical_bids_break_ties_toward_lower_agent_index():
    bids = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert list(multiunit_allocation(bids)) == [2, 0]
    # loser pays nothing; winner's clearing price is the highest losing bid
    out = eval(game("uniform_price", units=2), np.ones((2, 2)), bids)
    assert out.utilities.tolist() == [(2.0 - 2 * 0.5) / 2, 0.0]
    assert out.allocation.tolist() == [[1.0, 1.0], [0.0, 0.0]]
    assert out.payments.tolist() == [2 * 0.5, 0.0]


def test_multiunit_rejects_increasing_bid_vectors():
    bids = np.array([[0.3, 0.5], [0.2, 0.1]])
    with pytest.raises(ValueError, match="non-monotone bid vector"):
        multiunit_allocation(bids)
    for rule in ("discriminatory", "uniform_price"):
        with pytest.raises(ValueError, match="non-monotone bid vector"):
            ex_post(game(rule, units=2), [0.9, 0.8], bids, 0)


def test_discriminatory_and_uniform_share_allocations():
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(100):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        bids = np.ascontiguousarray(np.sort(rng.random((n, m)), axis=1)[:, ::-1])
        theta = np.ascontiguousarray(np.sort(rng.random((n, m)), axis=1)[:, ::-1])
        disc = eval(game("discriminatory", n=n, units=m), theta, bids)
        unif = eval(game("uniform_price", n=n, units=m), theta, bids)
        assert np.array_equal(disc.allocation, unif.allocation)
        assert disc.allocation.sum() == m
        assert np.all(unif.payments >= 0) and np.all(disc.payments >= 0)


@st.composite
def multiunit_batches(draw):
    """A rule and a batch of its profiles with non-increasing rows on the
    5-point lattice, so equal bids of senior and junior agents are common.
    The single-item rule is the one-unit case."""
    single = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=4))
    m = 1 if single else draw(st.integers(min_value=1, max_value=3))
    batch = draw(st.integers(min_value=1, max_value=5))
    flat = draw(st.lists(BID_LATTICE, min_size=batch * n * m,
                         max_size=batch * n * m))
    return single, np.ascontiguousarray(
        np.sort(np.array(flat).reshape(batch, n, m), axis=2)[:, :, ::-1])


@given(multiunit_batches())
# agent 1 wins nothing against its one opponent's two higher bids, so the
# competitors' next-bid position falls past the book: it must pay 0
@example((False, np.array([[[0.9, 0.8], [0.1, 0.05]]])))
# single item: a tie for the top bid loses for both
@example((True, np.array([[[0.5], [0.5], [0.25]]])))
@settings(max_examples=300, deadline=None)
def test_multiunit_kernels_match_the_ex_post_rules_at_exact_ties(case):
    single, profiles = case
    batch, n, m = profiles.shape
    theta = np.zeros((n, m))
    # single item: one pay-as-bid slot, and every opponent counts as senior,
    # so exact ties lose
    rules = (("first_price_single_item",) if single
             else ("discriminatory", "uniform_price"))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        opp = profiles[:, others]
        senior = np.array([single or j < i for j in others])
        crit = kernels.multiunit_critical_bids(opp, senior, m)
        comp = kernels.multiunit_competing_desc(opp)
        own = profiles[:, i]
        fixed = profiles.copy()
        fixed[:, i] = own[0]   # the first record's bids against every record
        for bids_i, spliced, wins_fn in ((own, profiles, "rows"),
                                         (own[0], fixed, "fixed")):
            wins = getattr(kernels, f"multiunit_wins_{wins_fn}")(bids_i, crit)
            disc = getattr(kernels, f"multiunit_pay_disc_{wins_fn}")(
                bids_i, wins)
            unif = getattr(kernels, f"multiunit_pay_unif_{wins_fn}")(
                bids_i, comp, wins, m)
            for r, profile in enumerate(spliced):
                for rule in rules:
                    out = eval(game(rule, n=n, units=m), theta, profile)
                    assert wins[r] == out.allocation[i].sum()
                    pay = unif if rule == "uniform_price" else disc
                    assert pay[r] == out.payments[i]


# a lattice point, or the next float above one (below 1), so that exact ties
# are common, and so are a senior bid y and a junior bid nextafter(y), which
# give the same critical bid
NEAR_LATTICE = st.one_of(
    BID_LATTICE,
    st.sampled_from([float(np.nextafter(x, 1.0))
                     for x in (0.0, 0.25, 0.5, 0.75)]))


@st.composite
def slot_markets(draw):
    """A slot rule, records of non-increasing bid rows, values and candidate
    bids near the lattice, and the agent: its index sets which opponents are
    senior (lower index) and which junior."""
    rule = draw(st.sampled_from(
        ["first_price_single_item", "discriminatory", "uniform_price"]))
    n = draw(st.integers(min_value=2, max_value=4))
    m = 1 if rule == "first_price_single_item" else draw(
        st.integers(min_value=1, max_value=3))

    def rows(count):
        flat = draw(st.lists(NEAR_LATTICE, min_size=count * m,
                             max_size=count * m))
        return np.sort(np.array(flat).reshape(count, m), axis=1)[:, ::-1]

    n_rec = draw(st.integers(min_value=1, max_value=6))
    bids = rows(n_rec * n).reshape(n_rec, n, m)
    return (rule, bids, rows(n_rec), rows(draw(st.integers(1, 4))),
            draw(st.integers(min_value=0, max_value=n - 1)))


Y = 0.5
Y_UP = float(np.nextafter(Y, 1.0))


@given(slot_markets())
# uniform price, agent 1 between a senior and a junior opponent: a senior
# bid Y and a junior bid nextafter(Y) give the same critical bid for slot 0
# but different competing bids x, so the records paying x > b[1] are a
# contiguous range only once tied critical bids are ordered by x
@example(("uniform_price",
          np.array([[[0.0, 0.0], [0.0, 0.0], [Y_UP, Y_UP]],
                    [[Y, Y], [0.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 0.0], [Y_UP, Y_UP]]]),
          np.ones((3, 2)), np.array([[0.75, Y]]), 1))
@settings(max_examples=300, deadline=None)
def test_slot_sums_match_the_ex_post_rules_at_ulp_ties(case):
    rule, bids, vals, cands, agent = case
    n, m = bids.shape[1:]
    config = game(rule, n=n, **({} if rule == "first_price_single_item"
                                else {"units": m}))
    market = estimator._market(config, bids, agent)
    counts, pays, utils = market.outcomes(cands, vals)
    assert np.array_equal(market.outcomes(cands)[1], pays)
    theta = np.zeros((n, m))
    for k, cand in enumerate(cands):
        outs = []
        for r, profile in enumerate(bids):
            profile = profile.copy()
            profile[agent] = cand
            theta[agent] = vals[r]
            outs.append(eval(config, theta, profile))
        assert counts[k].sum() == sum(o.allocation[agent].sum() for o in outs)
        assert pays[k] == math.fsum(o.payments[agent] for o in outs)
        # the market rounds the won values' sum, the payment sum and their
        # difference, each record's utility rounds its own difference
        assert utils[k] == pytest.approx(
            math.fsum(o.utilities[agent] for o in outs), rel=1e-13, abs=1e-15)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=12), st.integers(min_value=1, max_value=4))
@example([-0.0, 0.0, 5e-324, 1.0], 2)
@settings(max_examples=200, deadline=None)
def test_critical_bids_raise_senior_bids_to_the_next_float(bids, m):
    """Against one record of non-negative bids, each all-senior critical bid
    is the next float above an order statistic, as np.nextafter gives."""
    opp = np.array(bids).reshape(1, -1, 1)
    crit = kernels.multiunit_critical_bids(opp, [True] * len(bids), m)
    top = sorted(np.nextafter(np.array(bids), np.inf).tolist(), reverse=True)
    want = [top[m - 1 - mu] if m - 1 - mu < len(top) else -np.inf
            for mu in range(m)]
    assert crit[0].tolist() == want


# ----------------------------------------------------------- eval dispatch


def test_eval_dispatch_combinatorial_quasilinear_identity():
    g = game("first_price_combinatorial", items=1)
    theta = np.array([[0.0, 0.9], [0.0, 0.7]])
    bids = np.array([[0.0, 0.6], [0.0, 0.4]])
    out = eval(g, theta, bids)
    assert out.utilities[0] == pytest.approx(0.9 - 0.6)
    assert out.utilities[1] == 0.0
    assert out.payments[0] == pytest.approx(0.6)


def test_eval_dispatch_multiunit_normalizes_by_unit_count():
    g = game("uniform_price", units=2)
    theta = np.array([[1.0, 1.0], [0.2, 0.1]])
    bids = np.array([[0.7, 0.6], [0.0, 0.0]])
    out = eval(g, theta, bids)
    assert out.utilities[0] == pytest.approx((2.0 - 0.0) / 2.0)
    assert abs(out.utilities).max() <= 1.0


def test_eval_rejects_mismatched_profiles():
    g = game("first_price_single_item")
    with pytest.raises(ValueError):
        eval(g, np.zeros((2, 1)), np.zeros((2, 3)))


def test_eval_rejects_a_valuation_profile_of_the_wrong_shape():
    g = game("uniform_price", units=2)
    bids = np.array([[0.6, 0.3], [0.5, 0.2]])
    with pytest.raises(ValueError, match=r"^valuation profile shaped \(2, 1\), "
                                         r"expected \(2, 2\)$"):
        eval(g, np.ones((2, 1)), bids)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_utilities_stay_normalized_across_mechanisms(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    games = [game("first_price_single_item", n=3),
             game("first_price_combinatorial", items=2, n=2),
             game("discriminatory", units=3, n=2),
             game("uniform_price", units=3, n=2)]
    for g in games:
        dim = g.mechanism.bid_dim
        theta = rng.random((g.n_agents, dim))
        bids = rng.random((g.n_agents, dim))
        if g.mechanism.kind in ("discriminatory", "uniform_price"):
            theta = np.sort(theta, axis=1)[:, ::-1]
            bids = np.sort(bids, axis=1)[:, ::-1]
        out = eval(g, theta, bids)
        assert np.all(np.abs(out.utilities) <= 1.0 + 1e-12)
        assert np.all(out.payments >= -1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_single_item_allocation_never_splits(seed):
    rng = np.random.Generator(np.random.Philox(seed))
    g = game("first_price_single_item", n=4)
    bids = rng.random((4, 1))
    out = eval(g, rng.random((4, 1)), bids)
    assert out.allocation.sum() in (0, 1)
