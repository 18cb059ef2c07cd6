"""Ex post allocation, payment and utility rules for the four auctions."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bneverify.mechanisms import (assignment_value, eval, eval_discriminatory,
                                  eval_fpsb, eval_uniform_price,
                                  multiunit_allocation, winner_determination)
from bneverify.model import GameConfig, MechanismSpec
from bneverify.oracle import exhaustive_wd


def game(kind, n=2, **kw):
    return GameConfig(n_agents=n, mechanism=MechanismSpec(kind=kind, **kw))


# ------------------------------------------------------- single-item rule


def test_fpsb_highest_bid_wins_and_pays_own_bid():
    assert eval_fpsb(0.8, [0.5, 0.4, 0.3], 0) == pytest.approx(0.3)


def test_fpsb_exact_tie_loses():
    assert eval_fpsb(0.8, [0.4, 0.4], 0) == 0.0
    assert eval_fpsb(0.8, [0.4, 0.4], 1) == 0.0


def test_fpsb_winning_above_value_is_a_loss():
    assert eval_fpsb(0.2, [0.5, 0.1], 0) == pytest.approx(-0.3)


def test_fpsb_loser_gets_zero():
    assert eval_fpsb(0.9, [0.3, 0.5], 0) == 0.0


def test_fpsb_discontinuity_is_a_step_at_the_opponent_max():
    theta, opp = 0.9, 0.4
    below = [eval_fpsb(theta, [b, opp], 0) for b in (0.1, 0.2, 0.39)]
    assert below == [0.0, 0.0, 0.0]
    above = np.array([eval_fpsb(theta, [b, opp], 0)
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


BID_LATTICE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def lattice_profiles(draw):
    """A batch of profiles with bids on a 5-point lattice, the empty bundle
    included, so equal bids and equal bundle sums are common."""
    n = draw(st.integers(min_value=2, max_value=4))
    items = draw(st.integers(min_value=1, max_value=2))
    batch = draw(st.integers(min_value=1, max_value=6))
    size = batch * n * (1 << items)
    flat = draw(st.lists(BID_LATTICE, min_size=size, max_size=size))
    return items, np.array(flat).reshape(batch, n, 1 << items)


@given(lattice_profiles())
@settings(max_examples=300, deadline=None)
def test_wd_batched_unbatched_and_exhaustive_agree_at_exact_ties(case):
    items, bids = case
    batched = winner_determination(bids, items)
    for profile, choice in zip(bids, batched):
        single = winner_determination(profile, items)
        exhaustive = exhaustive_wd(profile, items)
        assert np.array_equal(choice, single)
        assert np.array_equal(choice, exhaustive)
        assert assignment_value(profile, choice) \
            == assignment_value(profile, single) \
            == assignment_value(profile, exhaustive)


# ------------------------------------------------------- multi-unit rules


def test_discriminatory_worked_example():
    bids = np.array([[0.8, 0.3], [0.6, 0.5]])
    # top-2 of all bids are 0.8 and 0.6: one unit each, paid at own bid
    assert eval_discriminatory([1.0, 1.0], bids, 0, scale=1.0) == pytest.approx(1.0 - 0.8)
    assert eval_discriminatory([1.0, 1.0], bids, 1, scale=1.0) == pytest.approx(1.0 - 0.6)
    assert list(multiunit_allocation(bids)) == [1, 1]


def test_discriminatory_zero_bidder_wins_nothing():
    bids = np.array([[0.0, 0.0], [0.6, 0.5]])
    assert eval_discriminatory([0.9, 0.8], bids, 0) == 0.0
    assert list(multiunit_allocation(bids)) == [0, 2]


def test_uniform_price_worked_example():
    bids = np.array([[0.8, 0.3], [0.6, 0.5]])
    # agent 0 wins one unit; price = max(own next bid 0.3, opponents' 0.5)
    assert eval_uniform_price([1.0, 1.0], bids, 0, scale=1.0) == pytest.approx(1.0 - 0.5)
    assert eval_uniform_price([1.0, 1.0], bids, 1, scale=1.0) == pytest.approx(1.0 - 0.5)


def test_uniform_price_sweep_against_zero_opponents_is_free():
    bids = np.array([[0.7, 0.6], [0.0, 0.0]])
    # winner of all units: both clearing-price candidates are out of range
    assert eval_uniform_price([0.9, 0.8], bids, 0, scale=1.0) == pytest.approx(1.7)


def test_multiunit_identical_bids_break_ties_toward_lower_agent_index():
    bids = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert list(multiunit_allocation(bids)) == [2, 0]
    # loser pays nothing; winner's clearing price is the highest losing bid
    assert eval_uniform_price([1.0, 1.0], bids, 1, scale=1.0) == 0.0
    assert eval_uniform_price([1.0, 1.0], bids, 0, scale=1.0) == pytest.approx(2.0 - 2 * 0.5)


def test_multiunit_rejects_increasing_bid_vectors():
    bids = np.array([[0.3, 0.5], [0.2, 0.1]])
    with pytest.raises(ValueError, match="non-monotone bid vector"):
        multiunit_allocation(bids)
    with pytest.raises(ValueError, match="non-monotone bid vector"):
        eval_discriminatory([0.9, 0.8], bids, 0)
    with pytest.raises(ValueError, match="non-monotone bid vector"):
        eval_uniform_price([0.9, 0.8], bids, 0)


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


# ----------------------------------------------------------- eval dispatch


def test_eval_dispatch_fpsb_matches_scalar_rule():
    g = game("first_price_single_item", n=3)
    theta = np.array([[0.9], [0.5], [0.2]])
    bids = np.array([[0.4], [0.35], [0.1]])
    out = eval(g, theta, bids)
    want = [eval_fpsb(theta[i, 0], bids[:, 0], i) for i in range(3)]
    assert np.allclose(out.utilities, want)
    assert out.allocation.sum() == 1
    assert out.payments[0] == pytest.approx(0.4)


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
