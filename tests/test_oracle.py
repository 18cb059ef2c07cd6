"""Independent reference computations: closed-form loss, exhaustive winner
determination, and quadrature total-variation distance."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bneverify.mechanisms import assignment_value, winner_determination
from bneverify.oracle import (analytic_fpsb_ex_ante_loss, analytic_fpsb_loss,
                              exhaustive_wd, quadrature_tv)

# --------------------------------------------------------- closed-form loss


def test_equilibrium_shade_has_zero_loss():
    r = analytic_fpsb_loss(2, 0.5)
    assert r.value == 0.0
    assert r.method == "closed_form"
    assert r.resolution == {}


def test_three_agent_equilibrium_shade_has_zero_loss():
    assert analytic_fpsb_loss(3, 2.0 / 3.0).value == pytest.approx(
        0.0, abs=1e-12)


def test_mild_overbidding_losses_are_closed_form():
    # bidding c*theta with c > 1/2 against a uniform-on-[0,1/2] rival max bid
    # loses exactly c - 1/2, attained at the top valuation
    assert analytic_fpsb_loss(2, 0.9).value == pytest.approx(0.4, abs=1e-12)
    for c, want in ((0.6, 0.1), (0.7, 0.2), (0.8, 0.3)):
        assert analytic_fpsb_loss(2, c).value == pytest.approx(want, abs=1e-9)


def test_underbidding_losses_are_closed_form():
    # bidding c*theta with c < 1/2 loses 1/2 - 2c(1-c), attained at the top
    for c, want in ((0.4, 0.02), (0.3, 0.08), (0.2, 0.18)):
        assert analytic_fpsb_loss(2, c).value == pytest.approx(want, abs=1e-9)


def test_loss_grows_moving_away_from_the_equilibrium_shade():
    up = [analytic_fpsb_loss(2, c).value for c in (0.55, 0.65, 0.8, 0.95)]
    assert all(a < b for a, b in zip(up, up[1:]))
    down = [analytic_fpsb_loss(2, c).value for c in (0.45, 0.35, 0.2, 0.05)]
    assert all(a < b for a, b in zip(down, down[1:]))


def scanned_fpsb_loss(n, c, points=1001):
    """The sup over a theta grid of the best response over a bid grid minus
    the shade's utility, each from the exact win probability
    min(1, (b/c*)^(n-1)): a lower bound on the loss, short of it by at most
    (2n+3)/2 grid steps (the gain is (n+2)-Lipschitz in theta, and the
    utility (n+1)-Lipschitz in the bid)."""
    c_star = (n - 1) / n
    grid = np.linspace(0.0, 1.0, points)

    def win(b):
        return np.minimum(1.0, b / c_star) ** (n - 1)

    theta = grid[:, None]
    best = np.max((theta - grid[None, :]) * win(grid)[None, :], axis=1)
    gains = best - (1.0 - c) * grid * win(c * grid)
    return float(np.max(gains)), (2 * n + 3) / 2 / (points - 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6),
       c=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))
def test_closed_form_loss_matches_a_dense_scan(n, c):
    scanned, slack = scanned_fpsb_loss(n, c)
    value = analytic_fpsb_loss(n, c).value
    assert scanned - 1e-12 <= value <= scanned + slack


def test_analytic_loss_validation():
    with pytest.raises(ValueError, match="need at least two agents"):
        analytic_fpsb_loss(1, 0.5)
    with pytest.raises(ValueError, match=r"shade factor must lie in \(0, 1\]"):
        analytic_fpsb_loss(2, 0.0)
    with pytest.raises(ValueError, match=r"shade factor must lie in \(0, 1\]"):
        analytic_fpsb_loss(2, 1.5)


def scanned_fpsb_ex_ante_loss(n, c, points=200_000):
    """The per-type gain of analytic_fpsb_loss, theta^n/n minus the shade's
    utility (1-c) theta min(1, c theta/c*)^(n-1), integrated over [0, 1] by
    the midpoint rule."""
    c_star = (n - 1) / n
    theta = (np.arange(points) + 0.5) / points
    win = np.minimum(1.0, c * theta / c_star) ** (n - 1)
    return float(np.mean(theta ** n / n - (1.0 - c) * theta * win))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("c", [0.3, 0.5, 2.0 / 3.0, 0.8, 0.9])
def test_closed_form_ex_ante_loss_matches_a_dense_scan(n, c):
    value = analytic_fpsb_ex_ante_loss(n, c)
    assert value.method == "closed_form"
    assert value.value == pytest.approx(scanned_fpsb_ex_ante_loss(n, c),
                                        abs=1e-6)
    # the integral of a gain never exceeds its sup
    assert -1e-15 <= value.value <= analytic_fpsb_loss(n, c).value + 1e-15


def test_equilibrium_shade_has_zero_ex_ante_loss():
    for n in (2, 3, 5):
        assert analytic_fpsb_ex_ante_loss(n, (n - 1) / n).value == \
            pytest.approx(0.0, abs=1e-15)


def test_analytic_ex_ante_loss_validation():
    with pytest.raises(ValueError, match="need at least two agents"):
        analytic_fpsb_ex_ante_loss(1, 0.5)
    for c in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"shade factor must lie"):
            analytic_fpsb_ex_ante_loss(2, c)


# ------------------------------------------------ exhaustive assignments


def test_exhaustive_assignment_on_the_worked_instance():
    bids = np.array([[0.0, 0.0, 0.0, 0.9],
                     [0.0, 0.5, 0.5, 0.0]])
    choice = exhaustive_wd(bids, 2)
    assert choice.tolist() == [3, -1]
    assert assignment_value(bids, choice) == 0.9


def test_exhaustive_matches_the_production_solver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        items = int(rng.integers(1, 4))
        bids = rng.uniform(0.0, 1.0, size=(n, 2 ** items))
        bids[:, 0] = 0.0
        slow = exhaustive_wd(bids, items)
        fast = winner_determination(bids, items)
        assert np.array_equal(slow, fast)
        assert assignment_value(bids, slow) == assignment_value(bids, fast)


def test_exhaustive_declines_everything_on_zero_bids():
    choice = exhaustive_wd(np.zeros((3, 4)), 2)
    assert choice.tolist() == [-1, -1, -1]


def test_exhaustive_size_cap():
    with pytest.raises(ValueError, match="size cap exceeded"):
        exhaustive_wd(np.zeros((6, 2)), 1)
    with pytest.raises(ValueError, match="size cap exceeded"):
        exhaustive_wd(np.zeros((2, 16)), 4)


def test_exhaustive_bundle_count_check():
    with pytest.raises(ValueError, match=r"bid vectors must have length 2\^l"):
        exhaustive_wd(np.zeros((2, 3)), 2)


# --------------------------------------------------- quadrature TV distance


def test_tv_of_identical_densities_is_zero():
    r = quadrature_tv(lambda x: np.ones_like(x), lambda x: np.ones_like(x),
                      2000)
    assert r.value == 0.0
    assert r.method == "quadrature"
    assert r.resolution["refinement_delta"] == 0.0
    assert r.resolution["grid_points"] == 2000
    assert r.resolution["support"] == [0.0, 1.0]


def test_tv_of_disjoint_supports_is_one():
    lower = lambda x: np.where(x < 0.5, 2.0, 0.0)
    upper = lambda x: np.where(x >= 0.5, 2.0, 0.0)
    r = quadrature_tv(lower, upper, 4000)
    assert r.value == 1.0


def test_tv_of_half_shifted_uniforms_is_half():
    a = lambda x: np.where(x < 1.0, 1.0, 0.0)
    b = lambda x: np.where(x >= 0.5, 1.0, 0.0)
    r = quadrature_tv(a, b, 3000, support=(0.0, 1.5))
    assert r.value == 0.5


def test_tv_converges_on_a_smooth_pair():
    f = lambda x: 6.0 * x * (1.0 - x)
    g = lambda x: np.ones_like(x)
    exact = math.sqrt(3.0) / 9.0
    fine = quadrature_tv(f, g, 4000)
    coarse = quadrature_tv(f, g, 1000)
    assert fine.resolution["refinement_delta"] \
        < coarse.resolution["refinement_delta"]
    assert fine.value == pytest.approx(
        exact, abs=2 * fine.resolution["refinement_delta"] + 1e-12)


def test_tv_validation():
    one = lambda x: np.ones_like(x)
    with pytest.raises(ValueError, match="grid_points must be at least 2"):
        quadrature_tv(one, one, 1)
    with pytest.raises(ValueError, match="nondegenerate interval"):
        quadrature_tv(one, one, 100, support=(1.0, 1.0))
    with pytest.raises(ValueError, match="negative values"):
        quadrature_tv(lambda x: x - 0.5, one, 100)
    with pytest.raises(ValueError,
                       match="first density integrates to"):
        quadrature_tv(lambda x: 0.5 * np.ones_like(x), one, 100)
    with pytest.raises(ValueError,
                       match="second density integrates to"):
        quadrature_tv(one, lambda x: 2.0 * np.ones_like(x), 100)
