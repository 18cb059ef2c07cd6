"""Value priors: sampling, density bounds, and conditional TV radii."""
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from bneverify.model import Cell, Partition
from bneverify.oracle import quadrature_tv
from bneverify.priors import (_DRAW_BLOCK, Beta, CorrelatedCommonValue,
                              IndependentProduct, Uniform, _agent_streams,
                              _order_statistic_factor,
                              prior_from_dict, sample_dataset,
                              tv_integral_bound, tv_profile)
from bneverify.strategies import Identity, LinearShade, StrategyProfile

REPO = Path(__file__).resolve().parent.parent


def uniform_pair(**kw):
    return IndependentProduct([[Uniform()], [Uniform()]], **kw)


# ---------------------------------------------------------------- marginals


def test_uniform_density_and_bounds():
    u = Uniform(0.25, 0.75)
    assert u.density_max == 2.0
    assert u.density(0.5) == 2.0
    assert u.density(0.1) == 0.0
    assert Uniform().density_max == 1.0
    with pytest.raises(ValueError, match="uniform support"):
        Uniform(0.5, 0.5)
    with pytest.raises(ValueError, match="uniform support"):
        Uniform(-0.1, 1.0)


def test_beta_density_max_is_the_mode_value():
    b = Beta(2.0, 5.0)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    assert b.density_max == pytest.approx(float(b.density(grid).max()), abs=1e-6)
    assert Beta(1.0, 1.0).density_max == 1.0
    with pytest.raises(ValueError, match="alpha, beta >= 1"):
        Beta(0.5, 2.0)


def test_marginal_samples_respect_support():
    rng = np.random.Generator(np.random.Philox(0))
    xs = Uniform(0.25, 0.75).sample(rng, 1000)
    assert xs.min() >= 0.25 and xs.max() <= 0.75
    ys = Beta(2.0, 5.0).sample(rng, 1000)
    assert ys.min() >= 0.0 and ys.max() <= 1.0


# ------------------------------------------------------ independent product


def test_independent_product_sampling_is_seed_deterministic():
    prior = uniform_pair()
    obs_a, vals_a = prior.sample(100, seed=7)
    obs_b, vals_b = prior.sample(100, seed=7)
    assert np.array_equal(obs_a, obs_b)
    assert np.array_equal(obs_a, vals_a) and np.array_equal(obs_b, vals_b)
    obs_c, _ = prior.sample(100, seed=8)
    assert not np.array_equal(obs_a, obs_c)


def test_independent_product_kappas():
    prior = IndependentProduct([[Uniform()], [Uniform(0.0, 0.5)]])
    assert prior.kappa(0) == 2.0
    assert prior.kappa(1) == 1.0


def test_sorted_coordinates_carry_an_order_statistic_factor():
    assert _order_statistic_factor(1) == 1
    assert _order_statistic_factor(2) == 2
    assert _order_statistic_factor(3) == 6
    prior = IndependentProduct([[Uniform(), Uniform()]] * 2, sort_desc=True)
    assert prior.kappa(0) == 2.0
    obs, _ = prior.sample(50, seed=1)
    assert np.all(np.diff(obs, axis=2) <= 0.0)


def test_independent_product_validation():
    with pytest.raises(ValueError, match="at least two agents"):
        IndependentProduct([[Uniform()]])
    with pytest.raises(ValueError, match="share the observation dimension"):
        IndependentProduct([[Uniform()], [Uniform(), Uniform()]])


def test_independent_product_cells_have_zero_tv_radius():
    prior = uniform_pair()
    cell = Cell(lo=(0.2,), hi=(0.7,))
    assert prior.tv_radius(cell) == 0.0


# ------------------------------------------------------- correlated model


def test_correlated_sampling_shape_and_support():
    prior = CorrelatedCommonValue(2)
    obs, vals = prior.sample(2000, seed=3)
    assert obs.shape == (2000, 2, 1) and vals.shape == (2000, 2, 1)
    # every agent values the good at the common draw
    assert np.array_equal(vals[:, 0, 0], vals[:, 1, 0])
    # stored observations never exceed the common value
    assert np.all(obs[:, 0, 0] <= vals[:, 0, 0])
    assert obs.min() >= 0.0 and vals.max() <= 1.0


@pytest.mark.parametrize("n_agents, n_records, seed", [
    (2, 1, 0), (2, 1000, 4), (3, 1, 7), (3, 257, 7), (5, 4096, 2 ** 32 - 1),
    (2, 2 * _DRAW_BLOCK + 5, 9)])   # the last one is drawn in three blocks
def test_correlated_sampling_is_bit_equal_to_the_plain_expressions(
        n_agents, n_records, seed):
    streams = _agent_streams(seed, n_agents + 1)
    theta = streams[n_agents].random(n_records)
    want = np.empty((n_records, n_agents, 1))
    for i in range(n_agents):
        want[:, i, 0] = theta * streams[i].random(n_records)
    obs, vals = CorrelatedCommonValue(n_agents).sample(n_records, seed)
    assert obs.shape == vals.shape == want.shape
    assert obs.dtype == vals.dtype == np.float64
    assert obs.tobytes() == want.tobytes()
    assert vals.tobytes() == np.repeat(theta[:, None, None], n_agents,
                                       axis=1).tobytes()
    # one theta column, broadcast to every agent, read-only
    assert vals.strides[1] == 0 and not vals.flags.writeable


def test_correlated_observations_are_positively_correlated():
    prior = CorrelatedCommonValue(2)
    obs, _ = prior.sample(20_000, seed=5)
    corr = np.corrcoef(obs[:, 0, 0], obs[:, 1, 0])[0, 1]
    assert corr > 0.2


def test_correlated_posterior_normalizes():
    prior = CorrelatedCommonValue(2)
    for s in (0.1, 0.5, 0.9):
        pdf = prior.posterior_density(s)
        total, _ = quad(pdf, s, 1.0)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert pdf(s / 2.0) == 0.0
    with pytest.raises(ValueError, match="observations in"):
        prior.posterior_density(0.0)


def test_correlated_opponent_density_bound():
    prior = CorrelatedCommonValue(2)
    assert prior.opponent_density_bound(0.0) == math.inf
    assert prior.opponent_density_bound(1.0) == 0.0
    s = 0.2
    want = (1.0 / s - 1.0) / (-math.log(s))
    assert prior.opponent_density_bound(s) == pytest.approx(want, abs=1e-15)
    assert prior.kappa(0, Cell(lo=(0.2,), hi=(0.4,))) == pytest.approx(want)
    assert prior.kappa(0, Cell(lo=(0.0,), hi=(0.1,))) == math.inf
    assert prior.kappa(0) is None   # no cell, no conditional bound


def test_correlated_tv_pair_matches_quadrature_reference():
    prior = CorrelatedCommonValue(2)
    s_lo, s_hi = 0.25, 0.5
    got = prior.tv_pair(s_lo, s_hi)
    ref = quadrature_tv(prior.posterior_density(s_lo),
                        prior.posterior_density(s_hi),
                        grid_points=1600, support=(0.0, 1.0))
    assert abs(got - ref.value) <= ref.resolution["refinement_delta"]


def test_correlated_tv_pair_sums_without_numpy_reductions(monkeypatch):
    # each quadrature piece is added in a fixed tree of pairs, so derived
    # tau never depends on the order in which numpy reduces an array
    prior = CorrelatedCommonValue(2)
    with open(REPO / "configs" / "correlated_partition.json",
              encoding="utf-8") as fh:
        cells = Partition.from_dict(json.load(fh)).cells
    pairs = [(c.lo[0], c.hi[0]) for c in cells
             if 0.0 < c.lo[0] < c.hi[0] < 1.0]
    assert len(pairs) == 6
    want = [prior.tv_pair(lo, hi) for lo, hi in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("np.sum called")

    monkeypatch.setattr(np, "sum", refuse)
    assert [prior.tv_pair(lo, hi) for lo, hi in pairs] == want


def test_correlated_tv_radius_edge_conventions():
    prior = CorrelatedCommonValue(2)
    assert prior.tv_radius(Cell(lo=(0.0,), hi=(0.1,))) == 1.0
    assert prior.tv_radius(Cell(lo=(0.9,), hi=(1.0,))) == 1.0
    assert prior.tv_radius(Cell(lo=(0.3,), hi=(0.3,))) == 0.0
    inner = prior.tv_radius(Cell(lo=(0.3,), hi=(0.4,)))
    assert 0.0 < inner < 1.0


def test_correlated_tv_radius_peaks_at_the_corner_pair_and_grows():
    prior = CorrelatedCommonValue(2)
    small = prior.tv_radius(Cell(lo=(0.3,), hi=(0.4,)))
    assert small == prior.tv_pair(0.3, 0.4)
    large = prior.tv_radius(Cell(lo=(0.25,), hi=(0.45,)))
    assert large > small


def _tv_pair_sweep(prior, lo, hi, sweep=16):
    """Reference radius: the largest tv_pair over every pair of sweep
    evenly spaced observations in [lo, hi]."""
    points = np.linspace(lo, hi, sweep)
    return max(prior.tv_pair(points[a], points[b])
               for a in range(sweep) for b in range(a + 1, sweep))


def test_correlated_tv_radius_equals_the_full_pair_sweep():
    # the corner pair is the largest pair to the last bit, so taking it
    # alone changes no derived tau
    prior = CorrelatedCommonValue(2)
    with open(REPO / "configs" / "correlated_partition.json",
              encoding="utf-8") as fh:
        shipped = Partition.from_dict(json.load(fh)).cells
    rng = np.random.Generator(np.random.Philox(31))
    wide = np.sort(rng.uniform(1e-3, 1.0 - 1e-3, (12, 2)), axis=1)
    narrow = rng.uniform(1e-3, 0.99, 6)
    bounds = ([(c.lo[0], c.hi[0]) for c in shipped]
              + [tuple(pair) for pair in wide.tolist()]
              + [(a, a + rng.uniform(1e-6, 1e-3)) for a in narrow.tolist()])
    interior = [(lo, hi) for lo, hi in bounds if 0.0 < lo < hi < 1.0]
    assert len(interior) == 6 + 12 + 6
    for lo, hi in interior:
        got = prior.tv_radius(Cell(lo=(lo,), hi=(hi,)))
        assert got == _tv_pair_sweep(prior, lo, hi), (lo, hi)


# ------------------------------------------------------- datasets and taus


def test_sample_dataset_applies_the_profile():
    prior = uniform_pair()
    profile = StrategyProfile((LinearShade(0.5), Identity()))
    ds = sample_dataset(prior, profile, 64, seed=13)
    assert len(ds) == 64 and ds.seed == 13
    assert np.array_equal(ds.bids[:, 0, 0], ds.obs[:, 0, 0] * 0.5)
    assert np.array_equal(ds.bids[:, 1, 0], ds.obs[:, 1, 0])
    assert not np.shares_memory(ds.bids, ds.obs)
    assert ds.vals is ds.obs   # private values are the observations
    identity = StrategyProfile((Identity(), Identity()))
    same = sample_dataset(prior, identity, 64, seed=13)
    assert np.shares_memory(same.bids, same.obs)
    with pytest.raises(ValueError, match="at least one record"):
        sample_dataset(prior, profile, 0, seed=13)


def test_correlated_sampling_holds_no_copy_of_a_field():
    n_records = 100_000
    identity = StrategyProfile((Identity(), Identity()))
    sample_dataset(CorrelatedCommonValue(2), identity, 10, seed=1)   # warm
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample_dataset(CorrelatedCommonValue(2), identity, n_records, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # obs (2 floats a record), theta (1) and one block of draws, with 64 KB
    # of slack; one more per-agent column would add 800 KB
    assert peak < 8 * (3 * n_records + _DRAW_BLOCK) + (1 << 16), peak


def test_tv_profile_prefers_declared_values():
    prior = CorrelatedCommonValue(2)
    part = Partition(0, [Cell(lo=(0.0,), hi=(0.5,), tau=0.33),
                         Cell(lo=(0.5,), hi=(1.0,))])
    assert tv_profile(prior, part) == ((0.33, 1.0), ("declared", "derived"))


def test_tv_integral_bound_values():
    assert tv_integral_bound(1.0, 0.1) == 0.2
    assert tv_integral_bound(5.0, 0.0) == 0.0
    with pytest.raises(ValueError, match="g_sup"):
        tv_integral_bound(-1.0, 0.1)
    with pytest.raises(ValueError, match="tau"):
        tv_integral_bound(1.0, 1.2)


def test_tv_integral_bound_is_numerically_sound():
    # uniform vs shifted uniform: TV = 0.3, integrals of any |g| <= 1 differ
    # by at most 2 * 0.3
    rng = np.random.Generator(np.random.Philox(21))
    xs = np.linspace(0.0, 1.3, 131_000)
    p = np.where(xs < 1.0, 1.0, 0.0)
    q = np.where(xs >= 0.3, 1.0, 0.0)
    tv = 0.5 * np.trapezoid(np.abs(p - q), xs)
    assert tv == pytest.approx(0.3, abs=1e-3)
    for _ in range(20):
        coeffs = rng.normal(size=4)
        g = sum(c * np.cos((k + 1) * xs) for k, c in enumerate(coeffs))
        g_sup = float(np.abs(g).max())
        gap = abs(np.trapezoid(g * p, xs) - np.trapezoid(g * q, xs))
        assert gap <= tv_integral_bound(g_sup, 0.3) + 1e-6


def test_discrete_tv_bound_holds_for_random_distributions():
    rng = np.random.Generator(np.random.Philox(22))
    for _ in range(100):
        k = int(rng.integers(2, 12))
        p = rng.random(k)
        p /= p.sum()
        q = rng.random(k)
        q /= q.sum()
        g = rng.uniform(-1.0, 1.0, k)
        tv = 0.5 * np.abs(p - q).sum()
        gap = abs(np.dot(g, p) - np.dot(g, q))
        assert gap <= tv_integral_bound(float(np.abs(g).max()), float(tv)) + 1e-12


# ------------------------------------------------------------- construction


def test_prior_from_dict():
    prior = prior_from_dict({"kind": "independent_product",
                             "marginals": [[{"kind": "uniform"}],
                                           [{"kind": "beta", "alpha": 2.0,
                                             "beta": 5.0}]]}, n_agents=2)
    assert isinstance(prior, IndependentProduct)
    assert isinstance(prior.marginals[1][0], Beta)
    corr = prior_from_dict({"kind": "correlated_common_value",
                            "n_agents": 3}, n_agents=3)
    assert isinstance(corr, CorrelatedCommonValue)
    for kind in ("gaussian", "external"):
        with pytest.raises(ValueError, match="unknown prior kind"):
            prior_from_dict({"kind": kind})
    with pytest.raises(ValueError, match="declares 3 agents, game has 2"):
        prior_from_dict({"kind": "correlated_common_value", "n_agents": 3},
                        n_agents=2)
    with pytest.raises(ValueError, match="unknown marginal kind"):
        prior_from_dict({"kind": "independent_product",
                         "marginals": [[{"kind": "cauchy"}]] * 2})
