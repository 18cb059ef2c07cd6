"""Bid maps, their slope certificates, and density propagation."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bneverify.priors import Beta
from bneverify.strategies import (FLAG_UNCERTIFIED, Identity, LinearShade,
                                  PiecewiseLinearMonotone, Power,
                                  StrategyProfile, profile_from_config,
                                  strategy_from_dict)


def test_identity_map():
    s = Identity()
    x = np.array([0.0, 0.3, 1.0])
    assert np.array_equal(s.apply(x), x)
    assert s.lipschitz_constants() == (1.0, 1.0)
    assert s.certified


def test_linear_shade_map_and_constants():
    s = LinearShade(0.5)
    assert s.apply(0.8) == 0.4
    assert s.lipschitz_constants() == (0.5, 2.0)
    with pytest.raises(ValueError):
        LinearShade(0.0)
    with pytest.raises(ValueError):
        LinearShade(1.5)


def test_power_map():
    s = Power(2.0)
    assert s.apply(0.5) == 0.25
    with pytest.raises(ValueError, match="exponent must be at least 1"):
        Power(0.5)


def test_power_above_one_has_no_slope_certificate():
    with pytest.raises(ValueError, match="unbounded at 0"):
        Power(2.0).lipschitz_constants()
    assert not Power(2.0).certified
    assert Power(1.0).lipschitz_constants() == (1.0, 1.0)


def test_piecewise_linear_constants_are_the_extreme_slopes():
    s = PiecewiseLinearMonotone(xs=[0.0, 0.75, 1.0], ys=[0.0, 0.375, 0.875])
    assert s.lipschitz_constants() == (2.0, 2.0)
    assert s.apply(0.375) == 0.1875


def test_piecewise_linear_zero_slope_segment_is_rejected():
    s = PiecewiseLinearMonotone(xs=[0.0, 0.5, 1.0], ys=[0.0, 0.4, 0.4])
    with pytest.raises(ValueError, match="not bi-Lipschitz: zero slope segment"):
        s.lipschitz_constants()
    assert not s.certified


def test_piecewise_linear_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearMonotone(xs=[0.0, 0.5, 0.5, 1.0], ys=[0.0, 0.2, 0.3, 1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearMonotone(xs=[0.1, 1.0], ys=[0.0, 1.0])
    with pytest.raises(ValueError):
        PiecewiseLinearMonotone(xs=[0.0, 0.5, 1.0], ys=[0.0, 0.6, 0.5])


def test_beta_density_max_drives_the_bound():
    # mode of Beta(2,5) is 1/5 with density 30 * 0.2 * 0.8^4 = 2.4576
    marg = Beta(2.0, 5.0)
    assert marg.density_max == pytest.approx(2.4576, abs=1e-12)


def test_profile_certificates():
    prof = StrategyProfile((LinearShade(0.5), Identity()))
    assert prof.certified
    assert prof.l_inv_max == 2.0
    assert prof.l_fwd(0) == 0.5
    assert prof.l_fwd(1) == 1.0
    mixed = StrategyProfile((Power(2.0), Identity()))
    assert not mixed.certified
    # an uncertified profile has no finite inverse slope bound, and only the
    # uncertified agent loses its forward one
    assert mixed.l_inv_max == math.inf
    assert mixed.l_fwd(0) is None
    assert mixed.l_fwd(1) == 1.0
    with pytest.raises(ValueError):
        StrategyProfile((Identity(),))


def test_profile_apply_all_maps_each_agent_column():
    prof = StrategyProfile((LinearShade(0.5), Identity()))
    obs = np.array([[[0.8], [0.6]], [[0.2], [0.4]]])
    bids = prof.apply_all(obs)
    assert bids.shape == obs.shape
    assert np.allclose(bids[:, 0, 0], [0.4, 0.1])
    assert np.array_equal(bids[:, 1, 0], obs[:, 1, 0])
    assert not np.shares_memory(bids, obs)
    # under an all-identity profile the bids are the observations
    assert StrategyProfile((Identity(), Identity())).apply_all(obs) is obs


def test_strategy_from_dict_builds_each_family():
    built = [strategy_from_dict(d) for d in (
        {"family": "identity"},
        {"family": "linear_shade", "params": {"c": 0.7}},
        {"family": "power", "params": {"p": 2.0}},
        {"family": "piecewise_linear",
         "params": {"xs": [0.0, 1.0], "ys": [0.0, 0.9]}})]
    assert [type(s) for s in built] == [Identity, LinearShade, Power,
                                         PiecewiseLinearMonotone]
    assert built[1].c == 0.7 and built[2].p == 2.0
    assert built[3].apply(1.0) == 0.9
    with pytest.raises(ValueError, match="unknown strategy family"):
        strategy_from_dict({"family": "quadratic"})


def test_profile_from_config_validation():
    entries = [{"agent": 0, "family": "identity"},
               {"agent": 1, "family": "linear_shade", "params": {"c": 0.5}}]
    prof = profile_from_config(entries, 2)
    assert isinstance(prof[1], LinearShade)
    with pytest.raises(ValueError, match="unknown agent"):
        profile_from_config(entries + [{"agent": 5, "family": "identity"}], 2)
    with pytest.raises(ValueError, match="duplicate strategy entry"):
        profile_from_config(entries + [{"agent": 1, "family": "identity"}], 2)
    with pytest.raises(ValueError, match=r"missing strategy for agents \[1\]"):
        profile_from_config(entries[:1], 2)
    with pytest.raises(ValueError, match=r"agents \[2, 3, 4, 5, 6, 7, 8, 9, "
                                         r"10, 11\] and 999999999988 more$"):
        profile_from_config(entries, 10**12)


def certified_strategies():
    return st.one_of(
        st.just(Identity()),
        st.floats(min_value=0.05, max_value=1.0).map(LinearShade),
        st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1,
                 max_size=4, unique=True).map(_monotone_piecewise),
    )


def _monotone_piecewise(interior):
    xs = [0.0] + sorted(interior) + [1.0]
    # strictly increasing ys keep every segment slope positive
    ys = [0.9 * x + 0.05 * x * x for x in xs]
    return PiecewiseLinearMonotone(xs=xs, ys=ys)


@given(certified_strategies(),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_slope_certificates_hold_pointwise(strategy, x, y):
    l_fwd, l_inv = strategy.lipschitz_constants()
    fx, fy = float(strategy.apply(x)), float(strategy.apply(y))
    assert 0.0 <= fx <= 1.0
    assert abs(fx - fy) <= l_fwd * abs(x - y) + 1e-12
    assert abs(x - y) <= l_inv * abs(fx - fy) + 1e-12
    if x < y:
        assert fx <= fy  # monotone


def test_subnormal_slopes_give_infinite_constants_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = PiecewiseLinearMonotone(xs=[0.0, 1.0], ys=[0.0, 5e-324])
        assert flat.lipschitz_constants() == (5e-324, math.inf)
        steep = PiecewiseLinearMonotone(xs=[0.0, 5e-324, 1.0],
                                        ys=[0.0, 0.5, 1.0])
        assert steep.lipschitz_constants() == (math.inf, 2.0)


def test_uncertified_flag_constant_is_stable():
    assert FLAG_UNCERTIFIED == "uncertified: dispersion constants invalid"
