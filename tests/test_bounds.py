"""Certificate term formulas and their composition into agent bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bneverify.bounds import (FLAG_ASYMPTOTIC, FLAG_DEGRADED_BOUND,
                              FLAG_VACUOUS_DISPERSION, FLAG_WIDTH_RANGE,
                              ROW_CONSTANT, AgentBound, ExAnteSpecs, InterimSpecs,
                              all_vacuous, assemble_ex_ante, assemble_interim,
                              clamp_dispersion_count, dispersion_count,
                              eps_disp, eps_hoeffding, eps_pdim_ex_ante,
                              eps_pdim_interim, pdim, split_delta)
from bneverify.estimator import ExAnteEstimate, ExInterimEstimate
from bneverify.model import GameConfig, MechanismSpec


def fpsb_game(n=2):
    return GameConfig(n_agents=n,
                      mechanism=MechanismSpec(kind="first_price_single_item"))


def comb_game(n=2, items=1):
    return GameConfig(n_agents=n,
                      mechanism=MechanismSpec(kind="first_price_combinatorial",
                                              items=items))


def mu_game(n=2, units=2, kind="discriminatory"):
    return GameConfig(n_agents=n, mechanism=MechanismSpec(kind=kind,
                                                          units=units))


def fpsb_count(*args, **kwargs):
    """The two-agent single-item first-price dispersion count."""
    count, flags = dispersion_count(fpsb_game(), *args, **kwargs)
    assert flags == ()
    return count


# ----------------------------------------------------------- term formulas


def test_eps_pdim_interim_spot_value():
    got = eps_pdim_interim(10_000, 2.0, 2, 0.05)
    assert got == pytest.approx(0.3060078750627245, abs=1e-12)


def test_eps_pdim_interim_shrinks_like_root_n_up_to_logs():
    base = eps_pdim_interim(10_000, 2.0, 2, 0.05)
    finer = eps_pdim_interim(40_000, 2.0, 2, 0.05)
    ratio = finer / base
    assert ratio == pytest.approx(0.5283715693952078, abs=1e-12)
    assert 0.5 < ratio < 0.62


def test_eps_pdim_interim_validation():
    with pytest.raises(ValueError, match="n_records"):
        eps_pdim_interim(0, 2.0, 2, 0.05)
    with pytest.raises(ValueError, match="pseudo-dimension"):
        eps_pdim_interim(100, 0.5, 2, 0.05)
    with pytest.raises(ValueError, match="delta"):
        eps_pdim_interim(100, 2.0, 2, 1.5)


def test_eps_disp_zero_count_is_pure_lattice_drift():
    assert eps_disp(0.1, 1000, 0.0, 1.0) == 0.1
    assert eps_disp(0.1, 1000, 0.0, 2.0) == 0.2
    assert eps_disp(0.0, 1000, 0.0, 2.0) == 0.0


def test_eps_disp_saturates_at_two_when_every_sample_disperses():
    assert eps_disp(0.1, 1000, 1000.0, 1.0) == 2.0
    assert eps_disp(0.1, 1000, 5000.0, 1.0) == 2.0  # internal clamp


def test_eps_disp_matches_direct_expression():
    n, v, w, lip = 10_000, 1730.0393753136223, 0.01, 2.0
    want = ((n - v) / n) * lip * w + 2.0 * v / n
    assert eps_disp(w, n, v, lip) == want


def test_eps_disp_validation():
    with pytest.raises(ValueError, match="width must be nonnegative"):
        eps_disp(-0.1, 100, 0.0, 1.0)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        eps_disp(0.1, 100, -1.0, 1.0)


def test_clamp_dispersion_count():
    assert clamp_dispersion_count(12_000.0, 10_000) == (10_000.0, True)
    assert clamp_dispersion_count(5.0, 100) == (5.0, False)
    assert clamp_dispersion_count(100.0, 100) == (100.0, False)


def test_dispersion_count_single_item_spot_values():
    got = fpsb_count(0.01, 10_000, 1.0, 2.0, 0.05)
    assert got == pytest.approx(1730.0393753136223, abs=1e-9)
    at_zero = fpsb_count(0.0, 10_000, 1.0, 2.0, 0.05)
    assert at_zero == pytest.approx(1530.0393753136223, abs=1e-9)
    # the width term is (n-1) * w * N * kappa * l_inv
    assert got - at_zero == pytest.approx(200.0, abs=1e-9)


def test_dispersion_count_scales_with_the_bid_density_bound():
    lo = fpsb_count(0.01, 10_000, 1.0, 2.0, 0.05)
    hi = fpsb_count(0.01, 10_000, 2.0, 2.0, 0.05)
    assert hi - lo == pytest.approx(0.01 * 10_000 * 2.0, abs=1e-9)


def test_dispersion_count_union_over_cells_costs_a_log():
    base = fpsb_count(0.01, 2500, 1.0, 2.0, 0.05, n_cells_max=1)
    split = fpsb_count(0.01, 2500, 1.0, 2.0, 0.05, n_cells_max=8)
    assert split > base
    extra = split - base
    want = math.sqrt(2.0 * 2500 * math.log(2 * 2 * 1 * 8 / 0.05)) \
        - math.sqrt(2.0 * 2500 * math.log(2 * 2 * 1 * 1 / 0.05))
    assert extra == pytest.approx(want, abs=1e-9)


def test_eps_hoeffding_spot_value_and_exact_halving():
    assert eps_hoeffding(10_000, 2, 0.05) == pytest.approx(
        0.029604143746015967, abs=1e-12)
    for n in (100, 1000, 12_345, 10**6):
        assert eps_hoeffding(4 * n, 2, 0.05) == eps_hoeffding(n, 2, 0.05) / 2.0
    assert eps_hoeffding(1, 2, 0.05) > 1.0  # single record certifies nothing


def test_eps_pdim_ex_ante_spot_value():
    got = eps_pdim_ex_ante(2500, 2.0, 2, 0.05, 4)
    assert got == pytest.approx(0.2918370682933916, abs=1e-12)
    assert eps_pdim_ex_ante(2500, 2.0, 2, 0.05, 8) > got


@given(st.integers(min_value=1000, max_value=500_000))
@settings(max_examples=40, deadline=None)
def test_error_terms_shrink_with_more_records(n):
    for fn in (lambda m: eps_pdim_interim(m, 2.0, 2, 0.05),
               lambda m: eps_hoeffding(m, 2, 0.05),
               lambda m: eps_pdim_ex_ante(m, 2.0, 2, 0.05, 4)):
        assert fn(2 * n) < fn(n)


@given(st.integers(min_value=1000, max_value=500_000),
       st.floats(min_value=0.0, max_value=0.2))
@settings(max_examples=40, deadline=None)
def test_certified_dispersion_slack_shrinks_with_more_records(n, w):
    def slack(m):
        v = fpsb_count(w, m, 1.0, 2.0, 0.05)
        v, _ = clamp_dispersion_count(v, m)
        return eps_disp(w, m, v, 1.0)
    assert slack(2 * n) <= slack(n) + 1e-15


# ------------------------------------------------------- pseudo-dimensions


def test_pdim_single_item_is_exact():
    spec = pdim(fpsb_game())
    assert (spec.value, spec.kind) == (2.0, "exact")


def test_pdim_growth_orders_with_declared_constants():
    # the declared constant is the rule's, 1; no config sets it
    assert ROW_CONSTANT == 1.0
    comb = pdim(comb_game(n=3, items=2))
    assert comb.kind == "asymptotic (constant declared)"
    assert comb.value == pytest.approx(2 * 4 * math.log(3), abs=1e-12)
    mu = pdim(mu_game(n=2, units=2))
    assert mu.value == pytest.approx(2 * math.log(4), abs=1e-12)


def test_pdim_floors_at_one():
    # one unit among two agents: ln 2 < 1
    tiny = pdim(mu_game(n=2, units=1, kind="uniform_price"))
    assert tiny.value == 1.0


# ----------------------------------------------------- dispatch and flags


def test_single_item_dispersion_holds_at_any_width():
    _, flags = dispersion_count(fpsb_game(), 0.9, 100, 5.0, 5.0, 0.05)
    assert flags == ()


def test_asymptotic_rows_flag_width_range():
    game = mu_game()
    limit = 1.0 / math.sqrt(10_000)  # 1 / (kappa l_inv sqrt(N)) at 1, 1
    _, flags = dispersion_count(game, limit * 0.5, 10_000, 1.0, 1.0, 0.05)
    assert flags == (FLAG_ASYMPTOTIC,)
    _, flags = dispersion_count(game, limit * 2.0, 10_000, 1.0, 1.0, 0.05)
    assert FLAG_WIDTH_RANGE in flags and FLAG_ASYMPTOTIC in flags


def test_width_limit_combinatorial_exponent():
    # one item: the row is stated up to 1 / (kappa * l_inv^(2^2) * sqrt(N))
    limit = 1.0 / (2.0 * 3.0**4 * 10.0)
    for game in (comb_game(items=1), comb_game(n=3, items=1)):
        _, flags = dispersion_count(game, limit, 100, 2.0, 3.0, 0.05)
        assert flags == (FLAG_ASYMPTOTIC,)
        _, flags = dispersion_count(game, math.nextafter(limit, 1.0), 100,
                                    2.0, 3.0, 0.05)
        assert flags == (FLAG_WIDTH_RANGE, FLAG_ASYMPTOTIC)
    # the multi-unit rows use the exponent 1 at the same inputs
    w = 0.99 / (2.0 * 3.0 * 10.0)
    _, flags = dispersion_count(mu_game(), w, 100, 2.0, 3.0, 0.05)
    assert flags == (FLAG_ASYMPTOTIC,)
    _, flags = dispersion_count(comb_game(items=1), w, 100, 2.0, 3.0, 0.05)
    assert flags == (FLAG_WIDTH_RANGE, FLAG_ASYMPTOTIC)


# ------------------------------------------------------------ composition


def test_split_delta_divides_delta_total_over_the_failure_events():
    assert split_delta("ex_interim", 0.07) == 0.07 / 3
    assert split_delta("ex_ante", 0.07) == 0.07 / 4
    for bad in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match=r"must lie in \(0,1\)"):
            split_delta("ex_interim", bad)
    with pytest.raises(ValueError, match="delta_total / 4, the probability"):
        split_delta("ex_ante", 1e-323)


def interim_estimate(value=0.01, n_records=10_000):
    return ExInterimEstimate(agent=0, value=value,
                             argmax_pair=((1.0,), (0.5,)),
                             per_point_gains=np.array([value]),
                             theta_points=np.array([[1.0]]),
                             n_records=n_records)


def test_assemble_interim_total_recomposes_from_the_payload():
    specs = InterimSpecs(kappa=1.0, l_inv_max=2.0, l_fwd=0.5)
    out = assemble_interim(interim_estimate(), specs, fpsb_game(), 0.02, 0.05)
    p = out.payload
    total = p["empirical"] + p["eps_pdim"]
    for term in p["disp_terms"]:
        total += term["multiplier"] * term["value"]
    assert total == p["total"] == out.total
    assert [t["width"] for t in p["disp_terms"]] == [0.02, 0.5 * 0.02]
    assert [t["multiplier"] for t in p["disp_terms"]] == [3.0, 1.0]
    assert p["delta"] == 0.05 / 3
    assert p["confidence"] == 1.0 - 3.0 * p["delta"]
    assert p["total_denormalized"] == p["total"] * p["utility_scale"]
    assert out.flags == ()
    assert list(p) == ["agent", "mode", "n_records", "empirical",
                       "argmax_valuation", "argmax_bid", "pdim_value",
                       "pdim_kind", "pdim_constant", "eps_pdim", "width",
                       "disp_terms", "delta", "confidence", "total",
                       "total_denormalized", "utility_scale"]


def test_assemble_interim_terms_recompute_from_the_formulas():
    n = 10_000
    specs = InterimSpecs(kappa=1.0, l_inv_max=2.0, l_fwd=0.5)
    out = assemble_interim(interim_estimate(n_records=n), specs, fpsb_game(),
                           0.02, 0.05)
    p = out.payload
    assert p["eps_pdim"] == eps_pdim_interim(n, 2.0, 2, 0.05 / 3)
    base = p["disp_terms"][0]
    raw = fpsb_count(0.02, n, 1.0, 2.0, 0.05 / 3)
    assert base["count_raw"] == raw
    assert base["value"] == eps_disp(0.02, n, min(raw, n), 1.0)
    mapped = p["disp_terms"][1]
    assert mapped["width"] == 0.5 * 0.02


def test_assemble_interim_without_forward_constant_is_degraded():
    specs = InterimSpecs(kappa=1.0, l_inv_max=2.0, l_fwd=None)
    out = assemble_interim(interim_estimate(), specs, fpsb_game(), 0.02, 0.05)
    assert FLAG_DEGRADED_BOUND in out.flags
    p = out.payload
    assert len(p["disp_terms"]) == 1
    assert p["total"] == p["empirical"] + p["eps_pdim"] \
        + 3.0 * p["disp_terms"][0]["value"]


def test_assemble_interim_tiny_sample_is_vacuous():
    est = interim_estimate(value=0.0, n_records=50)
    specs = InterimSpecs(kappa=1.0, l_inv_max=2.0, l_fwd=1.0)
    out = assemble_interim(est, specs, fpsb_game(), 0.5, 0.05)
    assert FLAG_VACUOUS_DISPERSION in out.flags
    p = out.payload
    # both dispersion rows clamp and contribute the saturated value 2 each
    assert [t["value"] for t in p["disp_terms"]] == [2.0, 2.0]
    assert [t["count"] for t in p["disp_terms"]] == [50.0, 50.0]
    total = p["empirical"] + p["eps_pdim"]
    for term in p["disp_terms"]:
        total += term["multiplier"] * term["value"]
    assert p["total"] == total
    assert out.total > 8.0
    assert all_vacuous([out])


def test_assemble_interim_width_validation():
    with pytest.raises(ValueError, match="width"):
        assemble_interim(interim_estimate(),
                         InterimSpecs(kappa=1.0, l_inv_max=1.0), fpsb_game(),
                         0.0, 0.03)


def ex_ante_estimate(value=0.02, cell_records=(600, 400), weights=None,
                     current=0.38):
    n = sum(cell_records)
    weights = weights or tuple(c / n for c in cell_records)
    br_terms = tuple(
        {"cell": k, "n_records": c, "weight": w,
         "best_bid": (0.5,) if c else None, "br_mean": 0.4 if c else 0.0}
        for k, (c, w) in enumerate(zip(cell_records, weights)))
    return ExAnteEstimate(agent=0, value=value, current_utility=current,
                          br_terms=br_terms, gain_curve=np.array([value]),
                          candidates=np.array([[0.5]]), n_records=n)


def test_assemble_ex_ante_total_recomposes_from_the_payload():
    est = ex_ante_estimate()
    specs = ExAnteSpecs(taus=(0.1, 0.2), kappas=(1.5, 2.5), l_inv_max=2.0,
                        n_cells_max=2, tau_sources=("derived", "declared"))
    out = assemble_ex_ante(est, specs, fpsb_game(), 0.01, 0.05)
    p = out.payload
    total = p["empirical"] + p["hoeffding_multiplier"] * p["eps_hoeffding"]
    cell_sum = 0.0
    for cell in p["cells"]:
        inner = cell["tau"] + cell["eps_pdim"] + cell["eps_disp"]
        assert inner == cell["inner_sum"]
        contribution = cell["weight"] * min(1.0, inner)
        assert contribution == cell["contribution"]
        cell_sum += contribution
    assert cell_sum == p["cell_sum"]
    assert total + cell_sum == p["total"] == out.total
    assert p["delta"] == 0.05 / 4
    assert p["confidence"] == 1.0 - 4.0 * p["delta"]
    assert [c["tau_source"] for c in p["cells"]] == ["derived", "declared"]


def test_assemble_ex_ante_saturated_cells_contribute_their_weight():
    est = ex_ante_estimate(cell_records=(900, 100))
    specs = ExAnteSpecs(taus=(0.0, 1.0), kappas=(1.0, 1.0), l_inv_max=2.0,
                        n_cells_max=2)
    out = assemble_ex_ante(est, specs, fpsb_game(), 0.01, 0.05)
    end_cell = out.payload["cells"][1]
    assert end_cell["clamped"]
    assert end_cell["contribution"] == end_cell["weight"]


def test_assemble_ex_ante_empty_cells_are_inert():
    est = ex_ante_estimate(cell_records=(1000, 0), weights=(1.0, 0.0))
    specs = ExAnteSpecs(taus=(0.0, None), kappas=(1.0, None), l_inv_max=2.0,
                        n_cells_max=2)
    out = assemble_ex_ante(est, specs, fpsb_game(), 0.01, 0.05)
    empty = out.payload["cells"][1]
    assert empty["contribution"] == 0.0
    assert empty["eps_pdim"] is None and empty["tau"] is None


def test_assemble_ex_ante_validation():
    est = ex_ante_estimate()
    with pytest.raises(ValueError, match="must match the partition size"):
        assemble_ex_ante(est, ExAnteSpecs(taus=(0.1,), kappas=(1.0,),
                                          l_inv_max=1.0), fpsb_game(),
                         0.01, 0.04)
    with pytest.raises(ValueError, match="cell 1 has no tau"):
        assemble_ex_ante(est, ExAnteSpecs(taus=(0.1, None),
                                          kappas=(1.0, 1.0),
                                          l_inv_max=1.0), fpsb_game(),
                         0.01, 0.04)


def test_all_vacuous():
    assert not all_vacuous([])
    good = AgentBound(agent=0, mode="ex_interim", total=0.5, payload={})
    bad = AgentBound(agent=1, mode="ex_interim", total=2.5, payload={})
    assert not all_vacuous([good, bad])
    assert all_vacuous([bad])
