"""End-to-end acceptance checks: certified bounds on shipped configurations,
formula cross-validation, and determinism of the emitted reports."""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bneverify import bounds, cli, mechanisms
from bneverify.mechanisms import assignment_value, winner_determination
from bneverify.model import GameConfig, MechanismSpec
from bneverify.oracle import analytic_fpsb_loss, exhaustive_wd, quadrature_tv
from bneverify.priors import Beta, CorrelatedCommonValue
from bneverify.strategies import LinearShade, Power

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
FPSB2 = GameConfig(n_agents=2,
                   mechanism=MechanismSpec(kind="first_price_single_item"))

TRIVIAL_EX_ANTE = {
    "mode": "ex_ante",
    "strategies": [{"agent": 0, "family": "identity", "params": {}},
                   {"agent": 1, "family": "identity", "params": {}}],
    "partition": [{"cells": [{"lo": [0.0], "hi": [1.0]}]}],
    "grid_w": 0.05,
    "n_records": 4000,
    "seed": 11,
}

RUN_SPECS = {
    "fpsb_eq": ("fpsb_eq", None),
    "fpsb_dev": ("fpsb_dev", None),
    "correlated_demo": ("correlated_demo", None),
    "trivial_exante": ("fpsb_eq", TRIVIAL_EX_ANTE),
}


def _run_config(base_name, out_dir, overrides=None):
    with open(CONFIGS / f"{base_name}.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(overrides or {})
    raw["out_dir"] = str(out_dir)
    config = cli.parse_config(raw, base_dir=str(CONFIGS))
    t0 = time.monotonic()
    rc = cli.run(config)
    elapsed = time.monotonic() - t0
    with open(os.path.join(str(out_dir), "report.json"), "rb") as fh:
        report_bytes = fh.read()
    return {"rc": rc, "elapsed": elapsed, "report_bytes": report_bytes,
            "report": json.loads(report_bytes)}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Every verification job used below, run once."""
    return {name: _run_config(base, tmp_path_factory.mktemp(name), overrides)
            for name, (base, overrides) in RUN_SPECS.items()}


def test_equilibrium_profile_certifies_a_small_gap(pipeline):
    job = pipeline["fpsb_eq"]
    assert job["rc"] == 0
    assert job["elapsed"] <= 60.0
    report = job["report"]
    assert report["n_records"] == 20_000
    assert report["grid_width"] == 0.02
    assert report["delta_total"] == 0.05
    for entry in report["agents"]:
        assert 0.0 <= entry["empirical"] <= 0.03
    # the closed-form reference says the true loss of this profile is zero
    assert analytic_fpsb_loss(2, 0.5).value == 0.0


def test_overbidding_agent_is_measured_against_the_reference_loss(pipeline):
    dev = pipeline["fpsb_dev"]
    assert dev["rc"] == 0
    reference = analytic_fpsb_loss(2, 0.9).value
    assert reference == pytest.approx(0.4, abs=1e-12)
    measured = dev["report"]["agents"][0]["empirical"]
    assert measured == pytest.approx(reference, abs=0.02)
    equilibrium = pipeline["fpsb_eq"]["report"]["agents"][0]["empirical"]
    assert measured - equilibrium >= 3 * 0.02


def ref_log_growth(n_rec, d):
    """ln of the growth-function bound: 2^N below d, (eN/d)^d from d on."""
    if n_rec < d:
        return n_rec * np.log(2.0)
    return d * np.log(np.e * n_rec / d)


def ref_eps_pdim_interim(n_rec, d, n, delta):
    a = 4.0 * np.sqrt(2.0 * ref_log_growth(n_rec, d) / n_rec)
    b = 2.0 * np.sqrt(2.0 * np.log(2.0 * n / delta) / n_rec)
    return float(a + b)


def ref_eps_disp(x, n_rec, count, lip):
    v = count if count < n_rec else float(n_rec)
    return float(lip * x * (n_rec - v) / n_rec + v / n_rec * 2.0)


def ref_dispersion_count_fpsb(w, nb, n, kappa, l_inv, delta, cells):
    t1 = w * nb * kappa * l_inv * (n - 1.0)
    t2 = (n - 1.0) * np.sqrt(
        2.0 * nb * np.log(2.0 * n * (n - 1.0) * cells / delta))
    t3 = (n - 1.0) * np.sqrt(nb * np.log(nb * np.e / 2.0)) * 4.0
    return float(t1 + t2 + t3)


def ref_dispersion_count_combinatorial(w, nb, n, items, kappa, l_inv, delta,
                                       cells, constant):
    t1 = w * nb * kappa * np.power(l_inv, np.exp2(items + 1.0))
    t2 = np.sqrt(2.0 * nb * np.log(2.0 * n * (n - 1.0) * cells / delta))
    t3 = np.sqrt(items * nb * np.log(nb * np.e / 2.0)) * 4.0
    return float((t1 + t2 + t3) * np.power(n + 1.0, 2.0 * items) * constant)


def ref_dispersion_count_multiunit(w, nb, n, units, kappa, l_inv, delta,
                                   cells, constant):
    t1 = w * nb * kappa * l_inv
    t2 = np.sqrt(2.0 * nb * np.log(2.0 * n * (n - 1.0) * cells / delta))
    t3 = np.sqrt(nb * np.log(nb * np.e / 2.0)) * 4.0
    return float((t1 + t2 + t3) * units * units * n * constant)


def ref_pdim(kind, n, items, units, constant):
    """(value, exact?) of the one-agent pseudo-dimension, floored at 1."""
    if kind == "first_price_single_item":
        return 2.0, True
    if kind == "first_price_combinatorial":
        return max(1.0, float(np.log(n) * items * np.exp2(items)
                              * constant)), False
    return max(1.0, float(np.log(n * units) * units * constant)), False


def ref_eps_hoeffding(n_rec, n, delta):
    return float(np.sqrt(2.0 * np.log(2.0 * n / delta) / n_rec))


def ref_eps_pdim_ex_ante(nb, d, n, delta, cells):
    a = 2.0 * np.sqrt(2.0 * ref_log_growth(nb, d) / nb)
    b = np.sqrt(2.0 * np.log(n * cells / delta) / nb)
    return float(a + b)


def test_error_term_formulas_match_an_independent_coding():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_rec = int(rng.integers(10, 1_000_000))
        d = float(rng.uniform(1.0, 20.0))
        n = int(rng.integers(2, 10))
        delta = float(rng.uniform(1e-6, 0.5))
        w = float(rng.uniform(0.0, 0.5))
        kappa = float(rng.uniform(0.1, 10.0))
        l_inv = float(rng.uniform(1.0, 10.0))
        cells = int(rng.integers(1, 64))
        count = float(rng.uniform(0.0, 2.0 * n_rec))
        lip = float(rng.uniform(0.1, 10.0))
        items = int(rng.integers(1, 4))
        units = int(rng.integers(1, 5))
        constant = float(rng.uniform(0.05, 5.0))
        fpsb = GameConfig(n_agents=n, mechanism=MechanismSpec(
            kind="first_price_single_item"))
        comb = GameConfig(n_agents=n, mechanism=MechanismSpec(
            kind="first_price_combinatorial", items=items))
        multi = GameConfig(n_agents=n, mechanism=MechanismSpec(
            kind=str(rng.choice(["discriminatory", "uniform_price"])),
            units=units))
        for game in (fpsb, comb, multi):
            mech = game.mechanism
            value, exact = ref_pdim(mech.kind, n, mech.items, mech.units,
                                    constant)
            spec = bounds.pdim(game, constant)
            assert math.isclose(spec.value, value, rel_tol=1e-12)
            assert (spec.kind == "exact") == exact
            assert spec.constant == (1.0 if exact else constant)
        pairs = [
            (bounds.eps_pdim_interim(n_rec, d, n, delta),
             ref_eps_pdim_interim(n_rec, d, n, delta)),
            (bounds.eps_disp(w, n_rec, count, lip),
             ref_eps_disp(w, n_rec, count, lip)),
            (bounds.dispersion_count(fpsb, w, n_rec, kappa, l_inv, delta,
                                     cells, constant)[0],
             ref_dispersion_count_fpsb(w, n_rec, n, kappa, l_inv, delta,
                                       cells)),
            (bounds.dispersion_count(comb, w, n_rec, kappa, l_inv, delta,
                                     cells, constant)[0],
             ref_dispersion_count_combinatorial(w, n_rec, n, items, kappa,
                                                l_inv, delta, cells,
                                                constant)),
            (bounds.dispersion_count(multi, w, n_rec, kappa, l_inv, delta,
                                     cells, constant)[0],
             ref_dispersion_count_multiunit(w, n_rec, n, units, kappa, l_inv,
                                            delta, cells, constant)),
            (bounds.eps_hoeffding(n_rec, n, delta),
             ref_eps_hoeffding(n_rec, n, delta)),
            (bounds.eps_pdim_ex_ante(n_rec, d, n, delta, cells),
             ref_eps_pdim_ex_ante(n_rec, d, n, delta, cells)),
        ]
        for got, want in pairs:
            assert math.isclose(got, want, rel_tol=1e-12)
    # fewer records than the pseudo-dimension: N < d/e, where ln(eN/d) < 0,
    # and d/e <= N < d
    for n_rec, d in ((3, 8.79), (3, 3.6)):
        for got, want in (
                (bounds.eps_pdim_interim(n_rec, d, 3, 0.01),
                 ref_eps_pdim_interim(n_rec, d, 3, 0.01)),
                (bounds.eps_pdim_ex_ante(n_rec, d, 3, 0.01, 4),
                 ref_eps_pdim_ex_ante(n_rec, d, 3, 0.01, 4))):
            assert math.isclose(got, want, rel_tol=1e-12)
    assert bounds.eps_hoeffding(10_000, 2, 0.05) \
        == pytest.approx(0.0296, abs=1e-4)


def test_interval_occupancy_stays_below_the_certified_count():
    t0 = time.monotonic()
    n_records, repetitions, n_intervals, w = 10_000, 100, 100, 0.01
    v, _ = bounds.dispersion_count(FPSB2, w, n_records, 1.0, 2.0, 0.05)
    strategy = LinearShade(0.5)
    rng = np.random.default_rng(2024)
    exceedances = 0
    for _ in range(repetitions):
        bids = np.sort(strategy.apply(rng.random(n_records)))
        starts = rng.uniform(0.0, 1.0 - w, n_intervals)
        hi = np.searchsorted(bids, starts + w, side="right")
        lo = np.searchsorted(bids, starts, side="left")
        if int(np.max(hi - lo)) > v:
            exceedances += 1
    assert exceedances <= 5
    assert time.monotonic() - t0 <= 120.0


def test_certified_density_bound_holds_for_a_bi_lipschitz_strategy():
    # the pushforward lemma behind dispersion_count's kappa * l_inv: bids
    # c * theta with theta ~ Beta(2, 5), whose density peaks at 2.4576, stay
    # below 2.5 / c everywhere; each bin's density estimate is within
    # 3 sigma of a bin mass at most bound * bin_width
    n_samples, bins, kappa = 1_000_000, 200, 2.5
    strategy = LinearShade(0.5)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    bids = strategy.apply(Beta(2.0, 5.0).sample(rng, n_samples))
    hist, _ = np.histogram(bids, bins=bins, range=(0.0, 1.0))
    density = hist * bins / n_samples
    bound = kappa * strategy.lipschitz_constants()[1]
    assert bound == 5.0
    sigma = math.sqrt(bound * bins / n_samples)
    assert density.max() <= bound + 3.0 * sigma


def test_square_law_bidding_admits_no_finite_density_bound():
    rng = np.random.default_rng(0)
    bids = Power(2.0).apply(rng.random(1_000_000))
    maxima = []
    for bins in (50, 200, 800):
        hist, _ = np.histogram(bids, bins=bins, range=(0.0, 1.0))
        maxima.append(float(hist.max()) * bins / 1_000_000)
    assert maxima[0] > 5.0
    assert maxima[0] < maxima[1] < maxima[2]
    assert maxima[2] > 20.0


def test_assignment_solver_matches_exhaustive_enumeration():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        items = int(rng.integers(1, 4))
        bids = rng.uniform(0.0, 1.0, size=(n, 2 ** items))
        bids[:, 0] = 0.0
        slow = exhaustive_wd(bids, items)
        fast = winner_determination(bids, items)
        assert np.array_equal(slow, fast)
        assert assignment_value(bids, slow) == assignment_value(bids, fast)
    assert time.monotonic() - t0 <= 10.0


def test_two_unit_worked_example_prices_exactly():
    bids = np.array([[0.8, 0.3], [0.6, 0.5]])
    theta = np.array([[1.0, 0.9], [1.0, 0.9]])
    uniform = GameConfig(
        n_agents=2, mechanism=MechanismSpec(kind="uniform_price", units=2),
        utility_scale=1.0)
    out = mechanisms.eval(uniform, theta, bids)
    assert out.allocation[0].tolist() == [1.0, 0.0]
    assert out.payments[0] == 0.5
    discriminatory = GameConfig(
        n_agents=2, mechanism=MechanismSpec(kind="discriminatory", units=2),
        utility_scale=1.0)
    out = mechanisms.eval(discriminatory, theta, bids)
    assert out.payments[0] == 0.8


def test_single_cell_partition_reduces_to_the_global_composition(pipeline):
    job = pipeline["trivial_exante"]
    assert job["rc"] == 0
    entry = job["report"]["agents"][0]
    cell = entry["cells"][0]
    assert cell["weight"] == 1.0
    assert cell["tau"] == 0.0 and cell["tau_source"] == "derived"
    delta = 0.05 / 4
    e_hoeff = bounds.eps_hoeffding(4000, 2, delta)
    e_pdim = bounds.eps_pdim_ex_ante(4000, 2.0, 2, delta, 1)
    count_raw, _ = bounds.dispersion_count(FPSB2, 0.05, 4000, 1.0, 1.0,
                                           delta, 1)
    count, _ = bounds.clamp_dispersion_count(count_raw, 4000)
    e_disp = bounds.eps_disp(0.05, 4000, count, 1.0)
    inner = 0.0 + e_pdim + e_disp
    assert cell["inner_sum"] == inner
    want = entry["empirical"] + 2.0 * e_hoeff + 1.0 * min(1.0, inner)
    assert entry["total"] == want


def test_correlated_demo_certifies_below_one_with_quadrature_backed_taus(
        pipeline):
    t0 = time.monotonic()
    job = pipeline["correlated_demo"]
    assert job["rc"] == 0
    report = job["report"]
    assert report["n_records"] == 100_000
    for entry in report["agents"]:
        assert entry["total"] <= 1.0
    with open(CONFIGS / "correlated_partition.json", encoding="utf-8") as fh:
        geometry = json.load(fh)["cells"]
    prior = CorrelatedCommonValue(2)
    entry = report["agents"][0]
    assert len(entry["cells"]) == 8
    for k, cell in enumerate(entry["cells"]):
        lo, hi = geometry[k]["lo"][0], geometry[k]["hi"][0]
        assert cell["tau_source"] == "derived"
        if lo <= 0.0 or hi >= 1.0:
            assert cell["tau"] == 1.0
            continue
        ref = quadrature_tv(prior.posterior_density(lo),
                            prior.posterior_density(hi), 16_000)
        assert abs(cell["tau"] - ref.value) \
            <= ref.resolution["refinement_delta"]
    assert job["elapsed"] + (time.monotonic() - t0) <= 300.0


def test_reports_are_byte_identical_across_reruns(pipeline,
                                                   tmp_path_factory):
    for name, (base, overrides) in RUN_SPECS.items():
        again = _run_config(base, tmp_path_factory.mktemp(f"{name}_again"),
                            overrides)
        assert again["report_bytes"] == pipeline[name]["report_bytes"], name
