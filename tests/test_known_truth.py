"""Certified totals against a known truth. In single-item first price with
uniform values and opponents at the equilibrium shade c* = (n-1)/n,
oracle.analytic_fpsb_loss gives a linear shade's exact ex interim gain and
oracle.analytic_fpsb_ex_ante_loss its exact ex ante gain. Under the
correlated common-value prior with identity bids, correlated_ex_ante_gain
gives the exact ex ante gain by quadrature. A certificate holds with the
report's confidence, so across independent runs the totals may fall below
the truth only about as often as its failure probability allows."""
import math
from pathlib import Path

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from bneverify.bounds import assemble_ex_ante, assemble_interim
from bneverify.cli import load_config, parse_config
from bneverify.estimator import estimate_ex_ante, estimate_ex_interim
from bneverify.oracle import analytic_fpsb_ex_ante_loss, analytic_fpsb_loss
from bneverify.priors import sample_dataset

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}
SHADES = (0.3, 0.5, 0.8)    # agent 0's; the opponents play c*
SEEDS = range(40)           # per job, fixed before any run
N_RECORDS, WIDTH, DELTA_TOTAL = 2000, 0.02, 0.05


def job(shade, n_agents=2, partition=None):
    """Agent 0 at shade, its n_agents - 1 opponents at c*; ex ante when a
    partition is given."""
    c_star = (n_agents - 1) / n_agents
    raw = {
        "game": {"n_agents": n_agents,
                 "mechanism": {"kind": "first_price_single_item"}},
        "mode": "ex_interim",
        "prior": {"kind": "independent_product",
                  "marginals": [[UNIFORM]] * n_agents},
        "strategies": [
            {"agent": a, "family": "linear_shade",
             "params": {"c": shade if a == 0 else c_star}}
            for a in range(n_agents)],
        "grid_w": WIDTH, "delta_total": DELTA_TOTAL,
        "n_records": N_RECORDS, "seed": 0}
    if partition is not None:
        raw.update(mode="ex_ante", partition=partition)
    return parse_config(raw)


def margins(config, truth):
    """Agent 0's certified total minus truth, once per seed's records, and
    the certificate's confidence."""
    grid = config.grids[WIDTH]
    game, specs = config.game, config.specs[0]
    out = []
    for seed in SEEDS:
        ds = sample_dataset(config.prior_model, config.profile, N_RECORDS,
                            seed)
        if config.partitions is None:
            est = estimate_ex_interim(ds, config.profile, grid, game, 0)
            bound = assemble_interim(est, specs, game, WIDTH, DELTA_TOTAL)
        else:
            est = estimate_ex_ante(ds, config.profile, config.partitions[0],
                                   grid, game, 0)
            bound = assemble_ex_ante(est, specs, game, WIDTH, DELTA_TOTAL)
        out.append(bound.total - truth)
    return out, bound.payload["confidence"]


def binomial_quantile(n, p, q):
    """The smallest k with P(Binomial(n, p) <= k) >= q."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        if cdf >= q:
            return k
    return n


def assert_rarely_below_the_truth(jobs):
    """jobs: (config, truth) pairs. Fail when more totals fall below the
    truth than the certificates' failure probability allows, at the 0.999
    quantile."""
    all_margins = []
    for config, truth in jobs:
        found, confidence = margins(config, truth)
        all_margins += found
    misses = sum(m < 0.0 for m in all_margins)
    allowed = binomial_quantile(len(all_margins), 1.0 - confidence, 0.999)
    print(f"{misses} of {len(all_margins)} totals below the truth (at most "
          f"{allowed} allowed); smallest margin {min(all_margins):.4f}")
    assert misses <= allowed


def test_certified_totals_rarely_fall_below_the_true_gain():
    assert_rarely_below_the_truth(
        (job(shade), analytic_fpsb_loss(2, shade).value) for shade in SHADES)


def test_ex_ante_totals_rarely_fall_below_the_true_gain():
    # one cell, and four equal cells
    partitions = [{"cells": [{"lo": [k / m], "hi": [(k + 1) / m]}
                             for k in range(m)]} for m in (1, 4)]
    assert_rarely_below_the_truth(
        (job(shade, partition=partition),
         analytic_fpsb_ex_ante_loss(2, shade).value)
        for partition in partitions for shade in SHADES)


def test_three_bidder_totals_rarely_fall_below_the_true_gain():
    assert_rarely_below_the_truth(
        (job(shade, n_agents=3), analytic_fpsb_loss(3, shade).value)
        for shade in SHADES)


def correlated_ex_ante_gain():
    """Agent 0's exact ex ante gain in the two-bidder first-price game under
    the correlated common-value prior, both bidding their observation.

    Given agent 0's observation s, with L = -ln s, the common value theta
    has density 1 / (theta L) on (s, 1], and the opponent's bid is
    theta * U with U uniform, so bid b earns u(s, b) = g(s, b) / L with
      g = b (b + L - b / s)                            for b <= s,
      g = (b - s) - b ln(b / s) + b (b - ln b - 1)     for b > s.
    g is concave in b, with derivative L at 0 and -L at 1, so its maximum
    sits at the root of the derivative. s has density L, so the gain is the
    integral over s of max_b g(s, b) - g(s, s), with g(s, s) = s (s - 1 + L).
    """
    def slope(s, b):
        log_s = math.log(s)
        if b <= s:
            return 2.0 * b * (1.0 - 1.0 / s) - log_s
        return log_s - 2.0 * math.log(b) - 2.0 + 2.0 * b

    def g(s, b):
        log_s = math.log(s)
        if b <= s:
            return b * (b - log_s - b / s)
        return (b - s) - b * (math.log(b) - log_s) + b * (b - math.log(b) - 1)

    def gain(s):
        best = brentq(lambda b: slope(s, b), 1e-300, 1.0, xtol=1e-15)
        return g(s, best) - g(s, s)

    return quad(gain, 0.0, 1.0, limit=200)[0]


def test_correlated_ex_ante_totals_rarely_fall_below_the_true_gain():
    # configs/correlated_demo.json, its 8-cell partition and derived taus,
    # with the records and grid width of the jobs above
    config = load_config(str(CONFIGS / "correlated_demo.json"),
                         {"n_records": N_RECORDS, "grid_w": WIDTH})
    truth = correlated_ex_ante_gain()
    assert truth == pytest.approx(0.018211, abs=1e-6)
    assert_rarely_below_the_truth([(config, truth)])
