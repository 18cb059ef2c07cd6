"""Certified totals against a known truth. In single-item first price with
two bidders and uniform values, against an opponent at the equilibrium
shade c* = 1/2, oracle.analytic_fpsb_loss gives a linear shade's exact ex
interim gain. A certificate holds with the report's confidence, so across
independent runs the totals may fall below the truth only about as often
as its failure probability allows."""
import math

from bneverify.bounds import assemble_interim
from bneverify.cli import parse_config
from bneverify.estimator import estimate_ex_interim
from bneverify.model import make_grid
from bneverify.oracle import analytic_fpsb_loss
from bneverify.priors import sample_dataset

UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}
SHADES = (0.3, 0.5, 0.8)    # agent 0's; agent 1 plays c* = 0.5
SEEDS = range(40)           # per shade, fixed before any run
N_RECORDS, WIDTH, DELTA_TOTAL = 2000, 0.02, 0.05


def job(shade):
    return parse_config({
        "game": {"n_agents": 2,
                 "mechanism": {"kind": "first_price_single_item"}},
        "mode": "ex_interim",
        "prior": {"kind": "independent_product",
                  "marginals": [[UNIFORM], [UNIFORM]]},
        "strategies": [
            {"agent": 0, "family": "linear_shade", "params": {"c": shade}},
            {"agent": 1, "family": "linear_shade", "params": {"c": 0.5}}],
        "grid_w": WIDTH, "delta_total": DELTA_TOTAL,
        "n_records": N_RECORDS, "seed": 0})


def binomial_quantile(n, p, q):
    """The smallest k with P(Binomial(n, p) <= k) >= q."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        if cdf >= q:
            return k
    return n


def test_certified_totals_rarely_fall_below_the_true_gain():
    grid = make_grid(1, WIDTH)
    margins = []
    for shade in SHADES:
        config = job(shade)
        truth = analytic_fpsb_loss(2, shade).value
        for seed in SEEDS:
            ds = sample_dataset(config.prior_model, config.profile, N_RECORDS,
                                seed)
            est = estimate_ex_interim(ds, config.profile, grid, config.game, 0)
            bound = assemble_interim(est, config.specs[0], config.game, WIDTH,
                                     DELTA_TOTAL)
            margins.append(bound.total - truth)
    failure = 1.0 - bound.payload["confidence"]
    misses = sum(m < 0.0 for m in margins)
    allowed = binomial_quantile(len(margins), failure, 0.999)
    print(f"{misses} of {len(margins)} totals below the truth (at most "
          f"{allowed} allowed); smallest margin {min(margins):.4f}")
    assert misses <= allowed
