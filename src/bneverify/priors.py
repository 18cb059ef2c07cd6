"""Prior models: independent product samplers and a correlated
common-value demo model.

Each model derives the density bounds (kappa) and per-cell conditional
total-variation radii (tau) that the certified error terms consume,
analytically or by quadrature; a config cannot declare them next to a
prior. Recorded datasets have no prior: their tau and kappa must be
declared by the user and are flagged as such.

Sampling uses a counter-based generator (Philox) with one spawned stream per
agent plus one shared stream, so datasets are reproducible across platforms
and may be regenerated in parallel without changing results.
"""
import math

import numpy as np

from .model import (Cell, Dataset, Partition, is_integer, json_value,
                    known_keys, number)

__all__ = [
    "Uniform",
    "Beta",
    "IndependentProduct",
    "CorrelatedCommonValue",
    "sample_dataset",
    "tv_profile",
    "tv_integral_bound",
    "prior_from_dict",
]

# midpoint-rule panels per piece in CorrelatedCommonValue.tv_pair; a power
# of 2, so that _halving_sum adds them in a fixed order, not numpy's
_TV_PANELS = 4096
# rows per block of CorrelatedCommonValue.sample's uniform draws
_DRAW_BLOCK = 1 << 15


def _halving_sum(x: np.ndarray) -> float:
    """The sum of 2**k floats, adding neighbouring pairs until one is left."""
    while len(x) > 1:
        x = x[0::2] + x[1::2]
    return float(x[0])


class Uniform:
    """Uniform marginal on [a, b] inside [0, 1]."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        a, b = float(a), float(b)
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("uniform support must satisfy 0 <= a < b <= 1")
        self.a = a
        self.b = b

    @property
    def density_max(self) -> float:
        return 1.0 / (self.b - self.a)

    def density(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def sample(self, rng, size):
        return self.a + (self.b - self.a) * rng.random(size)


class Beta:
    """Beta(alpha, beta) marginal with alpha, beta >= 1 (bounded density)."""

    def __init__(self, alpha: float, beta: float):
        alpha, beta = float(alpha), float(beta)
        if alpha < 1.0 or beta < 1.0:
            raise ValueError(
                "beta marginal needs alpha, beta >= 1 for a bounded density")
        self.alpha = alpha
        self.beta = beta
        self._log_norm = (math.lgamma(alpha) + math.lgamma(beta)
                          - math.lgamma(alpha + beta))

    @property
    def density_max(self) -> float:
        a, b = self.alpha, self.beta
        if a == 1.0 and b == 1.0:
            return 1.0
        if a == 1.0:
            return b  # decreasing density, peak at 0
        if b == 1.0:
            return a  # increasing density, peak at 1
        mode = (a - 1.0) / (a + b - 2.0)
        return float(self.density(mode))

    def density(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            # 0 * log 0 is 0: a unit shape adds no term, so the density
            # keeps its value at the endpoint where that term's log is -inf
            log_pdf = 0.0
            if self.alpha != 1.0:
                log_pdf = (self.alpha - 1.0) * np.log(x)
            if self.beta != 1.0:
                log_pdf = log_pdf + (self.beta - 1.0) * np.log1p(-x)
            pdf = np.exp(log_pdf - self._log_norm)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, np.nan_to_num(pdf, posinf=0.0), 0.0)

    def sample(self, rng, size):
        return rng.beta(self.alpha, self.beta, size)


def _order_statistic_factor(m: int) -> int:
    # density of any order statistic of m iid draws is at most
    # m * C(m-1, k) * f_max; the central binomial coefficient covers every k
    return m * math.comb(m - 1, (m - 1) // 2)


class IndependentProduct:
    """Independent private values: per-agent, per-coordinate 1-D marginals.

    With sort_desc=True each agent's coordinates are sorted in decreasing
    order after sampling (marginal-value vectors for the multi-unit
    auctions); the declared density bound then carries an order-statistic
    factor.
    """

    def __init__(self, marginals, sort_desc: bool = False):
        self.marginals = [list(per_agent) for per_agent in marginals]
        if len(self.marginals) < 2:
            raise ValueError("need marginals for at least two agents")
        dims = {len(per_agent) for per_agent in self.marginals}
        if len(dims) != 1:
            raise ValueError("all agents must share the observation dimension")
        self.dim = dims.pop()
        if self.dim < 1:
            raise ValueError("observation dimension must be positive")
        self.sort_desc = bool(sort_desc)

    @property
    def n_agents(self) -> int:
        return len(self.marginals)

    def kappa(self, agent: int, cell: Cell = None) -> float:
        """Any opponent's per-coordinate density bound, whatever the cell:
        the largest density over the opponents' marginals, times the
        order-statistic factor when sorted coordinates carry one."""
        worst = max(m.density_max for j, per_agent in enumerate(self.marginals)
                    if j != agent for m in per_agent)
        if self.sort_desc and self.dim > 1:
            worst *= _order_statistic_factor(self.dim)
        return worst

    def sample(self, n_records: int, seed: int):
        streams = _agent_streams(seed, self.n_agents)
        obs = np.empty((n_records, self.n_agents, self.dim), dtype=np.float64)
        for i in range(self.n_agents):
            for d, marginal in enumerate(self.marginals[i]):
                obs[:, i, d] = marginal.sample(streams[i], n_records)
        if self.sort_desc:
            obs = np.sort(obs, axis=2)[:, :, ::-1].copy()
        return obs, obs   # private values: one array serves both fields

    def tv_radius(self, cell: Cell) -> float:
        # conditioning on an independent coordinate leaves opponents unchanged
        return 0.0


class CorrelatedCommonValue:
    """Correlated demo model: one common value, noisy per-agent observations.

    The common value theta is Uniform[0,1] and every agent values the good at
    theta. Raw signals are independent Uniform[0, 2*theta] per agent, stored
    rescaled by 1/2 so observations live in [0, theta] inside [0,1].

    Closed conditional structure (all for the stored scale):
      * observation marginal density  -log(s);
      * value posterior given s:      1/(theta * (-log s)) on (s, 1];
      * opponent observation density given s_i = s:
        (1/max(s, t) - 1) / (-log s), maximized at t <= s.
    """

    def __init__(self, n_agents: int = 2):
        if not is_integer(n_agents) or n_agents < 2:
            raise ValueError("need at least two agents, as an integer")
        self.n_agents = n_agents
        self.dim = 1

    def sample(self, n_records: int, seed: int):
        """Each agent's uniforms are drawn _DRAW_BLOCK at a time into one
        reused buffer and multiplied into its observation column in place;
        a stream drawn in blocks gives the same floats as one draw. Every
        agent values the good at theta, so vals is a read-only broadcast of
        the theta column, not one copy per agent."""
        streams = _agent_streams(seed, self.n_agents + 1)
        common = streams[self.n_agents]
        theta = common.random(n_records)
        obs = np.empty((n_records, self.n_agents, 1), dtype=np.float64)
        draw = np.empty(min(n_records, _DRAW_BLOCK), dtype=np.float64)
        for i in range(self.n_agents):
            for lo in range(0, n_records, _DRAW_BLOCK):
                hi = min(lo + _DRAW_BLOCK, n_records)
                uniforms = streams[i].random(out=draw[:hi - lo])
                np.multiply(theta[lo:hi], uniforms, out=obs[lo:hi, i, 0])
        return obs, np.broadcast_to(theta[:, None, None], obs.shape)

    def posterior_density(self, s: float):
        """Density of the common value given a stored observation s."""
        if not (0.0 < s < 1.0):
            raise ValueError("posterior defined for observations in (0, 1)")
        c = -math.log(s)

        def pdf(theta):
            theta = np.asarray(theta, dtype=np.float64)
            return np.where(theta > s, 1.0 / (theta * c), 0.0)

        return pdf

    def opponent_density_bound(self, s: float) -> float:
        """Sup over t of the conditional opponent observation density at s_i=s."""
        if s <= 0.0:
            return math.inf
        if s >= 1.0:
            return 0.0
        return (1.0 / s - 1.0) / (-math.log(s))

    def kappa(self, agent: int, cell: Cell = None) -> float:
        """Opponent density bound conditional on a 1-D cell; None without one.

        The pointwise bound decreases in the conditioning observation, so the
        cell supremum sits at the lower edge; a cell touching 0 has no finite
        bound.
        """
        if cell is None:
            return None
        lo = float(cell.lo[0])
        if lo <= 0.0:
            return math.inf
        return self.opponent_density_bound(lo)

    def tv_pair(self, s_lo: float, s_hi: float) -> float:
        """TV distance between value posteriors at two observations.

        Piecewise midpoint quadrature aligned with the support edges, where
        the integrand is smooth. Both pieces integrate a convex function of
        the value, which the midpoint rule underestimates, so the result
        lies slightly below the exact distance 1 - ln(s_hi)/ln(s_lo).
        """
        if not (0.0 < s_lo < s_hi < 1.0):
            raise ValueError("tv_pair needs 0 < s_lo < s_hi < 1")
        c_lo = -math.log(s_lo)
        c_hi = -math.log(s_hi)
        panels = _TV_PANELS
        # on (s_lo, s_hi] only the low posterior has mass
        mid1 = s_lo + (np.arange(panels) + 0.5) * (s_hi - s_lo) / panels
        part1 = _halving_sum(1.0 / (mid1 * c_lo)) * (s_hi - s_lo) / panels
        # on (s_hi, 1] the high posterior dominates pointwise
        mid2 = s_hi + (np.arange(panels) + 0.5) * (1.0 - s_hi) / panels
        gap = 1.0 / (mid2 * c_hi) - 1.0 / (mid2 * c_lo)
        part2 = _halving_sum(gap) * (1.0 - s_hi) / panels
        return 0.5 * (part1 + part2)

    def tv_radius(self, cell: Cell) -> float:
        """Certified TV radius of a 1-D cell.

        The radius bounds the TV distance between the joint conditional laws
        of (value, opponent observations) at any two observations in the
        cell. Given the value, opponent observations are independent of the
        conditioning observation, so mixing through that common kernel cannot
        increase TV and the value-posterior distance is an upper bound.

        A degenerate cell (lo == hi) holds one observation and gets radius
        0. Other cells touching 0 or 1 get radius 1 (the posterior family
        degenerates at both ends: unbounded density at 0, a point mass in
        the limit at 1). Elsewhere the radius is tv_pair at the cell's
        corner pair (lo, hi). For observations s < t in (0, 1) the exact distance is
        1 - ln(t)/ln(s), which rises as s falls (ln(s) grows in magnitude)
        and as t rises (ln(t) shrinks toward 0), so over pairs in the cell
        it is largest at s = lo, t = hi. Since tv_pair falls short of the
        exact distance, so does this radius, by a relative 1.3e-9 to 9.1e-8
        on the interior cells of configs/correlated_partition.json; the
        closed form 1 - ln(hi)/ln(lo) would be exact.
        """
        lo = float(cell.lo[0])
        hi = float(cell.hi[0])
        if lo == hi:
            return 0.0
        if lo <= 0.0 or hi >= 1.0:
            return 1.0
        return self.tv_pair(lo, hi)


def _agent_streams(seed: int, count: int):
    children = np.random.SeedSequence(int(seed)).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def sample_dataset(prior, profile, n_records: int, seed: int) -> Dataset:
    """Draw n_records joint samples and map observations to bids."""
    if n_records < 1:
        raise ValueError("need at least one record")
    obs, vals = prior.sample(n_records, seed)
    bids = profile.apply_all(obs)
    return Dataset(obs, vals, bids, seed=int(seed))


def tv_profile(prior, partition: Partition) -> tuple:
    """Each cell's tau, the prior's tv_radius."""
    return tuple(float(prior.tv_radius(cell)) for cell in partition.cells)


def tv_integral_bound(g_sup: float, tau: float) -> float:
    """Bound on |integral of g d(mu - nu)| via the TV distance: 2*sup|g|*tau."""
    if g_sup < 0.0:
        raise ValueError("g_sup must be nonnegative")
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0,1]")
    return 2.0 * g_sup * tau


# per marginal kind: its builder and the keys its object may hold
_MARGINALS = {
    "uniform": (lambda d: Uniform(number(d.get("a", 0.0), "a"),
                                  number(d.get("b", 1.0), "b")),
                ("kind", "a", "b")),
    "beta": (lambda d: Beta(number(d["alpha"], "alpha"),
                            number(d["beta"], "beta")),
             ("kind", "alpha", "beta")),
}


def marginal_from_dict(d: dict):
    kind = json_value(json_value(d, dict, "marginal").get("kind"), str,
                      "marginal kind")
    if kind not in _MARGINALS:
        raise ValueError(f"unknown marginal kind: {kind!r}")
    build, keys = _MARGINALS[kind]
    marginal = build(d)
    known_keys(d, keys, f"the {kind} marginal")
    return marginal


def prior_from_dict(d: dict, n_agents: int = None):
    kind = json_value(d, dict, "prior").get("kind")
    if kind == "independent_product":
        marginals = [[marginal_from_dict(m)
                      for m in json_value(per_agent, list, f"marginals[{i}]")]
                     for i, per_agent in enumerate(
                         json_value(d["marginals"], list, "marginals"))]
        sort_desc = d.get("sort_desc", False)
        if not isinstance(sort_desc, bool):
            raise ValueError("sort_desc must be true or false")
        prior = IndependentProduct(marginals, sort_desc=sort_desc)
        keys = ("kind", "marginals", "sort_desc")
    elif kind == "correlated_common_value":
        prior = CorrelatedCommonValue(d.get("n_agents", n_agents or 2))
        keys = ("kind", "n_agents")
    else:
        raise ValueError(f"unknown prior kind: {kind!r}")
    known_keys(d, keys, f"the {kind} prior")
    if n_agents is not None and prior.n_agents != n_agents:
        raise ValueError(
            f"prior declares {prior.n_agents} agents, game has {n_agents}")
    return prior
