"""Bid-mapping strategies with certified forward/inverse Lipschitz constants.

A strategy maps observations in [0,1] to bids in [0,1], coordinatewise for
multi-dimensional observations. Certification means both the map and its
inverse have finite Lipschitz constants; strategies that fail this (for
example power maps with exponent above one, whose inverse slope blows up at
zero) are still usable for estimation but every dispersion-based guarantee is
flagged as invalid.
"""
import math
from dataclasses import dataclass

import numpy as np

from .model import is_integer, json_value, known_keys, number, numbers

__all__ = [
    "Strategy",
    "Identity",
    "LinearShade",
    "Power",
    "PiecewiseLinearMonotone",
    "StrategyProfile",
    "strategy_from_dict",
    "profile_from_config",
    "FLAG_UNCERTIFIED",
]

FLAG_UNCERTIFIED = "uncertified: dispersion constants invalid"


class Strategy:
    """Base class: strictly monotone coordinatewise bid map on [0,1]."""

    def apply(self, o):
        raise NotImplementedError

    def lipschitz_constants(self):
        """Return (L_fwd, L_inv); raises ValueError when not bi-Lipschitz."""
        raise NotImplementedError

    @property
    def certified(self) -> bool:
        try:
            self.lipschitz_constants()
            return True
        except ValueError:
            return False


class Identity(Strategy):
    def apply(self, o):
        return np.asarray(o, dtype=np.float64)

    def lipschitz_constants(self):
        return (1.0, 1.0)


class LinearShade(Strategy):
    """b = c * o with shading factor c in (0, 1]."""

    def __init__(self, c: float):
        c = float(c)
        if not (0.0 < c <= 1.0):
            raise ValueError("shading factor must lie in (0, 1]")
        self.c = c

    def apply(self, o):
        return self.c * np.asarray(o, dtype=np.float64)

    def lipschitz_constants(self):
        return (self.c, 1.0 / self.c)


class Power(Strategy):
    """b = o ** p with p >= 1. For p > 1 the inverse slope is unbounded at
    zero, so the strategy cannot be certified."""

    def __init__(self, p: float):
        p = float(p)
        if p < 1.0:
            raise ValueError("exponent must be at least 1")
        self.p = p

    def apply(self, o):
        return np.asarray(o, dtype=np.float64) ** self.p

    def lipschitz_constants(self):
        if self.p == 1.0:
            return (1.0, 1.0)
        raise ValueError(
            "not bi-Lipschitz: inverse slope of the power map is unbounded at 0")


class PiecewiseLinearMonotone(Strategy):
    """Piecewise-linear monotone map through (xs, ys) breakpoints.

    xs must be strictly increasing from 0 to 1; ys non-decreasing in [0,1].
    Zero-slope segments are representable but not certifiable.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise ValueError("xs and ys must be 1-D of equal length >= 2")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("xs must be strictly increasing")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("xs must start at 0 and end at 1")
        if np.any(np.diff(ys) < 0.0):
            raise ValueError("ys must be non-decreasing")
        if ys[0] < 0.0 or ys[-1] > 1.0:
            raise ValueError("ys must stay inside [0, 1]")
        self.xs = xs
        self.ys = ys

    def apply(self, o):
        return np.interp(np.asarray(o, dtype=np.float64), self.xs, self.ys)

    def lipschitz_constants(self):
        # a subnormal run or slope overflows to an infinite constant, which
        # is the honest bound, so numpy's overflow warning is off here
        with np.errstate(over="ignore"):
            slopes = np.diff(self.ys) / np.diff(self.xs)
            if np.any(slopes <= 0.0):
                raise ValueError("not bi-Lipschitz: zero slope segment")
            return (float(slopes.max()), float(1.0 / slopes.min()))


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy per agent; aggregate constants are always recomputed."""
    strategies: tuple

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.strategies) < 2:
            raise ValueError("profile needs at least two agents")

    def __len__(self):
        return len(self.strategies)

    def __getitem__(self, i) -> Strategy:
        return self.strategies[i]

    @property
    def certified(self) -> bool:
        return all(s.certified for s in self.strategies)

    @property
    def l_inv_max(self) -> float:
        """The largest inverse slope bound, at least 1; inf if uncertified."""
        return max([1.0] + [s.lipschitz_constants()[1] if s.certified
                            else math.inf for s in self.strategies])

    def l_fwd(self, agent: int) -> float:
        """The agent's forward slope bound; None if its map is uncertified."""
        s = self.strategies[agent]
        return s.lipschitz_constants()[0] if s.certified else None

    def apply_all(self, obs: np.ndarray) -> np.ndarray:
        """Map observations (N, n_agents, dim) to bids of the same shape.
        Under an all-identity profile the bids are obs itself, not a copy."""
        obs = np.asarray(obs, dtype=np.float64)
        if all(type(s) is Identity for s in self.strategies):
            return obs
        bids = np.empty_like(obs)
        for i, s in enumerate(self.strategies):
            bids[:, i, :] = s.apply(obs[:, i, :])
        return bids


# per family: its builder and the keys its params may hold
_FAMILIES = {
    "identity": (lambda p: Identity(), ()),
    "linear_shade": (lambda p: LinearShade(number(p["c"], "c")), ("c",)),
    "power": (lambda p: Power(number(p["p"], "p")), ("p",)),
    "piecewise_linear": (lambda p: PiecewiseLinearMonotone(
        numbers(p["xs"], "xs"), numbers(p["ys"], "ys")), ("xs", "ys")),
}


def strategy_from_dict(d: dict) -> Strategy:
    family = json_value(d.get("family"), str, "strategy family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown strategy family: {family!r}")
    build, keys = _FAMILIES[family]
    params = json_value(d.get("params", {}), dict, "params")
    strategy = build(params)
    known_keys(params, keys, f"params of {family}")
    return strategy


def profile_from_config(entries, n_agents: int) -> StrategyProfile:
    """Build a profile from a list of {"agent": i, "family": ..., "params": ...}.

    Nothing is allocated per agent until every agent has an entry, so a
    short list for a huge n_agents fails at once; at most ten missing
    agents are listed.
    """
    slots = {}
    for entry in entries:
        i = json_value(entry, dict, "strategy entry")["agent"]
        if not (is_integer(i) and 0 <= i < n_agents):
            raise ValueError(f"strategy entry for unknown agent {i!r}")
        if i in slots:
            raise ValueError(f"duplicate strategy entry for agent {i}")
        slots[i] = strategy_from_dict(entry)
        known_keys(entry, ("agent", "family", "params"),
                   f"the strategy entry for agent {i}")
    if len(slots) < n_agents:
        # the first ten missing agents lie below len(slots) + 10
        missing = [i for i in range(min(n_agents, len(slots) + 10))
                   if i not in slots][:10]
        more = n_agents - len(slots) - len(missing)
        raise ValueError(f"missing strategy for agents {missing}"
                         + (f" and {more} more" if more else ""))
    return StrategyProfile(tuple(slots[i] for i in range(n_agents)))
