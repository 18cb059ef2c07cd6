"""Batch entry point: parse a run config, generate or load a dataset, run
the estimators, assemble certified bounds, and emit reports and plot data.

Exit codes: 0 success, 2 config/validation error, 3 run succeeded but every
agent's certified bound is vacuous (> 2 in normalized units).

Determinism: reports embed the config hash and dataset hash, never
timestamps; report bytes are identical across reruns and worker counts.
"""
import argparse
import csv
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import bounds as bounds_mod
from . import priors as priors_mod
from .estimator import (estimate_ex_ante, estimate_ex_interim, worker_count)
from .model import (Dataset, GameConfig, MECHANISM_KINDS, MechanismSpec,
                    Partition, canonical_json, config_hash, file_hash,
                    load_dataset, make_grid)
from .oracle import analytic_fpsb_loss
from .strategies import (FLAG_UNCERTIFIED, StrategyProfile,
                         profile_from_config, pushforward_density_bound)

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunReport",
    "parse_config",
    "load_config",
    "run",
    "emit_plot_data",
    "emit_density_diagnostic",
    "main",
]

FLAG_DECLARED_KAPPA = "kappa declared, not derived"
KAPPA_REQUIRED = "kappa is required: declare it or provide a built-in prior"
KAPPA_REQUIRED_PER_CELL = ("kappa is required: declare it per cell or provide "
                           "a built-in prior")
FLAG_DECLARED_LINV = "inverse Lipschitz bound declared, not derived"


class ConfigError(ValueError):
    """Validation failure with the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _require(cond, field, message):
    if not cond:
        raise ConfigError(field, message)


class RunConfig:
    """Resolved run configuration; to_dict() round-trips byte-identically
    through parse_config (defaults filled, stable key order)."""

    def __init__(self, game, mode, prior, dataset, strategies, partition,
                 grid_w, delta_total, n_records, seed, kappa, l_inv_max,
                 pdim_constant, disp_constant, out_dir):
        self.game = game              # GameConfig
        self.mode = mode
        self.prior = prior            # raw dict or None
        self.dataset = dataset        # path or None
        self.strategies = strategies  # list of entries or "bids-only"
        self.partition = partition    # list of partition dicts or None
        self.grid_w = grid_w          # float or list of floats
        self.delta_total = delta_total
        self.n_records = n_records
        self.seed = seed
        self.kappa = kappa            # declared density bound or None
        self.l_inv_max = l_inv_max    # declared inverse slope bound or None
        self.pdim_constant = pdim_constant
        self.disp_constant = disp_constant
        self.out_dir = out_dir

    def to_dict(self) -> dict:
        mech = self.game.mechanism
        return {
            "game": {
                "n_agents": self.game.n_agents,
                "mechanism": {"kind": mech.kind, "items": mech.items,
                              "units": mech.units},
                "utility_scale": self.game.utility_scale,
            },
            "mode": self.mode,
            "prior": self.prior,
            "dataset": self.dataset,
            "strategies": self.strategies,
            "partition": self.partition,
            "grid_w": self.grid_w,
            "delta_total": self.delta_total,
            "n_records": self.n_records,
            "seed": self.seed,
            "kappa": self.kappa,
            "l_inv_max": self.l_inv_max,
            "pdim_constant": self.pdim_constant,
            "disp_constant": self.disp_constant,
            "out_dir": self.out_dir,
        }

    def hash(self) -> str:
        d = self.to_dict()
        d.pop("out_dir")  # output location must not change the result hash
        return config_hash(d)


def _parse_game(d) -> GameConfig:
    _require(isinstance(d, dict), "game", "game must be an object")
    n = d.get("n_agents")
    _require(isinstance(n, int) and n >= 2, "game.n_agents",
             "game.n_agents must be an integer >= 2")
    mech_d = d.get("mechanism")
    _require(isinstance(mech_d, dict), "game.mechanism",
             "game.mechanism must be an object")
    kind = mech_d.get("kind")
    _require(kind in MECHANISM_KINDS, "game.mechanism.kind",
             f"game.mechanism.kind must be one of {sorted(MECHANISM_KINDS)}")
    items = mech_d.get("items", 0)
    units = mech_d.get("units", 1)
    _require(isinstance(items, int) and items >= 0, "game.mechanism.items",
             "game.mechanism.items must be a nonnegative integer")
    _require(isinstance(units, int) and units >= 1, "game.mechanism.units",
             "game.mechanism.units must be a positive integer")
    if kind == "first_price_combinatorial":
        _require(items >= 1, "game.mechanism.items",
                 "game.mechanism.items must be >= 1 for the combinatorial rule")
    mech = MechanismSpec(kind=kind, items=items, units=units)
    scale = d.get("utility_scale")
    if scale is not None:
        _require(isinstance(scale, (int, float)) and scale > 0,
                 "game.utility_scale", "game.utility_scale must be positive")
        return GameConfig(n_agents=n, mechanism=mech,
                          utility_scale=float(scale))
    return GameConfig(n_agents=n, mechanism=mech)


def _parse_partition_entry(entry, field):
    _require(isinstance(entry, dict), field, f"{field} must be an object")
    _require("cells" in entry, field, f"{field} must contain a cells list")
    entry = dict(entry)
    entry.setdefault("agent", 0)
    try:
        cells = Partition.from_dict(entry).cells
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(field, f"invalid partition: {exc}")
    # a tiling: some axis separates every pair of boxes, and their exact
    # volumes add up to the unit cube's
    lo = np.array([c.lo for c in cells])
    hi = np.array([c.hi for c in cells])
    for k in range(len(cells) - 1):
        apart = (hi[k] <= lo[k + 1:]) | (hi[k + 1:] <= lo[k])
        clash = np.flatnonzero(~apart.any(axis=1))
        if clash.size:
            raise ConfigError(field, f"invalid partition: cells {k} and "
                                     f"{k + 1 + clash[0]} overlap")
    volume = sum(math.prod(Fraction(b) - Fraction(a)
                           for a, b in zip(c.lo, c.hi)) for c in cells)
    _require(volume == 1, field,
             f"invalid partition: cell volumes sum to {float(volume)!r}, "
             "not 1, so the cells leave a gap")
    return entry


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    """Validate a raw config dict; errors carry the offending field path."""
    _require(isinstance(raw, dict), "config", "config must be a JSON object")
    game = _parse_game(raw.get("game"))

    mode = raw.get("mode", "ex_interim")
    _require(mode in ("ex_interim", "ex_ante"), "mode",
             "mode must be ex_interim or ex_ante")

    delta_total = raw.get("delta_total")
    _require(isinstance(delta_total, (int, float)), "delta_total",
             "delta_total must lie in (0,1)")
    _require(0.0 < float(delta_total) < 1.0, "delta_total",
             "delta_total must lie in (0,1)")
    delta_total = float(delta_total)

    grid_w = raw.get("grid_w")
    if isinstance(grid_w, (int, float)):
        _require(0.0 < float(grid_w) <= 1.0, "grid_w",
                 "grid_w must lie in (0, 1]")
        grid_w = float(grid_w)
    elif isinstance(grid_w, list) and grid_w:
        for j, w in enumerate(grid_w):
            _require(isinstance(w, (int, float)) and 0.0 < float(w) <= 1.0,
                     f"grid_w[{j}]", "grid widths must lie in (0, 1]")
        grid_w = [float(w) for w in grid_w]
    else:
        raise ConfigError("grid_w",
                          "grid_w must be a number or a nonempty list")

    prior = raw.get("prior")
    dataset = raw.get("dataset")
    _require((prior is None) != (dataset is None), "prior",
             "exactly one of prior and dataset must be given")
    if prior is not None:
        try:
            priors_mod.prior_from_dict(prior, game.n_agents)
        except ValueError as exc:
            raise ConfigError("prior", str(exc))
        n_records = raw.get("n_records")
        _require(isinstance(n_records, int) and n_records >= 1, "n_records",
                 "n_records must be a positive integer in simulation mode")
        seed = raw.get("seed")
        _require(isinstance(seed, int) and seed >= 0, "seed",
                 "seed must be a nonnegative integer in simulation mode")
    else:
        _require(isinstance(dataset, str), "dataset",
                 "dataset must be a file path")
        dataset = os.path.normpath(os.path.join(base_dir, dataset))
        n_records = None
        seed = raw.get("seed")

    strategies = raw.get("strategies")
    if strategies == "bids-only":
        _require(dataset is not None, "strategies",
                 "strategies 'bids-only' requires a dataset path")
    else:
        _require(isinstance(strategies, list), "strategies",
                 "strategies must be a list of entries or 'bids-only'")
        try:
            profile_from_config(strategies, game.n_agents)
        except ValueError as exc:
            raise ConfigError("strategies", str(exc))
        if prior is None and mode == "ex_interim":
            pass  # external data with a known profile is fine
    if prior is None and strategies == "bids-only":
        _require(mode != "ex_ante" or raw.get("partition") is not None,
                 "partition", "mode ex_ante requires a partition")

    partition = raw.get("partition")
    if mode == "ex_ante":
        _require(partition is not None, "partition",
                 "mode ex_ante requires a partition")
        if isinstance(partition, str):
            path = os.path.normpath(os.path.join(base_dir, partition))
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    partition = json.load(fh)
            except OSError as exc:
                raise ConfigError("partition",
                                  f"cannot read partition file: {exc}")
        if isinstance(partition, dict):
            partition = [partition]
        _require(isinstance(partition, list) and partition, "partition",
                 "partition must be an object, list, or file path")
        partition = [
            _parse_partition_entry(p, f"partition[{j}]")
            for j, p in enumerate(partition)]
        _require(len(partition) in (1, game.n_agents), "partition",
                 "partition must have one entry or one per agent")
        if prior is None:
            # tau is derived from the prior; recorded data has none
            for j, entry in enumerate(partition):
                for k, cell in enumerate(entry["cells"]):
                    _require(cell.get("tau") is not None,
                             f"partition[{j}].cells[{k}].tau",
                             "tau must be declared for every cell when the "
                             "records come from a dataset")
    else:
        partition = None
        if prior is not None and prior.get("kind") == "correlated_common_value":
            raise ConfigError(
                "mode", "mode ex_interim requires independent private values")

    kappa = raw.get("kappa")
    if kappa is not None:
        _require(isinstance(kappa, (int, float)) and kappa > 0, "kappa",
                 "kappa must be positive")
        kappa = float(kappa)
    else:
        # without a declared kappa the prior must supply one
        kind = prior.get("kind") if prior is not None else None
        if mode == "ex_interim":
            _require(kind == "independent_product", "kappa", KAPPA_REQUIRED)
        else:
            _require(kind in ("independent_product", "correlated_common_value")
                     or all(cell.get("kappa") is not None
                            for entry in partition for cell in entry["cells"]),
                     "kappa", KAPPA_REQUIRED_PER_CELL)
    l_inv_max = raw.get("l_inv_max")
    if l_inv_max is not None:
        _require(isinstance(l_inv_max, (int, float)) and l_inv_max > 0,
                 "l_inv_max", "l_inv_max must be positive")
        l_inv_max = float(l_inv_max)

    pdim_constant = float(raw.get("pdim_constant", 1.0))
    _require(pdim_constant > 0, "pdim_constant",
             "pdim_constant must be positive")
    disp_constant = float(raw.get("disp_constant", 1.0))
    _require(disp_constant > 0, "disp_constant",
             "disp_constant must be positive")

    out_dir = raw.get("out_dir", "out")
    _require(isinstance(out_dir, str) and out_dir, "out_dir",
             "out_dir must be a nonempty path")

    return RunConfig(game=game, mode=mode, prior=prior, dataset=dataset,
                     strategies=strategies, partition=partition,
                     grid_w=grid_w, delta_total=delta_total,
                     n_records=n_records, seed=seed, kappa=kappa,
                     l_inv_max=l_inv_max, pdim_constant=pdim_constant,
                     disp_constant=disp_constant, out_dir=out_dir)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def _array_hash(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _json_safe(obj):
    # report floats must serialize to strict JSON; infinities become strings
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


class RunReport:
    """In-memory run result: the JSON payload plus per-agent plot arrays."""

    def __init__(self, payload: dict, plots: dict, vacuous: bool):
        self.payload = payload
        self.plots = plots      # agent -> (points (K, d), gains (K,))
        self.vacuous = vacuous

    def to_json(self) -> str:
        return json.dumps(_json_safe(self.payload), indent=2,
                          allow_nan=False) + "\n"


def _resolve_profile(config: RunConfig):
    if config.strategies == "bids-only":
        return None
    return profile_from_config(config.strategies, config.game.n_agents)


def _resolve_dataset(config: RunConfig, prior, profile):
    if config.dataset is not None:
        ds = load_dataset(config.dataset, config.game)
        return ds, file_hash(config.dataset)
    ds = priors_mod.sample_dataset(prior, profile, config.n_records,
                                   config.seed)
    return ds, _array_hash(ds.obs, ds.vals, ds.bids)


def _agent_kappa(config: RunConfig, prior, agent: int):
    """Opponent prior density bound for the ex interim route."""
    if prior is not None and isinstance(prior, priors_mod.IndependentProduct):
        return prior.kappa_opponents(agent), None
    if config.kappa is not None:
        return config.kappa, FLAG_DECLARED_KAPPA
    raise ConfigError("kappa", KAPPA_REQUIRED)


def _cell_kappa(config: RunConfig, prior, agent: int, cell):
    if cell.kappa is not None:
        return cell.kappa, FLAG_DECLARED_KAPPA
    if isinstance(prior, priors_mod.IndependentProduct):
        return prior.kappa_opponents(agent), None
    if isinstance(prior, priors_mod.CorrelatedCommonValue):
        return prior.kappa_cell(cell), None
    if config.kappa is not None:
        return config.kappa, FLAG_DECLARED_KAPPA
    raise ConfigError("kappa", KAPPA_REQUIRED_PER_CELL)


def _lipschitz_inputs(config: RunConfig, profile):
    flags = []
    if profile is not None:
        if not profile.certified:
            flags.append(FLAG_UNCERTIFIED)
        l_inv = profile.l_inv_max
    elif config.l_inv_max is not None:
        l_inv = config.l_inv_max
        flags.append(FLAG_DECLARED_LINV)
    else:
        raise ConfigError(
            "l_inv_max", "l_inv_max is required in bids-only mode")
    return l_inv, flags


def _partitions_by_agent(config: RunConfig):
    entries = config.partition
    out = {}
    for agent in range(config.game.n_agents):
        if len(entries) == 1:
            entry = dict(entries[0])
            entry["agent"] = agent
        else:
            entry = entries[agent]
            _require(entry.get("agent", agent) == agent, f"partition[{agent}]",
                     "per-agent partitions must be listed in agent order")
        out[agent] = Partition.from_dict(entry)
    return out


def _cell_taus(prior, partition):
    """Per-cell TV radii: declared values win, otherwise derived from the
    prior's conditional structure."""
    profile = priors_mod.tv_profile(prior, partition)
    return profile.values, profile.sources


def _run_single_width(config: RunConfig, width: float, prior, profile,
                      ds: Dataset, ds_hash: str, threads: int) -> RunReport:
    game = config.game
    grid = make_grid(game.mechanism.bid_dim, width)
    budget_k = 3 if config.mode == "ex_interim" else 4
    delta = config.delta_total / budget_k

    agents_payload = []
    plots = {}
    agent_bounds = []

    if config.mode == "ex_interim":
        l_inv, lip_flags = _lipschitz_inputs(config, profile)
        for agent in range(game.n_agents):
            est = estimate_ex_interim(ds, profile, grid, game, agent,
                                      threads=threads)
            kappa, kflag = _agent_kappa(config, prior, agent)
            extra = list(lip_flags)
            if kflag:
                extra.append(kflag)
            l_fwd = profile.l_fwd(agent) if profile is not None else None
            specs = bounds_mod.InterimSpecs(
                width=width, delta=delta, kappa=kappa, l_inv_max=l_inv,
                l_fwd=l_fwd, pdim_constant=config.pdim_constant,
                disp_constant=config.disp_constant, extra_flags=tuple(extra))
            ab = bounds_mod.assemble_interim(est, specs, game)
            agent_bounds.append(ab)
            agents_payload.append(ab.to_dict())
            plots[agent] = (est.theta_points, est.per_point_gains)
        n_cells_max = None
    else:
        l_inv, lip_flags = _lipschitz_inputs(config, profile)
        partitions = _partitions_by_agent(config)
        n_cells_max = max(len(p) for p in partitions.values())
        for agent in range(game.n_agents):
            part = partitions[agent]
            est = estimate_ex_ante(ds, profile, part, grid, game, agent,
                                   threads=threads)
            taus, sources = _cell_taus(prior, part)
            kappas = []
            extra = list(lip_flags)
            for cell in part.cells:
                kap, kflag = _cell_kappa(config, prior, agent, cell)
                kappas.append(kap)
                if kflag and kflag not in extra:
                    extra.append(kflag)
            specs = bounds_mod.ExAnteSpecs(
                width=width, delta=delta, taus=tuple(taus),
                kappas=tuple(kappas), l_inv_max=l_inv,
                pdim_constant=config.pdim_constant,
                disp_constant=config.disp_constant,
                n_cells_max=n_cells_max, tau_sources=tuple(sources),
                extra_flags=tuple(extra))
            ab = bounds_mod.assemble_ex_ante(est, specs, game)
            agent_bounds.append(ab)
            agents_payload.append(ab.to_dict())
            plots[agent] = (est.candidates, est.gain_curve)

    vacuous = bounds_mod.all_vacuous(agent_bounds)
    payload = {
        "mode": config.mode,
        "config_hash": config.hash(),
        "dataset_hash": ds_hash,
        "seed": config.seed,
        "n_records": len(ds),
        "delta_total": config.delta_total,
        "delta": delta,
        "confidence": 1.0 - budget_k * delta,
        "grid_width": width,
        "grid_points_per_axis": grid.points_per_axis,
        "utility_scale": game.utility_scale,
        "n_cells_max": n_cells_max,
        "agents": agents_payload,
        "vacuous": vacuous,
    }
    return RunReport(payload=payload, plots=plots, vacuous=vacuous)


def emit_plot_data(report: RunReport, path: str, agent: int = 0):
    """CSV of grid point vs empirical gain for one agent; header-only when
    the report holds no data for that agent."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "empirical_gain"])
        entry = report.plots.get(agent) if report is not None else None
        if entry is None:
            return
        points, gains = entry
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        for j in range(points.shape[0]):
            coords = points[j]
            x = repr(float(coords[0])) if coords.shape[0] == 1 else \
                ";".join(repr(float(c)) for c in coords)
            writer.writerow([x, repr(float(gains[j]))])


def emit_density_diagnostic(marginal, strategy, path: str, bins: int = 200,
                            n_samples: int = 1_000_000, seed: int = 0,
                            kappa: float = None):
    """Histogram of a strategy pushforward against its certified density
    bound; CSV columns (bid, density_estimate, certified_bound).

    kappa is the declared prior density bound; it defaults to the marginal's
    analytic maximum, but a declared bound should include sampling headroom
    (a histogram bin at the density peak overshoots the exact maximum about
    half the time).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    theta = marginal.sample(rng, n_samples)
    bids = strategy.apply(theta)
    hist, edges = np.histogram(bids, bins=bins, range=(0.0, 1.0))
    density = hist / (n_samples * (1.0 / bins))
    if kappa is None:
        kappa = marginal.density_max
    bound = pushforward_density_bound(kappa, strategy)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bid", "density_estimate", "certified_bound"])
        for j in range(bins):
            center = 0.5 * (edges[j] + edges[j + 1])
            writer.writerow([repr(float(center)), repr(float(density[j])),
                             repr(float(bound))])


def _emit_cells_csv(report: RunReport, path: str, partition_cells=None):
    payload = report.payload
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if payload["mode"] == "ex_ante":
            writer.writerow(["agent", "cell", "lo", "hi", "n_records",
                             "weight", "tau", "kappa", "eps_pdim",
                             "disp_count", "eps_disp", "inner_sum",
                             "contribution"])
            for entry in payload["agents"]:
                agent = entry["agent"]
                cells_geo = (partition_cells or {}).get(agent)
                for cell in entry["cells"]:
                    k = cell["cell"]
                    lo = hi = ""
                    if cells_geo is not None:
                        lo = ";".join(repr(float(x)) for x in cells_geo[k].lo)
                        hi = ";".join(repr(float(x)) for x in cells_geo[k].hi)
                    writer.writerow([
                        agent, k, lo, hi, cell["n_records"],
                        repr(float(cell["weight"])),
                        _csv_num(cell["tau"]), _csv_num(cell["kappa"]),
                        _csv_num(cell["eps_pdim"]),
                        _csv_num(cell["disp_count"]),
                        _csv_num(cell["eps_disp"]),
                        _csv_num(cell["inner_sum"]),
                        repr(float(cell["contribution"]))])
        else:
            writer.writerow(["agent", "term", "width", "count_raw", "count",
                             "value", "multiplier"])
            for entry in payload["agents"]:
                agent = entry["agent"]
                for j, term in enumerate(entry["disp_terms"]):
                    writer.writerow([
                        agent, f"disp_{j}", repr(float(term["width"])),
                        _csv_num(term["count_raw"]), _csv_num(term["count"]),
                        repr(float(term["value"])),
                        repr(float(term["multiplier"]))])


def _csv_num(x):
    if x is None:
        return ""
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return repr(x)
    return repr(x)


def _width_suffix(w: float) -> str:
    return f"_w{w:g}"


def _oracle_block(config: RunConfig, prior, profile):
    """Closed-form reference losses where the model admits them: single-item
    first-price, uniform i.i.d. values, linear-shade opponents at the
    symmetric equilibrium shade (n-1)/n."""
    game = config.game
    entries = {}
    applicable_game = (
        game.mechanism.kind == "first_price_single_item"
        and profile is not None
        and isinstance(prior, priors_mod.IndependentProduct)
        and all(type(s).__name__ == "LinearShade" for s in profile.strategies)
        and all(
            type(m).__name__ == "Uniform" and m.a == 0.0 and m.b == 1.0
            for per_agent in prior.marginals for m in per_agent))
    c_star = (game.n_agents - 1) / game.n_agents
    for agent in range(game.n_agents):
        if not applicable_game:
            entries[str(agent)] = None
            continue
        opp = [profile.strategies[j].c for j in range(game.n_agents)
               if j != agent]
        if any(abs(c - c_star) > 1e-12 for c in opp):
            entries[str(agent)] = {
                "value": None,
                "note": "closed-form reference requires opponents at the "
                        "equilibrium shade"}
            continue
        res = analytic_fpsb_loss(game.n_agents, profile.strategies[agent].c)
        entries[str(agent)] = {"value": res.value, "method": res.method,
                               "resolution": res.resolution}
    return entries


def run(config: RunConfig, oracle: bool = False) -> int:
    """Execute a run config; writes report/CSV files and returns the exit
    code (0 ok, 3 all-vacuous)."""
    threads = worker_count()
    prior = (priors_mod.prior_from_dict(config.prior, config.game.n_agents)
             if config.prior is not None else None)
    profile = _resolve_profile(config)
    ds, ds_hash = _resolve_dataset(config, prior, profile)

    os.makedirs(config.out_dir, exist_ok=True)
    widths = config.grid_w if isinstance(config.grid_w, list) else [config.grid_w]
    sweep = isinstance(config.grid_w, list)

    partition_cells = None
    if config.mode == "ex_ante":
        partition_cells = {a: p.cells
                           for a, p in _partitions_by_agent(config).items()}

    reports = []
    for w in widths:
        report = _run_single_width(config, w, prior, profile, ds, ds_hash,
                                   threads)
        reports.append(report)
        suffix = _width_suffix(w) if sweep else ""
        report_path = os.path.join(config.out_dir, f"report{suffix}.json")
        with open(report_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_json())
        _emit_cells_csv(report,
                        os.path.join(config.out_dir, f"cells{suffix}.csv"),
                        partition_cells)
        for agent in range(config.game.n_agents):
            emit_plot_data(
                report,
                os.path.join(config.out_dir, f"plot_agent{agent}{suffix}.csv"),
                agent=agent)

    if oracle:
        block = _oracle_block(config, prior, profile)
        with open(os.path.join(config.out_dir, "oracle.json"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(_json_safe(block), indent=2) + "\n")

    if all(r.vacuous for r in reports):
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bne-verify",
        description="Certified equilibrium-gap verification for sealed-bid "
                    "auctions from sampled bid data.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify", help="run a verification job from a JSON config")
    p_verify.add_argument("--config", required=True,
                          help="path to the run config JSON")
    p_verify.add_argument("--mode", choices=["ex_interim", "ex_ante"],
                          help="override the config's mode")
    grid_group = p_verify.add_mutually_exclusive_group()
    grid_group.add_argument("--grid-w", type=float,
                            help="override grid width")
    grid_group.add_argument("--grid-sweep",
                            help="comma-separated grid widths")
    p_verify.add_argument("--delta", type=float,
                          help="override total failure probability")
    p_verify.add_argument("--seed", type=int, help="override the seed")
    p_verify.add_argument("--oracle", action="store_true",
                          help="also emit closed-form reference values")
    p_verify.add_argument("--out", help="override the output directory")

    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config", "config must be a JSON object")
        if args.mode is not None:
            raw["mode"] = args.mode
        if args.grid_w is not None:
            raw["grid_w"] = args.grid_w
        if args.grid_sweep is not None:
            try:
                raw["grid_w"] = [float(x) for x in args.grid_sweep.split(",")]
            except ValueError:
                raise ConfigError("grid_w",
                                  "grid sweep must be comma-separated numbers")
        if args.delta is not None:
            raw["delta_total"] = args.delta
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.out is not None:
            raw["out_dir"] = args.out
        config = parse_config(
            raw, base_dir=os.path.dirname(os.path.abspath(args.config)))
        return run(config, oracle=args.oracle)
    except ConfigError as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
