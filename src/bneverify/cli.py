"""Batch entry point: parse a run config, generate or load a dataset, run
the estimators, assemble certified bounds, and emit reports and plot data.

Exit codes: 0 success, 2 config/validation error, 3 run succeeded but every
agent's certified bound is vacuous (> 2 in normalized units).

Determinism: reports embed the config hash and dataset hash, never
timestamps; report bytes are identical across reruns.
"""
import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .estimator import estimate_ex_ante, estimate_ex_interim, search_cost
from .model import (Dataset, GameConfig, Grid, MECHANISM_KINDS,
                    MechanismSpec, Partition, config_hash, file_hash,
                    is_integer, is_number, known_keys, load_dataset,
                    make_grid, number)
from .strategies import FLAG_UNCERTIFIED, StrategyProfile, profile_from_config

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunReport",
    "parse_config",
    "load_config",
    "run",
    "emit_plot_data",
    "main",
]

FLAG_DECLARED_KAPPA = "kappa declared, not derived"
FLAG_DECLARED_TAU = "tau declared, not derived"
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: settings, the normalized config with
    defaults filled in a stable key order, which the report hashes and which
    round-trips byte-identically through parse_config; and the inputs run
    builds from it."""

    settings: dict            # every key a config may hold
    game: GameConfig
    grid: Grid                # the lattice at settings["grid_w"]
    prior_model: object       # built from prior, or None
    profile: StrategyProfile  # built from strategies; None for bids-only
    partitions: dict          # ex ante: agent -> Partition; else None
    specs: tuple              # per agent, its certificate inputs

    def to_dict(self) -> dict:
        return copy.deepcopy(self.settings)

    def hash(self) -> str:
        # where the output goes or the records sit must not change the
        # result hash; dataset_hash identifies the records
        return config_hash({key: None if key == "dataset" else value
                            for key, value in self.settings.items()
                            if key != "out_dir"})


def _build(field, fn, *args):
    """fn(*args) on raw JSON; a fault in that JSON (a bad value, a missing
    key, a wrong type) becomes a ConfigError naming field."""
    try:
        return fn(*args)
    except KeyError as exc:
        raise ConfigError(field, f"missing key {exc}") from None
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(field, str(exc)) from None


def _positive(raw, key):
    """raw[key] as a positive float; None when it is absent or null."""
    value = raw.get(key)
    if value is None:
        return None
    _require(is_number(value) and value > 0, key, f"{key} must be positive")
    return _build(key, number, value, key)


# Caps on the grid's search (estimator.search_cost), checked before
# any record is sampled or loaded, and once more after a dataset is loaded,
# when its record count is known
WORK_CAP = 10 ** 9        # work units, about 25 s on a 2-vCPU x86 host
BID_COORD_CAP = 1 << 21   # bid coordinates per market, about 700 MB


def _check_candidate_work(game, profile, partitions, grid, records=0,
                          field="grid_w"):
    """Refuse a grid whose search over records records (0 while unknown)
    passes WORK_CAP or BID_COORD_CAP, naming field."""
    k, markets, work, coords = search_cost(game, grid, profile, partitions,
                                           records)
    over = f" over {records} records" if records else ""
    _require(work <= WORK_CAP and coords <= BID_COORD_CAP, field,
             f"grid too fine: {k} candidates in {markets} markets{over} "
             f"need about {float(work):.1e} work units "
             f"(cap {WORK_CAP:.0e}) and {coords} bid coordinates per "
             f"market (cap {BID_COORD_CAP})")


def _agent_specs(game, prior, profile, partitions, kappa, l_inv_max):
    """Per agent, every input of its certificate but the grid width and
    delta_total: an InterimSpecs, or ex ante (partitions given) an
    ExAnteSpecs. A prior derives kappa and tau, and strategies l_inv_max.
    Recorded data declares them instead: each cell's tau, kappa per cell or
    else the top-level kappa, and l_inv_max when bids-only; each declared
    input is flagged, and a kappa declared nowhere is a ConfigError."""
    if profile is None:   # bids-only: parse_config requires l_inv_max
        flags = [FLAG_DECLARED_LINV]
    else:
        l_inv_max = profile.l_inv_max
        flags = [] if profile.certified else [FLAG_UNCERTIFIED]
    if prior is None:
        flags += [FLAG_DECLARED_KAPPA] + [FLAG_DECLARED_TAU] * bool(partitions)
    common = dict(l_inv_max=l_inv_max, extra_flags=tuple(flags))
    specs = []
    taus = {}   # agents whose partitions have the same cells share one tau
    for agent in range(game.n_agents):
        part = None if partitions is None else partitions[agent]
        cells = [None] if part is None else part.cells
        if prior is None:
            kappas = [kappa if cell is None or cell.kappa is None
                      else cell.kappa for cell in cells]
            _require(None not in kappas, "kappa", KAPPA_REQUIRED
                     if part is None else KAPPA_REQUIRED_PER_CELL)
        else:
            kappas = [prior.kappa(agent, cell) for cell in cells]
        if part is None:
            specs.append(bounds_mod.InterimSpecs(
                kappa=kappas[0],
                l_fwd=None if profile is None else profile.l_fwd(agent),
                **common))
            continue
        if prior is None:
            values, source = tuple(cell.tau for cell in cells), "declared"
        else:
            from . import priors as priors_mod   # tau is the prior's
            key = tuple(cells)
            if key not in taus:
                taus[key] = priors_mod.tv_profile(prior, part)
            values, source = taus[key], "derived"
        specs.append(bounds_mod.ExAnteSpecs(
            taus=values, kappas=tuple(kappas),
            n_cells_max=max(map(len, partitions.values())),
            tau_sources=(source,) * len(cells), **common))
    return tuple(specs)


def _parse_game(d) -> GameConfig:
    _require(isinstance(d, dict), "game", "game must be an object")
    n = d.get("n_agents")
    _require(is_integer(n) and n >= 2, "game.n_agents",
             "game.n_agents must be an integer >= 2")
    mech_d = d.get("mechanism")
    _require(isinstance(mech_d, dict), "game.mechanism",
             "game.mechanism must be an object")
    kind = mech_d.get("kind")
    _require(kind in MECHANISM_KINDS, "game.mechanism.kind",
             f"game.mechanism.kind must be one of {sorted(MECHANISM_KINDS)}")
    items = mech_d.get("items", 0)
    units = mech_d.get("units", 1)
    _require(is_integer(items) and items >= 0, "game.mechanism.items",
             "game.mechanism.items must be a nonnegative integer")
    _require(is_integer(units) and units >= 1, "game.mechanism.units",
             "game.mechanism.units must be a positive integer")
    # bids have 2**items coordinates, and float(units) is a payoff range
    _require(items < sys.float_info.max_exp, "game.mechanism.items",
             f"game.mechanism.items must be below {sys.float_info.max_exp}")
    _require(units <= sys.float_info.max, "game.mechanism.units",
             "game.mechanism.units is too large for a float")
    if kind == "first_price_combinatorial":
        _require(items >= 1, "game.mechanism.items",
                 "game.mechanism.items must be >= 1 for the combinatorial rule")
    mech = MechanismSpec(kind=kind, items=items, units=units)
    _build("game.mechanism", known_keys, mech_d, ("kind", "items", "units"),
           "game.mechanism")
    game = GameConfig(n_agents=n, mechanism=mech)
    # the rule sets the scale; a config may restate it, as to_dict() does
    scale = d.get("utility_scale")
    _require(scale is None or (is_number(scale)
                               and scale == game.utility_scale),
             "game.utility_scale",
             f"game.utility_scale is the payoff range "
             f"{game.utility_scale!r} of {kind}; a config may only restate it")
    _build("game", known_keys, d, ("n_agents", "mechanism", "utility_scale"),
           "game")
    return game


def _parse_partition_entry(entry, field, agent, dim):
    """The raw entry with its agent filled in, and its Partition; agent is
    the default for a missing "agent" key, dim the game's observation
    dimension."""
    _require(isinstance(entry, dict), field, f"{field} must be an object")
    _require("cells" in entry, field, f"{field} must contain a cells list")
    entry = dict(entry)
    entry.setdefault("agent", agent)
    part = _build(field, Partition.from_dict, entry)
    _require(part.dim == dim, field,
             f"invalid partition: cells have dimension {part.dim}, "
             f"observations have {dim}")
    cells = part.cells
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
    # every coordinate is p / q with q a power of 2, so scaled by the
    # largest q it is an exact integer, and so is every scaled volume
    den = max(x.as_integer_ratio()[1] for c in cells for x in c.lo + c.hi)

    def scaled(x):
        p, q = x.as_integer_ratio()
        return p * (den // q)

    volume = sum(math.prod(scaled(b) - scaled(a) for a, b in zip(c.lo, c.hi))
                 for c in cells)
    _require(volume == den ** dim, field,
             f"invalid partition: cell volumes sum to "
             f"{volume / den ** dim!r}, not 1, so the cells leave a gap")
    return entry, part


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    """Validate a raw config dict; errors carry the offending field path.

    In bids-only mode the dataset file bounds the agent count, so a missing
    file is refused, naming dataset, before any per-agent work."""
    _require(isinstance(raw, dict), "config", "config must be a JSON object")
    game = _parse_game(raw.get("game"))

    mode = raw.get("mode", "ex_interim")
    _require(mode in ("ex_interim", "ex_ante"), "mode",
             "mode must be ex_interim or ex_ante")

    delta_total = raw.get("delta_total")
    _require(is_number(delta_total), "delta_total",
             "delta_total must lie in (0,1)")
    _build("delta_total", bounds_mod.split_delta, mode, delta_total)

    # the certificate's confidence covers one width, so a run has one
    grid_w = raw.get("grid_w")
    _require(is_number(grid_w), "grid_w",
             "grid_w must be one number: a run certifies one grid width, "
             "so compare widths with one run per width")
    _require(0.0 < grid_w <= 1.0, "grid_w", "grid_w must lie in (0, 1]")
    grid_w = float(grid_w)
    # the lattice, sized without building its points
    grid = _build("grid_w", make_grid, game.mechanism.bid_dim, grid_w)

    prior = raw.get("prior")
    dataset = raw.get("dataset")
    _require((prior is None) != (dataset is None), "prior",
             "exactly one of prior and dataset must be given")
    seed = raw.get("seed")
    if prior is not None:
        from . import priors as priors_mod
        prior_model = _build("prior", priors_mod.prior_from_dict, prior,
                             game.n_agents)
        _require(prior_model.dim == game.mechanism.bid_dim, "prior",
                 f"prior observations have dimension {prior_model.dim}, "
                 f"bids under {game.mechanism.kind} have "
                 f"{game.mechanism.bid_dim}")
        sort_desc = game.mechanism.sorted_bids   # the rule fixes the order
        _require(getattr(prior_model, "sort_desc", False) == sort_desc,
                 "prior.sort_desc", f"prior.sort_desc must be "
                 f"{json.dumps(sort_desc)}: bids are non-increasing exactly "
                 f"when they hold more than one unit's bids")
        n_records = raw.get("n_records")
        _require(is_integer(n_records) and n_records >= 1, "n_records",
                 "n_records must be a positive integer in simulation mode")
        _require(is_integer(seed) and seed >= 0, "seed",
                 "seed must be a nonnegative integer in simulation mode")
    else:
        _require(isinstance(dataset, str), "dataset",
                 "dataset must be a file path")
        dataset = os.path.normpath(os.path.join(base_dir, dataset))
        _require(raw.get("n_records") is None, "n_records",
                 "n_records is read only in simulation mode; a dataset "
                 "holds its own records")
        prior_model = n_records = None
        _require(seed is None or (is_integer(seed) and seed >= 0), "seed",
                 "seed must be a nonnegative integer or absent in dataset "
                 "mode")

    strategies = raw.get("strategies")
    l_inv_max = _positive(raw, "l_inv_max")
    if strategies == "bids-only":
        _require(dataset is not None, "strategies",
                 "strategies 'bids-only' requires a dataset path")
        # without strategies no slope bound can be derived
        _require(l_inv_max is not None, "l_inv_max",
                 "l_inv_max is required in bids-only mode")
        _require(os.path.isfile(dataset), "dataset",
                 f"no dataset file at {dataset}")
        # a record holds obs, vals and bids, n_agents * bid_dim coordinates
        # each, and a coordinate takes at least 2 bytes
        size = os.path.getsize(dataset)
        need = game.n_agents * game.mechanism.bid_dim * 6
        _require(need <= size, "game.n_agents",
                 f"game.n_agents {game.n_agents} needs at least {need} "
                 f"bytes per record; the dataset file has {size}")
        profile = None
    else:
        _require(isinstance(strategies, list), "strategies",
                 "strategies must be a list of entries or 'bids-only'")
        _require(l_inv_max is None, "l_inv_max",
                 "l_inv_max is derived from the strategies; a config may "
                 "declare it only with 'bids-only'")
        profile = _build("strategies", profile_from_config, strategies,
                         game.n_agents)

    partition = raw.get("partition")
    partitions = None
    if mode == "ex_ante":
        _require(partition is not None, "partition",
                 "mode ex_ante requires a partition")
        if isinstance(partition, str):
            path = os.path.normpath(os.path.join(base_dir, partition))
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    partition = json.load(fh)
            except (OSError, ValueError) as exc:   # bad JSON or not UTF-8
                raise ConfigError("partition",
                                  f"cannot read partition file: {exc}")
        if isinstance(partition, dict):
            partition = [partition]
        _require(isinstance(partition, list) and partition, "partition",
                 "partition must be an object, list, or file path")
        parsed = [_parse_partition_entry(p, f"partition[{j}]", j,
                                         game.mechanism.bid_dim)
                  for j, p in enumerate(partition)]
        _require(len(parsed) in (1, game.n_agents), "partition",
                 "partition must have one entry or one per agent")
        partition = [entry for entry, _ in parsed]
        if len(parsed) == 1:   # one partition for every agent
            _require(partition[0]["agent"] == 0, "partition[0].agent",
                     f"partition agent {partition[0]['agent']}: a single "
                     f"partition serves every agent, so its agent may only "
                     f"restate 0")
            cells = parsed[0][1].cells
            partitions = {a: Partition(a, cells)
                          for a in range(game.n_agents)}
        else:
            for j, entry in enumerate(partition):
                _require(entry["agent"] == j, f"partition[{j}]",
                         "per-agent partitions must be listed in agent order")
            partitions = dict(enumerate(part for _, part in parsed))
        # a prior derives each cell's tau and kappa; recorded data has none,
        # so it declares every tau
        for j, (_, part) in enumerate(parsed):
            for k, cell in enumerate(part.cells):
                field = f"partition[{j}].cells[{k}]"
                if prior is None:
                    _require(cell.tau is not None, f"{field}.tau",
                             "tau must be declared for every cell when the "
                             "records come from a dataset")
                    continue
                for name in ("tau", "kappa"):
                    _require(getattr(cell, name) is None, f"{field}.{name}",
                             f"{name} is derived from the prior; a cell may "
                             f"declare it only with a dataset")
    else:
        _require(partition is None, "partition",
                 "a partition is read only in mode ex_ante")
        if prior is not None and isinstance(prior_model,
                                            priors_mod.CorrelatedCommonValue):
            raise ConfigError(
                "mode", "mode ex_interim requires independent private values")

    _check_candidate_work(game, profile, partitions, grid)
    if n_records is not None:   # sampled: the record count is known now
        _check_candidate_work(game, profile, partitions, grid, n_records,
                              "n_records")

    kappa = _positive(raw, "kappa")
    _require(kappa is None or prior is None, "kappa",
             "kappa is derived from the prior; a config may declare it only "
             "with a dataset")
    # the rule fixes the asymptotic rows' constant; a config may restate it
    constant = bounds_mod.ROW_CONSTANT
    for key in ("pdim_constant", "disp_constant"):
        value = raw.get(key)
        _require(value is None or (is_number(value) and value == constant),
                 key, f"{key} is the rule's constant {constant!r}; a config "
                 f"may only restate it")
    specs = _agent_specs(game, prior_model, profile, partitions, kappa,
                         l_inv_max)

    out_dir = raw.get("out_dir", "out")
    _require(isinstance(out_dir, str) and out_dir, "out_dir",
             "out_dir must be a nonempty path")

    mech = game.mechanism
    # a copy, so that later edits to raw cannot change the hash
    settings = copy.deepcopy({
        "game": {"n_agents": game.n_agents,
                 "mechanism": {"kind": mech.kind, "items": mech.items,
                               "units": mech.units},
                 "utility_scale": game.utility_scale},
        "mode": mode, "prior": prior, "dataset": dataset,
        "strategies": strategies, "partition": partition, "grid_w": grid_w,
        "delta_total": delta_total, "n_records": n_records, "seed": seed,
        "kappa": kappa, "l_inv_max": l_inv_max, "pdim_constant": constant,
        "disp_constant": constant, "out_dir": out_dir,
    })
    # last, so that a missing or malformed field is named first
    for key in raw:
        _require(key in settings, key,
                 f"unknown config key {key!r}; a config may hold "
                 f"{', '.join(settings)}")
    return RunConfig(settings=settings, game=game, grid=grid,
                     prior_model=prior_model, profile=profile,
                     partitions=partitions, specs=specs)


def load_config(path: str, overrides: dict = None) -> RunConfig:
    """Parse the config file at path, with the fields in overrides
    replaced; relative paths in it are read from its directory."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:   # bad JSON or not UTF-8
            raise ConfigError("config", str(exc)) from None
    _require(isinstance(raw, dict), "config", "config must be a JSON object")
    raw.update(overrides or {})
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


# bytes per sha256 update in _array_hash. Freeing a block this large also
# raises glibc's dynamic mmap threshold past the ex ante estimator's
# per-cell arrays, which then reuse heap pages: on the correlated_ante
# benchmark job (2-vCPU x86 host, glibc 2.36), 1 MB blocks left 5,055
# minor faults per verify against 2,761 with 4 MB.
_HASH_BLOCK = 1 << 22


def _array_hash(*arrays) -> str:
    """sha256 over each array's C-order bytes in turn, fed _HASH_BLOCK
    bytes of rows at a time, so a broadcast array is never copied whole."""
    h = hashlib.sha256()
    for a in arrays:
        step = max(1, _HASH_BLOCK * len(a) // max(1, a.nbytes))
        for lo in range(0, len(a), step):
            h.update(np.ascontiguousarray(a[lo:lo + step]))
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

    def __init__(self, payload: dict, plots: dict):
        self.payload = payload
        self.plots = plots      # agent -> (points (K, d), gains (K,))

    def to_json(self) -> str:
        return json.dumps(_json_safe(self.payload), indent=2,
                          allow_nan=False) + "\n"


def _resolve_dataset(config: RunConfig):
    path = config.settings["dataset"]
    if path is not None:
        try:
            ds = load_dataset(path, config.game)
        except (OSError, ValueError) as exc:
            raise ConfigError("dataset", str(exc)) from None
        _require(config.settings["mode"] == "ex_ante"
                 or np.array_equal(ds.obs, ds.vals),
                 "dataset", "ex interim estimation requires private values "
                 "(observations identical to valuations)")
        _check_candidate_work(config.game, config.profile, config.partitions,
                              config.grid, len(ds), "dataset")
        return ds, file_hash(path)
    from . import priors as priors_mod
    try:   # numpy refuses, or fails to allocate, arrays of too many records
        ds = priors_mod.sample_dataset(config.prior_model, config.profile,
                                       config.settings["n_records"],
                                       config.settings["seed"])
    except (ValueError, MemoryError) as exc:
        raise ConfigError("n_records",
                          f"too many records to sample: {exc}") from None
    return ds, _array_hash(ds.obs, ds.vals, ds.bids)


def _build_report(config: RunConfig, ds: Dataset, ds_hash: str) -> RunReport:
    """The run's report: every agent's certificate at the config's width."""
    game, grid = config.game, config.grid
    settings = config.settings
    width = settings["grid_w"]
    interim = settings["mode"] == "ex_interim"
    agent_bounds = []
    plots = {}
    for agent, specs in enumerate(config.specs):
        if interim:
            est = estimate_ex_interim(ds, config.profile, grid, game, agent)
            assemble = bounds_mod.assemble_interim
            plots[agent] = (est.theta_points, est.per_point_gains)
        else:
            est = estimate_ex_ante(ds, config.profile, config.partitions[agent],
                                   grid, game, agent)
            assemble = bounds_mod.assemble_ex_ante
            plots[agent] = (est.candidates, est.gain_curve)
        agent_bounds.append(assemble(est, specs, game, width,
                                     settings["delta_total"]))

    payload = {
        "mode": settings["mode"],
        "config_hash": config.hash(),
        "dataset_hash": ds_hash,
        "seed": settings["seed"],
        "n_records": len(ds),
        "delta_total": settings["delta_total"],
        "delta": agent_bounds[0].payload["delta"],   # the same for all
        "confidence": agent_bounds[0].payload["confidence"],
        "grid_width": width,
        "grid_points_per_axis": grid.points_per_axis,
        "utility_scale": game.utility_scale,
        "n_cells_max": None if interim else config.specs[0].n_cells_max,
        "agents": [ab.to_dict() for ab in agent_bounds],
        "vacuous": bounds_mod.all_vacuous(agent_bounds),
    }
    return RunReport(payload=payload, plots=plots)


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
        gains = np.asarray(gains, dtype=np.float64)
        writer.writerows([";".join(map(repr, coords)), repr(gain)]
                         for coords, gain in zip(points.tolist(),
                                                 gains.tolist()))


# the numeric columns of cells.csv, per mode, each written by _csv_num
_CELL_COLUMNS = ("weight", "tau", "kappa", "eps_pdim", "disp_count",
                 "eps_disp", "inner_sum", "contribution")
_TERM_COLUMNS = ("width", "count_raw", "count", "value", "multiplier")


def _emit_cells_csv(report: RunReport, path: str, partitions):
    """Per-cell (ex ante) or per-term (ex interim) rows of a report;
    partitions maps each agent to its Partition in ex ante."""
    payload = report.payload
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if payload["mode"] == "ex_ante":
            writer.writerow(["agent", "cell", "lo", "hi", "n_records",
                             *_CELL_COLUMNS])
            for entry in payload["agents"]:
                agent = entry["agent"]
                for cell in entry["cells"]:
                    k = cell["cell"]
                    box = partitions[agent].cells[k]
                    writer.writerow([
                        agent, k, ";".join(map(_csv_num, box.lo)),
                        ";".join(map(_csv_num, box.hi)), cell["n_records"],
                        *(_csv_num(cell[c]) for c in _CELL_COLUMNS)])
        else:
            writer.writerow(["agent", "term", *_TERM_COLUMNS])
            for entry in payload["agents"]:
                agent = entry["agent"]
                for j, term in enumerate(entry["disp_terms"]):
                    writer.writerow([
                        agent, f"disp_{j}",
                        *(_csv_num(term[c]) for c in _TERM_COLUMNS)])


def _csv_num(x):
    if x is None:
        return ""
    return repr(float(x))


def _oracle_block(config: RunConfig):
    """Closed-form reference losses where the model admits them: single-item
    first-price, uniform i.i.d. values, linear-shade opponents at the
    symmetric equilibrium shade (n-1)/n."""
    from . import priors as priors_mod
    from .oracle import analytic_fpsb_loss
    game = config.game
    prior, profile = config.prior_model, config.profile
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
    out_dir = config.settings["out_dir"]
    try:   # before the records are sampled or loaded
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot create out_dir: {exc}") from None
    ds, ds_hash = _resolve_dataset(config)

    report = _build_report(config, ds, ds_hash)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(report.to_json())
    _emit_cells_csv(report, os.path.join(out_dir, "cells.csv"),
                    config.partitions)
    for agent in range(config.game.n_agents):
        emit_plot_data(report, os.path.join(out_dir, f"plot_agent{agent}.csv"),
                       agent=agent)

    if oracle:
        block = _oracle_block(config)
        with open(os.path.join(out_dir, "oracle.json"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(_json_safe(block), indent=2) + "\n")

    return 3 if report.payload["vacuous"] else 0


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
    p_verify.add_argument("--grid-w", type=float,
                          help="override grid width")
    p_verify.add_argument("--delta", type=float,
                          help="override total failure probability")
    p_verify.add_argument("--seed", type=int, help="override the seed")
    p_verify.add_argument("--oracle", action="store_true",
                          help="also emit closed-form reference values")
    p_verify.add_argument("--out", help="override the output directory")

    args = parser.parse_args(argv)
    overrides = {key: value for key, value in (
        ("mode", args.mode), ("grid_w", args.grid_w),
        ("delta_total", args.delta), ("seed", args.seed),
        ("out_dir", args.out)) if value is not None}
    if args.mode == "ex_interim":   # an ex ante config's cells go unread
        overrides["partition"] = None
    try:
        config = load_config(args.config, overrides)
        return run(config, oracle=args.oracle)
    except ConfigError as exc:
        print(f"error: {exc.field}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
