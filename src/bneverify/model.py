"""Core domain types: game configuration, sample datasets, partitions and grids.

Every empirical mean over a dataset's records is fixed by the multiset of
records alone (exact counts, sorted prefix sums or correctly rounded sums;
see estimator), so it is bit-reproducible regardless of record order, worker
count, numpy version or platform.
"""
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# guard against combinatorial blowup when materializing lattices
GRID_POINT_CAP = 10_000_000

MECHANISM_KINDS = (
    "first_price_single_item",
    "first_price_combinatorial",
    "discriminatory",
    "uniform_price",
)


@dataclass(frozen=True)
class MechanismSpec:
    """One of the four supported sealed-bid auction rules.

    items is the number of goods l in the combinatorial auction (bid vectors
    are indexed by the 2**l bundles); units is the supply m of the multi-unit
    auctions.
    """
    kind: str
    items: int = 0
    units: int = 0

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind: {self.kind!r}")
        if self.kind == "first_price_combinatorial" and self.items < 1:
            raise ValueError("combinatorial mechanism needs items >= 1")
        if self.kind in ("discriminatory", "uniform_price") and self.units < 1:
            raise ValueError("multi-unit mechanism needs units >= 1")

    @property
    def bid_dim(self) -> int:
        if self.kind == "first_price_single_item":
            return 1
        if self.kind == "first_price_combinatorial":
            return 2 ** self.items
        return self.units

    @property
    def default_utility_scale(self) -> float:
        # multi-unit payoffs range over [-m, m]; dividing by the unit count
        # keeps normalized utilities in [-1, 1]
        if self.kind in ("discriminatory", "uniform_price"):
            return float(self.units)
        return 1.0

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "first_price_combinatorial":
            d["items"] = self.items
        if self.kind in ("discriminatory", "uniform_price"):
            d["units"] = self.units
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MechanismSpec":
        return cls(kind=d["kind"], items=int(d.get("items", 0)),
                   units=int(d.get("units", 0)))


@dataclass(frozen=True)
class GameConfig:
    """Static description of the Bayesian auction game.

    Observations and valuations live in [0,1]^dim per agent; utility_scale H
    is the factor that maps raw quasilinear payoffs into [-1, 1].
    """
    n_agents: int
    mechanism: MechanismSpec
    obs_dim: int = 0
    val_dim: int = 0
    utility_scale: float = 0.0

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("n_agents must be at least 2")
        required = self.mechanism.bid_dim
        if self.obs_dim == 0:
            object.__setattr__(self, "obs_dim", required)
        if self.val_dim == 0:
            object.__setattr__(self, "val_dim", required)
        if self.utility_scale == 0.0:
            object.__setattr__(self, "utility_scale",
                               self.mechanism.default_utility_scale)
        if self.obs_dim != required or self.val_dim != required:
            raise ValueError(
                f"obs_dim/val_dim must equal the mechanism's bid dimension "
                f"({required}), got {self.obs_dim}/{self.val_dim}")
        if self.utility_scale <= 0:
            raise ValueError("utility_scale must be positive")

    def to_dict(self) -> dict:
        return {
            "n_agents": self.n_agents,
            "mechanism": self.mechanism.to_dict(),
            "obs_dim": self.obs_dim,
            "val_dim": self.val_dim,
            "utility_scale": self.utility_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GameConfig":
        return cls(
            n_agents=int(d["n_agents"]),
            mechanism=MechanismSpec.from_dict(d["mechanism"]),
            obs_dim=int(d.get("obs_dim", 0)),
            val_dim=int(d.get("val_dim", 0)),
            utility_scale=float(d.get("utility_scale", 0.0)),
        )


class Dataset:
    """Ordered collection of sample records, stored as dense float64 arrays.

    Estimates do not depend on record order: each is the same for any
    permutation of the records.
    """

    def __init__(self, obs: np.ndarray, vals: np.ndarray, bids: np.ndarray,
                 seed=None):
        obs = np.ascontiguousarray(obs, dtype=np.float64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        bids = np.ascontiguousarray(bids, dtype=np.float64)
        if obs.ndim != 3 or vals.ndim != 3 or bids.ndim != 3:
            raise ValueError("dataset arrays must be (N, n_agents, dim)")
        if not (len(obs) == len(vals) == len(bids)):
            raise ValueError("dataset arrays must share the record count")
        if len(obs) < 1:
            raise ValueError("dataset empty")
        self.obs = obs
        self.vals = vals
        self.bids = bids
        self.seed = seed

    def __len__(self) -> int:
        return len(self.obs)

    def validate(self, config: GameConfig):
        n = config.n_agents
        shapes = {
            "obs": (n, config.obs_dim),
            "vals": (n, config.val_dim),
            "bids": (n, config.mechanism.bid_dim),
        }
        for name, want in shapes.items():
            arr = getattr(self, name)
            if arr.shape[1:] != want:
                raise ValueError(
                    f"{name} shaped {arr.shape[1:]} does not match config {want}")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError(f"{name} coordinate out of range")


def _parse_record_arrays(row: dict, line_no: int):
    out = []
    for key in ("obs", "vals", "bids"):
        if key not in row:
            raise ValueError(f"malformed row, line {line_no}: missing {key!r}")
        arr = np.asarray(row[key], dtype=np.float64)
        if arr.ndim == 1:  # allow scalar-per-agent shorthand
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError(f"malformed row, line {line_no}: {key} must be a "
                             "list of per-agent vectors")
        out.append(arr)
    return out


def load_dataset(path, config: GameConfig) -> Dataset:
    """Read a JSON-lines dataset file and validate it against config.

    An optional first line without an "obs" key is treated as a header
    carrying the generator seed and config hash.
    """
    obs_rows, val_rows, bid_rows = [], [], []
    seed = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed row, line {line_no}: {exc}") from exc
            if "obs" not in row and line_no == 1:
                seed = row.get("seed")
                continue
            o, v, b = _parse_record_arrays(row, line_no)
            expected = {
                "obs": (config.n_agents, config.obs_dim),
                "vals": (config.n_agents, config.val_dim),
                "bids": (config.n_agents, config.mechanism.bid_dim),
            }
            for key, arr in zip(("obs", "vals", "bids"), (o, v, b)):
                if arr.shape != expected[key]:
                    raise ValueError(
                        f"dimension mismatch, line {line_no}: {key} has shape "
                        f"{arr.shape}, config requires {expected[key]}")
                if np.any(arr < 0.0) or np.any(arr > 1.0):
                    raise ValueError(f"coordinate out of range, line {line_no}")
            obs_rows.append(o)
            val_rows.append(v)
            bid_rows.append(b)
    if not obs_rows:
        raise ValueError("dataset empty")
    return Dataset(np.stack(obs_rows), np.stack(val_rows), np.stack(bid_rows),
                   seed=seed)


def save_dataset(ds: Dataset, path, config_hash=None):
    """Write a dataset as JSON lines (with a header when metadata exists)."""
    with open(path, "w", encoding="utf-8") as fh:
        if ds.seed is not None or config_hash is not None:
            header = {}
            if ds.seed is not None:
                header["seed"] = int(ds.seed)
            if config_hash is not None:
                header["config_hash"] = config_hash
            fh.write(json.dumps(header) + "\n")
        for j in range(len(ds)):
            row = {
                "obs": ds.obs[j].tolist(),
                "vals": ds.vals[j].tolist(),
                "bids": ds.bids[j].tolist(),
            }
            fh.write(json.dumps(row) + "\n")


@dataclass(frozen=True)
class Cell:
    """Axis-aligned box [lo, hi), closed on a face where hi == 1.

    tau is the cell's total-variation radius (None until derived or declared);
    kappa bounds the conditional opponent observation density over the cell
    (may be math.inf when no finite bound exists).
    """
    lo: tuple
    hi: tuple
    tau: float = None
    kappa: float = None

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("cell lo/hi dimension mismatch")
        for a, b in zip(self.lo, self.hi):
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError(f"cell bounds [{a}, {b}] outside [0,1] or inverted")
        if self.tau is not None and not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0,1]")
        if self.kappa is not None and not self.kappa > 0:
            raise ValueError("kappa must be positive")

    def contains(self, point) -> bool:
        for x, a, b in zip(point, self.lo, self.hi):
            top_closed = b >= 1.0
            if x < a or x > b or (x == b and not top_closed):
                return False
        return True


class Partition:
    """Covering of an agent's observation space by disjoint boxes.

    Boundary points belong to the lowest-index containing cell, which the
    half-open box convention already makes unique except on closed top faces.
    """

    def __init__(self, agent: int, cells):
        if not cells:
            raise ValueError("partition needs at least one cell")
        self.agent = int(agent)
        self.cells = list(cells)
        self.dim = len(self.cells[0].lo)
        for c in self.cells:
            if len(c.lo) != self.dim:
                raise ValueError("cells must share a dimension")

    def __len__(self):
        return len(self.cells)

    def assign(self, point) -> int:
        for k, cell in enumerate(self.cells):
            if cell.contains(point):
                return k
        raise ValueError(f"partition does not cover point {tuple(point)}")

    def assign_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized assignment; lowest cell index wins on boundaries."""
        points = np.asarray(points, dtype=np.float64)
        out = np.full(len(points), -1, dtype=np.intp)
        for k, cell in enumerate(self.cells):
            lo = np.asarray(cell.lo)
            hi = np.asarray(cell.hi)
            inside = np.all(points >= lo, axis=1)
            top_closed = hi >= 1.0
            below = np.where(top_closed, points <= hi, points < hi)
            inside &= np.all(below, axis=1)
            out[(out == -1) & inside] = k
        if np.any(out == -1):
            j = int(np.argmax(out == -1))
            raise ValueError(
                f"partition does not cover point {tuple(points[j])}")
        return out

    def to_dict(self) -> dict:
        return {
            "agent": self.agent,
            "cells": [
                {"lo": list(c.lo), "hi": list(c.hi), "tau": c.tau,
                 "kappa": c.kappa}
                for c in self.cells
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Partition":
        cells = []
        for raw in d["cells"]:
            tau = raw.get("tau")
            kappa = raw.get("kappa")
            cells.append(Cell(
                lo=tuple(float(x) for x in raw["lo"]),
                hi=tuple(float(x) for x in raw["hi"]),
                tau=None if tau is None else float(tau),
                kappa=None if kappa is None else float(kappa),
            ))
        return cls(agent=int(d["agent"]), cells=cells)


def split_by_partition(ds: Dataset, partition: Partition):
    """Group records by the cell containing the partition agent's observation.

    Returns one index array per cell, empty for a cell no record falls in.
    Relative record order is preserved within each cell.
    """
    labels = partition.assign_many(ds.obs[:, partition.agent, :])
    return [np.flatnonzero(labels == k) for k in range(len(partition))]


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over [0,1]^dim whose points cover the cube within L1
    distance radius."""
    dim: int
    radius: float
    step: float
    points_per_axis: int

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.points_per_axis)

    def points(self) -> np.ndarray:
        """All lattice points, lexicographic in axis indices, shape (size, dim)."""
        axes = [self.axis] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def make_grid(dim: int, radius: float, cap: int = GRID_POINT_CAP) -> Grid:
    if dim < 1:
        raise ValueError("grid dim must be at least 1")
    if radius <= 0:
        raise ValueError("grid radius must be positive")
    h = min(2.0 * radius / dim, 1.0)
    # small epsilon so 1/0.04 = 25.000000000000004 still yields 25 segments
    segments = int(math.ceil(1.0 / h - 1e-9))
    points_per_axis = segments + 1
    total = points_per_axis ** dim
    if total > cap:
        need = total * dim * 8
        raise ValueError(
            f"grid too large: {total} points exceed cap {cap} "
            f"(would need about {need} bytes)")
    return Grid(dim=dim, radius=radius, step=1.0 / segments,
                points_per_axis=points_per_axis)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
