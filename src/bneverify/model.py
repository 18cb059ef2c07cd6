"""Core domain types: game configuration, sample datasets, partitions and grids.

Every empirical mean over a dataset's records is fixed by the multiset of
records alone (exact counts, sorted prefix sums or correctly rounded sums;
see estimator), so it is bit-reproducible regardless of record order,
numpy version or platform.
"""
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

# guard against combinatorial blowup when materializing lattices
GRID_POINT_CAP = 10_000_000
# points per block of Partition.assign_many
_ASSIGN_BLOCK = 1 << 15

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
    def sorted_bids(self) -> bool:
        """Whether bid vectors hold several units' bids, highest first."""
        return (self.kind in ("discriminatory", "uniform_price")
                and self.units > 1)


@dataclass(frozen=True)
class GameConfig:
    """Static description of the Bayesian auction game.

    Observations, valuations and bids live in [0,1]^bid_dim per agent, with
    bid_dim the mechanism's.
    """
    n_agents: int
    mechanism: MechanismSpec

    def __post_init__(self):
        if self.n_agents < 2:
            raise ValueError("n_agents must be at least 2")

    @property
    def utility_scale(self) -> float:
        """The rule's payoff range H, which maps raw quasilinear payoffs
        into [-1, 1]: multi-unit payoffs range over [-m, m] for m units,
        the others over [-1, 1]."""
        if self.mechanism.kind in ("discriminatory", "uniform_price"):
            return float(self.mechanism.units)
        return 1.0


class Dataset:
    """Ordered collection of sample records, stored as float64 arrays.

    A float64 array is kept as given, so fields may share memory (bids
    that are the observations, private values that are the observations)
    or be read-only broadcasts (a common value repeated for every agent).
    Estimates do not depend on record order: each is the same for any
    permutation of the records.
    """

    def __init__(self, obs: np.ndarray, vals: np.ndarray, bids: np.ndarray,
                 seed=None):
        obs = np.asarray(obs, dtype=np.float64)
        vals = np.asarray(vals, dtype=np.float64)
        bids = np.asarray(bids, dtype=np.float64)
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
        self._in_range = None   # per field, set by the first validate
        self._rising = None     # whether a bid vector increases, likewise

    def __len__(self) -> int:
        return len(self.obs)

    def validate(self, config: GameConfig):
        """Check the arrays' shapes against config, every coordinate
        against [0, 1] and, under a rule with sorted bids, that no bid
        vector increases, as load_dataset does. The coordinates are scanned
        on the first call only, once per distinct buffer, and the bids'
        order once; from then on the dataset's arrays are read-only views,
        so the scans cannot go stale through them."""
        if self._in_range is None:
            self._in_range, scanned = {}, {}
            for name in _DATASET_FIELDS:
                arr = getattr(self, name).view()
                arr.flags.writeable = False
                setattr(self, name, arr)
                # identity bids and private values are the observations
                key = (arr.__array_interface__["data"][0], arr.shape,
                       arr.strides)
                if key not in scanned:
                    scanned[key] = _in_unit_range(arr)
                self._in_range[name] = scanned[key]
            bids = self.bids
            self._rising = bool(np.greater(bids[..., 1:], bids[..., :-1])
                                .any())
        want = (config.n_agents, config.mechanism.bid_dim)
        for name in _DATASET_FIELDS:
            arr = getattr(self, name)
            if arr.shape[1:] != want:
                raise ValueError(
                    f"{name} shaped {arr.shape[1:]} does not match config {want}")
            if not self._in_range[name]:
                raise ValueError(f"{name} coordinate out of range or not "
                                 "a number")
        if config.mechanism.sorted_bids and self._rising:
            raise ValueError("bids must be non-increasing across units")


def _in_unit_range(arr: np.ndarray) -> bool:
    """Whether every coordinate lies in [0, 1]: one min scan, then one max
    scan, with no temporaries. Both propagate a NaN, which fails the
    comparison; a zero-size array holds no coordinate out of range. An
    axis of stride 0 (a broadcast) repeats its first entry, so only that
    entry is scanned."""
    arr = arr[tuple(slice(None) if s else slice(1) for s in arr.strides)]
    return not arr.size or bool(arr.min() >= 0.0 and arr.max() <= 1.0)


_DATASET_FIELDS = ("obs", "vals", "bids")


def is_number(x) -> bool:
    """Whether x is a JSON number: an int or a float by exact type, so true,
    false (bool is an int subclass), strings and null are not."""
    return all_numbers((x,))


def is_integer(x) -> bool:
    """Whether x is a JSON integer: an int by exact type, so true and false
    are not."""
    return type(x) is int


def all_numbers(values) -> bool:
    """Whether every item of values is a JSON number (see is_number)."""
    return {int, float}.issuperset(map(type, values))


def number(x, what: str) -> float:
    """x as a float when it is a JSON number; else ValueError naming what.
    A JSON integer beyond the float range is a ValueError too."""
    if not is_number(x):
        raise ValueError(f"{what} must be a number")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def json_value(x, kind: type, what: str):
    """x if it has the JSON type kind, else ValueError naming what."""
    if not isinstance(x, kind):
        raise ValueError(f"{what} must be {_JSON_TYPES[kind]}")
    return x


def known_keys(d: dict, keys, what: str):
    """Refuse a key of the JSON object d outside keys, naming it and what;
    called once d's known fields are read, so their faults come first."""
    for key in d:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}; it may hold "
                             f"{', '.join(keys) or 'no key'}")


def numbers(xs, what: str) -> list:
    """xs as floats if it is a JSON list of numbers, else ValueError."""
    return [number(x, what) for x in json_value(xs, list, what)]


def _record_numbers(row: dict, n: int, dim: int):
    """The record's numbers, obs then vals then bids, as one flat list when
    every field is a list of n per-agent lists of dim JSON numbers; else
    None."""
    fields = [row.get(key) for key in _DATASET_FIELDS]
    if any(type(f) is not list or len(f) != n for f in fields):
        return None
    vectors = fields[0] + fields[1] + fields[2]
    if set(map(type, vectors)) != {list} or set(map(len, vectors)) != {dim}:
        return None
    flat = list(itertools.chain.from_iterable(vectors))
    if not all_numbers(flat):
        return None
    return flat


def _row_fault(row: dict, line_no: int, shape) -> str:
    """Why _record_numbers refused row: the first field, in obs, vals, bids
    order, that is missing, is not a list of per-agent lists of equal
    length, holds an entry that is not a JSON number, or has another shape
    than the config's."""
    for key in _DATASET_FIELDS:
        if key not in row:
            return f"malformed row, line {line_no}: missing {key!r}"
        value = row[key]
        if type(value) is not list or (value and all_numbers(value)):
            return (f"malformed row, line {line_no}: {key} must be a list of "
                    "per-agent vectors")
        if (not all(type(v) is list and all_numbers(v) for v in value)
                or len(set(map(len, value))) != 1):
            return (f"malformed row, line {line_no}: {key} is not an array "
                    "of numbers")
        got = (len(value), len(value[0]))
        if got != shape:
            return (f"dimension mismatch, line {line_no}: {key} has shape "
                    f"{got}, config requires {shape}")


def _check_dataset_ranges(numbers, line_nos, shape, sorted_bids: bool):
    """Split the records' numbers (one flat list, each record's obs, vals
    and bids in turn) into (N, *shape) arrays per field and raise for the
    first record, in file order, holding a coordinate that is outside
    [0, 1] or not a finite number, or, when sorted_bids is set, a bid vector
    that increases; name its first such field.

    Each field is checked in one pass (json.loads accepts NaN and Infinity,
    and a NaN fails both comparisons).
    """
    try:
        records = np.array(numbers, dtype=np.float64)
    except OverflowError:
        # an integer beyond the float range is out of range like any number
        # above 1; clamped to the largest float it is reported the same way
        top = sys.float_info.max
        records = np.array([x if type(x) is float else min(max(x, -top), top)
                            for x in numbers], dtype=np.float64)
    records = records.reshape((len(line_nos), len(_DATASET_FIELDS)) + shape)
    stacked = {key: np.ascontiguousarray(records[:, j])
               for j, key in enumerate(_DATASET_FIELDS)}
    bad = {key: ~((arr >= 0.0) & (arr <= 1.0)).all(axis=(1, 2))
           for key, arr in stacked.items()}
    rising = sorted_bids & (np.diff(stacked["bids"], axis=2) > 0).any((1, 2))
    first = np.flatnonzero(bad["obs"] | bad["vals"] | bad["bids"] | rising)
    if first.size:
        rec = int(first[0])
        key = next((k for k in _DATASET_FIELDS if bad[k][rec]), None)
        if key is None:
            raise ValueError("bids must be non-increasing across units, "
                             f"line {line_nos[rec]}")
        what = ("out of range" if np.isfinite(stacked[key][rec]).all()
                else "not a finite number")
        raise ValueError(f"{key} coordinate {what}, line {line_nos[rec]}")
    return stacked


def load_dataset(path, config: GameConfig) -> Dataset:
    """Read a JSON-lines dataset file and validate it against config.

    An optional first line with none of the keys obs, vals and bids is a
    header carrying the generator seed and config hash. Every record must hold
    per-agent lists of JSON numbers in the config's shape; each is appended
    to one flat list of numbers, converted once at the end. Under a
    multi-unit rule with more than one unit, each recorded bid vector must
    be non-increasing. Faults are reported for the first offending line;
    value ranges are checked once over all records, and before a later
    line's parse fault is reported.
    """
    shape = (config.n_agents, config.mechanism.bid_dim)
    sorted_bids = config.mechanism.sorted_bids
    numbers = []
    line_nos = []
    seed = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(
                        f"malformed row, line {line_no}: not a JSON object")
                if line_no == 1 and not row.keys() & _DATASET_FIELDS:
                    seed = row.get("seed")
                    continue
                record = _record_numbers(row, *shape)
                if record is None:
                    raise ValueError(_row_fault(row, line_no, shape))
            except ValueError as exc:
                # earlier lines first
                _check_dataset_ranges(numbers, line_nos, shape, sorted_bids)
                if isinstance(exc, json.JSONDecodeError):
                    raise ValueError(
                        f"malformed row, line {line_no}: {exc}") from exc
                raise
            numbers += record
            line_nos.append(line_no)
    if not line_nos:
        raise ValueError("dataset empty")
    stacked = _check_dataset_ranges(numbers, line_nos, shape, sorted_bids)
    return Dataset(stacked["obs"], stacked["vals"], stacked["bids"], seed=seed)


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

    tau is the cell's total-variation radius and kappa bounds the
    conditional opponent observation density over the cell (math.inf when
    no finite bound exists). Both are declared only for recorded data; a
    prior derives them, and its cells leave them None.
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
        """Vectorized assignment; lowest cell index wins on boundaries.

        Labels are the smallest unsigned integer type that holds every
        cell index. Cell k scores K - k (K cells) where it contains a
        point, and a point takes the highest score: its lowest cell.
        Points are labelled _ASSIGN_BLOCK rows at a time, each block
        transposed into its own copy, so the scratch stays O(block).
        """
        points = np.asarray(points, dtype=np.float64)
        n_cells = len(self.cells)
        dtype = np.min_scalar_type(n_cells)
        labels = np.empty(len(points), dtype=dtype)
        for lo in range(0, len(points), _ASSIGN_BLOCK):
            rows = points[lo:lo + _ASSIGN_BLOCK]
            cols = np.ascontiguousarray(rows.T)   # one row per coordinate
            score = np.zeros(len(rows), dtype=dtype)
            scored = np.empty_like(score)
            inside = np.empty(len(rows), dtype=bool)
            edge = np.empty(len(rows), dtype=bool)
            for k, cell in enumerate(self.cells):
                inside.fill(True)
                for col, a, b in zip(cols, cell.lo, cell.hi):
                    inside &= np.greater_equal(col, a, out=edge)
                    inside &= (np.less_equal if b >= 1.0 else np.less)(
                        col, b, out=edge)
                np.maximum(score, np.multiply(inside, n_cells - k, out=scored,
                                              dtype=dtype), out=score)
            if not score.all():
                raise ValueError(f"partition does not cover point "
                                 f"{tuple(rows[np.argmin(score)])}")
            np.subtract(n_cells, score, out=labels[lo:lo + len(rows)])
        return labels

    @classmethod
    def from_dict(cls, d: dict) -> "Partition":
        cells = []
        for k, raw in enumerate(json_value(d["cells"], list, "cells")):
            raw = json_value(raw, dict, f"cells[{k}]")
            tau = raw.get("tau")
            kappa = raw.get("kappa")
            cells.append(Cell(
                lo=tuple(numbers(raw["lo"], f"cells[{k}].lo")),
                hi=tuple(numbers(raw["hi"], f"cells[{k}].hi")),
                tau=None if tau is None else number(tau, f"cells[{k}].tau"),
                kappa=(None if kappa is None
                       else number(kappa, f"cells[{k}].kappa")),
            ))
            known_keys(raw, ("lo", "hi", "tau", "kappa"), f"cells[{k}]")
        if not is_integer(d["agent"]):
            raise ValueError("agent must be an integer")
        known_keys(d, ("agent", "cells"), "the partition")
        return cls(agent=d["agent"], cells=cells)


def split_by_partition(ds: Dataset, partition: Partition):
    """Group records by the cell containing the partition agent's observation.

    Labels every record on the call, then returns an iterator that yields
    one ascending index array per cell in turn, empty for a cell no record
    falls in, each read off the labels by one scan (no sort). Only the
    labels and the cell at hand are held, never every cell's indices.
    """
    labels = partition.assign_many(ds.obs[:, partition.agent, :])
    return (np.flatnonzero(labels == k) for k in range(len(partition)))


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over [0,1]^dim; make_grid sizes it so that its points
    cover the cube within a given L1 distance."""
    dim: int
    points_per_axis: int

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.points_per_axis)

    def points(self) -> np.ndarray:
        """All lattice points, lexicographic in axis indices, shape
        (points_per_axis ** dim, dim)."""
        axes = [self.axis] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _short_count(n: int) -> str:
    """n in full below 10**12, else to four significant digits (5.000e+599),
    rounded from the exact int, which may be too large for a float."""
    if n < 10 ** 12:
        return str(n)
    from decimal import Decimal
    return format(Decimal(n), ".3e")


def make_grid(dim: int, radius: float, cap: int = GRID_POINT_CAP) -> Grid:
    """The lattice for a width; it builds no points, so an oversized width
    fails here, before any data is sampled or loaded."""
    if dim < 1:
        raise ValueError("grid dim must be at least 1")
    if radius <= 0:
        raise ValueError("grid radius must be positive")
    if dim >= cap.bit_length():
        # at least 2 points per axis, and 2**dim > cap: no need to size it
        raise ValueError(f"grid too large: 2**{_short_count(dim)} points or "
                         f"more exceed cap {cap}")
    h = min(2.0 * radius / dim, 1.0)
    if h > 0.0 and 1.0 / h < math.inf:
        # small epsilon so 1/0.04 = 25.000000000000004 still yields 25 segments
        segments = int(math.ceil(1.0 / h - 1e-9))
    else:   # 1/h overflows: count exactly
        from fractions import Fraction
        segments = math.ceil(Fraction(dim) / (2 * Fraction(radius)))
    points_per_axis = segments + 1
    total = points_per_axis ** dim
    if total > cap:
        raise ValueError(
            f"grid too large: {_short_count(total)} points exceed cap {cap} "
            f"(would need about {_short_count(total * dim * 8)} bytes)")
    return Grid(dim=dim, points_per_axis=points_per_axis)


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
