"""Core types: grids, datasets, partitions, hashes."""
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bneverify import model
from bneverify.estimator import estimate_ex_interim
from bneverify.model import (Cell, Dataset, GameConfig, Grid, MechanismSpec,
                             Partition, canonical_json, config_hash,
                             file_hash, load_dataset, make_grid, save_dataset,
                             split_by_partition)


def fpsb_game(n=2):
    return GameConfig(n_agents=n,
                      mechanism=MechanismSpec(kind="first_price_single_item"))


# ---------------------------------------------------------------- mechanism


def test_mechanism_bid_dims():
    assert MechanismSpec(kind="first_price_single_item").bid_dim == 1
    assert MechanismSpec(kind="first_price_combinatorial", items=3).bid_dim == 8
    assert MechanismSpec(kind="discriminatory", units=4).bid_dim == 4
    assert MechanismSpec(kind="uniform_price", units=2).bid_dim == 2


def test_mechanism_validation():
    with pytest.raises(ValueError, match="unknown mechanism kind"):
        MechanismSpec(kind="second_price")
    with pytest.raises(ValueError, match="items >= 1"):
        MechanismSpec(kind="first_price_combinatorial")
    with pytest.raises(ValueError, match="units >= 1"):
        MechanismSpec(kind="discriminatory")


def test_default_utility_scale_covers_multiunit_payoff_range():
    assert MechanismSpec(kind="uniform_price", units=3).default_utility_scale == 3.0
    assert MechanismSpec(kind="first_price_single_item").default_utility_scale == 1.0


def test_game_config_dims_autofill_and_check():
    game = GameConfig(n_agents=2,
                      mechanism=MechanismSpec(kind="discriminatory", units=2))
    assert (game.mechanism.bid_dim, game.utility_scale) == (2, 2.0)
    with pytest.raises(ValueError, match="utility_scale"):
        GameConfig(n_agents=2, mechanism=game.mechanism, utility_scale=-1.0)
    with pytest.raises(ValueError, match="n_agents"):
        GameConfig(n_agents=1,
                   mechanism=MechanismSpec(kind="first_price_single_item"))


# --------------------------------------------------------------------- grid


def test_grid_single_dim_width_002_has_26_points():
    grid = make_grid(1, 0.02)
    assert grid.points_per_axis == 26
    assert grid.points_per_axis ** grid.dim == 26
    axis = grid.axis
    assert axis[0] == 0.0 and axis[-1] == 1.0
    assert np.all(np.diff(axis) > 0)


def test_grid_two_dim_width_05_has_9_points_lexicographic():
    grid = make_grid(2, 0.5)
    assert grid.points_per_axis == 3
    pts = grid.points()
    assert pts.shape == (9, 2)
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[1]) == (0.0, 0.5)
    assert tuple(pts[-1]) == (1.0, 1.0)


def test_grid_large_width_collapses_to_endpoints():
    grid = make_grid(1, 0.6)
    assert list(grid.axis) == [0.0, 1.0]


def test_grid_halving_width_refines_the_lattice_bit_exactly():
    for w in (0.1, 0.02, 0.25):
        coarse = set(make_grid(1, w).axis.tolist())
        fine = set(make_grid(1, w / 2).axis.tolist())
        assert coarse <= fine


def test_grid_size_cap():
    with pytest.raises(ValueError, match="grid too large"):
        make_grid(3, 0.005)


@pytest.mark.parametrize("dim, width, count", [
    (1, 1e-300, "5.000e+299"),
    (1, 5e-324, "1.012e+323"),   # 1 / (2 * width) overflows a float
    (16, 5e-324, "2.233e+5187"),  # 2 * width / 16 underflows to 0
    # 2**dim alone exceeds the cap: decided without the power
    (24, 1.0, "2**24"),
    (2 ** 30, 1.0, "2**1073741824"),
    (10 ** 400, 0.1, "2**1.000e+400"),
])
def test_grid_size_cap_prints_huge_counts_briefly(dim, width, count):
    with pytest.raises(ValueError,
                       match=re.escape(f"grid too large: {count} points")) \
            as exc_info:
        make_grid(dim, width)
    assert len(str(exc_info.value)) < 120


def test_grid_validation():
    with pytest.raises(ValueError, match="radius must be positive"):
        make_grid(1, 0.0)
    with pytest.raises(ValueError, match="dim must be at least 1"):
        make_grid(0, 0.1)


@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.05, max_value=1.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_grid_covers_cube_within_l1_radius(dim, radius, seed):
    grid = make_grid(dim, radius, cap=10**6)
    axis = grid.axis
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((100, dim))
    # nearest lattice point coordinate-wise => L1 distance <= dim * h/2 <= w
    per_axis = np.min(np.abs(pts[:, :, None] - axis[None, None, :]), axis=2)
    assert np.all(per_axis.sum(axis=1) <= radius + 1e-8)


# ------------------------------------------------------------------ dataset


def make_dataset(n=4, n_agents=2, dim=1, seed=3):
    rng = np.random.Generator(np.random.Philox(seed))
    obs = rng.random((n, n_agents, dim))
    return Dataset(obs, obs.copy(), obs / 2.0, seed=seed)


def test_dataset_basics():
    ds = make_dataset(n=5)
    assert len(ds) == 5
    assert ds.obs.shape == ds.vals.shape == ds.bids.shape == (5, 2, 1)
    assert ds.seed == 3


def test_dataset_rejects_empty_and_ragged():
    empty = np.zeros((0, 2, 1))
    with pytest.raises(ValueError, match="dataset empty"):
        Dataset(empty, empty, empty)
    good = np.zeros((3, 2, 1))
    with pytest.raises(ValueError, match="record count"):
        Dataset(good, good, np.zeros((2, 2, 1)))
    with pytest.raises(ValueError, match=r"\(N, n_agents, dim\)"):
        Dataset(np.zeros((3, 2)), good, good)


def test_dataset_validate_range_and_shape():
    game = fpsb_game()
    arr = np.full((2, 2, 1), 0.5)
    bad = arr.copy()
    bad[1, 0, 0] = 1.5
    with pytest.raises(ValueError, match="coordinate out of range"):
        Dataset(arr, arr, bad).validate(game)
    with pytest.raises(ValueError, match="does not match config"):
        Dataset(np.full((2, 2, 2), 0.5), arr, arr).validate(game)


def test_dataset_validate_refuses_increasing_multi_unit_bids():
    two_unit = GameConfig(n_agents=2, mechanism=MechanismSpec(
        kind="discriminatory", units=2))
    rng = np.random.Generator(np.random.Philox(3))
    rising = np.sort(rng.random((50, 2, 2)), axis=2)
    falling = rising[:, :, ::-1]
    ds = Dataset(falling, falling, rising)
    with pytest.raises(ValueError, match="^bids must be non-increasing "
                                         "across units$"):
        ds.validate(two_unit)
    # the estimators validate their dataset, so the API path refuses them
    # too, as load_dataset does
    with pytest.raises(ValueError, match="^bids must be non-increasing"):
        estimate_ex_interim(ds, None, make_grid(2, 0.25), two_unit, 0)
    # a range fault is named first
    bad = falling.copy()
    bad[0, 0, 0] = 1.5
    with pytest.raises(ValueError, match="^obs coordinate out of range"):
        Dataset(bad, falling, rising).validate(two_unit)
    # a one-item bundle bid has no order; non-increasing unit bids pass
    Dataset(rising, rising, rising).validate(GameConfig(
        n_agents=2, mechanism=MechanismSpec(kind="first_price_combinatorial",
                                            items=1)))
    Dataset(falling, falling, falling).validate(two_unit)


def test_unit_range_scan_agrees_with_two_comparisons():
    # the min/max scan against the elementwise form it replaced
    edges = [math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, 1.0,
             float(np.nextafter(1.0, 2.0)), 5e-324, -5e-324, 2.0 ** -1060,
             float(np.nextafter(0.0, -1.0))]
    arrays = [np.array(pair).reshape(2, 1, 1)
              for pair in itertools.product(edges, repeat=2)]
    # broadcasts along the agent and the record axis
    arrays += ([np.broadcast_to(arr, (2, 3, 1)) for arr in arrays]
               + [np.broadcast_to(arr[1:], (4, 1, 1)) for arr in arrays])
    arrays += [np.zeros(shape) for shape in ((0,), (0, 2, 1), (3, 0, 1))]
    arrays += [np.broadcast_to(np.zeros(1), (0, 2, 1))]
    for arr in arrays:
        want = bool(np.all((arr >= 0.0) & (arr <= 1.0)))
        assert model._in_unit_range(arr) is want, arr


def test_dataset_file_round_trip_is_bit_exact(tmp_path):
    game = fpsb_game()
    ds = make_dataset(n=1000, seed=11)
    ds.bids[::7] = 0.0   # both ends of [0, 1] are inside it
    ds.vals[::11] = 1.0
    path = tmp_path / "records.jsonl"
    save_dataset(ds, path, config_hash="ab12")
    again = load_dataset(path, game)
    assert again.seed == 11
    assert np.array_equal(again.obs, ds.obs)
    assert np.array_equal(again.vals, ds.vals)
    assert np.array_equal(again.bids, ds.bids)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"seed": 11, "config_hash": "ab12"}


@pytest.mark.parametrize("mechanism", [
    MechanismSpec(kind="first_price_combinatorial", items=1),
    MechanismSpec(kind="uniform_price", units=2)],
    ids=["one_item", "two_unit"])
def test_two_coordinate_rows_round_trip_bit_exactly(tmp_path, mechanism):
    game = GameConfig(n_agents=3, mechanism=mechanism)
    rng = np.random.Generator(np.random.Philox(7))
    # non-increasing bid vectors, as a two-unit game requires
    obs = np.sort(rng.random((500, 3, 2)), axis=2)[:, :, ::-1]
    ds = Dataset(obs, obs, obs * rng.random((500, 3, 1)))
    ds.bids[::9, :, 1] = ds.bids[::9, :, 0]   # ties between units
    path = tmp_path / "records.jsonl"
    save_dataset(ds, path)
    again = load_dataset(path, game)
    for field in ("obs", "vals", "bids"):
        assert getattr(again, field).shape == (500, 3, 2)
        assert getattr(again, field).tobytes() == getattr(ds, field).tobytes()
    lines = path.read_text().splitlines()
    lines[3] = lines[3].replace('"bids": [[', '"bids": [[0.1, ', 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^malformed row, line 4: bids is "
                                         "not an array of numbers$"):
        load_dataset(path, game)


def test_multi_unit_bid_vectors_must_not_increase(tmp_path):
    game = GameConfig(n_agents=2,
                      mechanism=MechanismSpec(kind="discriminatory", units=2))
    good = {"obs": [[0.5, 0.4], [0.3, 0.3]], "vals": [[0.5, 0.4], [0.3, 0.3]],
            "bids": [[0.25, 0.2], [0.2, 0.2]]}
    path = tmp_path / "records.jsonl"
    rows = [good, dict(good, bids=[[0.2, 0.2], [0.1, 0.15]]), good]
    path.write_text("\n".join(map(json.dumps, rows)) + "\n")
    with pytest.raises(ValueError, match="^bids must be non-increasing "
                                         "across units, line 2$"):
        load_dataset(path, game)
    # a range fault earlier in the file is named first
    rows[0] = dict(good, obs=[[1.5, 0.4], [0.3, 0.3]])
    path.write_text("\n".join(map(json.dumps, rows)) + "\n")
    with pytest.raises(ValueError, match="^obs coordinate out of range, "
                                         "line 1$"):
        load_dataset(path, game)
    # two items' bundle bids and recorded observations have no order
    combinatorial = GameConfig(n_agents=2, mechanism=MechanismSpec(
        kind="first_price_combinatorial", items=1))
    rows = [dict(good, obs=[[0.4, 0.5], [0.3, 0.3]],
                 bids=[[0.1, 0.2], [0.2, 0.2]])]
    path.write_text(json.dumps(rows[0]) + "\n")
    assert load_dataset(path, combinatorial).bids[0, 0, 1] == 0.2
    path.write_text(json.dumps(dict(good, obs=[[0.4, 0.5], [0.3, 0.3]]))
                    + "\n")
    assert load_dataset(path, game).obs[0, 0, 1] == 0.5


def test_load_dataset_reports_offending_line(tmp_path):
    game = fpsb_game()
    good = '{"obs": [[0.5], [0.5]], "vals": [[0.5], [0.5]], "bids": [[0.2], [0.2]]}'

    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + "{not json}\n")
    with pytest.raises(ValueError, match="malformed row, line 2"):
        load_dataset(path, game)

    path.write_text('{"obs": [[0.5], [0.5]], "vals": [[0.5], [0.5]]}\n')
    with pytest.raises(ValueError, match="malformed row, line 1: missing 'bids'"):
        load_dataset(path, game)

    path.write_text(good + "\n" + "[0.5, 0.2]\n")
    with pytest.raises(ValueError, match="malformed row, line 2: not a JSON "
                                         "object"):
        load_dataset(path, game)

    # json strings, booleans and null would each convert to a float
    for bad in ('[[0.2, 0.1], [0.2]]', '[["x"], [0.2]]',
                '[{"b": 0.2}, [0.2]]', '[["0.2"], [0.2]]',
                '[[true], [false]]', '[[null], [0.2]]'):
        path.write_text(good + "\n" + good.replace('[[0.2], [0.2]]', bad)
                        + "\n")
        with pytest.raises(ValueError, match="malformed row, line 2: bids is "
                                             "not an array of numbers"):
            load_dataset(path, game)

    path.write_text(good + "\n"
                    + '{"obs": [[0.5, 0.1], [0.5, 0.1]], '
                    '"vals": [[0.5], [0.5]], "bids": [[0.2], [0.2]]}\n')
    with pytest.raises(ValueError, match="dimension mismatch, line 2"):
        load_dataset(path, game)

    # a flat list per field is not a list of per-agent vectors
    for bad in ('[0.2, 0.2]', '0.2'):
        path.write_text(good.replace('[[0.2], [0.2]]', bad) + "\n")
        with pytest.raises(ValueError, match="malformed row, line 1: bids "
                                             "must be a list of per-agent "
                                             "vectors"):
            load_dataset(path, game)

    path.write_text(good + "\n" + good.replace('"bids": [[0.2]',
                                               '"bids": [[1.2]') + "\n")
    with pytest.raises(ValueError, match="coordinate out of range, line 2"):
        load_dataset(path, game)

    path.write_text('{"seed": 1}\n')
    with pytest.raises(ValueError, match="dataset empty"):
        load_dataset(path, game)


def test_load_dataset_names_the_first_fault_in_file_order(tmp_path):
    game = fpsb_game()
    good = {"obs": [[0.5], [0.5]], "vals": [[0.5], [0.5]],
            "bids": [[0.2], [0.2]]}
    path = tmp_path / "bad.jsonl"

    def write(*rows):
        path.write_text("\n".join(r if isinstance(r, str) else json.dumps(r)
                                  for r in rows) + "\n")

    # a range fault on line 2 comes before a shape or JSON fault on line 4
    wide = dict(good, obs=[[0.5, 0.1], [0.5, 0.1]])
    for later in (wide, "{not json}"):
        write(good, dict(good, vals=[[1.5], [0.5]]), good, later)
        with pytest.raises(ValueError,
                           match="^vals coordinate out of range, line 2$"):
            load_dataset(path, game)
    # within a line, the first faulty field is named
    write(good, good, dict(good, obs=[[0.5], [-0.1]],
                           bids=[[float("nan")], [0.2]]))
    with pytest.raises(ValueError, match="^obs coordinate out of range, "
                                         "line 3$"):
        load_dataset(path, game)
    write(good, dict(good, bids=[[float("nan")], [0.2]]),
          dict(good, obs=[[2.0], [0.5]]))
    with pytest.raises(ValueError, match="^bids coordinate not a finite "
                                         "number, line 2$"):
        load_dataset(path, game)


# ---------------------------------------------------------------- partition


def two_cell_partition():
    return Partition(0, [Cell(lo=(0.0,), hi=(0.5,)),
                         Cell(lo=(0.5,), hi=(1.0,))])


def test_cell_membership_half_open_with_closed_top():
    low, high = two_cell_partition().cells
    assert low.contains((0.0,)) and low.contains((0.499,))
    assert not low.contains((0.5,))      # boundary belongs to the next cell
    assert high.contains((0.5,)) and high.contains((1.0,))


def test_cell_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Cell(lo=(0.0,), hi=(0.5, 1.0))
    with pytest.raises(ValueError, match="outside \\[0,1\\] or inverted"):
        Cell(lo=(0.6,), hi=(0.5,))
    with pytest.raises(ValueError, match="tau"):
        Cell(lo=(0.0,), hi=(1.0,), tau=1.5)
    with pytest.raises(ValueError, match="kappa"):
        Cell(lo=(0.0,), hi=(1.0,), kappa=0.0)


def test_partition_assignment_examples():
    part = two_cell_partition()
    assert part.assign((0.25,)) == 0
    assert part.assign((0.5,)) == 1
    assert part.assign((0.999,)) == 1
    assert part.assign((1.0,)) == 1
    many = part.assign_many(np.array([[0.25], [0.5], [0.999], [1.0]]))
    assert list(many) == [0, 1, 1, 1]


def test_partition_reports_uncovered_points():
    gappy = Partition(0, [Cell(lo=(0.0,), hi=(0.4,)),
                          Cell(lo=(0.5,), hi=(1.0,))])
    with pytest.raises(ValueError, match="does not cover point"):
        gappy.assign((0.45,))
    with pytest.raises(ValueError, match="does not cover point"):
        gappy.assign_many(np.array([[0.1], [0.45]]))


def test_partition_from_dict_and_required_agent():
    part = Partition.from_dict({"agent": 1, "cells": [
        {"lo": [0.0], "hi": [1.0], "tau": 0.25, "kappa": 3.0}]})
    assert part.agent == 1
    assert part.cells == [Cell(lo=(0.0,), hi=(1.0,), tau=0.25, kappa=3.0)]
    with pytest.raises(KeyError):
        Partition.from_dict({"cells": [{"lo": [0.0], "hi": [1.0]}]})


def test_split_by_partition_conserves_records_in_order():
    obs = np.array([[[0.1], [0.9]], [[0.7], [0.2]],
                    [[0.4], [0.5]], [[0.5], [0.6]]])
    ds = Dataset(obs, obs.copy(), obs / 2.0)
    part = two_cell_partition()
    idx = list(split_by_partition(ds, part))
    assert list(idx[0]) == [0, 2]
    assert list(idx[1]) == [1, 3]
    assert sorted(np.concatenate(idx).tolist()) == [0, 1, 2, 3]


def test_split_by_partition_empty_cell_yields_an_empty_index_array():
    obs = np.full((3, 2, 1), 0.25)
    ds = Dataset(obs, obs.copy(), obs.copy())
    idx = list(split_by_partition(ds, two_cell_partition()))
    assert list(idx[0]) == [0, 1, 2]
    assert len(idx[1]) == 0


@st.composite
def labelled_records(draw):
    """Records whose agent's observation lies in a drawn cell of a 1-D
    partition into 2**p equal cells, on a cell's lower edge, inside it, or
    on the closed top face; many cells stay empty."""
    n_cells = 2 ** draw(st.integers(min_value=0, max_value=4))
    agent = draw(st.integers(min_value=0, max_value=1))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n_cells - 1),
                           min_size=1, max_size=80))
    # sixteenths of a cell are exact, and the top one is the next cell's
    spots = draw(st.lists(st.integers(min_value=0, max_value=15),
                          min_size=len(labels), max_size=len(labels)))
    obs = np.full((len(labels), 2, 1), 0.5)
    obs[:, agent, 0] = [(k + j / 16) / n_cells
                        for k, j in zip(labels, spots)]
    top = [r for r, k in enumerate(labels) if k == n_cells - 1]
    obs[top[:draw(st.integers(min_value=0, max_value=len(top)))], agent] = 1.0
    cells = [Cell(lo=(k / n_cells,), hi=((k + 1) / n_cells,))
             for k in range(n_cells)]
    ds = Dataset(obs, obs.copy(), obs.copy())
    return ds, Partition(agent, cells), np.array(labels)


@given(labelled_records())
@settings(max_examples=200, deadline=None)
def test_split_by_partition_matches_a_scan_per_cell(case):
    ds, part, labels = case
    got = list(split_by_partition(ds, part))
    want = [np.flatnonzero(labels == k) for k in range(len(part))]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


@given(st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1,
                max_size=6, unique=True),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_partition_from_sorted_boundaries_always_covers(bounds, seed):
    edges = [0.0] + sorted(bounds) + [1.0]
    cells = [Cell(lo=(a,), hi=(b,)) for a, b in zip(edges, edges[1:])]
    part = Partition(0, cells)
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((200, 1))
    labels = part.assign_many(pts)
    for p, k in zip(pts, labels):
        assert cells[k].contains(p)


EDGE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def boxes_and_points(draw):
    """2-D boxes with corners on the quarter lattice, overlapping freely,
    then the whole cube so every point is covered; points on cell edges, on
    the closed top faces or anywhere."""
    cells = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        (x0, x1), (y0, y1) = (sorted(draw(st.lists(EDGE, min_size=2,
                                                     max_size=2)))
                              for _ in range(2))
        cells.append(Cell(lo=(x0, y0), hi=(x1, y1)))
    cells.append(Cell(lo=(0.0, 0.0), hi=(1.0, 1.0)))
    coord = st.one_of(EDGE, st.floats(min_value=0.0, max_value=1.0))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    return Partition(0, cells), np.array(points)


@given(boxes_and_points())
@settings(max_examples=200, deadline=None)
def test_assign_many_matches_assign_on_edges_and_top_faces(case):
    part, points = case
    assert part.assign_many(points).tolist() == \
        [part.assign(p) for p in points]


@given(boxes_and_points())
@settings(max_examples=100, deadline=None)
def test_assign_many_in_blocks_of_three_matches_assign(case):
    # up to 30 points, so many counts that are not multiples of the block
    part, points = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_ASSIGN_BLOCK", 3)
        got = part.assign_many(points)
    assert got.tolist() == [part.assign(p) for p in points]


def test_assign_many_in_blocks_names_the_first_uncovered_point():
    gappy = Partition(0, [Cell(lo=(0.0,), hi=(0.4,)),
                          Cell(lo=(0.5,), hi=(1.0,))])
    # points on edges and the top face; the first uncovered one, in any of
    # three blocks, comes before another
    covered = [[0.0], [0.5], [1.0], [0.25], [0.75], [0.5], [0.999], [0.0]]
    for first in range(7):
        points = np.array(covered)
        points[first] = 0.4
        points[7] = 0.45
        with pytest.raises(ValueError) as want:
            gappy.assign(points[first])
        for block in (3, 8, model._ASSIGN_BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(model, "_ASSIGN_BLOCK", block)
                with pytest.raises(ValueError) as got:
                    gappy.assign_many(points)
            assert str(got.value) == str(want.value)


# ------------------------------------------------------------------- hashes


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'
    assert config_hash({"b": 1, "a": [1, 2]}) == config_hash({"a": [1, 2], "b": 1})
    assert len(config_hash({})) == 64


def test_file_hash_tracks_content(tmp_path):
    p = tmp_path / "blob"
    p.write_bytes(b"abc")
    q = tmp_path / "blob2"
    q.write_bytes(b"abc")
    assert file_hash(p) == file_hash(q)
    q.write_bytes(b"abd")
    assert file_hash(p) != file_hash(q)
