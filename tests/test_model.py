"""Core types: grids, datasets, partitions, hashes."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert (game.obs_dim, game.val_dim, game.utility_scale) == (2, 2, 2.0)
    with pytest.raises(ValueError, match="bid dimension"):
        GameConfig(n_agents=2, mechanism=MechanismSpec(kind="discriminatory",
                                                       units=2), obs_dim=1)
    with pytest.raises(ValueError, match="n_agents"):
        GameConfig(n_agents=1,
                   mechanism=MechanismSpec(kind="first_price_single_item"))


def test_game_config_round_trip():
    game = GameConfig(n_agents=3,
                      mechanism=MechanismSpec(kind="uniform_price", units=2))
    assert GameConfig.from_dict(game.to_dict()) == game


# --------------------------------------------------------------------- grid


def test_grid_single_dim_width_002_has_26_points():
    grid = make_grid(1, 0.02)
    assert grid.points_per_axis == 26
    assert grid.size == 26
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


def test_dataset_file_round_trip_is_bit_exact(tmp_path):
    game = fpsb_game()
    ds = make_dataset(n=7, seed=11)
    path = tmp_path / "records.jsonl"
    save_dataset(ds, path, config_hash="ab12")
    again = load_dataset(path, game)
    assert again.seed == 11
    assert np.array_equal(again.obs, ds.obs)
    assert np.array_equal(again.vals, ds.vals)
    assert np.array_equal(again.bids, ds.bids)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"seed": 11, "config_hash": "ab12"}


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

    path.write_text(good + "\n"
                    + '{"obs": [[0.5, 0.1], [0.5, 0.1]], '
                    '"vals": [[0.5], [0.5]], "bids": [[0.2], [0.2]]}\n')
    with pytest.raises(ValueError, match="dimension mismatch, line 2"):
        load_dataset(path, game)

    path.write_text(good + "\n" + good.replace('"bids": [[0.2]',
                                               '"bids": [[1.2]') + "\n")
    with pytest.raises(ValueError, match="coordinate out of range, line 2"):
        load_dataset(path, game)

    path.write_text('{"seed": 1}\n')
    with pytest.raises(ValueError, match="dataset empty"):
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


def test_partition_round_trip_and_required_agent():
    part = Partition(1, [Cell(lo=(0.0,), hi=(1.0,), tau=0.25, kappa=3.0)])
    again = Partition.from_dict(part.to_dict())
    assert again.agent == 1
    assert again.cells[0].tau == 0.25 and again.cells[0].kappa == 3.0
    with pytest.raises(KeyError):
        Partition.from_dict({"cells": [{"lo": [0.0], "hi": [1.0]}]})


def test_split_by_partition_conserves_records_in_order():
    obs = np.array([[[0.1], [0.9]], [[0.7], [0.2]],
                    [[0.4], [0.5]], [[0.5], [0.6]]])
    ds = Dataset(obs, obs.copy(), obs / 2.0)
    part = two_cell_partition()
    idx = split_by_partition(ds, part)
    assert list(idx[0]) == [0, 2]
    assert list(idx[1]) == [1, 3]
    assert sorted(np.concatenate(idx).tolist()) == [0, 1, 2, 3]


def test_split_by_partition_empty_cell_yields_none():
    obs = np.full((3, 2, 1), 0.25)
    ds = Dataset(obs, obs.copy(), obs.copy())
    idx = split_by_partition(ds, two_cell_partition())
    assert list(idx[0]) == [0, 1, 2]
    assert len(idx[1]) == 0


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
