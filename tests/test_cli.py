"""Config parsing, the batch runner, report determinism, and CSV emitters."""
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bneverify import cli, priors
from bneverify.bounds import FLAG_DEGRADED_BOUND, FLAG_VACUOUS_DISPERSION
from bneverify.cli import (FLAG_DECLARED_TAU, ConfigError, RunReport,
                           emit_plot_data, load_config, main, parse_config,
                           run)
from bneverify.model import Partition, canonical_json, file_hash
from bneverify.priors import (CorrelatedCommonValue, prior_from_dict,
                              sample_dataset, tv_profile)
from bneverify.strategies import FLAG_UNCERTIFIED, profile_from_config


def eq_raw(**overrides):
    raw = {
        "game": {"n_agents": 2,
                 "mechanism": {"kind": "first_price_single_item"}},
        "mode": "ex_interim",
        "prior": {"kind": "independent_product",
                  "marginals": [[{"kind": "uniform", "a": 0.0, "b": 1.0}],
                                [{"kind": "uniform", "a": 0.0, "b": 1.0}]]},
        "strategies": [
            {"agent": 0, "family": "linear_shade", "params": {"c": 0.5}},
            {"agent": 1, "family": "linear_shade", "params": {"c": 0.5}},
        ],
        "grid_w": 0.02,
        "delta_total": 0.05,
        "n_records": 20_000,
        "seed": 20240501,
    }
    raw.update(overrides)
    return raw


def write_config(path, raw):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return str(path)


def write_records(path, n_records, seed):
    """n_records of eq_raw's prior and strategies, saved as JSON lines."""
    from bneverify.model import save_dataset
    prior = prior_from_dict(eq_raw()["prior"], 2)
    profile = profile_from_config(eq_raw()["strategies"], 2)
    save_dataset(sample_dataset(prior, profile, n_records, seed), str(path))


# ----------------------------------------------------------- config parsing


def expect_config_error(raw, field, message):
    with pytest.raises(ConfigError, match=message) as exc_info:
        parse_config(raw)
    assert exc_info.value.field == field


def test_parse_config_field_errors():
    expect_config_error(eq_raw(game=None), "game", "game must be an object")
    expect_config_error(eq_raw(game={"n_agents": 1, "mechanism": {
        "kind": "first_price_single_item"}}), "game.n_agents",
        "integer >= 2")
    bad_mech = eq_raw()
    bad_mech["game"] = {"n_agents": 2, "mechanism": {"kind": "second_price"}}
    expect_config_error(bad_mech, "game.mechanism.kind", "must be one of")
    expect_config_error(eq_raw(mode="ex_post"), "mode",
                        "mode must be ex_interim or ex_ante")
    expect_config_error(eq_raw(delta_total=None), "delta_total",
                        r"delta_total must lie in \(0,1\)")
    expect_config_error(eq_raw(delta_total=1.0), "delta_total",
                        r"delta_total must lie in \(0,1\)")
    expect_config_error(eq_raw(grid_w=0.0), "grid_w",
                        r"grid_w must lie in \(0, 1\]")
    expect_config_error(eq_raw(grid_w=[0.1, 0.05]), "grid_w",
                        "grid_w must be one number: a run certifies one "
                        "grid width")
    expect_config_error(eq_raw(grid_w=1e-9), "grid_w",
                        "grid too large: 500000001 points")
    expect_config_error(eq_raw(dataset="x.jsonl"), "prior",
                        "exactly one of prior and dataset")
    expect_config_error(eq_raw(prior=None), "prior",
                        "exactly one of prior and dataset")
    expect_config_error(eq_raw(strategies="bids-only"), "strategies",
                        "'bids-only' requires a dataset path")
    expect_config_error(eq_raw(strategies=[{"agent": 0, "family": "warp"}]),
                        "strategies", "unknown strategy family")
    for kind in ("mystery", "external"):
        expect_config_error(eq_raw(prior={"kind": kind}), "prior",
                            "unknown prior kind")
    expect_config_error(eq_raw(mode="ex_ante"), "partition",
                        "mode ex_ante requires a partition")
    expect_config_error(eq_raw(n_records=None), "n_records",
                        "positive integer in simulation mode")
    expect_config_error(eq_raw(seed=None), "seed",
                        "nonnegative integer in simulation mode")
    expect_config_error(eq_raw(prior=None, n_records=None, seed="abc",
                               dataset="x.jsonl", kappa=1.0), "seed",
                        "nonnegative integer or absent in dataset mode")
    expect_config_error(eq_raw(kappa=-1.0), "kappa", "kappa must be positive")
    expect_config_error(eq_raw(l_inv_max=0.0), "l_inv_max",
                        "must be positive")
    expect_config_error(eq_raw(pdim_constant=-2.0), "pdim_constant",
                        "is the rule's constant 1.0; a config may only "
                        "restate it")
    expect_config_error(eq_raw(out_dir=""), "out_dir", "nonempty path")
    expect_config_error(eq_raw(game={
        "n_agents": 2, "mechanism": {"kind": "first_price_single_item"},
        "utility_scale": float("inf")}), "game.utility_scale",
        "is the payoff range 1.0 of first_price_single_item; a config may "
        "only restate it")
    # 5e-324 / 3 failure events is 0.0: no event would have a probability
    expect_config_error(eq_raw(delta_total=5e-324), "delta_total",
                        r"delta_total / 3, the probability of each failure "
                        "event, underflows to 0")
    expect_config_error(eq_raw(delta_total=1e-323, mode="ex_ante",
                               partition={"cells": [{"lo": [0.0],
                                                     "hi": [1.0]}]}),
                        "delta_total", r"delta_total / 4, the probability")


@pytest.mark.parametrize("key", ["utility_scale", "grid_width", "delta"])
def test_unknown_top_level_keys_exit_2_naming_the_key(tmp_path, capsys, key):
    # each would otherwise be ignored without a word: utility_scale belongs
    # under game, and grid_width and delta are not the config's names
    raw = eq_raw(**{key: 4.0})
    expect_config_error(raw, key, f"unknown config key '{key}'")
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
    assert (f"error: {key}: unknown config key '{key}'"
            in capsys.readouterr().err)
    assert not out.exists()
    # a missing or malformed field is still named first
    expect_config_error(dict(raw, seed=-1), "seed", "nonnegative integer")
    expect_config_error(dict(raw, out_dir=""), "out_dir", "nonempty path")


def nested_job(name):
    """A valid config whose objects cover every kind the parser knows:
    "shade" (linear shades, uniform marginals), "identity" (identity bids,
    Beta marginals) and "correlated" (ex ante, two cells whose tau and
    kappa the prior derives)."""
    if name == "correlated":
        return correlated_ante_raw({"agent": 0, "cells": [
            {"lo": [0.0], "hi": [0.5], "tau": None},
            {"lo": [0.5], "hi": [1.0]}]}, 0.1)
    if name == "identity":
        beta = {"kind": "beta", "alpha": 2.0, "beta": 2.0}
        return eq_raw(prior={"kind": "independent_product",
                             "marginals": [[beta]] * 2},
                      strategies=[{"agent": a, "family": "identity",
                                   "params": {}} for a in range(2)])
    return eq_raw()


@pytest.mark.parametrize("job, path, field, owner", [
    ("identity", ("game",), "game", "in game;"),
    ("identity", ("game", "mechanism"), "game.mechanism",
     "in game.mechanism;"),
    ("identity", ("prior",), "prior", "in the independent_product prior;"),
    ("identity", ("prior", "marginals", 1, 0), "prior",
     "in the beta marginal;"),
    ("shade", ("prior", "marginals", 0, 0), "prior",
     "in the uniform marginal;"),
    ("identity", ("strategies", 1), "strategies",
     "in the strategy entry for agent 1;"),
    ("identity", ("strategies", 0, "params"), "strategies",
     "in params of identity;"),
    ("shade", ("strategies", 0, "params"), "strategies",
     "in params of linear_shade;"),
    ("correlated", ("prior",), "prior",
     "in the correlated_common_value prior;"),
    ("correlated", ("partition",), "partition[0]", "in the partition;"),
    ("correlated", ("partition", "cells", 1), "partition[0]",
     "in cells[1];"),
])
def test_unknown_keys_inside_objects_exit_2_naming_object_and_key(
        tmp_path, capsys, job, path, field, owner):
    # each would otherwise be ignored without a word; "cc" is hashed but
    # leaves the shade at 0.5, "utilty_scale" leaves the hash unchanged
    raw = nested_job(job)
    parse_config(raw)   # valid without the stray key
    node = raw
    for key in path:
        node = node[key]
    node["cc"] = 0.9
    expect_config_error(raw, field, re.escape(f"unknown key 'cc' {owner}"))
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    assert (f"error: {field}: unknown key 'cc' {owner}"
            in capsys.readouterr().err)


def test_an_objects_own_faults_are_named_before_its_unknown_keys():
    raw = eq_raw()
    raw["game"].update(n_agents=1, cc=0.9)
    expect_config_error(raw, "game.n_agents", "integer >= 2")
    raw = eq_raw()
    raw["strategies"][0]["params"].update(c=2.0, cc=0.9)
    expect_config_error(raw, "strategies", "shading factor")
    raw = correlated_ante_raw({"cells": [{"lo": [0.0], "hi": [1.0],
                                          "tau": 2.0, "cc": 0.9}]}, 0.1)
    expect_config_error(raw, "partition[0]", "tau must lie in")


@pytest.mark.parametrize("field", [
    "game.n_agents", "game.mechanism.items", "game.mechanism.units",
    "game.utility_scale", "grid_w", "delta_total",
    "n_records", "seed", "kappa", "l_inv_max", "pdim_constant",
    "disp_constant", "cells[0].tau", "cells[0].kappa", "dataset seed",
    "prior.sort_desc"])
@pytest.mark.parametrize("flag", [True, False])
def test_json_booleans_are_not_numbers(tmp_path, capsys, field, flag):
    # isinstance(True, int) holds in Python; JSON true and false must still
    # be rejected wherever a number is wanted, and a string where a boolean is
    raw = eq_raw()
    named = field
    if field.startswith("game."):
        raw["game"] = {"n_agents": 2, "mechanism": {
            "kind": "first_price_combinatorial", "items": 1}}
        *parents, key = field.split(".")[1:]
        node = raw["game"]
        for name in parents:
            node = node[name]
        node[key] = flag
    elif field.startswith("cells[0]."):
        cell = {"lo": [0.0], "hi": [1.0], field.split(".")[1]: flag}
        raw.update(mode="ex_ante", partition={"cells": [cell]})
        named = "partition[0]"
    elif field == "dataset seed":
        raw.update(prior=None, n_records=None, dataset="missing.jsonl",
                   kappa=1.0, seed=flag)
        named = "seed"
    elif field == "prior.sort_desc":
        raw["prior"]["sort_desc"] = str(flag).lower()
        named = "prior"
    else:
        raw[field] = flag
    with pytest.raises(ConfigError) as exc_info:
        parse_config(raw)
    assert exc_info.value.field == named
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path]) == 2
    assert f"error: {named}: " in capsys.readouterr().err


UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}


def shade_strategies(*params):
    return [{"agent": a, "family": "linear_shade", "params": p}
            for a, p in enumerate(params)]


# malformed configs whose raw-JSON builders raise KeyError, TypeError or
# AttributeError rather than ValueError
MALFORMED = {
    "power_exponent": ("strategies", dict(strategies=[
        {"agent": a, "family": "power", "params": {"exponent": 2}}
        for a in range(2)])),
    "linear_shade_without_c": ("strategies", dict(
        strategies=shade_strategies({"c": 0.5}, {}))),
    "strategy_without_agent": ("strategies", dict(strategies=[
        {"family": "identity"}, {"agent": 1, "family": "identity"}])),
    "strategy_not_an_object": ("strategies", dict(strategies=[1, 2])),
    "params_a_list": ("strategies", dict(
        strategies=shade_strategies([0.5], [0.5]))),
    "piecewise_linear_without_ys": ("strategies", dict(strategies=[
        {"agent": a, "family": "piecewise_linear",
         "params": {"xs": [0.0, 1.0]}} for a in range(2)])),
    "beta_without_alpha": ("prior", dict(prior={
        "kind": "independent_product",
        "marginals": [[{"kind": "beta", "beta": 2.0}], [UNIFORM]]})),
    "marginal_not_an_object": ("prior", dict(prior={
        "kind": "independent_product", "marginals": [[0.5], [UNIFORM]]})),
    "no_marginals": ("prior", dict(prior={"kind": "independent_product"})),
    "prior_a_list": ("prior", dict(prior=[UNIFORM, UNIFORM])),
    "n_agents_a_string": ("prior", dict(
        mode="ex_ante", partition={"cells": [{"lo": [0.0], "hi": [1.0]}]},
        prior={"kind": "correlated_common_value", "n_agents": "2"})),
    # values that float() or int() would coerce into a running job
    "n_agents_a_fraction": ("prior", dict(
        mode="ex_ante", partition={"cells": [{"lo": [0.0], "hi": [1.0]}]},
        prior={"kind": "correlated_common_value", "n_agents": 2.5})),
    "shade_c_true": ("strategies", dict(
        strategies=shade_strategies({"c": True}, {"c": 0.5}))),
    "uniform_b_a_string": ("prior", dict(prior={
        "kind": "independent_product",
        "marginals": [[{"kind": "uniform", "b": "0.5"}], [UNIFORM]]})),
    "agent_a_string": ("strategies", dict(strategies=[
        {"agent": "0", "family": "identity"},
        {"agent": 1, "family": "identity"}])),
    "agent_a_fraction": ("strategies", dict(strategies=[
        {"agent": 0.7, "family": "identity"},
        {"agent": 1, "family": "identity"}])),
    "breakpoints_strings": ("strategies", dict(strategies=[
        {"agent": a, "family": "piecewise_linear",
         "params": {"xs": ["0", "1"], "ys": [0.0, 1.0]}} for a in range(2)])),
    "partition_agent_true": ("partition[0]", dict(
        mode="ex_ante",
        partition={"agent": True, "cells": [{"lo": [0.0], "hi": [1.0]}]})),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_builder_input_exits_2_naming_the_field(tmp_path, capsys,
                                                         case):
    field, overrides = MALFORMED[case]
    cfg_path = write_config(tmp_path / "config.json", eq_raw(**overrides))
    assert main(["verify", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("params", [
    {"family": "power", "params": {"p": 2}},
    {"family": "piecewise_linear",
     "params": {"xs": [0.0, 0.5, 1.0], "ys": [0.0, 0.4, 0.4]}}],
    ids=["power", "zero_slope"])
def test_uncertified_strategies_run_flagged(tmp_path, capsys, params):
    strategies = [{"agent": 0, "family": "linear_shade", "params": {"c": 0.5}},
                  {"agent": 1, **params}]
    cfg_path = write_config(tmp_path / "config.json", eq_raw(
        strategies=strategies, n_records=500, grid_w=0.1))
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 3
    assert capsys.readouterr().err == ""
    agents = read_json(out, "report.json")["agents"]
    for entry in agents:
        assert FLAG_VACUOUS_DISPERSION in entry["flags"]
        assert FLAG_UNCERTIFIED in entry["flags"]
    # only the agent whose own map is uncertified loses the mapped-width term
    assert FLAG_DEGRADED_BOUND not in agents[0]["flags"]
    assert FLAG_DEGRADED_BOUND in agents[1]["flags"]


def test_unsorted_multi_unit_prior_is_rejected(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden"
    raw = read_json(golden, "discriminatory_interim_config.json")
    raw["prior"]["sort_desc"] = False
    expect_config_error(raw, "prior.sort_desc", "must be true")
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: prior.sort_desc: ")
    # one unit has nothing to sort
    raw["game"]["mechanism"]["units"] = 1
    raw["prior"]["marginals"] = [[UNIFORM]] * 3
    assert parse_config(raw).prior_model.sort_desc is False


@pytest.mark.parametrize("fault, message", [
    ("missing", "[Errno 2]"),
    ("malformed", "malformed row, line 2: bids is not an array of numbers"),
    ("common_values", "ex interim estimation requires private values"),
    ("huge", "bids coordinate out of range, line 2"),
    # a first line with record fields is a record, not a header
    ("first_lacks_obs", "malformed row, line 1: missing 'obs'"),
])
def test_dataset_faults_exit_2_naming_the_dataset(tmp_path, capsys, fault,
                                                  message):
    row = {"obs": [[0.5], [0.4]], "vals": [[0.5], [0.4]],
           "bids": [[0.25], [0.2]]}
    rows = [row, row]
    if fault == "malformed":
        rows = [row, dict(row, bids=[["0.25"], [0.2]])]
    elif fault == "common_values":
        rows = [row, dict(row, vals=[[0.6], [0.6]])]
    elif fault == "huge":   # beyond the float range
        rows = [row, dict(row, bids=[[10**400], [0.2]])]
    elif fault == "first_lacks_obs":
        rows = [{k: v for k, v in row.items() if k != "obs"}, row]
    if fault != "missing":
        (tmp_path / "records.jsonl").write_text(
            "\n".join(map(json.dumps, rows)) + "\n")
    raw = eq_raw(prior=None, n_records=None, seed=None,
                 dataset="records.jsonl", kappa=1.0)
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset: ") and message in err, err


def test_array_hash_is_the_digest_of_the_arrays_bytes():
    rng = np.random.default_rng(4)
    a = rng.random((6, 2, 3))
    b = rng.random((5, 4))[:, ::2]   # not contiguous
    c = np.asfortranarray(rng.random((3, 5)))
    # a broadcast of 4.8 MB, hashed in two blocks of rows
    d = np.broadcast_to(rng.random((300_000, 1, 1)), (300_000, 2, 1))
    assert not b.flags.c_contiguous and not c.flags.c_contiguous
    want = hashlib.sha256()
    for arr in (a, b, c, d):
        want.update(arr.tobytes())
    assert cli._array_hash(a, b, c, d) == want.hexdigest()


def test_parse_config_rejects_correlated_values_ex_interim():
    raw = eq_raw(prior={"kind": "correlated_common_value", "n_agents": 2})
    expect_config_error(raw, "mode",
                        "mode ex_interim requires independent private values")


def test_parse_config_partition_errors(tmp_path):
    base = dict(mode="ex_ante")
    expect_config_error(eq_raw(**base, partition=[{"agent": 0}]),
                        "partition[0]", "must contain a cells list")
    cells = [{"lo": [0.0], "hi": [1.0]}]
    expect_config_error(
        eq_raw(**base, partition=[{"cells": cells}] * 3), "partition",
        "one entry or one per agent")
    expect_config_error(eq_raw(**base, partition="no/such/file.json"),
                        "partition", "cannot read partition file")
    for name, content, message in (
            ("malformed.json", b'{"cells": [{"lo": [0.0], ', "Expecting"),
            ("latin1.json", b"\xff{}", "'utf-8' codec can't decode")):
        path = tmp_path / name
        path.write_bytes(content)
        expect_config_error(eq_raw(**base, partition=str(path)), "partition",
                            f"cannot read partition file: {message}")


def test_dataset_ex_ante_cells_must_declare_tau(tmp_path, capsys):
    # tau is derived from the prior; with recorded data there is none, and
    # an undeclared tau must be caught before any estimation runs
    cells = [{"lo": [0.0], "hi": [0.5], "tau": 0.1, "kappa": 1.0},
             {"lo": [0.5], "hi": [1.0], "kappa": 1.0}]
    raw = eq_raw(prior=None, n_records=None, seed=None,
                 dataset="missing.jsonl", mode="ex_ante",
                 partition={"cells": cells})
    expect_config_error(raw, "partition[0].cells[1].tau",
                        "tau must be declared for every cell")
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path]) == 2
    assert "error: partition[0].cells[1].tau: tau must be declared" \
        in capsys.readouterr().err
    cells[1]["tau"] = 0.0
    assert parse_config(raw).settings["partition"][0]["cells"][1]["tau"] == 0.0


def test_missing_kappa_is_rejected_before_any_loading(tmp_path, capsys):
    # the dataset file does not exist: an error naming kappa shows that the
    # job was refused before anything was loaded or estimated
    cells = [{"lo": [0.0], "hi": [0.5], "tau": 0.1},
             {"lo": [0.5], "hi": [1.0], "tau": 0.1}]
    ante = eq_raw(prior=None, n_records=None, seed=None,
                  dataset="missing.jsonl", mode="ex_ante",
                  partition={"cells": cells})
    expect_config_error(ante, "kappa", "declare it per cell")
    cfg_path = write_config(tmp_path / "config.json", ante)
    assert main(["verify", "--config", cfg_path]) == 2
    assert "error: kappa: kappa is required" in capsys.readouterr().err
    interim = eq_raw(prior=None, n_records=None, seed=None,
                     dataset="missing.jsonl")
    expect_config_error(interim, "kappa", "declare it or provide")
    # a kappa on every cell, a top-level kappa or a built-in prior suffices
    for cell in cells:
        cell["kappa"] = 2.0
    assert parse_config(ante).settings["kappa"] is None
    cells[1]["kappa"] = None
    expect_config_error(ante, "kappa", "declare it per cell")
    assert parse_config(dict(ante, kappa=2.0)).settings["kappa"] == 2.0
    assert parse_config(dict(interim, kappa=2.0)).settings["kappa"] == 2.0
    correlated = eq_raw(prior={"kind": "correlated_common_value",
                               "n_agents": 2}, mode="ex_ante",
                        partition={"cells": [{"lo": [0.0], "hi": [1.0]}]})
    assert parse_config(correlated).settings["kappa"] is None


def game_of_dim(dim):
    """Overrides for a two-agent game whose observations have dim
    coordinates: the game and a prior of that dimension, sorted (as the
    rule requires) when dim > 1."""
    uniform = {"kind": "uniform", "a": 0.0, "b": 1.0}
    prior = {"kind": "independent_product", "marginals": [[uniform] * dim] * 2}
    if dim > 1:
        prior["sort_desc"] = True
    return {"game": {"n_agents": 2,
                     "mechanism": {"kind": "discriminatory", "units": dim}},
            "prior": prior}


@pytest.mark.parametrize("cells, message", [
    ([{"lo": [0.0], "hi": [0.6]}, {"lo": [0.5], "hi": [1.0]}],
     "cells 0 and 1 overlap"),
    ([{"lo": [0.0, 0.0], "hi": [1.0, 0.5]},
      {"lo": [0.0, 0.5], "hi": [1.0, 1.0]},
      {"lo": [0.4, 0.4], "hi": [0.6, 0.6]}],
     "cells 0 and 2 overlap"),
    ([{"lo": [0.0], "hi": [0.4]}, {"lo": [0.5], "hi": [1.0]}],
     "volumes sum to 0.9, not 1, so the cells leave a gap"),
    ([{"lo": [0.0, 0.0], "hi": [0.5, 1.0]},
      {"lo": [0.5, 0.0], "hi": [1.0, 0.5]}],
     "volumes sum to 0.75"),
], ids=["overlap", "overlap_2d", "gap", "gap_2d"])
def test_partitions_that_do_not_tile_the_cube_are_rejected(cells, message):
    dim = len(cells[0]["lo"])
    second = {"cells": [{"lo": [0.0] * dim, "hi": [1.0] * dim}]}
    raw = eq_raw(mode="ex_ante", partition=[second, {"cells": cells}],
                 **game_of_dim(dim))
    expect_config_error(raw, "partition[1]", message)


def test_partition_tiling_is_checked_exactly():
    # 0.1 + 0.2 != 0.3 in floats, yet these boxes tile [0, 1] exactly
    edges = [0.0, 0.1, 0.3, 0.7, 1.0]
    spans = list(zip(edges, edges[1:]))
    line = [{"lo": [a], "hi": [b]} for a, b in spans]
    grid = [{"lo": [a, c], "hi": [b, d]} for a, b in spans for c, d in spans]
    for cells in (line, grid):
        raw = eq_raw(mode="ex_ante", partition={"cells": cells},
                     **game_of_dim(len(cells[0]["lo"])))
        assert parse_config(raw).settings["partition"][0]["cells"] == cells
    # a sliver between 0.3 and the next float up is a gap
    cells = [{"lo": [0.0], "hi": [0.3]},
             {"lo": [float(np.nextafter(0.3, 1.0))], "hi": [1.0]}]
    expect_config_error(eq_raw(mode="ex_ante", partition={"cells": cells}),
                        "partition[0]", "leave a gap")


def test_parse_config_reads_partition_files_relative_to_the_config(tmp_path):
    part = {"agent": 0, "cells": [{"lo": [0.0], "hi": [1.0]}]}
    with open(tmp_path / "cells.json", "w", encoding="utf-8") as fh:
        json.dump(part, fh)
    raw = eq_raw(mode="ex_ante", partition="cells.json")
    config = parse_config(raw, base_dir=str(tmp_path))
    assert config.settings["partition"] == [part]


def test_run_config_round_trips_with_defaults_filled():
    config = parse_config(eq_raw())
    d = config.to_dict()
    assert list(d) == ["game", "mode", "prior", "dataset", "strategies",
                       "partition", "grid_w", "delta_total", "n_records",
                       "seed", "kappa", "l_inv_max", "pdim_constant",
                       "disp_constant", "out_dir"]
    assert d["game"]["mechanism"] == {"kind": "first_price_single_item",
                                      "items": 0, "units": 1}
    assert d["kappa"] is None and d["partition"] is None
    assert d["out_dir"] == "out"
    again = parse_config(d).to_dict()
    assert canonical_json(again) == canonical_json(d)


def test_readme_run_configuration_lists_every_config_key():
    # the top-level keys of the jsonc block under "## Run configuration",
    # comments and "..." placeholders removed, are the keys a config may hold
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Run configuration", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    documented = json.loads(re.sub(r"//[^\n]*", "", block).replace("...", ""))
    assert list(documented) == list(parse_config(eq_raw()).to_dict())


def test_run_config_settings_are_its_own():
    # the hash describes the inputs built at parse time, so editing the raw
    # dict or a to_dict() copy afterwards must not change it
    raw = eq_raw()
    config = parse_config(raw)
    want = config.hash()
    raw["strategies"][0]["params"]["c"] = 0.9
    config.to_dict()["strategies"][1]["params"]["c"] = 0.9
    assert config.hash() == want
    assert config.to_dict()["strategies"] == eq_raw()["strategies"]


def test_run_config_hash_ignores_the_output_directory(tmp_path):
    a = parse_config(eq_raw(out_dir="out/a"))
    b = parse_config(eq_raw(out_dir="out/b"))
    assert a.hash() == b.hash()
    assert parse_config(eq_raw(seed=1)).hash() != a.hash()
    # nor the dataset's directory: dataset_hash identifies the records, so
    # the same config and records in two directories give the same report
    raw = eq_raw(prior=None, n_records=None, seed=None,
                 dataset="records.jsonl", kappa=1.0, grid_w=0.1)
    reports = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        write_records(root / "records.jsonl", 500, seed=4)
        config = parse_config(dict(raw, out_dir=str(root / "out")),
                              base_dir=str(root))
        assert config.settings["dataset"] == str(root / "records.jsonl")
        assert run(config) in (0, 3)
        reports.append(read_bytes(root, "out", "report.json"))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config_hash"] == config.hash()
    assert config.hash() == parse_config(raw).hash()
    assert config.hash() != parse_config(dict(raw, kappa=2.0)).hash()


def test_load_config_resolves_dataset_paths(tmp_path):
    ds_path = tmp_path / "bids.jsonl"
    ds_path.write_text('{"obs": [[0.5], [0.5]], "vals": [[0.5], [0.5]], '
                       '"bids": [[0.25], [0.25]]}\n', encoding="utf-8")
    raw = eq_raw(prior=None, n_records=None, seed=None, dataset="bids.jsonl",
                 kappa=1.0)
    cfg_path = write_config(tmp_path / "cfg.json", raw)
    config = load_config(cfg_path)
    assert config.settings["dataset"] == os.path.normpath(str(ds_path))


# ------------------------------------------------------- end-to-end runs


@pytest.fixture(scope="module")
def eq_run(tmp_path_factory):
    """One full equilibrium verification, reused by every assertion below."""
    root = tmp_path_factory.mktemp("eqrun")
    cfg_path = write_config(root / "config.json", eq_raw())
    out_a = str(root / "a")
    out_b = str(root / "b")
    rc_a = main(["verify", "--config", cfg_path, "--out", out_a, "--oracle"])
    rc_b = main(["verify", "--config", cfg_path, "--out", out_b])
    return {"cfg_path": cfg_path, "out_a": out_a, "out_b": out_b,
            "rc_a": rc_a, "rc_b": rc_b}


def read_json(*parts):
    with open(os.path.join(*parts), "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


def test_equilibrium_run_succeeds_and_reports_small_gaps(eq_run):
    assert eq_run["rc_a"] == 0 and eq_run["rc_b"] == 0
    report = read_json(eq_run["out_a"], "report.json")
    assert list(report) == ["mode", "config_hash", "dataset_hash", "seed",
                            "n_records", "delta_total", "delta", "confidence",
                            "grid_width", "grid_points_per_axis",
                            "utility_scale", "n_cells_max", "agents",
                            "vacuous"]
    assert report["mode"] == "ex_interim"
    assert report["n_records"] == 20_000
    assert report["delta"] == 0.05 / 3
    assert report["confidence"] == 1.0 - 0.05
    assert report["vacuous"] is False
    config = load_config(eq_run["cfg_path"])
    assert report["config_hash"] == config.hash()
    assert len(report["agents"]) == 2
    for entry in report["agents"]:
        assert 0.0 <= entry["empirical"] <= 0.03
        assert entry["total"] <= 2.0
        assert entry["flags"] == []


def test_reports_are_byte_identical_across_runs_and_out_dirs(eq_run):
    assert read_bytes(eq_run["out_a"], "report.json") \
        == read_bytes(eq_run["out_b"], "report.json")
    for name in ("cells.csv", "plot_agent0.csv", "plot_agent1.csv"):
        assert read_bytes(eq_run["out_a"], name) \
            == read_bytes(eq_run["out_b"], name)


def test_plot_csv_lists_one_gain_per_grid_point(eq_run):
    with open(os.path.join(eq_run["out_a"], "plot_agent0.csv"),
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "empirical_gain"]
    report = read_json(eq_run["out_a"], "report.json")
    assert len(rows) - 1 == report["grid_points_per_axis"]
    xs = [float(r[0]) for r in rows[1:]]
    assert xs == sorted(xs)
    gains = [float(r[1]) for r in rows[1:]]
    assert max(gains) == report["agents"][0]["empirical"]


def test_oracle_block_reports_zero_loss_at_equilibrium(eq_run):
    block = read_json(eq_run["out_a"], "oracle.json")
    assert set(block) == {"0", "1"}
    for entry in block.values():
        assert entry["method"] == "closed_form"
        assert entry["value"] == 0.0
    assert not os.path.exists(os.path.join(eq_run["out_b"], "oracle.json"))


def test_oracle_block_requires_equilibrium_opponents():
    config = parse_config(eq_raw(strategies=[
        {"agent": 0, "family": "linear_shade", "params": {"c": 0.4}},
        {"agent": 1, "family": "linear_shade", "params": {"c": 0.5}}]))
    block = cli._oracle_block(config)
    assert block["0"]["value"] == pytest.approx(0.02, abs=1e-9)
    assert block["1"]["value"] is None and "note" in block["1"]


def test_oracle_block_is_null_outside_its_domain():
    raw = eq_raw()
    raw["game"]["mechanism"] = {"kind": "discriminatory", "units": 1}
    assert cli._oracle_block(parse_config(raw)) == {"0": None, "1": None}


def exit_code(argv):
    """main's exit code, also when argparse refuses argv by raising
    SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("grid_w, argv, message", [
    ([0.1], [], "error: grid_w: grid_w must be one number"),
    ([], [], "error: grid_w: grid_w must be one number"),
    (0.1, ["--grid-sweep", "0.1,0.05"],
     "unrecognized arguments: --grid-sweep 0.1,0.05"),
], ids=["one_width_list", "empty_list", "grid_sweep_flag"])
def test_more_than_one_width_exits_2_before_any_record(
        tmp_path, capsys, monkeypatch, grid_w, argv, message):
    # the confidence a report claims covers one width, so a run certifies one
    def refuse(*args):
        raise AssertionError("records drawn before the config was checked")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    cfg_path = write_config(tmp_path / "config.json", eq_raw(grid_w=grid_w))
    out = tmp_path / "out"
    out.mkdir()
    assert exit_code(["verify", "--config", cfg_path, "--out", str(out),
                      *argv]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_grid_w_flag_replaces_a_list_before_it_is_parsed(tmp_path):
    one = write_config(tmp_path / "one.json", eq_raw(n_records=2000,
                                                     grid_w=0.1))
    listed = write_config(tmp_path / "listed.json",
                          eq_raw(n_records=2000, grid_w=[0.5, 0.05]))
    out_one, out_listed = tmp_path / "one", tmp_path / "listed"
    rc = main(["verify", "--config", one, "--out", str(out_one)])
    assert main(["verify", "--config", listed, "--out", str(out_listed),
                 "--grid-w", "0.1"]) == rc
    assert read_json(str(out_listed), "report.json")["grid_width"] == 0.1
    names = sorted(os.listdir(out_one))
    assert sorted(os.listdir(out_listed)) == names
    for name in names:
        assert (out_listed / name).read_bytes() == (out_one / name).read_bytes()


@pytest.mark.parametrize("width", ["1e-9", "1e-300", "5e-324"])
def test_oversized_sweep_width_fails_before_anything_is_written(
        tmp_path, capsys, monkeypatch, width):
    def refuse(*args):
        raise AssertionError("records sampled before the grid was sized")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    raw = correlated_ante_raw({"cells": [{"lo": [0.0], "hi": [1.0]}]}, 0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["verify", "--config", cfg_path, "--out", str(out),
                 "--grid-w", width]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid_w: grid too large: ")
    assert len(err) < 200
    assert list(out.iterdir()) == []


def test_too_fine_a_grid_for_the_job_exits_2_before_sampling(
        tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("records sampled before the work was estimated")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    config = Path(__file__).resolve().parent.parent / "configs" / (
        "correlated_demo.json")
    # 5,000,001 candidates, under the grid's point cap, in 2 x 8 cells
    start = time.monotonic()
    assert main(["verify", "--config", str(config), "--grid-w", "1e-7",
                 "--out", str(tmp_path / "out")]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: grid_w: grid too fine: 5000001 candidates "
                          "in 16 markets") and len(err) < 200, err
    assert not (tmp_path / "out").exists()
    # ex interim each candidate also fills a gain-table row per agent
    expect_config_error(eq_raw(grid_w=1e-5), "grid_w",
                        "grid too fine: 50001 candidates in 2 markets")
    parse_config(eq_raw(grid_w=5e-5))   # 10,001 candidates
    parse_config(correlated_ante_raw({"cells": [   # 500,001 candidates
        {"lo": [0.0], "hi": [0.5]}, {"lo": [0.5], "hi": [1.0]}]}, 1e-6))


def test_a_bundles_job_past_the_cap_for_its_records_exits_2_after_loading(
        tmp_path, capsys, monkeypatch):
    from bneverify.model import save_dataset
    uniform = {"kind": "uniform", "a": 0.0, "b": 1.0}
    prior = {"kind": "independent_product",
             "marginals": [[uniform, uniform]] * 2}
    identity = [{"agent": a, "family": "identity", "params": {}}
                for a in range(2)]
    ds = sample_dataset(prior_from_dict(prior, 2),
                        profile_from_config(identity, 2), 1000, seed=5)
    save_dataset(ds, str(tmp_path / "records.jsonl"))
    # 251,001 candidates in 2 markets: 2.3e7 work units before loading, and
    # 4 more per candidate and record (2 agents, 2 bundle options) once loaded
    raw = {"game": {"n_agents": 2, "mechanism": {
               "kind": "first_price_combinatorial", "items": 1}},
           "mode": "ex_ante", "dataset": "records.jsonl",
           "strategies": identity, "kappa": 1.0, "grid_w": 0.002,
           "delta_total": 0.05,
           "partition": {"cells": [{"lo": [0.0, 0.0], "hi": [1.0, 1.0],
                                    "tau": 0.0}]}}
    cfg_path = write_config(tmp_path / "config.json", raw)
    load_config(cfg_path)   # the record count is unknown while parsing

    def refuse(*args):
        raise AssertionError("a market was built before the work was checked")

    monkeypatch.setattr(cli, "estimate_ex_ante", refuse)
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset: grid too fine: 251001 candidates "
                          "in 2 markets over 1000 records need about 1.0e+09 "
                          "work units"), err
    # a sampled job's record count is known while parsing; its prior
    # derives kappa and tau
    sampled = dict(raw, prior=prior, n_records=1000, seed=5,
                   partition={"cells": [{"lo": [0.0, 0.0],
                                         "hi": [1.0, 1.0]}]})
    del sampled["dataset"], sampled["kappa"]
    expect_config_error(sampled, "n_records", "over 1000 records")
    parse_config(dict(sampled, n_records=900))   # 9.3e8 work units


def two_unit(**game):
    return {"n_agents": 2, "mechanism": {"kind": "discriminatory", "units": 2},
            **game}


@pytest.mark.parametrize("overrides, field", [
    # eq_raw's prior has one marginal per agent
    ({"game": two_unit()}, "prior"),
    ({"game": two_unit(), "mode": "ex_ante",
      "prior": {"kind": "correlated_common_value", "n_agents": 2},
      "partition": {"cells": [{"lo": [0.0, 0.0], "hi": [1.0, 1.0]}]}},
     "prior"),
    ({**game_of_dim(2), "game": two_unit(utility_scale=0.5)},
     "game.utility_scale"),
    ({"game": {"n_agents": 2,
               "mechanism": {"kind": "first_price_single_item"},
               "utility_scale": 0.01}}, "game.utility_scale"),
], ids=["marginals_1d", "correlated_1d", "scale_half_of_two_units",
        "scale_below_first_price"])
def test_inconsistent_games_fail_before_sampling(tmp_path, capsys,
                                                 monkeypatch, overrides,
                                                 field):
    def refuse(*args):
        raise AssertionError("records sampled before the config was checked")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    cfg_path = write_config(tmp_path / "config.json", eq_raw(**overrides))
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def one_cell(**declared):
    return {"cells": [{"lo": [0.0], "hi": [1.0], **declared}]}


PRIOR_DERIVES = "is derived from the prior; a (config|cell) may declare it"


@pytest.mark.parametrize("overrides, field, message", [
    ({"game": {"n_agents": 2, "utility_scale": 10,
               "mechanism": {"kind": "first_price_single_item"}}},
     "game.utility_scale", "is the payoff range 1.0"),
    ({"kappa": 1.0}, "kappa", PRIOR_DERIVES),
    ({"mode": "ex_ante", "partition": one_cell(tau=0.0)},
     "partition[0].cells[0].tau", PRIOR_DERIVES),
    ({"mode": "ex_ante", "partition": one_cell(kappa=1.0)},
     "partition[0].cells[0].kappa", PRIOR_DERIVES),
    ({"mode": "ex_ante", "prior": {"kind": "correlated_common_value"},
      "partition": [one_cell(), one_cell(tau=None, kappa=2.0)]},
     "partition[1].cells[0].kappa", PRIOR_DERIVES),
    ({"l_inv_max": 2.0}, "l_inv_max", "is derived from the strategies"),
], ids=["utility_scale_10", "kappa_with_a_prior", "cell_tau_with_a_prior",
        "cell_kappa_with_a_prior", "cell_kappa_with_the_correlated_prior",
        "l_inv_max_with_strategies"])
def test_derived_inputs_declared_anyway_exit_2_before_sampling(
        tmp_path, capsys, monkeypatch, overrides, field, message):
    # the rule sets the utility scale, the prior kappa and tau, and the
    # strategies l_inv_max; a second, declared value is refused
    def refuse(*args):
        raise AssertionError("records drawn before the config was checked")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    raw = eq_raw(**overrides)
    expect_config_error(raw, field, message)
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


TESTS = Path(__file__).resolve().parent
DROP = object()   # in place of a value: the key is removed


def frozen_job(name):
    """A golden or shipped job's raw config, its partition file read
    inline, and the config_hash of its frozen report."""
    path = TESTS / "golden" / f"{name}_config.json"
    if not path.exists():
        path = TESTS.parent / "configs" / f"{name}.json"
    raw = read_json(path)
    if isinstance(raw.get("partition"), str):
        raw["partition"] = read_json(path.parent, raw["partition"])
    return raw, read_json(TESTS, "golden", f"{name}_report.json")[
        "config_hash"]


def edited(name, path, value):
    """frozen_job(name) with the key at path set to value (or dropped)."""
    raw, frozen = frozen_job(name)
    *parents, key = path
    node = raw
    for step in parents:
        node = node[step]
    if value is DROP:
        node.pop(key, None)
    else:
        node[key] = value
    return raw, frozen


@pytest.mark.parametrize("name, path, value, field", [
    # the rule fixes the asymptotic rows' constant ...
    ("uniform_price_interim", ("pdim_constant",), 1e-6, "pdim_constant"),
    ("uniform_price_interim", ("disp_constant",), 1e-6, "disp_constant"),
    ("fpsb_eq", ("pdim_constant",), 7.0, "pdim_constant"),
    ("fpsb_eq", ("disp_constant",), 0.001, "disp_constant"),
    # ... and the prior's coordinate order
    ("combinatorial_interim", ("prior", "sort_desc"), True,
     "prior.sort_desc"),
    ("fpsb_eq", ("prior", "sort_desc"), True, "prior.sort_desc"),
    ("uniform_price_ante", ("prior", "sort_desc"), DROP, "prior.sort_desc"),
    # keys the run would never read
    ("bids_only_ante", ("n_records",), 5, "n_records"),
    ("fpsb_eq", ("partition",), one_cell(), "partition"),
    ("correlated_demo", ("partition", "agent"), 7, "partition[0].agent"),
    ("correlated_demo", ("partition", "agent"), -1, "partition[0].agent"),
    ("correlated_demo", ("partition", "agent"), 1, "partition[0].agent"),
], ids=["pdim_constant_tiny", "disp_constant_tiny", "pdim_constant_fpsb",
        "disp_constant_fpsb", "sort_desc_on_bundles", "sort_desc_on_one_coord",
        "sort_desc_absent_on_two_units", "n_records_with_a_dataset",
        "partition_ex_interim", "shared_partition_agent_7",
        "shared_partition_agent_negative", "shared_partition_agent_1"])
def test_a_fixed_or_unread_key_exits_2_before_any_record(
        tmp_path, capsys, monkeypatch, name, path, value, field):
    def refuse(*args):
        raise AssertionError("records drawn before the config was checked")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    raw, _ = edited(name, path, value)
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("name, path, value", [
    *[("uniform_price_interim", (key,), value)
      for key in ("pdim_constant", "disp_constant")
      for value in (1, 1.0, None)],
    ("discriminatory_interim", ("prior", "sort_desc"), True),
    ("bids_only_ante", ("n_records",), None),
    ("fpsb_eq", ("partition",), None),
    ("correlated_demo", ("partition", "agent"), 0),
])
def test_restating_a_fixed_or_unread_key_keeps_the_frozen_hash(
        tmp_path, name, path, value):
    # the records file only has to exist: the hash does not read it
    (tmp_path / "records.jsonl").write_text(" " * 64, encoding="utf-8")
    raw, frozen = edited(name, path, value)
    config = parse_config(raw, base_dir=str(tmp_path))
    assert config.hash() == frozen
    assert config.settings["pdim_constant"] == 1.0
    assert config.settings["disp_constant"] == 1.0


def test_mode_ex_interim_override_drops_the_partition(tmp_path, capsys):
    # the partition of an ex ante config goes unread ex interim
    cfg_path = write_config(tmp_path / "config.json", eq_raw(
        mode="ex_ante", partition=one_cell(), n_records=500, grid_w=0.1))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg_path, "--out", str(out),
                 "--mode", "ex_interim"]) in (0, 3)
    assert read_json(out, "report.json")["mode"] == "ex_interim"
    # correlated values still have no ex interim certificate
    shipped = str(TESTS.parent / "configs" / "correlated_demo.json")
    assert main(["verify", "--config", shipped, "--out", str(out),
                 "--mode", "ex_interim"]) == 2
    assert capsys.readouterr().err.startswith("error: mode: ")


def mechanism(kind, **size):
    return {"n_agents": 2, "mechanism": {"kind": kind, **size}}


HUGE_GAME = {**mechanism("first_price_single_item"), "n_agents": 10**12}
ONE_CELL = {"cells": [{"lo": [0.0], "hi": [1.0], "tau": 0.0}]}
# records.jsonl is one record of two agents, far too small for HUGE_GAME
BIDS_ONLY = {"prior": None, "n_records": None, "seed": None,
             "dataset": "records.jsonl", "strategies": "bids-only",
             "kappa": 1.0, "l_inv_max": 2.0, "partition": ONE_CELL}


@pytest.mark.parametrize("game, overrides, field", [
    (mechanism("first_price_combinatorial", items=30), {}, "grid_w"),
    (mechanism("discriminatory", units=10**6), {}, "grid_w"),
    (mechanism("first_price_combinatorial", items=10**400), {},
     "game.mechanism.items"),
    (mechanism("discriminatory", units=10**400), {}, "game.mechanism.units"),
    (None, {"n_records": 10**400}, "n_records"),
    # one strategy entry per agent is checked before any per-agent list
    (HUGE_GAME, {"mode": "ex_ante", "partition": ONE_CELL,
                 "prior": {"kind": "correlated_common_value"},
                 "strategies": eq_raw()["strategies"][:1]}, "strategies"),
    (HUGE_GAME, BIDS_ONLY, "game.n_agents"),
    (HUGE_GAME, {**BIDS_ONLY, "mode": "ex_ante"}, "game.n_agents"),
    # without the file the agent count cannot be checked against it
    (HUGE_GAME, {**BIDS_ONLY, "mode": "ex_ante", "dataset": "missing.jsonl"},
     "dataset"),
], ids=["items_30", "units_1e6", "items_1e400", "units_1e400",
        "n_records_1e400", "n_agents_1e12_strategies",
        "n_agents_1e12_bids_only_interim", "n_agents_1e12_bids_only_ante",
        "n_agents_1e12_bids_only_missing_dataset"])
def test_oversized_jobs_exit_2_at_once_naming_the_field(tmp_path, capsys,
                                                        game, overrides,
                                                        field):
    row = {"obs": [[0.5], [0.4]], "vals": [[0.5], [0.4]],
           "bids": [[0.25], [0.2]]}
    (tmp_path / "records.jsonl").write_text(json.dumps(row) + "\n")
    raw = eq_raw(**overrides)
    raw["game"] = game or raw["game"]
    cfg_path = write_config(tmp_path / "config.json", raw)
    start = time.monotonic()
    assert main(["verify", "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and len(err) < 200, err


def test_utility_scale_may_only_restate_the_payoff_range():
    # the rule sets the scale; to_dict() writes it, so the payoff range,
    # as an integer or a float, parses to the same settings and hash
    raw = eq_raw(**game_of_dim(2))
    want = parse_config(raw)
    assert want.game.utility_scale == 2.0
    for scale in (2, 2.0):
        raw["game"]["utility_scale"] = scale
        config = parse_config(raw)
        assert config.game.utility_scale == 2.0
        assert config.hash() == want.hash()
    for scale in (2.5, 1, 10**400, float("nan")):
        raw["game"]["utility_scale"] = scale
        expect_config_error(raw, "game.utility_scale",
                            "is the payoff range 2.0 of discriminatory")


def test_tiny_sample_run_is_reported_vacuous(tmp_path):
    cfg_path = write_config(tmp_path / "config.json",
                            eq_raw(n_records=50, grid_w=0.5))
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg_path, "--out", out])
    assert rc == 3
    report = read_json(out, "report.json")
    assert report["vacuous"] is True
    assert all(a["total"] > 2.0 for a in report["agents"])


def test_fewer_records_than_the_pseudo_dimension_is_reported_vacuous(
        tmp_path):
    # two items and three agents: pseudo-dimension 2 * 2**2 * ln 3 = 8.79,
    # more than e times the 3 records, so ln(eN/d) < 0
    uniform = {"kind": "uniform", "a": 0.0, "b": 1.0}
    raw = eq_raw(n_records=3, grid_w=0.5, game={
        "n_agents": 3,
        "mechanism": {"kind": "first_price_combinatorial", "items": 2}},
        prior={"kind": "independent_product",
               "marginals": [[uniform] * 4] * 3},
        strategies=[{"agent": a, "family": "linear_shade",
                     "params": {"c": 0.5}} for a in range(3)])
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 3
    report = read_json(out, "report.json")
    assert report["vacuous"] is True
    for entry in report["agents"]:
        assert entry["pdim_value"] > math.e * 3
        # Sauer's 2^N growth bound: the first term is 4 sqrt(2 ln 2)
        assert entry["eps_pdim"] > 4.0 * math.sqrt(2.0 * math.log(2.0))


def test_bids_only_dataset_run_flags_every_declared_input(tmp_path):
    prior = prior_from_dict(eq_raw()["prior"], 2)
    profile = profile_from_config(eq_raw()["strategies"], 2)
    ds = sample_dataset(prior, profile, 2000, seed=3)
    from bneverify.model import save_dataset
    ds_path = str(tmp_path / "bids.jsonl")
    save_dataset(ds, ds_path)
    raw = eq_raw(prior=None, n_records=None, seed=None, dataset="bids.jsonl",
                 strategies="bids-only", kappa=1.0, l_inv_max=2.0)
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg_path, "--out", out])
    assert rc in (0, 3)
    report = read_json(out, "report.json")
    assert report["dataset_hash"] == file_hash(ds_path)
    flags = report["agents"][0]["flags"]
    assert FLAG_DEGRADED_BOUND in flags
    assert cli.FLAG_DECLARED_KAPPA in flags
    assert cli.FLAG_DECLARED_LINV in flags


def test_bids_only_without_l_inv_max_is_rejected_before_loading(
        tmp_path, capsys, monkeypatch):
    def no_load(*args):
        raise AssertionError("load_dataset called")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    raw = eq_raw(prior=None, n_records=None, seed=None, dataset="bids.jsonl",
                 strategies="bids-only", kappa=1.0)
    expect_config_error(raw, "l_inv_max", "required in bids-only mode")
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path]) == 2
    assert ("error: l_inv_max: l_inv_max is required in bids-only mode"
            in capsys.readouterr().err)
    # with l_inv_max the config parses; the file must then exist
    (tmp_path / "bids.jsonl").write_text(
        json.dumps({"obs": [[0.5], [0.4]], "vals": [[0.5], [0.4]],
                    "bids": [[0.25], [0.2]]}) + "\n")
    config = parse_config(dict(raw, l_inv_max=2.0), base_dir=str(tmp_path))
    assert config.settings["l_inv_max"] == 2.0


@pytest.mark.parametrize("field,bad", [("bids", "NaN"),
                                       ("vals", "Infinity")])
def test_non_finite_dataset_entries_exit_2(tmp_path, capsys, field, bad):
    # json.loads reads NaN and Infinity; such a record must be refused, not
    # estimated, with its line and field named
    rows = [{"obs": [[0.5], [0.4]], "vals": [[0.5], [0.4]],
             "bids": [[0.25], [0.2]]} for _ in range(4)]
    rows[2][field] = [[float(bad)], [0.2]]
    lines = [json.dumps(r) for r in rows]
    assert bad in lines[2]
    (tmp_path / "records.jsonl").write_text("\n".join(lines) + "\n")
    raw = eq_raw(prior=None, n_records=None, seed=None,
                 dataset="records.jsonl", kappa=1.0)
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"{field} coordinate not a finite number, line 3" in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def correlated_ante_raw(partition, grid_w):
    return eq_raw(mode="ex_ante", n_records=2000, grid_w=grid_w,
                  prior={"kind": "correlated_common_value", "n_agents": 2},
                  strategies=[{"agent": a, "family": "identity",
                               "params": {}} for a in range(2)],
                  partition=partition)


def count_tv_pairs(monkeypatch):
    calls = []
    pair = CorrelatedCommonValue.tv_pair

    def counted(self, *args, **kwargs):
        calls.append(args)
        return pair(self, *args, **kwargs)

    monkeypatch.setattr(CorrelatedCommonValue, "tv_pair", counted)
    return calls


def test_tau_is_derived_once_per_distinct_partition(tmp_path, monkeypatch):
    edges = [0.0, 0.1, 0.3, 0.6, 1.0]
    cells = [{"lo": [a], "hi": [b]} for a, b in zip(edges, edges[1:])]
    calls = count_tv_pairs(monkeypatch)
    prior = CorrelatedCommonValue(2)
    for cell in Partition.from_dict({"agent": 0, "cells": cells}).cells:
        prior.tv_radius(cell)   # cells touching 0 or 1 make no calls
    one_pass = len(calls)
    assert one_pass == 2   # two interior cells, one corner pair each
    calls.clear()
    raw = correlated_ante_raw({"cells": cells}, 0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) in (0, 3)
    # two agents share the partition, and so its taus
    assert len(calls) == one_pass
    agents = read_json(out, "report.json")["agents"]
    taus = [[c["tau"] for c in agents[a]["cells"]] for a in range(2)]
    assert taus[0] == taus[1]


def test_per_agent_partitions_get_their_own_taus(tmp_path):
    split = [[0.0, 0.2, 0.5, 1.0], [0.0, 0.1, 0.4, 0.7, 1.0]]
    partition = [{"agent": a, "cells": [{"lo": [lo], "hi": [hi]}
                                        for lo, hi in zip(e, e[1:])]}
                 for a, e in enumerate(split)]
    raw = correlated_ante_raw(partition, 0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) in (0, 3)
    report = read_json(out, "report.json")
    prior = CorrelatedCommonValue(2)
    for agent, entry in enumerate(partition):
        want = tv_profile(prior, Partition.from_dict(entry))
        got = tuple(c["tau"] for c in report["agents"][agent]["cells"])
        assert got == want
        assert 0.0 < min(want[1:-1])   # interior cells are derived, not 0


def test_declared_tau_is_flagged_once_per_agent(tmp_path):
    # recorded data declares every cell's tau; a prior derives every one
    declared = [{"lo": [0.0], "hi": [0.5], "tau": 0.25},
                {"lo": [0.5], "hi": [1.0], "tau": 0.5}]
    whole = [{"lo": [0.0], "hi": [1.0], "tau": 0.0}]
    write_records(tmp_path / "records.jsonl", 500, seed=4)
    raw = eq_raw(prior=None, n_records=None, seed=None,
                 dataset="records.jsonl", kappa=1.0, mode="ex_ante",
                 grid_w=0.1, partition=[{"cells": declared},
                                        {"cells": whole}])
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) in (0, 3)
    agents = read_json(out, "report.json")["agents"]
    for entry, cells in zip(agents, (declared, whole)):
        assert entry["flags"].count(FLAG_DECLARED_TAU) == 1
        assert [c["tau_source"] for c in entry["cells"]] \
            == ["declared"] * len(cells)
        assert [c["tau"] for c in entry["cells"]] == [c["tau"] for c in cells]
    derived = [{"lo": [0.0], "hi": [0.5]}, {"lo": [0.5], "hi": [1.0]}]
    raw = correlated_ante_raw([{"cells": derived},
                               {"cells": [{"lo": [0.0], "hi": [1.0]}]}], 0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path, "--out", out]) in (0, 3)
    for entry in read_json(out, "report.json")["agents"]:
        assert FLAG_DECLARED_TAU not in entry["flags"]
        assert {c["tau_source"] for c in entry["cells"]} == {"derived"}


def test_per_agent_partitions_default_each_agent_to_its_position(tmp_path):
    halves = [{"lo": [0.0], "hi": [0.5]}, {"lo": [0.5], "hi": [1.0]}]
    whole = [{"lo": [0.0], "hi": [1.0]}]
    raw = correlated_ante_raw([{"cells": halves}, {"cells": whole}], 0.1)
    config = parse_config(raw)
    assert [e["agent"] for e in config.settings["partition"]] == [0, 1]
    assert {a: (p.agent, len(p)) for a, p in config.partitions.items()} \
        == {0: (0, 2), 1: (1, 1)}
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) in (0, 3)
    report = read_json(out, "report.json")
    assert [len(a["cells"]) for a in report["agents"]] == [2, 1]


def test_out_of_order_partitions_fail_before_sampling(tmp_path, capsys,
                                                      monkeypatch):
    def refuse(*args):
        raise AssertionError("records sampled before the partitions were "
                             "checked")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    whole = [{"lo": [0.0], "hi": [1.0]}]
    raw = correlated_ante_raw([{"agent": 1, "cells": whole},
                               {"agent": 0, "cells": whole}], 0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path]) == 2
    assert capsys.readouterr().err == (
        "error: partition[0]: per-agent partitions must be listed in agent "
        "order\n")


def test_partition_dimension_must_match_the_observations(tmp_path, capsys):
    # a 2-D tiling on a 1-D game: zip would read only the first coordinate
    # and leave the second cell empty
    cells = [{"lo": [0.0, 0.0], "hi": [1.0, 0.5]},
             {"lo": [0.0, 0.5], "hi": [1.0, 1.0]}]
    raw = correlated_ante_raw({"cells": cells}, 0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    assert main(["verify", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith(
        "error: partition[0]: invalid partition: cells have dimension 2, "
        "observations have 1")


def test_each_run_input_is_built_once_per_job(tmp_path, monkeypatch):
    calls = {}

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(priors, "prior_from_dict")
    count(cli, "profile_from_config")
    count(Partition, "from_dict")
    raw = eq_raw(mode="ex_ante", n_records=2000, grid_w=0.1,
                 partition={"cells": [{"lo": [0.0], "hi": [0.5]},
                                      {"lo": [0.5], "hi": [1.0]}]})
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    assert main(["verify", "--config", cfg_path, "--out", out]) in (0, 3)
    assert calls == {"prior_from_dict": 1, "profile_from_config": 1,
                     "from_dict": 1}


def test_ex_ante_run_writes_per_cell_breakdowns(tmp_path):
    raw = eq_raw(mode="ex_ante", n_records=4000, grid_w=0.05,
                 partition=[{"cells": [{"lo": [0.0], "hi": [0.5]},
                                       {"lo": [0.5], "hi": [1.0]}]}])
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg_path, "--out", out])
    assert rc in (0, 3)
    report = read_json(out, "report.json")
    assert report["mode"] == "ex_ante"
    assert report["n_cells_max"] == 2
    assert report["delta"] == 0.05 / 4
    entry = report["agents"][0]
    assert len(entry["cells"]) == 2
    assert sum(c["weight"] for c in entry["cells"]) == pytest.approx(1.0)
    assert all(c["tau"] == 0.0 for c in entry["cells"])  # independent prior
    with open(os.path.join(out, "cells.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["agent", "cell", "lo", "hi"]
    assert len(rows) - 1 == 4  # 2 agents x 2 cells


@pytest.mark.parametrize("grid_w", [None, "0.05"])
@pytest.mark.parametrize("mode, events", [("ex_interim", 3), ("ex_ante", 4)])
def test_reports_split_delta_total_evenly_over_the_failure_events(
        tmp_path, mode, events, grid_w):
    # 0.07 / 3 and 1 - 3 * (0.07 / 3) are inexact, so any other expression
    # for the split or the confidence shows in the last bit
    delta_total = 0.07
    raw = eq_raw(mode=mode, n_records=2000, delta_total=delta_total)
    if mode == "ex_ante":
        raw["partition"] = [{"cells": [{"lo": [0.0], "hi": [0.5]},
                                       {"lo": [0.5], "hi": [1.0]}]}]
    cfg_path = write_config(tmp_path / "config.json", raw)
    out = str(tmp_path / "out")
    argv = ["verify", "--config", cfg_path, "--out", out]
    if grid_w is not None:   # the split does not depend on the width
        argv += ["--grid-w", grid_w]
    assert main(argv) in (0, 3)
    delta = delta_total / events
    confidence = 1.0 - events * delta
    report = read_json(out, "report.json")
    assert report["delta_total"] == delta_total
    for entry in [report, *report["agents"]]:
        assert entry["delta"].hex() == delta.hex()
        assert entry["confidence"].hex() == confidence.hex()
    first = report["agents"][0]
    assert [report["delta"], report["confidence"]] \
        == [first["delta"], first["confidence"]]


def test_main_exit_codes_and_stderr(tmp_path, capsys, monkeypatch):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error: config:" in capsys.readouterr().err
    bad = write_config(tmp_path / "bad.json", eq_raw(delta_total=2.0))
    assert main(["verify", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "error: delta_total: delta_total must lie in (0,1)" in err
    not_obj = tmp_path / "list.json"
    not_obj.write_text("[]", encoding="utf-8")
    assert main(["verify", "--config", str(not_obj)]) == 2
    assert "error: config: config must be a JSON object" \
        in capsys.readouterr().err
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff{}")
    assert main(["verify", "--config", str(not_utf8)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config: 'utf-8' codec can't decode byte 0xff")
    (tmp_path / "cells.json").write_text("{", encoding="utf-8")
    ante = write_config(tmp_path / "ante.json",
                        eq_raw(mode="ex_ante", partition="cells.json"))
    assert main(["verify", "--config", ante]) == 2
    assert capsys.readouterr().err.startswith(
        "error: partition: cannot read partition file: Expecting")

    # an out_dir that is a file is refused before any record is sampled
    def refuse(*args):
        raise AssertionError("records sampled before out_dir was created")

    monkeypatch.setattr(priors, "sample_dataset", refuse)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    good = write_config(tmp_path / "good.json", eq_raw())
    assert main(["verify", "--config", good,
                 "--out", str(tmp_path / "taken")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: out_dir: cannot create out_dir: ")


def test_main_overrides_reach_the_run_config(tmp_path):
    cfg_path = write_config(tmp_path / "config.json", eq_raw())
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg_path, "--out", out,
               "--grid-w", "0.5", "--delta", "0.2", "--seed", "9",
               "--mode", "ex_interim"])
    assert rc in (0, 3)
    report = read_json(out, "report.json")
    assert report["grid_width"] == 0.5
    assert report["delta_total"] == 0.2
    assert report["seed"] == 9


CONSOLE_SCRIPT = ("bne-verify", "bneverify.cli:main")


def _declared_console_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _assert_missing_config_exits_2(cmd, tmp_path, env=None):
    proc = subprocess.run(
        cmd + ["verify", "--config", str(tmp_path / "nope.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "error: config:" in proc.stderr


def test_console_script_is_installed(tmp_path):
    """The `bne-verify` console script is declared, resolves to cli.main,
    and behaves as a CLI when run the way the generated wrapper runs it.

    The suite runs from a checkout, so an installed script on PATH is
    checked only where the distribution is installed.
    """
    name, target = CONSOLE_SCRIPT
    assert _declared_console_scripts() == {name: target}
    entry = importlib.metadata.EntryPoint(
        name=name, value=target, group="console_scripts")
    assert entry.load() is cli.main

    # what pip's generated wrapper does, in a fresh interpreter
    env = dict(os.environ)
    src_dir = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in [env.get("PYTHONPATH")] if p])
    module, func = target.split(":")
    _assert_missing_config_exits_2(
        [sys.executable, "-c",
         f"import sys; from {module} import {func}; sys.exit({func}())"],
        tmp_path, env=env)

    try:
        dist = importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return
    installed = {ep.name: ep.value for ep in dist.entry_points
                 if ep.group == "console_scripts"}
    assert installed == {name: target}
    exe = shutil.which(name)
    assert exe, f"{name} is installed but its console script is not on PATH"
    _assert_missing_config_exits_2([exe], tmp_path)


NO_SCIPY = ("import sys; "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not loaded, loaded")


def not_loaded(*modules):
    """Code that asserts none of modules is in sys.modules."""
    return ("import sys; "
            f"loaded = [m for m in {list(modules)!r} if m in sys.modules]; "
            "assert not loaded, loaded")


@pytest.fixture
def src_env():
    """The environment of a fresh interpreter that imports this bneverify."""
    env = dict(os.environ)
    src_dir = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_fresh(code, env, cwd=None):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr


def test_import_and_verify_with_and_without_oracle_do_not_load_scipy(
        tmp_path, src_env):
    run_fresh("import bneverify; " + NO_SCIPY, src_env)
    cfg_path = write_config(tmp_path / "config.json",
                            eq_raw(n_records=2000, grid_w=0.1))
    for flags in ([], ["--oracle"]):
        run = ("from bneverify.cli import main; "
               f"rc = main(['verify', '--config', {cfg_path!r}, *{flags!r}]); "
               "assert rc in (0, 3), rc; " + NO_SCIPY)
        if not flags:
            run += "; " + not_loaded("bneverify.oracle")
        run_fresh(run, src_env, cwd=str(tmp_path))
    assert os.path.exists(tmp_path / "out" / "report.json")
    oracle = read_json(str(tmp_path / "out"), "oracle.json")
    assert oracle["0"] == {"value": 0.0, "method": "closed_form",
                           "resolution": {}}


def test_import_loads_no_module_of_the_package_and_not_numpy(src_env):
    run_fresh("import bneverify, sys; "
              "loaded = [m for m in sys.modules "
              "if m.startswith('bneverify.') or m.split('.')[0] == 'numpy']; "
              "assert not loaded, loaded", src_env)


def test_recorded_data_verify_loads_no_sampler_prior_or_oracle(tmp_path,
                                                               src_env):
    write_records(tmp_path / "records.jsonl", 500, seed=4)
    raw = eq_raw(prior=None, n_records=None, seed=None,
                 dataset="records.jsonl", kappa=1.0, grid_w=0.1)
    # ex ante, the cells declare their taus: no prior derives them
    ante = dict(raw, mode="ex_ante", partition={"cells": [
        {"lo": [0.0], "hi": [0.5], "tau": 0.1},
        {"lo": [0.5], "hi": [1.0], "tau": 0.2}]})
    for job in (raw, ante):
        cfg_path = write_config(tmp_path / "config.json", job)
        run_fresh("from bneverify.cli import main; "
                  f"rc = main(['verify', '--config', {cfg_path!r}]); "
                  "assert rc in (0, 3), rc; "
                  + not_loaded("numpy.random", "bneverify.priors",
                               "bneverify.oracle", "bneverify._backend"),
                  src_env, cwd=str(tmp_path))
        report = read_json(str(tmp_path / "out"), "report.json")
        assert report["mode"] == job.get("mode", "ex_interim")
        assert report["dataset_hash"] \
            == file_hash(str(tmp_path / "records.jsonl"))


def test_ex_ante_verify_loads_neither_fractions_nor_decimal(tmp_path,
                                                            src_env):
    raw = correlated_ante_raw(
        {"cells": [{"lo": [0.0], "hi": [0.3]}, {"lo": [0.3], "hi": [1.0]}]},
        0.1)
    cfg_path = write_config(tmp_path / "config.json", raw)
    run_fresh("from bneverify.cli import main; "
              f"rc = main(['verify', '--config', {cfg_path!r}]); "
              "assert rc in (0, 3), rc; " + not_loaded("fractions", "decimal"),
              src_env, cwd=str(tmp_path))
    assert os.path.exists(tmp_path / "out" / "report.json")


def test_every_public_name_resolves_lazily(src_env):
    import bneverify
    names = bneverify.__all__
    # each fresh process reads every name first by one of the two routes
    run_fresh("import bneverify; "
              f"assert set({names!r}) <= set(dir(bneverify)); "
              f"values = [getattr(bneverify, n) for n in {names!r}]", src_env)
    run_fresh("import bneverify; ns = {}; "
              f"[exec('from bneverify import ' + n, ns) for n in {names!r}]; "
              f"assert all(ns[n] is getattr(bneverify, n) for n in {names!r})",
              src_env)
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        bneverify.missing


def test_names_the_benchmark_reads_resolve(src_env):
    run_fresh("import bneverify; "
              "assert callable(bneverify.priors.prior_from_dict); "
              "assert callable(bneverify.profile_from_config); "
              "assert callable(bneverify.sample_dataset); "
              "assert callable(bneverify.save_dataset); "
              "assert isinstance(bneverify.BACKEND_NAME, str); "
              "from bneverify import _backend, bounds, cli, estimator, priors; "
              "assert callable(_backend.get_kernels)", src_env)


# ------------------------------------------------------------ CSV emitters


def test_emit_plot_data_writes_a_bare_header_without_data(tmp_path):
    path = str(tmp_path / "plot.csv")
    emit_plot_data(RunReport(payload={}, plots={}), path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "x,empirical_gain\n"


def test_emit_plot_data_joins_multidimensional_points(tmp_path):
    report = RunReport(payload={}, plots={
        0: (np.array([[0.0, 0.0], [0.5, 0.25]]), np.array([0.1, 0.2]))})
    path = str(tmp_path / "plot.csv")
    emit_plot_data(report, path, agent=0)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["0.0;0.0", "0.1"]
    assert rows[2] == ["0.5;0.25", "0.2"]


def row_by_row_plot_csv(points, gains):
    """The plot CSV written one numpy scalar at a time."""
    lines = ["x,empirical_gain"]
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    for j in range(points.shape[0]):
        x = ";".join(repr(float(c)) for c in points[j])
        lines.append(f"{x},{float(gains[j])!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dim", [None, 1, 2, 4])
def test_emit_plot_data_bytes_match_a_row_by_row_writer(tmp_path, dim):
    rng = np.random.Generator(np.random.Philox(40))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022 - 2.0 ** -1074, 1.0,
               -1.0, 0.1, 1e-300, 1.7976931348623157e308]
    n = 3 * len(special)
    gains = np.concatenate([special, rng.standard_normal(n - len(special))])
    shape = (n,) if dim is None else (n, dim)
    points = rng.random(shape)
    points.flat[:len(special)] = special
    report = RunReport(payload={}, plots={0: (points, gains)})
    path = tmp_path / "plot.csv"
    emit_plot_data(report, str(path), agent=0)
    assert path.read_bytes().decode("utf-8") == row_by_row_plot_csv(points,
                                                                    gains)
