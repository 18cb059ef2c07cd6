"""Fault injection over whole run configs: every leaf of two small configs
is replaced in turn by a value of another JSON type, and each job must end
in a normal exit, with any config error naming its field."""
import copy
import json
import re

import pytest

from bneverify.cli import main

UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}

# prior-mode, single-item first price, ex interim
INTERIM = {
    "game": {"n_agents": 2,
             "mechanism": {"kind": "first_price_single_item", "items": 0,
                           "units": 1},
             "utility_scale": 1.0},
    "mode": "ex_interim",
    "prior": {"kind": "independent_product",
              "marginals": [[UNIFORM], [UNIFORM]]},
    "strategies": [
        {"agent": 0, "family": "linear_shade", "params": {"c": 0.5}},
        {"agent": 1, "family": "linear_shade", "params": {"c": 0.5}}],
    "grid_w": 0.1,
    "delta_total": 0.05,
    "n_records": 200,
    "seed": 1,
    "kappa": 1.0,
    "pdim_constant": 1.0,
    "disp_constant": 1.0,
    "out_dir": "out",
}

# prior-mode, two-unit discriminatory, ex ante over two cells
ANTE = {
    "game": {"n_agents": 2,
             "mechanism": {"kind": "discriminatory", "units": 2}},
    "mode": "ex_ante",
    "prior": {"kind": "independent_product",
              "marginals": [[UNIFORM, UNIFORM], [UNIFORM, UNIFORM]],
              "sort_desc": True},
    "strategies": [
        {"agent": 0, "family": "linear_shade", "params": {"c": 0.6}},
        {"agent": 1, "family": "piecewise_linear",
         "params": {"xs": [0.0, 1.0], "ys": [0.0, 0.8]}}],
    "partition": {"agent": 0, "cells": [
        {"lo": [0.0, 0.0], "hi": [0.5, 1.0], "tau": None, "kappa": None},
        {"lo": [0.5, 0.0], "hi": [1.0, 1.0], "tau": 0.5, "kappa": 4.0}]},
    "grid_w": 0.25,
    "delta_total": 0.05,
    "n_records": 200,
    "seed": 2,
}

REPLACEMENTS = [True, False, None, "0.5", -1, [], {}, 10**400, float("inf"),
                5e-324]
NOT_NUMBERS = [True, False, "0.5", [], {}]


def leaves(node, path=()):
    """The path of every scalar and every empty container in node."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    children = list(children)
    if not children:
        yield path
    for key, child in children:
        yield from leaves(child, path + (key,))


def replaced(raw, path, value):
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def cases():
    for name, raw in (("interim", INTERIM), ("ante", ANTE)):
        for path in leaves(raw):
            yield pytest.param(raw, path, id=f"{name}:" + ".".join(
                map(str, path)))


@pytest.mark.parametrize("raw, path", cases())
def test_every_replaced_leaf_exits_normally(tmp_path, capsys, raw, path):
    node = raw
    for key in path:
        node = node[key]
    held_number = type(node) in (int, float)
    cfg_path = tmp_path / "config.json"
    for value in REPLACEMENTS:
        cfg_path.write_text(json.dumps(replaced(raw, path, value)))
        code = main(["verify", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (value, code, err)
        if code == 2:   # named by its field in the config
            named = re.match(r"error: ([\w.\[\]]+): ", err)
            assert named, (value, err)
            assert re.split(r"[.\[]", named.group(1))[0] in raw, (value, err)
        if held_number and value in NOT_NUMBERS:
            assert code == 2, (value, code)
