"""Config parsing, the batch runner, report determinism, and CSV emitters."""
import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bneverify import cli
from bneverify.bounds import FLAG_DEGRADED_BOUND
from bneverify.cli import (ConfigError, RunReport, emit_density_diagnostic,
                           emit_plot_data, load_config, main, parse_config,
                           run)
from bneverify.model import canonical_json, file_hash
from bneverify.priors import Beta, prior_from_dict, sample_dataset
from bneverify.strategies import LinearShade, profile_from_config


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
    expect_config_error(eq_raw(grid_w=[]), "grid_w",
                        "number or a nonempty list")
    expect_config_error(eq_raw(grid_w=[0.1, 2.0]), "grid_w[1]",
                        r"grid widths must lie in \(0, 1\]")
    expect_config_error(eq_raw(dataset="x.jsonl"), "prior",
                        "exactly one of prior and dataset")
    expect_config_error(eq_raw(prior=None), "prior",
                        "exactly one of prior and dataset")
    expect_config_error(eq_raw(strategies="bids-only"), "strategies",
                        "'bids-only' requires a dataset path")
    expect_config_error(eq_raw(strategies=[{"agent": 0, "family": "warp"}]),
                        "strategies", "unknown strategy family")
    expect_config_error(eq_raw(prior={"kind": "mystery"}), "prior",
                        "unknown prior kind")
    expect_config_error(eq_raw(mode="ex_ante"), "partition",
                        "mode ex_ante requires a partition")
    expect_config_error(eq_raw(n_records=None), "n_records",
                        "positive integer in simulation mode")
    expect_config_error(eq_raw(seed=None), "seed",
                        "nonnegative integer in simulation mode")
    expect_config_error(eq_raw(kappa=-1.0), "kappa", "kappa must be positive")
    expect_config_error(eq_raw(l_inv_max=0.0), "l_inv_max",
                        "must be positive")
    expect_config_error(eq_raw(pdim_constant=-2.0), "pdim_constant",
                        "must be positive")
    expect_config_error(eq_raw(out_dir=""), "out_dir", "nonempty path")


def test_parse_config_rejects_correlated_values_ex_interim():
    raw = eq_raw(prior={"kind": "correlated_common_value", "n_agents": 2})
    expect_config_error(raw, "mode",
                        "mode ex_interim requires independent private values")


def test_parse_config_partition_errors():
    base = dict(mode="ex_ante")
    expect_config_error(eq_raw(**base, partition=[{"agent": 0}]),
                        "partition[0]", "must contain a cells list")
    cells = [{"lo": [0.0], "hi": [1.0]}]
    expect_config_error(
        eq_raw(**base, partition=[{"cells": cells}] * 3), "partition",
        "one entry or one per agent")
    expect_config_error(eq_raw(**base, partition="no/such/file.json"),
                        "partition", "cannot read partition file")


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
    assert parse_config(raw).partition[0]["cells"][1]["tau"] == 0.0


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
    expect_config_error(eq_raw(prior={"kind": "external"}), "kappa",
                        "declare it or provide")
    # a kappa on every cell, a top-level kappa or a built-in prior suffices
    for cell in cells:
        cell["kappa"] = 2.0
    assert parse_config(ante).kappa is None
    cells[1]["kappa"] = None
    expect_config_error(ante, "kappa", "declare it per cell")
    assert parse_config(dict(ante, kappa=2.0)).kappa == 2.0
    assert parse_config(dict(interim, kappa=2.0)).kappa == 2.0
    correlated = eq_raw(prior={"kind": "correlated_common_value",
                               "n_agents": 2}, mode="ex_ante",
                        partition={"cells": [{"lo": [0.0], "hi": [1.0]}]})
    assert parse_config(correlated).kappa is None


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
    second = {"cells": [{"lo": [0.0], "hi": [1.0]}]}
    raw = eq_raw(mode="ex_ante", partition=[second, {"cells": cells}])
    expect_config_error(raw, "partition[1]", message)


def test_partition_tiling_is_checked_exactly():
    # 0.1 + 0.2 != 0.3 in floats, yet these boxes tile [0, 1] exactly
    edges = [0.0, 0.1, 0.3, 0.7, 1.0]
    spans = list(zip(edges, edges[1:]))
    line = [{"lo": [a], "hi": [b]} for a, b in spans]
    grid = [{"lo": [a, c], "hi": [b, d]} for a, b in spans for c, d in spans]
    for cells in (line, grid):
        raw = eq_raw(mode="ex_ante", partition={"cells": cells})
        assert parse_config(raw).partition[0]["cells"] == cells
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
    assert config.partition == [part]


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


def test_run_config_hash_ignores_the_output_directory():
    a = parse_config(eq_raw(out_dir="out/a"))
    b = parse_config(eq_raw(out_dir="out/b"))
    assert a.hash() == b.hash()
    assert parse_config(eq_raw(seed=1)).hash() != a.hash()


def test_load_config_resolves_dataset_paths(tmp_path):
    ds_path = tmp_path / "bids.jsonl"
    ds_path.write_text('{"obs": [[0.5], [0.5]], "vals": [[0.5], [0.5]], '
                       '"bids": [[0.25], [0.25]]}\n', encoding="utf-8")
    raw = eq_raw(prior=None, n_records=None, seed=None, dataset="bids.jsonl",
                 kappa=1.0)
    cfg_path = write_config(tmp_path / "cfg.json", raw)
    config = load_config(cfg_path)
    assert config.dataset == os.path.normpath(str(ds_path))


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
    prior = prior_from_dict(config.prior, 2)
    profile = profile_from_config(config.strategies, 2)
    block = cli._oracle_block(config, prior, profile)
    assert block["0"]["value"] == pytest.approx(0.02, abs=1e-9)
    assert block["1"]["value"] is None and "note" in block["1"]


def test_oracle_block_is_null_outside_its_domain():
    raw = eq_raw()
    raw["game"]["mechanism"] = {"kind": "discriminatory", "units": 1}
    config = parse_config(raw)
    prior = prior_from_dict(config.prior, 2)
    profile = profile_from_config(config.strategies, 2)
    assert cli._oracle_block(config, prior, profile) == {"0": None, "1": None}


def test_grid_sweep_writes_one_report_per_width(tmp_path):
    cfg_path = write_config(tmp_path / "config.json", eq_raw())
    out = str(tmp_path / "sweep")
    rc = main(["verify", "--config", cfg_path, "--out", out,
               "--grid-sweep", "0.1,0.05"])
    assert rc == 0
    coarse = read_json(out, "report_w0.1.json")
    fine = read_json(out, "report_w0.05.json")
    assert coarse["grid_width"] == 0.1 and fine["grid_width"] == 0.05
    for a in range(2):
        # the finer lattice contains the coarse one, so the sup cannot drop
        assert fine["agents"][a]["empirical"] \
            >= coarse["agents"][a]["empirical"]
    assert os.path.exists(os.path.join(out, "plot_agent1_w0.05.csv"))


def test_tiny_sample_run_is_reported_vacuous(tmp_path):
    cfg_path = write_config(tmp_path / "config.json",
                            eq_raw(n_records=50, grid_w=0.5))
    out = str(tmp_path / "out")
    rc = main(["verify", "--config", cfg_path, "--out", out])
    assert rc == 3
    report = read_json(out, "report.json")
    assert report["vacuous"] is True
    assert all(a["total"] > 2.0 for a in report["agents"])


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


def test_main_exit_codes_and_stderr(tmp_path, capsys):
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


def test_import_and_verify_without_oracle_do_not_load_scipy(tmp_path):
    env = dict(os.environ)
    src_dir = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", "import bneverify; " + NO_SCIPY],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    cfg_path = write_config(tmp_path / "config.json",
                            eq_raw(n_records=2000, grid_w=0.1))
    run = ("from bneverify.cli import main; "
           f"rc = main(['verify', '--config', {cfg_path!r}]); "
           "assert rc in (0, 3), rc; " + NO_SCIPY)
    proc = subprocess.run([sys.executable, "-c", run], capture_output=True,
                          text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(tmp_path / "out" / "report.json")


# ------------------------------------------------------------ CSV emitters


def test_emit_plot_data_writes_a_bare_header_without_data(tmp_path):
    path = str(tmp_path / "plot.csv")
    emit_plot_data(RunReport(payload={}, plots={}, vacuous=False), path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "x,empirical_gain\n"


def test_emit_plot_data_joins_multidimensional_points(tmp_path):
    report = RunReport(payload={}, plots={
        0: (np.array([[0.0, 0.0], [0.5, 0.25]]), np.array([0.1, 0.2]))},
        vacuous=False)
    path = str(tmp_path / "plot.csv")
    emit_plot_data(report, path, agent=0)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["0.0;0.0", "0.1"]
    assert rows[2] == ["0.5;0.25", "0.2"]


def test_density_diagnostic_stays_under_the_certified_bound(tmp_path):
    path = str(tmp_path / "density.csv")
    emit_density_diagnostic(Beta(2.0, 5.0), LinearShade(0.5), path,
                            kappa=2.5)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bid", "density_estimate", "certified_bound"]
    assert len(rows) - 1 == 200
    bounds_col = {float(r[2]) for r in rows[1:]}
    assert bounds_col == {5.0}
    assert all(float(r[1]) <= 5.0 for r in rows[1:])
