"""The benchmark's traced child process runs on this checkout: every name its
tracer wraps still exists as a module attribute, and the verify path still
calls it, so a rename fails here rather than in a benchmark run."""
import json
import os
import subprocess
import sys
from pathlib import Path

from bneverify.model import save_dataset
from bneverify.priors import IndependentProduct, Uniform, sample_dataset
from bneverify.strategies import LinearShade, StrategyProfile

REPO = Path(__file__).resolve().parent.parent


def traced_verify(tmp_path, raw, exit_code):
    """Run one traced verify of raw in tmp_path, which must exit with
    exit_code; return its timing record."""
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "timing.json",
         "1", "verify", "--config", "config.json", "--out", "out"],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == exit_code, proc.stderr
    record = json.loads((tmp_path / "timing.json").read_text(encoding="utf-8"))
    assert Path(record["package"]) == REPO / "src" / "bneverify" / "__init__.py"
    return record


def test_traced_child_records_the_verify_spans(tmp_path):
    raw = {
        "game": {"n_agents": 2,
                 "mechanism": {"kind": "first_price_single_item"}},
        "mode": "ex_ante",
        "prior": {"kind": "independent_product",
                  "marginals": [[{"kind": "uniform"}]] * 2},
        "strategies": [{"agent": a, "family": "linear_shade",
                        "params": {"c": 0.5}} for a in range(2)],
        "partition": {"cells": [{"lo": [0.0], "hi": [1.0]}]},
        "grid_w": 0.1,
        "delta_total": 0.05,
        "n_records": 2000,
        "seed": 1,
    }
    record = traced_verify(tmp_path, raw, 0)
    for name in ("cli.parse_config", "cli.run", "estimator.estimate_ex_ante"):
        assert record["spans"][name]["calls"] >= 1, name
    # the split labels the records inside its span, once per agent, so the
    # per-layer split metric measures the labelling
    assert record["spans"]["model.split_by_partition"]["calls"] == 2


def test_traced_child_records_the_recorded_bundles_spans(tmp_path):
    # the shape of the combinatorial_dataset_interim workload, smaller: a
    # recorded JSONL dataset, a one-item combinatorial auction, ex interim
    shades = (0.7, 0.95)
    prior = IndependentProduct([[Uniform(), Uniform()]] * 2)
    profile = StrategyProfile(tuple(LinearShade(c) for c in shades))
    save_dataset(sample_dataset(prior, profile, 60, seed=1),
                 tmp_path / "records.jsonl")
    raw = {
        "game": {"n_agents": 2,
                 "mechanism": {"kind": "first_price_combinatorial",
                               "items": 1}},
        "mode": "ex_interim",
        "dataset": "records.jsonl",
        "strategies": [{"agent": a, "family": "linear_shade",
                        "params": {"c": c}} for a, c in enumerate(shades)],
        "kappa": 1.0,
        "grid_w": 0.1,
        "delta_total": 0.05,
    }
    record = traced_verify(tmp_path, raw, 3)   # vacuous, as the workload
    assert record["spans"]["model.load_dataset"]["calls"] == 1
    assert record["spans"]["estimator.estimate_ex_interim"]["calls"] == 2
