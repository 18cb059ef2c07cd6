"""Byte-frozen end-to-end reports: the shipped example configs, one small
job per rule and certificate mode that no shipped config covers, and one
job on recorded bids."""
import json
from pathlib import Path

import pytest

from bneverify.cli import parse_config, run
from bneverify.model import save_dataset
from bneverify.priors import prior_from_dict, sample_dataset
from bneverify.strategies import profile_from_config

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (config path, expected exit code); the small ex interim jobs are
# vacuous (exit 3), which still freezes every estimate in the report
JOBS = {
    "fpsb_eq": (REPO / "configs" / "fpsb_eq.json", 0),
    "fpsb_dev": (REPO / "configs" / "fpsb_dev.json", 0),
    "correlated_demo": (REPO / "configs" / "correlated_demo.json", 0),
    **{f"{rule}_{mode}": (GOLDEN / f"{rule}_{mode}_config.json",
                          3 if mode == "interim" else 0)
       for rule in ("discriminatory", "uniform_price", "combinatorial")
       for mode in ("interim", "ante")},
    "bids_only_ante": (GOLDEN / "bids_only_ante_config.json", 0),
}

UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}
# recorded-data job -> (prior, strategies, record count, seed) its records
# are drawn from; the test saves them as the config's dataset, so no data
# file ships
RECORDS = {
    "bids_only_ante": (
        {"kind": "independent_product", "marginals": [[UNIFORM], [UNIFORM]]},
        [{"agent": 0, "family": "linear_shade", "params": {"c": 0.5}},
         {"agent": 1, "family": "linear_shade", "params": {"c": 0.7}}],
        2000, 11),
}


@pytest.mark.parametrize("name", list(JOBS))
def test_shipped_configs_reproduce_their_frozen_reports(name, tmp_path):
    path, exit_code = JOBS[name]
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["out_dir"] = str(tmp_path / "out")
    base_dir = path.parent
    if name in RECORDS:
        prior, strategies, n_records, seed = RECORDS[name]
        ds = sample_dataset(prior_from_dict(prior, 2),
                            profile_from_config(strategies, 2), n_records,
                            seed)
        save_dataset(ds, str(tmp_path / raw["dataset"]))
        base_dir = tmp_path
    config = parse_config(raw, base_dir=str(base_dir))
    assert run(config) == exit_code
    got = (tmp_path / "out" / "report.json").read_bytes()
    want = (GOLDEN / f"{name}_report.json").read_bytes()
    assert got == want


def test_every_shipped_run_config_has_a_golden():
    # a run config holds a game; a partition file does not
    shipped = {path for path in (REPO / "configs").glob("*.json")
               if "game" in json.loads(path.read_text(encoding="utf-8"))}
    assert shipped and shipped <= {path for path, _ in JOBS.values()}
