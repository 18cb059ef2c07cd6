"""Byte-frozen end-to-end reports: the shipped example configs, and one
small job per rule and certificate mode that no shipped config covers."""
import json
from pathlib import Path

import pytest

from bneverify.cli import parse_config, run

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (config path, expected exit code); the small ex interim jobs are
# vacuous (exit 3), which still freezes every estimate in the report
JOBS = {
    "fpsb_eq": (REPO / "configs" / "fpsb_eq.json", 0),
    "correlated_demo": (REPO / "configs" / "correlated_demo.json", 0),
    **{f"{rule}_{mode}": (GOLDEN / f"{rule}_{mode}_config.json",
                          3 if mode == "interim" else 0)
       for rule in ("discriminatory", "uniform_price", "combinatorial")
       for mode in ("interim", "ante")},
}


@pytest.mark.parametrize("name", list(JOBS))
def test_shipped_configs_reproduce_their_frozen_reports(name, tmp_path):
    path, exit_code = JOBS[name]
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["out_dir"] = str(tmp_path)
    config = parse_config(raw, base_dir=str(path.parent))
    assert run(config) == exit_code
    got = (tmp_path / "report.json").read_bytes()
    want = (GOLDEN / f"{name}_report.json").read_bytes()
    assert got == want
