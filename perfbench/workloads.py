"""Workload definitions and seeded input generation.

Each workload is one `bne-verify verify` job. The benchmark writes the job's
inputs (a config, plus a JSON-lines dataset for the recorded-data route)
from the run seed before any timing; the program receives only those files.

Why these two, between them covering every module:

* correlated_ante -- sampled records (`priors.sample_dataset`), the only
  multi-cell partition (`model.split_by_partition`) and derived tau
  (quadrature in `priors`), ex ante; `fpsb_dev_utils` builds K x N
  matrices per cell.
* combinatorial_dataset_interim -- records loaded from a file
  (`model.load_dataset`), ex interim, and the only rule on the `mechanisms`
  path: `winner_determination` runs for every candidate bid and every
  valuation grid point against every record, per agent. At this size every
  bound is vacuous (exit 3).

A host whose speed drifts by tens of percent over minutes needs long runs
for steady results, and the run budget allows long runs only for few
workloads; the multi-unit rules therefore have no workload of their own.
"""
import json
import os
from dataclasses import dataclass

UNIFORM = {"kind": "uniform", "a": 0.0, "b": 1.0}

# The 8-cell partition shipped in configs/correlated_partition.json, copied
# so that later edits to the shipped configs cannot change the benchmark.
CORRELATED_CELLS = [
    (0.0, 0.027), (0.027, 0.067), (0.067, 0.12), (0.12, 0.187),
    (0.187, 0.271), (0.271, 0.381), (0.381, 0.545), (0.545, 1.0),
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_records: int
    expected_exit: int
    raw: dict               # config fields besides seed/out_dir/records
    # when set, the records are drawn from this prior by the benchmark and
    # given to the program as a JSONL dataset instead of the prior
    dataset_prior: dict = None

    def write_inputs(self, bneverify, work_dir: str, seed: int) -> dict:
        """Write the config (and dataset) for one seed; return the paths and
        input sizes."""
        os.makedirs(work_dir, exist_ok=True)
        raw = json.loads(json.dumps(self.raw))
        raw["out_dir"] = "out"
        sizes = {"n_records": self.n_records}
        if self.dataset_prior is not None:
            n_agents = raw["game"]["n_agents"]
            prior = bneverify.priors.prior_from_dict(self.dataset_prior,
                                                     n_agents)
            profile = bneverify.profile_from_config(raw["strategies"],
                                                    n_agents)
            ds = bneverify.sample_dataset(prior, profile, self.n_records, seed)
            data_path = os.path.join(work_dir, "records.jsonl")
            bneverify.save_dataset(ds, data_path)
            raw["dataset"] = "records.jsonl"
            sizes["dataset_bytes"] = os.path.getsize(data_path)
        else:
            raw["n_records"] = self.n_records
            raw["seed"] = seed
        config_path = os.path.join(work_dir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
        return {"config": config_path, "sizes": sizes}


WORKLOADS = {w.name: w for w in [
    Workload(
        name="correlated_ante",
        why="sampled correlated prior, 8-cell partition, ex ante: partition "
            "split, tau quadrature and K x N first-price kernel matrices",
        n_records=300_000,
        expected_exit=0,
        raw={
            "game": {"n_agents": 2,
                     "mechanism": {"kind": "first_price_single_item"}},
            "mode": "ex_ante",
            "prior": {"kind": "correlated_common_value", "n_agents": 2},
            "strategies": [
                {"agent": 0, "family": "identity", "params": {}},
                {"agent": 1, "family": "identity", "params": {}},
            ],
            "partition": {"agent": 0, "cells": [
                {"lo": [lo], "hi": [hi], "tau": None, "kappa": None}
                for lo, hi in CORRELATED_CELLS]},
            "grid_w": 0.005,
            "delta_total": 0.05,
        }),
    Workload(
        name="combinatorial_dataset_interim",
        why="recorded JSONL dataset, first-price combinatorial, 1 item, ex "
            "interim: load_dataset, then winner_determination per candidate "
            "and record",
        n_records=250,
        expected_exit=3,
        dataset_prior={"kind": "independent_product",
                       "marginals": [[UNIFORM, UNIFORM]] * 2},
        raw={
            "game": {"n_agents": 2,
                     "mechanism": {"kind": "first_price_combinatorial",
                                   "items": 1}},
            "mode": "ex_interim",
            "strategies": [
                {"agent": 0, "family": "linear_shade", "params": {"c": 0.7}},
                {"agent": 1, "family": "linear_shade", "params": {"c": 0.95}},
            ],
            "kappa": 1.0,
            "grid_w": 0.1,
            "delta_total": 0.05,
        }),
]}
