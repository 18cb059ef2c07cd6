"""Tests of the benchmark itself.

Run from the root of the checkout: python3 -m pytest perfbench
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import run
import spans
from workloads import UNIFORM, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_scipy_import_time_counts_each_scipy_subtree_once():
    trace = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       100 |        150 |   scipy",
        "import time:        30 |         30 |     scipy.special",
        "import time:        70 |        100 |   scipy.integrate",
        "import time:        10 |         10 |   numpy.linalg",
        "import time:        20 |        280 | bneverify.oracle",
        "import time:         5 |          5 | scipy.optimize",
    ])
    assert run.scipy_import_s(trace) == pytest.approx((150 + 100 + 5) / 1e6)


def test_self_times_of_nested_spans_add_up_to_the_root():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(range(n))

    ns = {}
    ns["leaf"] = tracer.wrap("leaf", leaf)

    def mid(n):     # looks its callee up by name, like the kernel module
        return ns["leaf"](n) + ns["leaf"](n)

    root = tracer.wrap("root", tracer.wrap("mid", mid))
    root(200_000)
    st = tracer.stats
    assert st["leaf"]["calls"] == 2
    total_self = sum(s["self_s"] for s in st.values())
    assert total_self == pytest.approx(st["root"]["total_s"], rel=1e-9)
    assert st["mid"]["total_s"] >= st["leaf"]["total_s"]
    # the leaf time is counted once, in the leaf, not again in mid or root
    assert st["mid"]["self_s"] < st["leaf"]["total_s"]


def test_memory_peaks_nest():
    tracer = spans.Tracer(memory=True)
    inner = tracer.wrap("model.split_by_partition",
                        lambda: len(bytearray(8 << 20)))
    outer = tracer.wrap("estimator.estimate_ex_ante",
                        lambda: inner() + len(bytearray(1 << 20)))
    tracemalloc.start()
    try:
        outer()
    finally:
        tracemalloc.stop()
    inner_peak = tracer.stats["model.split_by_partition"]["peak_bytes"]
    outer_peak = tracer.stats["estimator.estimate_ex_ante"]["peak_bytes"]
    assert inner_peak >= 8 << 20
    assert outer_peak >= inner_peak


class _PinnedJob:
    def __init__(self, pinned):
        self.pinned = pinned


def _outputs(values):
    """report.json and gain curves whose per-point gains sum to gain_sum."""
    outputs = {"report.json": json.dumps(
        {"agents": [{"empirical": e, "total": t}
                    for e, t, _ in values]}).encode()}
    for i, (_, _, gain_sum) in enumerate(values):
        outputs[f"plot_agent{i}.csv"] = (
            f"x,empirical_gain\n0.0,{gain_sum / 4!r}\n"
            f"0.5,{gain_sum * 3 / 4!r}\n").encode()
    return outputs


def test_pinned_values_are_checked():
    pinned = [[0.1, 1.5, 2.0], [0.2, 1.6, 3.0]]
    assert run.agent_values(_outputs(pinned)) == pinned
    assert run.check_report(_PinnedJob(pinned), _outputs(pinned)) == []
    drifted = [[0.1 * (1 + 1e-12), 1.5, 2.0], [0.2, 1.6, 3.0]]
    assert run.check_report(_PinnedJob(pinned), _outputs(drifted)) == []
    wrong = [[0.1, 1.5, 2.0], [0.2, 1.6 * (1 + 1e-6), 3.0]]
    assert run.check_report(_PinnedJob(pinned), _outputs(wrong))
    wrong_curve = [[0.1, 1.5, 2.0], [0.2, 1.6, 3.0 * (1 + 1e-6)]]
    assert run.check_report(_PinnedJob(pinned), _outputs(wrong_curve))
    assert run.check_report(_PinnedJob(None), _outputs([[0.3, 0.2, 0.0]]))
    missing_curve = _outputs(pinned)
    del missing_curve["plot_agent1.csv"]
    assert run.check_report(_PinnedJob(pinned), missing_curve)


def test_every_workload_has_pins():
    pins = run.load_pins()
    assert set(pins) == set(WORKLOADS)
    for name, table in pins.items():
        assert "0" in table, name
        for seed, values in table.items():
            assert all(len(v) == len(run.PINNED) for v in values), (name, seed)


def test_pinned_gain_curves_depend_on_the_seed():
    """The combinatorial bound is the same for every seed, so the pins
    must hold something that is not."""
    table = run.load_pins()["combinatorial_dataset_interim"]
    totals = {tuple(v[1] for v in values) for values in table.values()}
    gain_sums = {tuple(v[2] for v in values) for values in table.values()}
    assert len(totals) == 1
    assert len(gain_sums) == len(table)


def test_perturbed_records_fail_the_pin_check(tmp_path):
    src, bneverify = run.find_program(ROOT)
    workload = dataclasses.replace(WORKLOADS["combinatorial_dataset_interim"],
                                   n_records=20)
    first = run.Job(workload, bneverify, str(tmp_path / "first"), 0, src, {})
    sample = run.run_verify(first)
    assert sample.ok, sample.problems
    pins = {workload.name: {"0": run.agent_values(sample.outputs)}}
    job = run.Job(workload, bneverify, str(tmp_path / "perturbed"), 0, src,
                  pins)
    assert run.run_verify(job).ok
    # halve every bid of one recorded auction, as a wrong load would
    path = tmp_path / "perturbed" / "records.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[-1])
    row["bids"] = [[b / 2 for b in bids] for bids in row["bids"]]
    lines[-1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    job.reference = None
    problems = run.run_verify(job).problems
    assert problems
    assert all("gain_sum" in p for p in problems), problems


# Multi-unit rule, traced only here: the rescan of every record per
# candidate goes through nested kernel calls (multiunit_pay_unif_fixed calls
# multiunit_pay_unif_rows through a module global).
UNIFORM_PRICE = Workload(
    name="uniform_price_interim", why="", n_records=30, expected_exit=3,
    raw={
        "game": {"n_agents": 3,
                 "mechanism": {"kind": "uniform_price", "units": 2}},
        "mode": "ex_interim",
        "prior": {"kind": "independent_product",
                  "marginals": [[UNIFORM, UNIFORM]] * 3, "sort_desc": True},
        "strategies": [{"agent": i, "family": "linear_shade",
                        "params": {"c": 0.6}} for i in range(3)],
        "grid_w": 0.02,
        "delta_total": 0.05,
    })


def _traced_counts(workload, n_records, tmp_path):
    """Exact per-layer counts of two traced processes on a small input (so
    small that every bound is vacuous)."""
    src, bneverify = run.find_program(ROOT)
    workload = dataclasses.replace(workload, n_records=n_records,
                                   expected_exit=3)
    job = run.Job(workload, bneverify, str(tmp_path / workload.name), 3, src,
                  {})
    rows = []
    for _ in range(2):
        sample = run.run_verify(job, trace=1)
        assert sample.ok, sample.problems
        values = run.layer_values(sample, job)
        spans_self = sum(s["self_s"] for s in sample.record["spans"].values())
        # self times of all spans account for the traced verify time
        assert spans_self == pytest.approx(sample.verify_s, rel=0.02,
                                           abs=0.005)
        rows.append({k: v for k, v in values.items()
                     if k in run.EXACT or k.endswith(".calls")})
    assert rows[0] == rows[1]
    return rows[0]


def test_combinatorial_counts_match_closed_form(tmp_path):
    n = 20
    counts = _traced_counts(WORKLOADS["combinatorial_dataset_interim"], n,
                            tmp_path)
    k = 11 ** 2     # grid_w 0.1 over two bundle bids
    # per agent: K candidate bids and the current strategy at K valuation
    # points, each against all N records
    assert counts["mechanisms.winner_determination.calls"] == 2 * (k + k) * n
    assert counts["estimator.candidates"] == k
    assert counts["estimator.feasible_ratio"] == 1.0
    assert counts["model.load_dataset_bytes"] > 0


def test_uniform_price_counts_match_closed_form(tmp_path):
    counts = _traced_counts(UNIFORM_PRICE, 30, tmp_path)
    k = 51 * 52 // 2    # non-increasing pairs on the 51-point axis
    # per agent: candidate bids plus the current strategy at each point
    assert counts["kernels.multiunit_wins_fixed.calls"] == 3 * (k + k)
    assert counts["kernels.multiunit_pay_unif_fixed.calls"] == 3 * (k + k)
    assert counts["estimator.candidates"] == k
    assert counts["estimator.feasible_ratio"] == k / 51 ** 2
    assert counts["estimator.candidate_records"] == k * 30 * 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "correlated_ante",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
