"""End-to-end and per-layer benchmark of `bne-verify verify`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's inputs from the seed, then starts one
fresh verify process at a time (a closed loop with one client) until S
seconds have passed, with BNE_VERIFY_THREADS unset, so one worker. The
program under test is the checkout's `src/bneverify`; nothing is installed.

The first process of a run is not timed: it warms the caches, and in a
traced run it measures memory peaks with tracemalloc. --trace 0 reports the
end-to-end metrics, as means over the other processes of the run.
--trace 1 alternates untraced and traced processes; the traced ones wrap
each module's entry points from outside (see spans.py) and the run reports
per-layer medians.

Every process's outputs are checked: the exit code, the bytes of
report.json and of the per-agent gain curves (plot_agent<i>.csv) identical
across all processes of the run, and each agent's empirical gain, bound and
sum of plotted gains against values pinned in pins.json. A seed without pins
runs one more untimed process on a pinned seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Provenance and per-process samples go to
.bench_results/ in the checkout.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

from spans import KERNELS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")

# A run always measures at least this many processes, however short --seconds.
MIN_SAMPLES = 3
PROCESS_TIMEOUT_S = 60.0
# Pinned values absorb last-ulp changes of summation order, nothing more.
PIN_REL_TOL = 1e-9
PIN_ABS_TOL = 1e-12

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
    ("records_per_s", "1/s"),
    ("bound_total", "utility"),
]

PER_LAYER = [
    ("cli.parse_config_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("model.load_dataset_s", "s"),
    ("model.load_dataset_bytes", "bytes"),
    ("model.load_dataset_peak_mb", "MB"),
    ("model.file_hash_s", "s"),
    ("model.split_by_partition_s", "s"),
    ("model.split_by_partition_peak_mb", "MB"),
    ("priors.sample_dataset_s", "s"),
    ("priors.tv_profile_s", "s"),
    ("priors.tv_pair.calls", "count"),
    ("estimator.estimate_ex_interim_s", "s"),
    ("estimator.estimate_ex_ante_s", "s"),
    ("estimator.profile_point_utilities_s", "s"),
    ("estimator.self_s", "s"),
    ("estimator.peak_mb", "MB"),
    ("estimator.candidates", "count"),
    ("estimator.feasible_ratio", "ratio"),
    ("estimator.candidate_records", "count"),
]
# Kernels a workload reaches. fpsb_win_counts (first-price ex interim) and the
# multi-unit kernels are reached by no workload; the tests trace them.
for _fn in ("fpsb_point_utils", "fpsb_dev_utils"):
    PER_LAYER += [(f"kernels.{_fn}.calls", "count"),
                  (f"kernels.{_fn}.self_s", "s")]
PER_LAYER += [
    ("kernels.bytes_computed", "bytes-computed"),
    ("mechanisms.winner_determination.calls", "count"),
    ("mechanisms.winner_determination.s", "s"),
    ("bounds.assemble_s", "s"),
    ("import.scipy_s", "s"),
    ("trace.verify_s", "s"),
    ("trace.overhead_s", "s"),
]
# Per-layer metrics that are exact counts: they must repeat in every traced
# process of a run. Kernel call counts outside PER_LAYER are exact too.
EXACT = {name for name, unit in PER_LAYER
         if unit in ("count", "ratio", "bytes", "bytes-computed")}

ESTIMATOR_SPANS = ("estimator.estimate_ex_interim",
                   "estimator.estimate_ex_ante",
                   "estimator.profile_point_utilities",
                   "estimator.valid_actions")


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


# ------------------------------------------------------------ the program


def find_program(root):
    """Import the checkout's bneverify; refuse to measure anything else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bneverify", "cli.py")):
        raise BenchError(f"no program at {src}/bneverify; run from the root "
                         "of a bne-verify checkout")
    sys.path.insert(0, src)
    import bneverify
    if not os.path.abspath(bneverify.__file__).startswith(src + os.sep):
        raise BenchError(f"imported bneverify from {bneverify.__file__}, "
                         f"not from {src}")
    return src, bneverify


def child_env(src):
    env = dict(os.environ)
    env.pop("BNE_VERIFY_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def tree_hash(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(root, src, bneverify, args, sizes):
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "src_sha256": tree_hash(os.path.join(src, "bneverify")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": bneverify.BACKEND_NAME,
        # as the verify processes see it: unset, so one worker
        "bne_verify_threads": child_env(src).get("BNE_VERIFY_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "input_sizes": sizes,
    }


# ------------------------------------------------------------ one process


class Sample:
    """One verify process: its times, memory, exit and checked outputs."""

    def __init__(self):
        self.problems = []
        self.wall_s = self.setup_s = self.verify_s = self.rss_mb = None
        self.outputs = None     # file name -> bytes, see read_outputs
        self.record = None
        self.output_bytes = 0

    @property
    def ok(self):
        return not self.problems

    @property
    def finished(self):
        """Ran to completion with the expected exit, right outputs or not."""
        return self.verify_s is not None


def _wait(proc, timeout):
    """Reap proc and return (exit code, rusage); kill it after timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_verify(job, trace=0):
    """Start one verify process on job's inputs and check its outputs;
    trace as in child.py."""
    s = Sample()
    out_dir = os.path.join(job.work, "out")
    timing = os.path.join(job.work, "timing.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(timing):
        os.remove(timing)
    argv = [sys.executable, CHILD, timing, str(trace),
            "verify", "--config", job.config, "--out", out_dir]
    with open(os.path.join(job.work, "stderr.txt"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=job.work, env=job.env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc, PROCESS_TIMEOUT_S)
        ended = time.monotonic()
    s.wall_s = ended - spawned
    s.rss_mb = usage.ru_maxrss / 1024.0
    if code != job.workload.expected_exit:
        with open(os.path.join(job.work, "stderr.txt"), "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", "replace")
        s.problems.append(f"exit {code}, expected "
                          f"{job.workload.expected_exit}: {tail}")
        return s
    try:
        with open(timing, encoding="utf-8") as fh:
            s.record = json.load(fh)
        s.outputs = read_outputs(out_dir)
    except (OSError, ValueError) as exc:
        s.problems.append(f"missing output: {exc}")
        return s
    if not s.record["package"].startswith(job.src + os.sep):
        s.problems.append(f"ran bneverify from {s.record['package']}")
    s.setup_s = s.record["imported"] - spawned
    s.verify_s = s.record["done"] - s.record["imported"]
    s.output_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                         for f in os.listdir(out_dir))
    if job.reference is None:
        job.reference = s.outputs
        job.reference_problems = check_report(job, s.outputs)
    if s.outputs != job.reference:
        s.problems.append("report.json or a gain curve differs from the "
                          "run's first process")
    else:
        s.problems += job.reference_problems
    return s


# ------------------------------------------------------------ checks


def load_pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


PLOT_CSV = re.compile(r"plot_agent\d+\.csv")
PINNED = ("empirical", "total", "gain_sum")


def read_outputs(out_dir):
    """report.json and the per-agent gain curves, by file name."""
    names = ["report.json"] + sorted(f for f in os.listdir(out_dir)
                                     if PLOT_CSV.fullmatch(f))
    outputs = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def agent_values(outputs):
    """Each agent's [empirical, total, gain_sum]: the report's empirical gain
    and certified bound, and the sum of the agent's plotted per-point gains.
    A bound can be the same for every dataset (an ex interim sup taken where
    no opponent bids); the gain curve still depends on the records."""
    agents = json.loads(outputs["report.json"])["agents"]
    values = []
    for i, agent in enumerate(agents):
        rows = outputs[f"plot_agent{i}.csv"].decode().splitlines()[1:]
        gains = [float(row.rsplit(",", 1)[1]) for row in rows]
        values.append([float(agent["empirical"]), float(agent["total"]),
                       math.fsum(gains)])
    return values


def check_report(job, outputs):
    """Problems with a process's outputs: non-finite or inconsistent values,
    or values that differ from the pinned ones for this workload and seed."""
    try:
        values = agent_values(outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    problems = []
    for i, (emp, total, gain_sum) in enumerate(values):
        if not all(map(math.isfinite, (emp, total, gain_sum))) \
                or total < emp:
            problems.append(f"agent {i}: empirical {emp}, total {total}, "
                            f"gain_sum {gain_sum}")
    if job.pinned is not None:
        if len(job.pinned) != len(values):
            return problems + [f"{len(values)} agents, pinned "
                               f"{len(job.pinned)}"]
        for i, (got, want) in enumerate(zip(values, job.pinned)):
            for label, g, w in zip(PINNED, got, want):
                if not math.isclose(g, w, rel_tol=PIN_REL_TOL,
                                    abs_tol=PIN_ABS_TOL):
                    problems.append(f"agent {i} {label} {g!r}, pinned {w!r}")
    return problems


class Job:
    """The inputs of one workload at one seed, and the run's reference
    outputs."""

    def __init__(self, workload, bneverify, work, seed, src, pins):
        self.workload = workload
        self.work = work
        self.src = src
        self.env = child_env(src)
        inputs = workload.write_inputs(bneverify, work, seed)
        self.config = inputs["config"]
        self.sizes = inputs["sizes"]
        self.pinned = pins.get(workload.name, {}).get(str(seed))
        self.reference = None
        self.reference_problems = []


# ------------------------------------------------------------ import time


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def scipy_import_s(importtime_stderr):
    """Seconds that scipy packages take within an -X importtime trace: the
    cumulative time of every scipy module whose importer is not scipy."""
    rows = []
    for line in importtime_stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total_us = 0
    stack = []  # (depth, name) of enclosing imports; parents follow children
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
        stack.append((depth, name))
    return total_us / 1e6


def measure_scipy_import(job):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import bneverify"], cwd=job.work, env=job.env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import bneverify failed: {proc.stderr[-400:]}")
    return scipy_import_s(proc.stderr)


# ------------------------------------------------------------ metrics


def end_to_end(samples, job):
    """Means over the run's processes. A shared host can switch between
    speeds up to 2x apart for seconds to a minute at a time; the median of
    one run then jumps to whichever speed held most of it, while the mean
    weighs every process of the run."""
    good = [s for s in samples if s.finished]
    verify_s = statistics.fmean(s.verify_s for s in good)
    return {
        "wall_s": statistics.fmean(s.wall_s for s in good),
        "setup_s": statistics.fmean(s.setup_s for s in good),
        "verify_s": verify_s,
        "peak_rss_mb": statistics.fmean(s.rss_mb for s in good),
        "records_per_s": job.sizes["n_records"] / verify_s,
        "bound_total": max(total for _, total, _ in
                           agent_values(job.reference)),
    }


def layer_values(sample, job):
    """Per-layer metrics of one traced process."""
    spans = sample.record["spans"]
    counters = sample.record["counters"]

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    def self_s(*names):
        return sum(stat(n, "self_s") for n in names)

    def peak_mb(*names):
        return max(stat(n, "peak_bytes") for n in names) / 2 ** 20

    n_agents = job.workload.raw["game"]["n_agents"]
    cands = counters.get("estimator.candidates", 0)
    lattice = counters.get("estimator.lattice_points", 0)
    v = {
        "cli.parse_config_s": stat("cli.parse_config", "total_s"),
        "cli.self_s": self_s("cli.main", "cli.run"),
        "cli.output_bytes": sample.output_bytes,
        "model.load_dataset_s": stat("model.load_dataset", "total_s"),
        "model.load_dataset_bytes": counters.get("model.load_dataset_bytes",
                                                 0),
        "model.load_dataset_peak_mb": peak_mb("model.load_dataset"),
        "model.file_hash_s": stat("model.file_hash", "total_s"),
        "model.split_by_partition_s": stat("model.split_by_partition",
                                           "total_s"),
        "model.split_by_partition_peak_mb":
            peak_mb("model.split_by_partition"),
        "priors.sample_dataset_s": stat("priors.sample_dataset", "total_s"),
        "priors.tv_profile_s": stat("priors.tv_profile", "total_s"),
        "priors.tv_pair.calls": stat("priors.tv_pair", "calls"),
        "estimator.estimate_ex_interim_s":
            stat("estimator.estimate_ex_interim", "total_s"),
        "estimator.estimate_ex_ante_s":
            stat("estimator.estimate_ex_ante", "total_s"),
        "estimator.profile_point_utilities_s":
            stat("estimator.profile_point_utilities", "total_s"),
        "estimator.self_s": self_s(*ESTIMATOR_SPANS),
        "estimator.peak_mb": peak_mb("estimator.estimate_ex_interim",
                                     "estimator.estimate_ex_ante"),
        "estimator.candidates": cands,
        "estimator.feasible_ratio": cands / lattice if lattice else 0.0,
        "estimator.candidate_records":
            cands * job.sizes["n_records"] * n_agents,
        "kernels.bytes_computed": counters.get("kernels.bytes_computed", 0),
        "mechanisms.winner_determination.calls":
            stat("mechanisms.winner_determination", "calls"),
        "mechanisms.winner_determination.s":
            stat("mechanisms.winner_determination", "total_s"),
        "bounds.assemble_s": stat("bounds.assemble", "total_s"),
        "trace.verify_s": sample.verify_s,
    }
    for fn in KERNELS:
        v[f"kernels.{fn}.calls"] = stat(f"kernels.{fn}", "calls")
        v[f"kernels.{fn}.self_s"] = stat(f"kernels.{fn}", "self_s")
    return v


def per_layer(traced, memory, untraced, scipy_s, job):
    """Medians over traced processes, memory peaks from the tracemalloc
    process; exact counts must agree in all of them."""
    rows = [layer_values(s, job) for s in traced if s.finished]
    mem = layer_values(memory, job)
    problems = []
    out = {}
    for name, _ in PER_LAYER:
        if name in ("import.scipy_s", "trace.overhead_s"):
            continue
        if name.endswith("peak_mb"):
            out[name] = mem[name]
            continue
        vals = [r[name] for r in rows]
        if name in EXACT and len(set(vals + [mem[name]])) > 1:
            problems.append(f"{name} differs between traced runs: "
                            f"{vals + [mem[name]]}")
        out[name] = statistics.median(vals)
    out["import.scipy_s"] = statistics.median(scipy_s)
    out["trace.overhead_s"] = out["trace.verify_s"] - statistics.median(
        s.verify_s for s in untraced if s.finished)
    return out, problems


# ------------------------------------------------------------ the run


def measure(job, seconds, trace):
    """Run verify processes for `seconds`; return (samples, metrics, extra
    problems). The first process's outputs are the run's reference."""
    deadline = time.monotonic() + seconds
    # find_program's import has already written the bytecode cache, so the
    # first process compiles nothing. It warms the caches and is not timed;
    # in a traced run it measures the memory peaks.
    untimed = [run_verify(job, trace=2 if trace else 0)]
    timed, traced, scipy_s = [], [], []
    lap = 0.0
    # Start another round only if half of it fits before the deadline, so
    # that a run lasts `seconds` on average.
    while (time.monotonic() + lap / 2 < deadline
           or len(timed) + len(traced) < MIN_SAMPLES):
        started = time.monotonic()
        timed.append(run_verify(job))
        if trace:
            traced.append(run_verify(job, trace=1))
            scipy_s.append(measure_scipy_import(job))
        lap = time.monotonic() - started
    samples = untimed + timed + traced
    if not all(s.finished for s in untimed) or not any(
            s.finished for s in timed) or (
            trace and not any(s.finished for s in traced)):
        return samples, None, []
    if trace:
        metrics, problems = per_layer(traced, untimed[0], timed, scipy_s,
                                      job)
        return samples, metrics, problems
    return samples, end_to_end(timed, job), []


def reference_check(workload, bneverify, root_work, src, pins):
    """For a seed with no pinned values: verify one pinned seed, untimed, so
    the program's results are still checked against pins in every run."""
    seed = min(int(k) for k in pins[workload.name])
    job = Job(workload, bneverify, os.path.join(root_work, f"ref{seed}"),
              seed, src, pins)
    sample = run_verify(job)
    sample.problems = [f"pinned seed {seed}: {p}" for p in sample.problems]
    return sample


def format_metrics(metrics, units):
    lines = []
    for name, unit in units:
        if name in metrics:
            lines.append(f"  {name:42s} {metrics[name]:>16.6g} {unit}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        raise BenchError("--seed must be nonnegative")
    root = os.getcwd()
    src, bneverify = find_program(root)
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = os.path.join(root, ".bench_work", f"{tag}_{os.getpid()}")
    try:
        job = Job(workload, bneverify, os.path.join(work, "run"), args.seed,
                  src, pins)
        samples, metrics, problems = measure(job, args.seconds,
                                             args.trace == 1)
        if job.pinned is None:
            samples.append(reference_check(workload, bneverify, work, src,
                                           pins))
        prov = provenance(root, src, bneverify, args, job.sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in samples if not s.ok]
    problems += [p for s in failed for p in s.problems]
    units = PER_LAYER if args.trace else END_TO_END
    result_dir = os.path.join(root, ".bench_results")
    os.makedirs(result_dir, exist_ok=True)
    with open(os.path.join(result_dir, tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": prov, "metrics": metrics,
                   "problems": problems,
                   "samples": [{"ok": s.ok, "wall_s": s.wall_s,
                                "setup_s": s.setup_s, "verify_s": s.verify_s,
                                "peak_rss_mb": s.rss_mb} for s in samples]},
                  fh, indent=1)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    if metrics is None:
        print("error: no verify process ran to completion", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {len(samples)} verify "
          f"processes, {len(failed)} failed, error_rate "
          f"{len(failed) / len(samples):.4g}"
          + (" (per-layer medians over traced processes)" if args.trace
             else " (means over timed processes)"))
    for line in format_metrics(metrics, units):
        print(line)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
