"""Span tracing of one verify process, installed from outside the program.

`install` replaces the names each caller looks up (module globals, a class
attribute and the kernel module's attributes) with wrappers that time the
call. Spans nest, so every span records its self time: its duration minus
the time covered by the spans it caused. The self times of all spans under
`cli.main` therefore add up to the traced verify time.

With memory=True, and tracemalloc started by the caller, the spans named
in MEMORY_SPANS also record the peak of traced allocations during the span,
above what was allocated when it began. tracemalloc slows every Python
allocation, so memory is measured in processes of its own and their times
are not used.
"""
import functools
import os
import time
import tracemalloc

KERNELS = (
    "fpsb_win_counts", "fpsb_point_utils", "fpsb_dev_utils",
    "multiunit_wins_rows", "multiunit_wins_fixed",
    "multiunit_pay_disc_rows", "multiunit_pay_disc_fixed",
    "multiunit_pay_unif_rows", "multiunit_pay_unif_fixed",
)

MEMORY_SPANS = frozenset({
    "model.load_dataset", "model.split_by_partition",
    "estimator.estimate_ex_interim", "estimator.estimate_ex_ante",
})


class _Frame:
    __slots__ = ("name", "start", "children", "mem", "mem_start", "mem_peak")

    def __init__(self, name, start, mem):
        self.name = name
        self.start = start
        self.children = 0.0
        self.mem = mem
        self.mem_start = 0
        self.mem_peak = 0


class Tracer:
    """Call counts, inclusive and self times, and memory peaks per span."""

    def __init__(self, memory=False):
        self.memory = memory
        # name -> {"calls", "total_s", "self_s", "peak_bytes"}
        self.stats = {}
        self.counters = {}   # name -> number
        self._stack = []

    def _mem_parent(self):
        for frame in reversed(self._stack):
            if frame.mem:
                return frame
        return None

    def _enter(self, name):
        frame = _Frame(name, 0.0, self.memory and name in MEMORY_SPANS)
        if frame.mem:
            current, peak = tracemalloc.get_traced_memory()
            parent = self._mem_parent()
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            frame.mem_start = frame.mem_peak = current
        self._stack.append(frame)
        frame.start = time.perf_counter()

    def _exit(self):
        end = time.perf_counter()
        frame = self._stack.pop()
        elapsed = end - frame.start
        stat = self.stats.setdefault(
            frame.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                         "peak_bytes": 0})
        stat["calls"] += 1
        stat["total_s"] += elapsed
        stat["self_s"] += elapsed - frame.children
        if self._stack:
            self._stack[-1].children += elapsed
        if frame.mem:
            frame.mem_peak = max(frame.mem_peak,
                                 tracemalloc.get_traced_memory()[1])
            stat["peak_bytes"] = max(stat["peak_bytes"],
                                     frame.mem_peak - frame.mem_start)
            parent = self._mem_parent()
            if parent is not None:
                parent.mem_peak = max(parent.mem_peak, frame.mem_peak)
            tracemalloc.reset_peak()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, note=None):
        """Wrap fn in a span; note(args, result) runs inside the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result)
                return result
            finally:
                self._exit()
        return wrapper

    def patch(self, owner, attr, name, note=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))


def _array_bytes(values):
    return sum(int(getattr(v, "nbytes", 0)) for v in values)


def install(tracer: Tracer):
    """Wrap the public entry points of each module of an imported bneverify."""
    from bneverify import _backend, bounds, cli, estimator, priors

    def dataset_bytes(args, result):
        tracer.count("model.load_dataset_bytes", os.path.getsize(args[0]))

    def candidates(args, result):
        tracer.counters["estimator.lattice_points"] = len(args[1])
        tracer.counters["estimator.candidates"] = len(result)

    def kernel_bytes(args, result):
        tracer.count("kernels.bytes_computed",
                     _array_bytes(args) + _array_bytes([result]))

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "run", "cli.run")
    tracer.patch(cli, "parse_config", "cli.parse_config")
    tracer.patch(cli, "load_dataset", "model.load_dataset", dataset_bytes)
    tracer.patch(cli, "file_hash", "model.file_hash")
    tracer.patch(cli, "estimate_ex_interim", "estimator.estimate_ex_interim")
    tracer.patch(cli, "estimate_ex_ante", "estimator.estimate_ex_ante")
    tracer.patch(estimator, "profile_point_utilities",
                 "estimator.profile_point_utilities")
    tracer.patch(estimator, "valid_actions", "estimator.valid_actions",
                 candidates)
    tracer.patch(estimator, "split_by_partition", "model.split_by_partition")
    tracer.patch(estimator, "winner_determination",
                 "mechanisms.winner_determination")
    tracer.patch(priors, "sample_dataset", "priors.sample_dataset")
    tracer.patch(priors, "tv_profile", "priors.tv_profile")
    tracer.patch(priors.CorrelatedCommonValue, "tv_pair", "priors.tv_pair")
    tracer.patch(bounds, "assemble_interim", "bounds.assemble")
    tracer.patch(bounds, "assemble_ex_ante", "bounds.assemble")
    kernels = _backend.get_kernels()
    for fn in KERNELS:
        tracer.patch(kernels, fn, f"kernels.{fn}", kernel_bytes)
