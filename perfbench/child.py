"""One verify process: import bneverify, run `bne-verify verify`, record times.

Usage: python3 child.py TIMING_JSON TRACE VERIFY_ARGS...

TRACE is 0 (untraced), 1 (spans) or 2 (spans and tracemalloc peaks).

Writes TIMING_JSON with CLOCK_MONOTONIC stamps (shared by all processes, so
the parent can subtract its spawn stamp) taken after `import bneverify` and
after `cli.main` returns, and the path bneverify was imported from; when
traced, also the span statistics of the call. Exits with the code
`cli.main` returned.
"""
import sys
import time


def main():
    timing_path, trace, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import bneverify
    from bneverify import cli
    imported = time.monotonic()
    tracer = None
    if trace:
        import tracemalloc

        import spans
        tracer = spans.Tracer(memory=trace == 2)
        spans.install(tracer)
        if tracer.memory:
            tracemalloc.start()
        imported = time.monotonic()
    code = cli.main(argv)
    done = time.monotonic()
    record = {"imported": imported, "done": done,
              "package": bneverify.__file__}
    if tracer is not None:
        record["spans"] = tracer.stats
        record["counters"] = tracer.counters
    import json
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
