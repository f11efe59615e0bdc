"""One repetition of one workload, in a fresh interpreter.

`run.py` starts this script once per repetition, so every repetition starts
from cold `lru_cache`s, as a command-line user does.  It imports yflab from
the checkout's `src/`, builds the inputs, times the work, checks every output
exactly and prints one JSON line:

    ready_at     time.monotonic() when set-up ended (a system-wide clock on
                 Linux, so the parent can subtract its own spawn time)
    cal_before_s the calibration kernel's seconds just after set-up, one
                 per process (`calibrate`)
    run_s        wall seconds of the timed work
    cal_after_s  the same, just after the timed work
    attempted, failed, first_failure   the exact checks
    items        work done, for items_per_s
    peak_rss_mb  the larger of ru_maxrss for this process and its pool children
    trace        with --trace 1: span summary (tracer.Tracer.summary) and the
                 `_f` cache counters; the spans go to
                 .bench_build/perfbench/trace-<workload>.json

With --setup-only it stops after set-up and the first calibration, to
sample setup_s alone.  The calibration kernel (`calibrate`) runs outside both
timed intervals; run.py divides by it to take out the host's changing speed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAL_ROUNDS = 5
CAL_TERMS = 8000


def calibrate(jobs: int) -> list:
    """Seconds for a fixed stdlib-only kernel of exact arithmetic and dict updates.

    It calls no yflab code, so only the machine's speed of the moment moves it.
    With jobs > 1 the kernel runs in that many forked processes at once, as
    the pool of the timed work does; each process reports its own seconds.
    """
    if jobs == 1:
        return [calibration_kernel()]
    ctx = multiprocessing.get_context("fork")
    barrier, results = ctx.Barrier(jobs), ctx.SimpleQueue()

    def worker():
        barrier.wait()
        results.put(calibration_kernel())

    procs = [ctx.Process(target=worker) for _ in range(jobs)]
    for proc in procs:
        proc.start()
    times = [results.get() for _ in procs]
    for proc in procs:
        proc.join()
    return times


def calibration_kernel() -> float:
    """The median seconds of CAL_ROUNDS rounds of the calibration kernel."""
    rounds = []
    for _ in range(CAL_ROUNDS):
        start = time.perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, CAL_TERMS):
            total += Fraction(i % 89 + 1, i % 97 + 2)
            key = (i & 255, i % 7)
            table[key] = table.get(key, 0) + i
        rounds.append(time.perf_counter() - start)
    return statistics.median(rounds)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"), required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from yflab import boundary, cli, experiments, harmonic, magic, pathcount, words
    import workloads

    if not os.path.abspath(harmonic.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported yflab from {harmonic.__file__}, not from {ROOT}/src")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.size)
    result = {"ready_at": time.monotonic()}
    result["cal_before_s"] = calibrate(args.jobs)
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install({"words": words, "harmonic": harmonic, "pathcount": pathcount,
                        "boundary": boundary, "magic": magic, "experiments": experiments,
                        "cli": cli})
    output = None
    start = time.perf_counter()
    try:
        output = workload.run(inputs, args.jobs)
    except Exception as exc:  # a failing program is a failed run, reported by its checks
        print(f"{args.workload}: timed work raised {exc!r}", file=sys.stderr)
    run_s = time.perf_counter() - start
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["cal_after_s"] = calibrate(args.jobs)
    # The trace is taken before the checks, which call yflab too.
    if tracer is not None:
        info = harmonic._f.cache_info()
        result["trace"] = dict(tracer.summary(), f_cache_hits=info.hits, f_cache_misses=info.misses)
        out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}.json"))
    checks = workload.check(inputs, output)
    result.update(run_s=run_s, attempted=checks.attempted, failed=checks.failed,
                  first_failure=checks.first, items=workload.items(inputs),
                  peak_rss_mb=peak_kb / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
