"""yflab benchmark: one workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 1

Run from the root of a checkout; yflab is imported from its `src/`.  Every
repetition is a fresh interpreter (`child.py`), so caches start cold.  The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it record the machine and code and
the seed-commit baseline.  The exit status is 0 only when every exact check
passed; a run with a failed check prints `"correct": false` and exits 1.

--trace 0 repeats the workload for --seconds and reports medians of the
end-to-end metrics.  Times are scaled to a reference speed by a calibration
kernel run in each child next to the timed work (see `speed`), because the
shared host's speed drifts by tens of percent over minutes.  --trace 1 runs it once untraced and once traced and
reports the per-layer metrics; see README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "yflab")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("sweep", "verify", "oracles")
JOBS = {"sweep": 2}          # pool workers; the other workloads run no pool
SETUP_SAMPLES = 9            # set-up-only interpreters per run, besides one per repetition
TIME_LIMIT_S = 170           # a run must end within 180 s
# child.calibrate's median seconds on the machine the benchmark was tuned on
# (2-vCPU Xeon VM, Python 3.11); times are reported at that speed.
REF_CAL_S = 0.0335

IDENTITIES = ("evtuh5", "evtuh7", "evtuh11", "evtuh12", "evtuh91", "evtuh92", "evtuh93",
              "q_recurrence", "odnoitozhe", "kusok", "razbivaem", "meexy", "delitsa",
              "binomische1", "binomische2", "schyot", "binom1", "mamka2", "dostalo",
              "sum", "stolb", "lehamed", "zabe")
# Spans whose call count and self time are reported as <span>.calls and <span>.s.
CALLS = ("experiments.node_mass", "harmonic.f", "harmonic.g_all", "pathcount.d_paths_formula",
         "pathcount.d_from_empty", "boundary.d_beta_prime", "boundary.mu", "magic.build_table",
         "magic.column_sum_closed_form", "words.enumerate_level", "words.down_neighbors")
SELF = (("experiments.sweep_many", "experiments.node_mass")
        + tuple(f"experiments.identity.{name}" for name in IDENTITIES)
        + ("harmonic.f", "harmonic.g_all", "harmonic.d_beta", "harmonic.pi",
           "pathcount.d_paths_formula", "pathcount.descent_counts", "pathcount.d_from_empty",
           "boundary.d_beta_prime", "boundary.mu", "boundary.level_distribution",
           "magic.build_table", "magic.column_sum_closed_form",
           "words.enumerate_level", "words.down_neighbors", "cli.main"))


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed output check)."""


def spawn(args, size: str, jobs: int, trace: int, deadline: float, setup_only=False) -> dict:
    """Run one repetition in a fresh interpreter; return its JSON line plus setup_s."""
    argv = [sys.executable, "-I", CHILD, "--workload", args.workload, "--seed", str(args.seed),
            "--size", size, "--jobs", str(jobs), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload}: repetition exceeded the {TIME_LIMIT_S} s limit")
    finally:
        try:  # pool workers share the child's process group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: child exited with status {proc.returncode}")
    rep = json.loads(out.strip().splitlines()[-1])
    rep["setup_s"] = rep["ready_at"] - spawned_at
    return rep


def speed(cal_s: list) -> float:
    """How much slower the host ran than at the reference speed, from a calibration.

    A calibration holds one time per process.  The pool hands its tasks to
    whichever worker is free, so processes on a faster CPU do more of them:
    the pool's rate is the sum of theirs, hence the harmonic mean.
    """
    return statistics.harmonic_mean(cal_s) / REF_CAL_S


def scaled(rep: dict) -> tuple[float, float | None]:
    """A repetition's setup_s and run_s at the reference speed.

    Set-up is scaled by the calibration right after it; the timed work by the
    geometric mean of the calibrations just before and just after it.
    """
    before = speed(rep["cal_before_s"])
    if "run_s" not in rep:
        return rep["setup_s"] / before, None
    return rep["setup_s"] / before, rep["run_s"] / (before * speed(rep["cal_after_s"])) ** 0.5


def measure(args, size: str, deadline: float) -> tuple[dict, list]:
    """--trace 0: end-to-end medians over the repetitions that fit in --seconds."""
    jobs = JOBS.get(args.workload, 1)
    setups = [spawn(args, size, jobs, 0, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES)]
    reps = []
    loop_start = time.monotonic()
    last = 0.0  # wall time of the latest repetition; the next one must fit too
    while not reps or time.monotonic() - loop_start + last <= args.seconds:
        began = time.monotonic()
        reps.append(spawn(args, size, jobs, 0, deadline))
        last = time.monotonic() - began
    setups += reps
    setup_s = [scaled(rep)[0] for rep in setups]
    run_s = [scaled(rep)[1] for rep in reps]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "items_per_s": (statistics.median(rep["items"] / t for rep, t in zip(reps, run_s)), "1/s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MiB"),
    }
    raw = [rep["run_s"] for rep in reps]
    print(f"repetitions: {len(reps)}, set-up samples: {len(setups)}; unscaled setup_s median "
          f"{statistics.median(rep['setup_s'] for rep in setups):.4f}, unscaled run_s median "
          f"{statistics.median(raw):.4f} (min {min(raw):.4f}, max {max(raw):.4f}); "
          f"host speed factor median "
          f"{statistics.median(speed(rep['cal_before_s']) for rep in setups):.3f}")
    return metrics, reps


def trace(args, size: str, deadline: float) -> tuple[dict, list]:
    """--trace 1: one untraced and one traced repetition; per-layer metrics."""
    jobs = JOBS.get(args.workload, 1)
    untraced = spawn(args, size, jobs, 0, deadline)
    reps = [untraced]
    pool_speedup = 0.0  # no pool in this workload
    if jobs > 1:
        # The single-process baseline of the same sweep; it is also what the
        # traced repetition, which keeps every span in one process, compares to.
        untraced = spawn(args, size, 1, 0, deadline)
        pool_speedup = scaled(untraced)[1] / scaled(reps[0])[1]
        reps.append(untraced)
    traced = spawn(args, size, 1, 1, deadline)
    reps.append(traced)

    t = traced["trace"]
    layers = t["layers"]

    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    metrics = {}
    for span in CALLS:
        metrics[f"{span}.calls"] = (get(span, "calls"), "count")
    for span in SELF:
        metrics[f"{span}.s"] = (get(span, "self_s"), "s")
    walk = get("experiments.sweep_many", "total_s") - sum(
        t["children_s"].get(f"experiments.sweep_many>{child}", 0.0)
        for child in ("experiments.node_mass", "harmonic.f"))
    lookups = t["f_cache_hits"] + t["f_cache_misses"]
    attempted = sum(rep["attempted"] for rep in reps)
    metrics.update({
        "experiments.walk.s": (walk, "s"),
        "experiments.pool_speedup": (pool_speedup, "ratio"),
        "harmonic.f.cache_hit_ratio": (t["f_cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "trace.overhead_ratio": (scaled(traced)[1] / scaled(untraced)[1], "ratio"),
        "trace.remainder_s": (traced["run_s"] - t["roots_s"], "s"),
        "fail_ratio": (sum(rep["failed"] for rep in reps) / attempted, "ratio"),
    })
    print(f"traced: {t['spans']} spans written to .bench_build/perfbench/; "
          f"traced run_s {traced['run_s']:.4f} vs untraced {untraced['run_s']:.4f}")
    return metrics, reps


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def code_record() -> dict:
    """Machine and code identity: git sha, Python, CPUs, src/yflab lines and content hash."""
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as handle:
                data = handle.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "src_yflab_lines": lines,
            "src_yflab_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small inputs, for self_check.py only")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"perfbench: no yflab sources at {os.path.relpath(SRC)}; "
              f"run from the root of a yflab checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        # Warm-up: writes the bytecode caches of a fresh checkout; not measured.
        spawn(args, args.size, 1, 0, deadline, setup_only=True)
        if args.trace:
            metrics, reps = trace(args, args.size, deadline)
        else:
            metrics, reps = measure(args, args.size, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        if rep["first_failure"]:
            print(f"check failed: {rep['first_failure']}", file=sys.stderr)
    print("code: " + json.dumps(code_record()))
    with open(os.path.join(HERE, "baseline.json")) as handle:
        baseline = json.load(handle)
    print(f"baseline at {baseline['code']['git_sha']}: "
          + json.dumps(baseline["trace" if args.trace else "end_to_end"][args.workload]))
    print(f"checks: {attempted} attempted, {failed} failed, fail_ratio {failed / attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
