"""Fast self-check of the benchmark; exits 0 when every check holds.

    python3 perfbench/self_check.py

1. Runs each workload at small sizes, untraced and traced, and checks that
   the result line names exactly the metrics of BENCHMARK.json with their
   units, and that every output check passed (fail_ratio 0).
2. Feeds each workload's checks a corrupted output and an exception, and
   checks that both count as failed.
3. Copies only BENCHMARK.json and perfbench/ into an empty directory and
   checks that the benchmark exits non-zero there without a result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs(spec: dict, problems: list) -> None:
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace), "--size", "small"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            result = result_line(proc.stdout)
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                diff = set(got.items()) ^ set(expected[trace].items())
                problems.append(f"{where}: metric names/units differ: {sorted(diff)}")
            if trace and result["metrics"].get("fail_ratio", {}).get("value") != 0:
                problems.append(f"{where}: fail_ratio is not 0")
            print(f"ok   {where}: {len(got)} metrics, {result['attempted']} checks")


def check_gate(problems: list) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    def corrupt_sweep(out):
        key = next(iter(out))
        out[key] += Fraction(1, 10**9)

    def corrupt_verify(out):
        status, text = out
        return status, text.replace("pass", "FAIL", 1)

    def corrupt_oracles(out):
        x, y, formula, dp = out["pairs"][-1]
        out["pairs"][-1] = (x, y, formula + 1, dp)

    corruptions = {"sweep": corrupt_sweep, "verify": corrupt_verify, "oracles": corrupt_oracles}
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.setup(7, "small")
        output = workload.run(inputs, 1)
        clean = workload.check(inputs, output)
        output = corruptions[name](output) or output
        broken = workload.check(inputs, output)
        raised = workload.check(inputs, None)
        if clean.failed or not broken.failed or raised.failed != raised.attempted:
            problems.append(f"{name}: gate missed a failure (clean {clean.failed}, "
                            f"corrupted {broken.failed}, raised {raised.failed}/{raised.attempted})")
        else:
            print(f"ok   {name}: corrupted output fails with {broken.first!r}")


def check_bare_directory(problems: list) -> None:
    bare = os.path.join(ROOT, ".bench_build", "self-check-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or result_line(proc.stdout) is not None:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"ok   bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems: list[str] = []
    check_runs(spec, problems)
    check_gate(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
