#!/usr/bin/env python3
"""Round benchmark entry point.

Usage, from the root of a checkout:

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator libraries and the roundbench binary from source into
.bench_build/ (the first call configures and compiles; later calls are
incremental), runs one workload in its own process, and re-prints the
binary's result object as the last line of stdout. Build output goes to
stderr. Exits non-zero, printing no result, when the build or the run
fails.

setup_s is the median of several cold setups, each in a fresh process
(the timed run's own setup and SETUPS[workload] - 1 setup-only runs before
it), so first-use costs in the program count every time.

Maintenance: `--write-expected` regenerates expected/NAME.csv from the
current program (only after a change that is meant to alter outcomes).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_n600", "city_25k_s8", "sweep_faults_churn_n300")
# Cold setups per timed run. A city setup builds four 25k-node
# deployments and runs one round (a few seconds); the others take tens of
# ms, short enough that host drift moves each one by several percent, so
# they take the median of more.
SETUPS = {"paper_n600": 21, "city_25k_s8": 3, "sweep_faults_churn_n300": 21}
RUN_TIMEOUT_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_root):
    build_dir = os.path.join(build_root, "roundbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "roundbench"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "roundbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    build_root = os.path.join(os.getcwd(), ".bench_build")
    workdir = os.path.join(build_root, "work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"roundbench: build failed: {err}", file=sys.stderr)
        return 1

    expected = os.path.join(HERE, "expected", args.workload + ".csv")
    command = [binary, "--workload", args.workload, "--workdir", workdir]
    if args.write_expected:
        return subprocess.run(command + ["--write-expected", expected],
                              timeout=RUN_TIMEOUT_S * 4).returncode
    command += ["--expected", expected]
    setups = []
    try:
        for _ in range(SETUPS[args.workload] - 1 if args.trace == 0 else 0):
            setup = subprocess.run(command + ["--setup-only", "1"],
                                   stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_TIMEOUT_S)
            sample = json.loads(setup.stdout) if setup.returncode == 0 else {}
            if not isinstance(sample, dict) or "setup_s" not in sample:
                print(f"roundbench: setup failed (exit {setup.returncode})",
                      file=sys.stderr)
                return 1
            setups.append(sample)
        run = subprocess.run(
            command + ["--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("roundbench: run timed out", file=sys.stderr)
        return 1
    except json.JSONDecodeError:
        print("roundbench: malformed setup line", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"roundbench: run failed (exit {run.returncode})",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("roundbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if setups:
        metric = result["metrics"]["setup_s"]
        values = [s["setup_s"] for s in setups] + [metric["value"]]
        metric["value"] = statistics.median(values)
        plain = [s["setup_s_plain"] for s in setups]
        for line in lines:
            if line.startswith("plain ratio:"):
                plain.append(float(line.split()[-2]))
        print(f"setup_s: median of {len(values)} cold setups, "
              f"{min(values):.6g} to {max(values):.6g} s; with the plain "
              f"ratio, median {statistics.median(plain):.6g} s")
        result["correct"] = result["correct"] and all(
            s["correct"] for s in setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
