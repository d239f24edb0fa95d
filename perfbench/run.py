#!/usr/bin/env python3
"""Build and run the vrdf benchmark program, vrdf_bench.

Usage (from the repository root):

  python3 perfbench/run.py --workload sizer --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call configures and builds perfbench/ (library + vrdf_bench) under
$CARGO_TARGET_DIR or .bench_build/; later calls only re-check the build.
A single workload prints vrdf_bench's output, whose last line is the JSON
result.  `--workload all` runs every workload in turn and prints each
metric by name with its unit; it exits non-zero if any run was incorrect.
Arguments after the known ones (for example `--mp3-expect 6015,3263,881`)
are passed to vrdf_bench unchanged.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["sizer", "margins", "admission", "sweep"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append((configure, 300))
    steps.append((["cmake", "--build", out, "-j", jobs], 840))
    with open(log_path, "w") as log:
        for cmd, timeout in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.read()[-4000:]
                sys.stderr.write("benchmark build failed:\n" + tail + "\n")
                # A failed configure leaves a cache that would skip the
                # configure step next time.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return None
    return os.path.join(out, "vrdf_bench")


def run_one(binary, workload, args, extra, capture):
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir] + extra
    timeout = args.seconds + 150
    try:
        proc = subprocess.run(cmd, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload}: vrdf_bench exceeded {timeout} s\n")
        return 3, ""
    return proc.returncode, proc.stdout or ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if binary is None or not os.path.exists(binary):
        return 2

    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, extra, capture=False)
        return code

    worst = 0
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, args, extra, capture=True)
        worst = max(worst, code)
        lines = [line for line in stdout.splitlines() if line.strip()]
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{workload}] no result line (exit {code})")
            worst = max(worst, 1)
            continue
        attempted = result["attempted"]
        failed = result["failed"]
        print(f"== {workload}: correct={result['correct']} attempted={attempted}"
              f" failed={failed} fail_ratio={failed / attempted:.6f} ratio")
        for name, metric in result["metrics"].items():
            print(f"   {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
