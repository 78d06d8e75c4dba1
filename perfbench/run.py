#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload fig7_grid --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds perfbench/ (which compiles src/)
into .bench_build/perfbench, runs the benchmark's self-test, then the
benchmark itself, whose last stdout line is the JSON result. Exits
non-zero without a result when the sources, the build, the self-test or
the run fail. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Relative to the checkout root, so the daemon's AF_UNIX socket path stays
# short; one directory per process, so concurrent runs do not collide.
WORK = os.path.join(".bench_build", "perfbench-work", str(os.getpid()))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                tail = f.read()[-4000:]
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed:\n" + tail)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], log) != 0:
        with open(log) as f:
            fail("build failed:\n" + f.read()[-4000:])


def commit_id():
    """git HEAD when the checkout is a git repository, else a digest of src/."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def check_catalogue(result, trace):
    """The printed metric set must be the one BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != printed:
        fail("printed metrics differ from BENCHMARK.json: declared-only %s, printed-only %s" % (
            sorted(set(declared.items()) - set(printed.items())),
            sorted(set(printed.items()) - set(declared.items()))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig7_grid", "manet_200", "serve_mixed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT,
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        fail("self-test failed:\n" + selftest.stdout + selftest.stderr)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", commit_id(), "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    check_catalogue(result, args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
