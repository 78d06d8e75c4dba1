#!/usr/bin/env python3
"""ctest `scorecard_smoke`: end-to-end check of the reproduction
scorecard pipeline on one real bench binary (bench_fig7).

Verifies the four contracts the harness rests on:
  * byte-stability — the same bench run twice, and at --jobs 1 vs 4,
    produces byte-identical BENCH_fig7.json (the perf sidecar is
    explicitly allowed to differ);
  * clean pass — the fresh artifact matches the checked-in baseline in
    bench/baselines/ within fidelity tolerances (perf is warn-only
    here: the CI host's wall clock is not the baseline host's);
  * drift detection — an injected fidelity regression (perturbed cell
    value) makes tools/bench_check.py exit 1;
  * perf gating — an injected events/sec drop fails, a waiver file (or
    --perf-warn-only) turns that specific failure back into a pass, and
    usage errors exit 2, never 1.

Usage: scorecard_smoke.py <bench_fig7> <bench_check.py> <baselines-dir>
                          <scratch-dir>
"""

import filecmp
import json
import pathlib
import shutil
import subprocess
import sys


def fail(msg: str) -> None:
    print(f"scorecard_smoke: FAIL: {msg}")
    sys.exit(1)


def run(cmd, expect, what):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != expect:
        fail(f"{what}: exit {proc.returncode}, expected {expect}\n"
             f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
    return proc


def main() -> None:
    if len(sys.argv) != 5:
        fail(f"usage: {sys.argv[0]} <bench_fig7> <bench_check.py> "
             "<baselines-dir> <scratch-dir>")
    bench, bench_check = sys.argv[1], sys.argv[2]
    baselines = pathlib.Path(sys.argv[3])
    scratch = pathlib.Path(sys.argv[4])
    shutil.rmtree(scratch, ignore_errors=True)
    run_a, run_b, run_c = scratch / "a", scratch / "b", scratch / "c"
    for d in (run_a, run_b, run_c):
        d.mkdir(parents=True)

    # --- byte-stability: rerun and jobs=1-vs-4 must be bit-identical -----
    run([bench, "--out", run_a], 0, "bench run A")
    run([bench, "--out", run_b], 0, "bench run B (rerun)")
    run([bench, "--out", run_c, "--jobs", "4"], 0, "bench run C (--jobs 4)")
    artifact = "BENCH_fig7.json"
    if not filecmp.cmp(run_a / artifact, run_b / artifact, shallow=False):
        fail(f"{artifact} differs between two identical runs")
    if not filecmp.cmp(run_a / artifact, run_c / artifact, shallow=False):
        fail(f"{artifact} differs between --jobs 1 and --jobs 4")

    # --- clean pass against the checked-in baseline ----------------------
    run([sys.executable, bench_check, "--baselines", baselines, "--current", run_a,
         "--bench", "fig7", "--perf-warn-only"], 0, "bench_check clean pass")

    # --- injected fidelity regression must be caught by the gate ---------
    broken = scratch / "broken"
    broken.mkdir()
    doc = json.load(open(run_a / artifact))
    doc["cells"][0]["sim"] *= 1.5
    with open(broken / artifact, "w") as f:
        json.dump(doc, f, sort_keys=True)
    proc = run([sys.executable, bench_check, "--baselines", run_a, "--current", broken],
               1, "bench_check on injected fidelity drift")
    if "fidelity" not in proc.stdout:
        fail(f"bench_check drift table does not name the fidelity class: {proc.stdout}")

    # --- injected perf regression: fails, then waived --------------------
    slow = scratch / "slow"
    slow.mkdir()
    shutil.copyfile(run_a / artifact, slow / artifact)
    sidecar = "BENCH_fig7.perf.json"
    perf = json.load(open(run_a / sidecar))
    perf["perf"]["events_per_sec"] *= 0.4
    with open(slow / sidecar, "w") as f:
        json.dump(perf, f, sort_keys=True)
    run([sys.executable, bench_check, "--baselines", run_a, "--current", slow],
        1, "bench_check on injected perf drop")
    waivers = scratch / "waivers.json"
    with open(waivers, "w") as f:
        json.dump({"fig7": "smoke-test waiver"}, f, sort_keys=True)
    run([sys.executable, bench_check, "--baselines", run_a, "--current", slow,
         "--waivers", waivers], 0, "bench_check with waiver")
    run([sys.executable, bench_check, "--baselines", run_a, "--current", slow,
         "--perf-warn-only"], 0, "bench_check with --perf-warn-only")

    # --- usage / I-O errors are exit 2, never 1 --------------------------
    run([sys.executable, bench_check, "--baselines", scratch / "nope",
         "--current", run_a], 2, "bench_check on missing baseline dir")

    print("scorecard_smoke: OK (byte-stable rerun + jobs 1-vs-4, baseline pass, "
          "fidelity gate, perf gate + waiver, exit-code contract)")


if __name__ == "__main__":
    main()
