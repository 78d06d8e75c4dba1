#!/usr/bin/env python3
"""End-to-end check of the campaign service (`adhocsim serve`/`submit`).

Brings up the daemon on a scratch AF_UNIX socket with an on-disk result
cache, then:

  1. Two clients submit overlapping fig2 grids CONCURRENTLY (the
     daemon handles each connection on its own thread; under
     -DSANITIZE=thread this exercises the cache mutex and the engine
     pools racing).
  2. A third submission repeats the first grid and must be served
     almost entirely from the cache (>= 90% hit rate) with run records
     byte-identical to the cold pass.
  3. The warm scorecard artifact must equal the cold one byte-for-byte
     and pass tools/bench_check.py with the cold pass as its baseline
     (the drift gate is the mechanical "cached == recomputed" assertion).
  4. stats/ping/shutdown round-trip and the daemon exits cleanly.

Usage: serve_smoke.py <adhocsim> <bench_check.py> <scratch-dir>
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def submit(adhocsim, sock, scorecard_dir=None, seeds="3"):
    cmd = [adhocsim, "submit", "--socket", str(sock), "--grid", "fig2",
           "--seeds", seeds, "--seconds", "0.5", "--warmup", "0.2"]
    if scorecard_dir is not None:
        cmd += ["--scorecard", str(scorecard_dir)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish(proc, what):
    out, err = proc.communicate(timeout=600)
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {err}")
    return out


def parse_lines(out):
    end, runs = None, {}
    for line in out.splitlines():
        if '"type":"run"' in line:
            doc = json.loads(line)
            runs[doc["run"]] = line
        elif '"type":"submit_end"' in line:
            end = json.loads(line)
    if end is None:
        fail(f"no submit_end line in output:\n{out}")
    return end, runs


def strip_cached_flag(line):
    # The only byte allowed to differ between a cold and a warm run
    # line is the provenance flag.
    return re.sub(r'^\{"cached":[01],', '{', line)


def main():
    if len(sys.argv) != 4:
        fail(f"usage: {sys.argv[0]} <adhocsim> <bench_check.py> <scratch-dir>")
    adhocsim, bench_check = sys.argv[1], sys.argv[2]
    scratch = pathlib.Path(sys.argv[3])
    # Wipe the scratch: a rerun in the same build dir would otherwise
    # find the previous run's cache warm (same build-id, same keys) and
    # the cold-phase assertions would fail.
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True, exist_ok=True)
    sock = scratch / "serve.sock"
    cold_dir, warm_dir = scratch / "cold", scratch / "warm"
    cold_dir.mkdir(exist_ok=True)
    warm_dir.mkdir(exist_ok=True)

    daemon = subprocess.Popen(
        [adhocsim, "serve", "--socket", str(sock),
         "--cache", str(scratch / "cache"), "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        for _ in range(600):
            if sock.exists():
                break
            if daemon.poll() is not None:
                fail(f"daemon died on startup:\n{daemon.stdout.read()}")
            time.sleep(0.05)
        else:
            fail("daemon socket never appeared")

        # --- phase 1: two concurrent clients, overlapping grids ----------
        a = submit(adhocsim, sock, scorecard_dir=cold_dir, seeds="3")
        b = submit(adhocsim, sock, seeds="2")  # subset of a's grid
        out_a = finish(a, "concurrent submit A")
        out_b = finish(b, "concurrent submit B")
        end_a, runs_a = parse_lines(out_a)
        end_b, _ = parse_lines(out_b)
        if end_a["errors"] or end_b["errors"]:
            fail(f"concurrent submits reported run errors: {end_a} / {end_b}")
        if len(runs_a) != 12:  # fig2: 4 points x 3 seeds
            fail(f"submit A returned {len(runs_a)} run lines, expected 12")

        # --- phase 2: warm resubmission, >= 90% hits, identical bytes ----
        out_w = finish(submit(adhocsim, sock, scorecard_dir=warm_dir, seeds="3"),
                       "warm submit")
        end_w, runs_w = parse_lines(out_w)
        total = end_w["cache_hits"] + end_w["cache_misses"]
        if total != 12 or end_w["cache_hits"] < 0.9 * total:
            fail(f"warm hit rate too low: {end_w['cache_hits']}/{total}")
        for idx, cold_line in runs_a.items():
            if strip_cached_flag(runs_w[idx]) != strip_cached_flag(cold_line):
                fail(f"run {idx} differs warm vs cold:\n{cold_line}\n{runs_w[idx]}")

        # --- phase 3: scorecard byte-identity + drift gate ---------------
        artifact = "BENCH_serve_fig2.json"
        cold_bytes = (cold_dir / artifact).read_bytes()
        warm_bytes = (warm_dir / artifact).read_bytes()
        if cold_bytes != warm_bytes:
            fail("warm scorecard differs from cold scorecard")
        cmp = subprocess.run(
            [sys.executable, bench_check, "--baselines", str(cold_dir),
             "--current", str(warm_dir), "--no-perf"],
            capture_output=True, text=True, timeout=120)
        if cmp.returncode != 0:
            fail(f"bench_check flagged warm vs cold:\n{cmp.stdout}{cmp.stderr}")

        # --- phase 4: control plane --------------------------------------
        stats = subprocess.run(
            [adhocsim, "submit", "--socket", str(sock), "--stats"],
            capture_output=True, text=True, timeout=120)
        if stats.returncode != 0:
            fail(f"stats request failed: {stats.stderr}")
        doc = json.loads(stats.stdout)
        if doc["cache"]["hits"] < 12 or doc["cache"]["stores"] < 12:
            fail(f"stats counters implausible: {stats.stdout}")
        if not doc["version"]:
            fail("stats missing daemon code version")

        down = subprocess.run(
            [adhocsim, "submit", "--socket", str(sock), "--shutdown"],
            capture_output=True, text=True, timeout=120)
        if down.returncode != 0 or '"type":"bye"' not in down.stdout:
            fail(f"shutdown handshake failed: {down.stdout}{down.stderr}")
        if daemon.wait(timeout=120) != 0:
            fail(f"daemon exited {daemon.returncode}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    print(f"serve_smoke: OK ({end_w['cache_hits']}/{total} warm hits, "
          f"{len(runs_a)} records byte-identical, scorecard clean)")


if __name__ == "__main__":
    main()
