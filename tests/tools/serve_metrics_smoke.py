#!/usr/bin/env python3
"""Hammer test for the campaign daemon's service telemetry.

Brings up `adhocsim serve` with JSON logging, a result cache, and a
flight-recorder dump path, then:

  1. N clients submit the same fig2 grid CONCURRENTLY; every response
     carries a request id on its submit_start/submit_end lines.
  2. A `metrics` scrape (JSON) must show: requests_total == submit
     count for the submit verb, request_wall_ms histogram count equal
     to it, per-phase latency histograms with compute count == submit
     count, and the invariant cache.misses == serve.engine_runs_total.
  3. Two consecutive JSON scrapes must have every object's keys in
     sorted order (byte-stable emission) and monotonic serve counters.
  4. Two Prometheus scrapes (taken around a warm resubmit) must pass
     tools/check_metrics_exposition.py, including counter monotonicity.
  5. The warm resubmit must raise cache hit counters
     (runs_served_total{source="cache"} > 0).
  6. The `debug` verb must return a flight-recorder dump containing
     every request id collected so far.
  7. SIGTERM must exit 0 and write a flight dump file containing every
     request id the test issued.

Usage: serve_metrics_smoke.py <adhocsim> <check_metrics_exposition.py> <scratch-dir>
"""

import json
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import time

N_CLIENTS = 4
RUNS_PER_SUBMIT = 8  # fig2: 4 points x 2 seeds


def fail(msg):
    print(f"serve_metrics_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def submit(adhocsim, sock):
    return subprocess.Popen(
        [adhocsim, "submit", "--socket", str(sock), "--grid", "fig2",
         "--seeds", "2", "--seconds", "0.3", "--warmup", "0.2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(proc, what):
    out, err = proc.communicate(timeout=600)
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {err}")
    return out


def control(adhocsim, sock, *flags):
    r = subprocess.run([adhocsim, "submit", "--socket", str(sock), *flags],
                       capture_output=True, text=True, timeout=120)
    if r.returncode != 0:
        fail(f"control request {flags} failed: {r.stdout}{r.stderr}")
    return r.stdout


def request_ids(text):
    return set(re.findall(r'"request":"(r-\d+)"', text))


def assert_sorted_keys(obj, where):
    """Recursively require sorted key order (needs object_pairs_hook)."""
    if isinstance(obj, list):
        for item in obj:
            assert_sorted_keys(item, where)
        return
    if not isinstance(obj, dict):
        return
    keys = list(obj)
    if keys != sorted(keys):
        fail(f"{where}: JSON keys not sorted: {keys}")
    for value in obj.values():
        assert_sorted_keys(value, where)


class OrderedDictKeeper(dict):
    pass


def scrape_json(adhocsim, sock):
    """One metrics scrape; returns (reply doc with key order preserved)."""
    out = control(adhocsim, sock, "--metrics", "--format", "json")
    line = out.splitlines()[0]
    doc = json.loads(line, object_pairs_hook=lambda pairs: dict(pairs))
    if doc.get("type") != "metrics" or "metrics" not in doc:
        fail(f"malformed metrics reply: {line}")
    assert_sorted_keys(doc["metrics"], "metrics scrape")
    return doc


def serve_counters(doc):
    return {k: v for k, v in doc["metrics"].get("serve", {}).items()
            if "_total" in k}


def main():
    if len(sys.argv) != 4:
        fail(f"usage: {sys.argv[0]} <adhocsim> <check-script> <scratch-dir>")
    adhocsim, check_script = sys.argv[1], sys.argv[2]
    scratch = pathlib.Path(sys.argv[3])
    shutil.rmtree(scratch, ignore_errors=True)  # cold cache every run
    scratch.mkdir(parents=True, exist_ok=True)
    sock = scratch / "serve.sock"
    flight_path = scratch / "flight.jsonl"

    daemon = subprocess.Popen(
        [adhocsim, "serve", "--socket", str(sock),
         "--cache", str(scratch / "cache"), "--jobs", "2",
         "--log-format", "json", "--shutdown-grace-ms", "2000",
         "--flight-dump", str(flight_path)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    seen_ids = set()
    try:
        for _ in range(600):
            if sock.exists():
                break
            if daemon.poll() is not None:
                fail(f"daemon died on startup:\n{daemon.stdout.read()}")
            time.sleep(0.05)
        else:
            fail("daemon socket never appeared")

        # --- phase 1: concurrent hammer, request ids on control lines ----
        procs = [submit(adhocsim, sock) for _ in range(N_CLIENTS)]
        outs = [finish(p, f"submit #{i}") for i, p in enumerate(procs)]
        for i, out in enumerate(outs):
            ids = request_ids(out)
            if not ids:
                fail(f"submit #{i} responses carry no request id:\n{out[:2000]}")
            seen_ids |= ids
            end = json.loads([l for l in out.splitlines()
                              if '"type":"submit_end"' in l][0])
            if end["errors"]:
                fail(f"submit #{i} reported run errors: {end}")
            if '"request"' in [l for l in out.splitlines()
                               if '"type":"run"' in l][0]:
                fail("run lines must not carry a request id (byte-identity)")

        # --- phase 2: JSON scrape, counts pinned to the hammer ----------
        # finish_request runs just after the terminal response line is
        # written, so a scrape racing the last client's exit may miss
        # one request; poll until the submit counter settles.
        for _ in range(100):
            doc1 = scrape_json(adhocsim, sock)
            serve1 = doc1["metrics"].get("serve", {})
            submits_total = sum(v for k, v in serve1.items()
                                if k.startswith("requests_total{")
                                and '"submit"' in k)
            if submits_total >= N_CLIENTS:
                break
            time.sleep(0.05)
        seen_ids |= request_ids(json.dumps(doc1, sort_keys=True))
        if not serve1:
            fail(f"no 'serve' component in metrics: {list(doc1['metrics'])}")
        if submits_total != N_CLIENTS:
            fail(f"requests_total for submit verb = {submits_total}, "
                 f"expected {N_CLIENTS}")
        wall_count = serve1.get('request_wall_ms{verb="submit"}.count')
        if wall_count != N_CLIENTS:
            fail(f"request_wall_ms count {wall_count} != submit count "
                 f"{N_CLIENTS} (histogram count must equal request count)")
        for phase in ("cache_lookup", "queue_wait", "compute", "serialize",
                      "stream", "parse", "accept"):
            key = f'phase_ms{{phase="{phase}"}}.count'
            if serve1.get(key, 0) < (N_CLIENTS if phase != "accept" else 1):
                fail(f"phase histogram missing or undercounted: {key} = "
                     f"{serve1.get(key)}")
        cache1 = doc1["metrics"].get("cache")
        if cache1 is None:
            fail("cache probes not attached to the daemon registry")
        if cache1["misses"] != serve1.get("engine_runs_total", 0):
            fail(f"cache.misses {cache1['misses']} != engine_runs_total "
                 f"{serve1.get('engine_runs_total')}")
        served = sum(v for k, v in serve1.items()
                     if k.startswith("runs_served_total{"))
        if served != N_CLIENTS * RUNS_PER_SUBMIT:
            fail(f"runs_served_total sums to {served}, expected "
                 f"{N_CLIENTS * RUNS_PER_SUBMIT}")
        if serve1.get("queue_depth", -1) != 0:
            fail(f"queue_depth nonzero at idle: {serve1.get('queue_depth')}")

        # --- phase 3/4/5: prometheus scrapes around a warm resubmit ------
        prom1 = control(adhocsim, sock, "--metrics", "--format", "prometheus")
        (scratch / "scrape1.txt").write_text(prom1)
        warm = finish(submit(adhocsim, sock), "warm submit")
        seen_ids |= request_ids(warm)
        warm_end = json.loads([l for l in warm.splitlines()
                               if '"type":"submit_end"' in l][0])
        if warm_end["cache_hits"] < 0.9 * RUNS_PER_SUBMIT:
            fail(f"warm resubmit barely hit the cache: {warm_end}")
        prom2 = control(adhocsim, sock, "--metrics", "--format", "prometheus")
        (scratch / "scrape2.txt").write_text(prom2)
        if "# TYPE adhocsim_serve_requests_total counter" not in prom1:
            fail(f"prometheus exposition missing requests_total family:\n"
                 f"{prom1[:2000]}")
        checker = subprocess.run(
            [sys.executable, check_script,
             "--require", "adhocsim_serve_trace_dropped_total",
             "--require", "adhocsim_serve_journey_dropped_total",
             str(scratch / "scrape1.txt"), str(scratch / "scrape2.txt")],
            capture_output=True, text=True, timeout=120)
        if checker.returncode != 0:
            fail(f"check_metrics_exposition failed:\n{checker.stdout}"
                 f"{checker.stderr}")

        doc2 = scrape_json(adhocsim, sock)
        seen_ids |= request_ids(json.dumps(doc2, sort_keys=True))
        serve2 = doc2["metrics"]["serve"]
        for key, before in serve_counters(doc1).items():
            if serve2.get(key, -1) < before:
                fail(f"serve counter went backwards: {key} {before} -> "
                     f"{serve2.get(key)}")
        cached_runs = serve2.get('runs_served_total{source="cache"}', 0)
        if cached_runs < RUNS_PER_SUBMIT * 0.9:
            fail(f"warm resubmit did not raise cache-hit counter: "
                 f"{cached_runs}")

        # --- phase 6: debug verb returns the flight recorder -------------
        # Same race as above: the most recent request may not be folded
        # in yet when the dump is taken, so allow a few attempts.
        missing = set()
        for _ in range(100):
            debug_dump = control(adhocsim, sock, "--debug")
            lines = [json.loads(l) for l in debug_dump.splitlines() if l]
            if not lines or lines[0].get("kind") != "flight_recorder_header":
                fail(f"debug dump has no header:\n{debug_dump[:2000]}")
            dump_ids = {l["id"] for l in lines[1:]
                        if l.get("kind") == "request"}
            missing = seen_ids - dump_ids
            if not missing:
                break
            time.sleep(0.05)
        if missing:
            fail(f"debug flight dump missing request ids: {sorted(missing)}")

        # --- phase 7: SIGTERM -> clean exit + on-disk flight dump --------
        daemon.send_signal(signal.SIGTERM)
        if daemon.wait(timeout=120) != 0:
            fail(f"daemon exited {daemon.returncode} on SIGTERM")
        daemon_log = daemon.stdout.read()
        if '"component":"serve"' not in daemon_log:
            fail(f"daemon produced no JSON log lines:\n{daemon_log[:2000]}")
        if not flight_path.exists():
            fail(f"no flight dump at {flight_path}")
        flight = flight_path.read_text()
        flight_lines = [json.loads(l) for l in flight.splitlines() if l]
        if flight_lines[0].get("kind") != "flight_recorder_header":
            fail(f"flight dump has no header:\n{flight[:2000]}")
        on_disk_ids = {l["id"] for l in flight_lines[1:]
                       if l.get("kind") == "request"}
        missing = seen_ids - on_disk_ids
        if missing:
            fail(f"flight dump missing request ids: {sorted(missing)}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    print(f"serve_metrics_smoke: OK ({N_CLIENTS} concurrent submits, "
          f"{len(seen_ids)} request ids traced, exposition valid, "
          f"flight dump complete)")


if __name__ == "__main__":
    main()
