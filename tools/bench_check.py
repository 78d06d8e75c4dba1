#!/usr/bin/env python3
"""Benchmark-regression gate: diff fresh BENCH_*.json scorecards against
the checked-in baselines (bench/baselines/). This is the repo's only
drift gate: CI, local runs and the smoke tests all call it.

  fidelity   a cell's sim value may not move more than --fidelity-tol
             relative to the baseline (denominator max(|baseline|, 1),
             so near-zero cells degrade to an absolute tolerance); where
             both sides carry a paper reference, |rel dev| may not
             worsen by more than --dev-tol absolute points. Cells that
             disappear fail; new cells are reported but pass (refresh
             the baseline to adopt them).
  work       the scorecard's counters.events (scheduler events over
             every run, a pure function of the seeds) may not rise by
             more than 1%; a fall is reported but passes (refresh the
             baseline to adopt it). Skipped when either side has no
             counter.
  perf       events_per_sec (from the BENCH_*.perf.json sidecar) may
             not drop by more than --perf-tol, and wall_ms may not rise
             by the mirrored factor. Perf drift is waivable per bench
             via --waivers (JSON: {"bench": "reason"}), or demoted to a
             warning wholesale with --perf-warn-only (for CI runners
             whose wall clock is not comparable to the baseline host).

Usage:
  bench_check.py --baselines DIR --current DIR [flags]
  bench_check.py --baselines DIR --current DIR --bench NAME   one pair
  bench_check.py --baselines DIR --current DIR --update

Exit codes: 0 clean, 1 drift detected, 2 usage / I-O error (including
a document that is not a scorecard or a malformed cell).
--update copies the current fidelity files over the baselines (byte
copies — the artifacts are already byte-stable) and exits 0.
"""

import argparse
import json
import pathlib
import shutil
import sys


def die(msg: str) -> None:
    print(f"bench_check: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path: pathlib.Path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        die(f"cannot open {path}: {e}")
    except json.JSONDecodeError as e:
        die(f"{path}: not valid JSON: {e}")


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def event_count(doc, path: pathlib.Path):
    """A scorecard's counters.events, or None when it has none."""
    counters = doc.get("counters", {})
    if not isinstance(counters, dict):
        die(f"{path}: 'counters' is not an object")
    events = counters.get("events")
    if events is not None and not is_number(events):
        die(f"{path}: 'counters.events' is not a number")
    return events


def cells_by_id(doc, path: pathlib.Path):
    """Index a scorecard's cells by id. A malformed document is a usage
    error (exit 2), never drift: every cell needs a string id and a
    numeric sim, and a paper value, when present, must be a number."""
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        die(f"{path}: not a scorecard (no 'cells' array)")
    cells = {}
    for i, cell in enumerate(doc["cells"]):
        if not isinstance(cell, dict) or not isinstance(cell.get("id"), str):
            die(f"{path}: cell {i} has no string 'id'")
        if not is_number(cell.get("sim")):
            die(f"{path}: cell '{cell['id']}' has no numeric 'sim'")
        if cell.get("paper") is not None and not is_number(cell["paper"]):
            die(f"{path}: cell '{cell['id']}' has a non-numeric 'paper'")
        cells[cell["id"]] = cell
    return cells


def load_perf(path: pathlib.Path):
    """The 'perf' member of a BENCH_*.perf.json sidecar."""
    doc = load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("perf", {}), dict):
        die(f"{path}: not a perf sidecar (expected an object with a 'perf' object)")
    return doc.get("perf", {})


def perf_metric(perf, key):
    """A positive perf number, or None (absent, non-numeric or <= 0)."""
    v = perf.get(key)
    return v if is_number(v) and v > 0 else None


def rel_dev(cell):
    """|sim - paper| / |paper|, or None when the cell has no paper value."""
    paper = cell.get("paper")
    if paper is None or paper == 0:
        return None
    return abs(cell["sim"] - paper) / abs(paper)


class Drifts:
    """Collects drift rows and renders them as one table for CI logs."""

    def __init__(self):
        self.rows = []
        self.fidelity_failed = False
        self.work_failed = False
        self.perf_failed = False

    def add(self, kind, bench, cell, baseline, current, failing, note):
        self.rows.append((kind, f"{bench}:{cell}", baseline, current, failing, note))
        if failing:
            if kind == "perf":
                self.perf_failed = True
            elif kind == "work":
                self.work_failed = True
            else:
                self.fidelity_failed = True

    def render(self) -> str:
        if not self.rows:
            return ""
        header = ("class", "cell / metric", "baseline", "current", "verdict", "note")
        body = [(k, i, f"{b:.3f}", f"{c:.3f}", "FAIL" if f else "info", n)
                for k, i, b, c, f, n in self.rows]
        widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
        lines = []
        for row in [header] + body:
            lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |")
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
        return "\n".join(lines) + "\n"


def check_fidelity(bench, base_doc, cur_doc, base_path, cur_path, opt, drifts):
    base_cells = cells_by_id(base_doc, base_path)
    cur_cells = cells_by_id(cur_doc, cur_path)
    compared = 0
    for cell_id, base in base_cells.items():
        cur = cur_cells.get(cell_id)
        if cur is None:
            drifts.add("missing-cell", bench, cell_id, base["sim"], 0.0, True,
                       "cell disappeared from the current scorecard")
            continue
        compared += 1
        denom = max(abs(base["sim"]), 1.0)
        move = abs(cur["sim"] - base["sim"]) / denom
        if move > opt.fidelity_tol:
            drifts.add("fidelity", bench, cell_id, base["sim"], cur["sim"], True,
                       f"sim value moved {move * 100:.1f}% vs baseline")
        base_dev, cur_dev = rel_dev(base), rel_dev(cur)
        if base_dev is not None and cur_dev is not None:
            worsened = cur_dev - base_dev
            if worsened > opt.dev_tol:
                drifts.add("paper-dev", bench, cell_id, base_dev, cur_dev, True,
                           f"paper deviation worsened by {worsened * 100:.1f} points")
    for cell_id, cur in cur_cells.items():
        if cell_id not in base_cells:
            drifts.add("new-cell", bench, cell_id, 0.0, cur["sim"], False,
                       "new cell (refresh the baseline to adopt it)")
    return compared


WORK_TOL = 0.01


def check_work(bench, base_doc, cur_doc, base_path, cur_path, drifts):
    base = event_count(base_doc, base_path)
    cur = event_count(cur_doc, cur_path)
    if base is None or cur is None or cur == base:
        return
    change = (cur - base) / max(base, 1)
    if change > WORK_TOL:
        drifts.add("work", bench, "counters.events", base, cur, True,
                   f"events rose {change * 100:.1f}%")
    elif change < 0:
        drifts.add("work", bench, "counters.events", base, cur, False,
                   f"events fell {-change * 100:.1f}% (refresh the baseline to adopt it)")


def check_perf(bench, base_path, cur_path, opt, drifts):
    """Perf sidecars are optional and machine-bound: silently skip when
    either side is absent."""
    base_side = base_path.parent / (base_path.name[:-len(".json")] + ".perf.json")
    cur_side = cur_path.parent / (cur_path.name[:-len(".json")] + ".perf.json")
    if not base_side.is_file() or not cur_side.is_file():
        return
    base_perf, cur_perf = load_perf(base_side), load_perf(cur_side)
    base_eps = perf_metric(base_perf, "events_per_sec")
    cur_eps = perf_metric(cur_perf, "events_per_sec")
    if base_eps and cur_eps:
        drop = (base_eps - cur_eps) / base_eps
        if drop > opt.perf_tol:
            drifts.add("perf", bench, "events_per_sec", base_eps, cur_eps, True,
                       f"throughput dropped {drop * 100:.1f}%")
    base_ms, cur_ms = perf_metric(base_perf, "wall_ms"), perf_metric(cur_perf, "wall_ms")
    if base_ms and cur_ms:
        rise_limit = opt.perf_tol / (1.0 - opt.perf_tol)
        rise = (cur_ms - base_ms) / base_ms
        if rise > rise_limit:
            drifts.add("perf", bench, "wall_ms", base_ms, cur_ms, True,
                       f"wall time rose {rise * 100:.1f}%")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baselines", required=True, help="checked-in baseline dir")
    ap.add_argument("--current", required=True, help="dir with fresh BENCH_*.json")
    ap.add_argument("--fidelity-tol", type=float, default=0.05)
    ap.add_argument("--dev-tol", type=float, default=0.02)
    ap.add_argument("--perf-tol", type=float, default=0.30)
    ap.add_argument("--waivers", help="JSON file: {bench: reason} perf waivers")
    ap.add_argument("--perf-warn-only", action="store_true",
                    help="report perf drift but never fail on it")
    ap.add_argument("--no-perf", action="store_true", help="skip perf sidecars entirely")
    ap.add_argument("--bench", action="append", default=[],
                    help="restrict to these bench names (repeatable)")
    ap.add_argument("--update", action="store_true",
                    help="copy current fidelity files over the baselines and exit")
    args = ap.parse_args()

    baselines = pathlib.Path(args.baselines)
    current = pathlib.Path(args.current)
    if not current.is_dir():
        die(f"--current {current} is not a directory")

    if args.update:
        baselines.mkdir(parents=True, exist_ok=True)
        updated = []
        for path in sorted(current.glob("BENCH_*.json")):
            if path.name.endswith(".perf.json"):
                continue  # sidecars are machine-bound; never baseline them
            name = path.name[len("BENCH_"):-len(".json")]
            if args.bench and name not in args.bench:
                continue
            shutil.copyfile(path, baselines / path.name)
            updated.append(path.name)
        print(f"bench_check: refreshed {len(updated)} baseline(s) in {baselines}")
        for name in updated:
            print(f"  {name}")
        sys.exit(0)

    if not baselines.is_dir():
        die(f"--baselines {baselines} is not a directory")
    waivers = {}
    if args.waivers:
        waivers = load_json(pathlib.Path(args.waivers))
        if not isinstance(waivers, dict):
            die(f"--waivers {args.waivers}: expected a JSON object {{bench: reason}}")

    baseline_files = sorted(p for p in baselines.glob("BENCH_*.json")
                            if not p.name.endswith(".perf.json"))
    if args.bench:
        baseline_files = [p for p in baseline_files
                          if p.name[len("BENCH_"):-len(".json")] in args.bench]
    if not baseline_files:
        die(f"no BENCH_*.json baselines in {baselines}")

    drifts = Drifts()
    benches, cells = 0, 0
    waived_perf_failures = []
    for base_path in baseline_files:
        name = base_path.name[len("BENCH_"):-len(".json")]
        cur_path = current / base_path.name
        if not cur_path.is_file():
            drifts.add("missing-bench", name, "(whole scorecard)", 0.0, 0.0, True,
                       f"{cur_path} was not produced")
            continue
        benches += 1
        base_doc, cur_doc = load_json(base_path), load_json(cur_path)
        cells += check_fidelity(name, base_doc, cur_doc, base_path, cur_path, args, drifts)
        check_work(name, base_doc, cur_doc, base_path, cur_path, drifts)
        if not args.no_perf:
            before = drifts.perf_failed
            drifts.perf_failed = False
            check_perf(name, base_path, cur_path, args, drifts)
            if drifts.perf_failed and name in waivers:
                waived_perf_failures.append(f"{name} ({waivers[name]})")
                drifts.perf_failed = False
            drifts.perf_failed = drifts.perf_failed or before

    table = drifts.render()
    if table:
        print(table, end="")
    perf_failed = drifts.perf_failed and not args.perf_warn_only
    if drifts.perf_failed and args.perf_warn_only:
        print("bench_check: perf drift detected but --perf-warn-only is set")
    for waived in waived_perf_failures:
        print(f"bench_check: perf drift waived for {waived}")
    failed = drifts.fidelity_failed or drifts.work_failed or perf_failed
    verdict = "DRIFT" if failed else "ok"
    print(f"bench_check: {benches} bench(es), {cells} cells compared, "
          f"fidelity {'DRIFT' if drifts.fidelity_failed else 'ok'}, "
          f"work {'DRIFT' if drifts.work_failed else 'ok'}, "
          f"perf {'DRIFT' if perf_failed else 'ok'} -> {verdict}")
    sys.exit(1 if verdict == "DRIFT" else 0)


if __name__ == "__main__":
    main()
