#!/usr/bin/env python3
"""Self-test for tools/bench_check.py, the repo's scorecard drift gate.

Builds synthetic BENCH_*.json scorecards (and BENCH_*.perf.json
sidecars) in a temp dir and runs the gate on each pair, checking the
exit-code contract (0 clean, 1 drift, 2 usage / I-O / malformed input)
and the drift class named in the table:

  * identical scorecards are clean;
  * a sim value moving more than 5% fails as fidelity drift;
  * a worsening deviation from the paper fails as paper-dev drift;
  * near-zero cells compare on an absolute tolerance;
  * a missing cell fails, a new cell only informs;
  * counters.events rising more than 1% fails as work drift, a fall
    only informs, and an absent counter skips the check;
  * an events_per_sec drop fails unless waived, and a small dip passes;
  * --no-perf and an absent sidecar skip perf silently;
  * a document that is not a scorecard, a malformed cell or a malformed
    perf sidecar exits 2, never 1.

Usage: bench_check_selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
BENCH_CHECK = REPO / "tools" / "bench_check.py"


def scorecard(*cells) -> dict:
    """A scorecard document for bench "x"; each cell is (id, sim) or
    (id, sim, paper)."""
    out = []
    for cell in cells:
        doc = {"id": cell[0], "sim": cell[1]}
        if len(cell) > 2:
            doc["paper"] = cell[2]
        out.append(doc)
    return {"bench": "x", "cells": out}


def with_events(card: dict, events) -> dict:
    """`card` with counters.events set."""
    return {**card, "counters": {"events": events, "runs_ok": 1}}


def perf(events_per_sec: float, wall_ms: float) -> dict:
    return {"bench": "x", "perf": {"events_per_sec": events_per_sec, "wall_ms": wall_ms}}


class Selftest:
    def __init__(self, root: Path):
        self.root = root
        self.cases = 0
        self.failures: list[str] = []

    def check(self, name, base, cur, expect, *, flags=(), base_perf=None, cur_perf=None,
              waivers=None, must=(), must_not=(), verdicts=None):
        """Write one baseline/current pair, run the gate on it and compare
        its exit code and output against the expectation. `verdicts` maps
        a drift-table row key ("bench:cell") to the verdict its row must
        carry ("FAIL" or "info")."""
        self.cases += 1
        case = self.root / f"case{self.cases}"
        files = {"base/BENCH_x.json": base, "cur/BENCH_x.json": cur,
                 "base/BENCH_x.perf.json": base_perf, "cur/BENCH_x.perf.json": cur_perf,
                 "waivers.json": waivers}
        for rel, doc in files.items():
            path = case / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            if doc is not None:
                path.write_text(json.dumps(doc, sort_keys=True))
        args = ["--baselines", case / "base", "--current", case / "cur", *flags]
        if waivers is not None:
            args += ["--waivers", case / "waivers.json"]
        proc = subprocess.run([sys.executable, str(BENCH_CHECK), *map(str, args)],
                              capture_output=True, text=True, timeout=60)
        output = proc.stdout + proc.stderr
        problems = []
        if proc.returncode != expect:
            problems.append(f"exit {proc.returncode}, want {expect}")
        if "Traceback" in output:
            problems.append("uncaught exception")
        problems += [f"output lacks {s!r}" for s in must if s not in output]
        problems += [f"output has {s!r}" for s in must_not if s in output]
        for key, verdict in (verdicts or {}).items():
            rows = [line for line in proc.stdout.splitlines() if f"| {key} " in line]
            if len(rows) != 1 or f"| {verdict} " not in rows[0]:
                problems.append(f"no single {key} row with verdict {verdict}")
        if problems:
            self.failures.append(f"FAIL {name}: {'; '.join(problems)}\n{output}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench_check_selftest.") as tmp:
        t = Selftest(Path(tmp))

        # --- fidelity ------------------------------------------------------
        table = scorecard(("a", 5.0, 5.5), ("b", 2.0, 1.9), ("c", 0.3))
        t.check("identical scorecards are clean", table, table, 0,
                must=("3 cells compared", "fidelity ok", "-> ok"), must_not=("FAIL",))
        t.check("a 6% move fails as fidelity drift",
                scorecard(("a", 10.0)), scorecard(("a", 10.6)), 1,
                must=("| fidelity", "FAIL", "moved 6.0%", "fidelity DRIFT"))
        t.check("a 4% move passes",
                scorecard(("a", 10.0)), scorecard(("a", 10.4)), 0, must_not=("FAIL",))
        t.check("a 3% move that worsens the paper deviation by 3 points fails",
                scorecard(("a", 100.0, 100.0)), scorecard(("a", 103.0, 100.0)), 1,
                must=("| paper-dev", "worsened by 3.0 points"), must_not=("| fidelity",))
        t.check("a large move with a paper value fails on both classes",
                scorecard(("a", 10.0, 10.0)), scorecard(("a", 12.0, 10.0)), 1,
                must=("| fidelity", "| paper-dev"))
        t.check("a move towards the paper value is not paper-dev drift",
                scorecard(("a", 100.0, 90.0)), scorecard(("a", 97.0, 90.0)), 0,
                must_not=("FAIL",))
        t.check("near-zero cell: 0.001 -> 0.04 is inside the absolute tolerance",
                scorecard(("loss", 0.001)), scorecard(("loss", 0.04)), 0,
                must_not=("FAIL",))
        t.check("near-zero cell: 0.001 -> 0.06 is outside it",
                scorecard(("loss", 0.001)), scorecard(("loss", 0.06)), 1,
                must=("| fidelity",))

        # --- cell set ------------------------------------------------------
        t.check("a missing cell fails and a new one informs",
                scorecard(("kept", 1.0), ("dropped", 2.0)),
                scorecard(("kept", 1.0), ("added", 3.0)), 1,
                must=("| missing-cell", "| new-cell"),
                verdicts={"x:dropped": "FAIL", "x:added": "info"})
        t.check("a new cell alone only informs",
                scorecard(("kept", 1.0)), scorecard(("kept", 1.0), ("added", 3.0)), 0,
                verdicts={"x:added": "info"}, must_not=("FAIL",))

        # --- work ----------------------------------------------------------
        card = scorecard(("c", 1.0))
        t.check("equal event counts are clean",
                with_events(card, 1000), with_events(card, 1000), 0,
                must=("work ok", "-> ok"), must_not=("| work",))
        t.check("a 2% events rise fails as work drift while fidelity holds",
                with_events(card, 1000), with_events(card, 1020), 1,
                must=("rose 2.0%", "fidelity ok", "work DRIFT"),
                verdicts={"x:counters.events": "FAIL"})
        t.check("a 1% events rise stays inside the gate",
                with_events(card, 1000), with_events(card, 1010), 0, must_not=("FAIL",))
        t.check("an events fall only informs",
                with_events(card, 1000), with_events(card, 600), 0,
                must=("fell 40.0%", "work ok"), verdicts={"x:counters.events": "info"})
        t.check("an absent events counter skips the work check",
                with_events(card, 1000), card, 0, must_not=("| work",))
        t.check("a non-numeric events counter exits 2", card, with_events(card, "many"), 2,
                must=("cur/BENCH_x.json: 'counters.events' is not a number",))

        # --- perf ----------------------------------------------------------
        card = scorecard(("c", 1.0))
        t.check("a 50% events_per_sec drop fails while fidelity holds", card, card, 1,
                base_perf=perf(1e6, 100.0), cur_perf=perf(5e5, 200.0),
                must=("x:events_per_sec", "dropped 50.0%", "fidelity ok", "perf DRIFT"))
        t.check("the same drop passes with a waiver", card, card, 0,
                base_perf=perf(1e6, 100.0), cur_perf=perf(5e5, 200.0),
                waivers={"x": "known slow host"},
                must=("perf drift waived for x (known slow host)", "-> ok"))
        t.check("the same drop passes with --perf-warn-only", card, card, 0,
                flags=("--perf-warn-only",),
                base_perf=perf(1e6, 100.0), cur_perf=perf(5e5, 200.0),
                must=("--perf-warn-only is set",))
        t.check("a waiver for another bench does not cover this one", card, card, 1,
                base_perf=perf(1e6, 100.0), cur_perf=perf(5e5, 200.0),
                waivers={"y": "other bench"}, must=("perf DRIFT",))
        t.check("a 10% dip stays inside the gate", card, card, 0,
                base_perf=perf(1e6, 100.0), cur_perf=perf(9e5, 110.0), must_not=("FAIL",))
        t.check("--no-perf skips perf", card, card, 0, flags=("--no-perf",),
                base_perf=perf(1e6, 100.0), cur_perf=perf(1e5, 1000.0),
                must_not=("FAIL", "perf drift"))
        t.check("an absent current sidecar skips perf", card, card, 0,
                base_perf=perf(1e6, 100.0), must_not=("FAIL",))
        t.check("an absent baseline sidecar skips perf", card, card, 0,
                cur_perf=perf(1e6, 100.0), must_not=("FAIL",))

        # --- malformed input: exit 2 naming the file, never 1 ---------------
        t.check("baseline that is not a scorecard", {"schema": 1}, card, 2,
                must=("base/BENCH_x.json: not a scorecard",))
        t.check("current that is not a scorecard", card, {"schema": 1}, 2,
                must=("cur/BENCH_x.json: not a scorecard",))
        t.check("current that is not an object", card, [1, 2], 2,
                must=("not a scorecard",))
        t.check("cells that are not an array", card, {"bench": "x", "cells": {}}, 2,
                must=("not a scorecard",))
        t.check("current cell without sim", card, {"bench": "x", "cells": [{"id": "c"}]}, 2,
                must=("cur/BENCH_x.json: cell 'c' has no numeric 'sim'",))
        t.check("current cell with a string sim", card,
                {"bench": "x", "cells": [{"id": "c", "sim": "1.0"}]}, 2,
                must=("has no numeric 'sim'",))
        t.check("baseline cell without id", {"bench": "x", "cells": [{"sim": 1.0}]}, card, 2,
                must=("base/BENCH_x.json: cell 0 has no string 'id'",))
        t.check("current cell with a numeric id", card,
                {"bench": "x", "cells": [{"id": 7, "sim": 1.0}]}, 2,
                must=("has no string 'id'",))
        t.check("current cell that is not an object", card, {"bench": "x", "cells": [3]}, 2,
                must=("has no string 'id'",))
        t.check("current cell with a string paper value", card,
                {"bench": "x", "cells": [{"id": "c", "sim": 1.0, "paper": "n/a"}]}, 2,
                must=("non-numeric 'paper'",))
        t.check("perf sidecar that is not an object", card, card, 2,
                base_perf=perf(1e6, 100.0), cur_perf=[1e6],
                must=("cur/BENCH_x.perf.json: not a perf sidecar",))
        t.check("perf sidecar whose perf member is not an object", card, card, 2,
                base_perf={"perf": 5}, cur_perf=perf(1e6, 100.0),
                must=("base/BENCH_x.perf.json: not a perf sidecar",))

    for failure in t.failures:
        print(failure)
    print(f"bench_check_selftest: {t.cases} case(s), {len(t.failures)} failure(s)")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
