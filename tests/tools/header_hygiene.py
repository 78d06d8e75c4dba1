#!/usr/bin/env python3
"""Header self-sufficiency check: every public header must compile as a
standalone translation unit (include-what-you-use at the TU level).

For each `*.hpp` under the given roots this writes a one-line TU
`#include "<relative path>"` and runs `$CXX -fsyntax-only` on it.  A
header that leans on transitively-included names fails here long before
it breaks an unrelated caller.

Discovery is dynamic (an rglob per root), so new directories are swept
the moment they appear.  That cuts both ways: a typo'd root or a moved
tree silently shrinks coverage to zero.  --expect-dir pins named
subtrees — the run fails unless each one contributed at least one
header.

A root named `src` is also swept for unused headers: a `src/**/*.hpp`
that nothing includes except its own `.cpp` fails the run.  Includers
count only from the production trees next to it (src/, tools/, bench/,
perfbench/, examples/), so a module only tests reach is flagged too.

Usage:
  header_hygiene.py --compiler g++ --std c++20 -I src -I tools \\
      --expect-dir src/concurrency src [more roots]
"""

from __future__ import annotations

import argparse
import concurrent.futures
import re
import subprocess
import sys
import tempfile
from pathlib import Path


def check_header(compiler: str, std: str, includes: list[str], root: Path,
                 header: Path) -> tuple[Path, str | None]:
    rel = header.relative_to(root).as_posix()
    with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as tu:
        tu.write(f'#include "{rel}"\n')
        tu_path = tu.name
    cmd = [compiler, f"-std={std}", "-fsyntax-only", "-Wall", "-Wextra"]
    for inc in includes:
        cmd += ["-I", inc]
    cmd += ["-x", "c++", tu_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as e:
        return header, f"failed to run compiler: {e}"
    finally:
        Path(tu_path).unlink(missing_ok=True)
    if proc.returncode != 0:
        return header, proc.stderr.strip() or f"exit {proc.returncode}"
    return header, None


# Trees whose includes keep a src/ header alive (tests/ deliberately
# absent), and the quoted-include form they use.
INCLUDER_DIRS = ("src", "tools", "bench", "perfbench", "examples")
INCLUDER_SUFFIXES = {".hpp", ".cpp"}
INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"([^"]+)"', re.MULTILINE)


def unused_headers(src_root: Path) -> list[Path]:
    """Headers under `src_root` included by nothing but their own .cpp.

    An include resolves relative to the including file's directory or to
    `src_root`, the two forms the tree uses."""
    src_root = src_root.resolve()
    headers = {h.resolve() for h in src_root.rglob("*.hpp")}
    used: set[Path] = set()
    for name in INCLUDER_DIRS:
        tree = src_root.parent / name
        if not tree.is_dir():
            continue
        for source in tree.rglob("*"):
            if source.suffix not in INCLUDER_SUFFIXES or not source.is_file():
                continue
            source = source.resolve()
            text = source.read_text(encoding="utf-8", errors="replace")
            for inc in INCLUDE_RE.findall(text):
                for base in (source.parent, src_root):
                    target = (base / inc).resolve()
                    if target in headers and source not in (target, target.with_suffix(".cpp")):
                        used.add(target)
    return sorted(headers - used)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", type=Path,
                    help="directories scanned for *.hpp; includes resolve "
                    "relative to each root")
    ap.add_argument("--compiler", default="c++")
    ap.add_argument("--std", default="c++20")
    ap.add_argument("-I", dest="includes", action="append", default=[],
                    help="extra include directory (repeatable)")
    ap.add_argument("--jobs", type=int, default=8)
    ap.add_argument("--expect-dir", dest="expect_dirs", action="append",
                    default=[], metavar="DIR",
                    help="POSIX path fragment that must contribute at least "
                    "one header (repeatable); guards the dynamic discovery "
                    "against silently sweeping nothing")
    args = ap.parse_args(argv)

    work = []
    per_root: dict[str, int] = {}
    for root in args.roots:
        if not root.is_dir():
            print(f"header_hygiene: no such directory: {root}", file=sys.stderr)
            return 2
        includes = [str(root)] + args.includes
        headers = sorted(root.rglob("*.hpp"))
        per_root[str(root)] = len(headers)
        for header in headers:
            work.append((root, includes, header))
    if not work:
        print("header_hygiene: no headers found", file=sys.stderr)
        return 2

    missing = [
        frag for frag in args.expect_dirs
        if not any(frag in header.as_posix() for _, _, header in work)
    ]
    if missing:
        for frag in missing:
            print(f"header_hygiene: --expect-dir {frag} contributed no "
                  "headers (moved? typo?)", file=sys.stderr)
        return 2
    counts = ", ".join(f"{r}: {n}" for r, n in sorted(per_root.items()))
    print(f"header_hygiene: discovered {len(work)} headers ({counts})",
          file=sys.stderr)

    failures = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [
            pool.submit(check_header, args.compiler, args.std, includes, root, header)
            for root, includes, header in work
        ]
        for fut in concurrent.futures.as_completed(futures):
            header, err = fut.result()
            if err is not None:
                failures.append((header, err))

    failures.sort(key=lambda f: str(f[0]))
    for header, err in failures:
        print(f"FAIL {header}\n{err}\n")
    print(f"header_hygiene: {len(work) - len(failures)}/{len(work)} headers "
          "self-sufficient", file=sys.stderr)

    unused = [h for root in args.roots if root.resolve().name == "src"
              for h in unused_headers(root)]
    for header in unused:
        print(f"UNUSED {header}: nothing in {', '.join(INCLUDER_DIRS)} includes it "
              "except its own .cpp")
    print(f"header_hygiene: {len(unused)} unused src/ headers", file=sys.stderr)
    return 1 if failures or unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
