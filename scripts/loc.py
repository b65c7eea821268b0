#!/usr/bin/env python3
"""Count non-test Rust lines in the workspace.

Counts every line (code, comments and blanks alike) of every `.rs` file
under `crates/*/src` and `src/`, stopping each file at its unit-test
module: the first `#[cfg(test)]` line that is followed by `mod tests`.
The physical-frame allocator's test-only oracle files
(`paging/phys/differential.rs` and `paging/phys/reference.rs`) are left
out. Prints one line per crate and the total.

Usage: scripts/loc.py            (from anywhere inside the repository)
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXCLUDED = {"differential.rs", "reference.rs"}
TEST_MODULE = re.compile(r"\s*(pub(\(crate\))?\s+)?mod\s+tests\b")


def non_test_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            rest = [l for l in lines[i + 1 :] if l.strip()]
            if rest and TEST_MODULE.match(rest[0]):
                return i
    return len(lines)


def counted(path):
    return not (path.name in EXCLUDED and path.parent.parts[-2:] == ("paging", "phys"))


def main():
    roots = {"facil (src/)": ROOT / "src"}
    for src in sorted((ROOT / "crates").glob("*/src")):
        roots[src.parent.name] = src
    total = 0
    for name, src in roots.items():
        n = sum(non_test_lines(p) for p in sorted(src.rglob("*.rs")) if counted(p))
        total += n
        print(f"{name:>16} {n:>7,}")
    print(f"{'total':>16} {total:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
