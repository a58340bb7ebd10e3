#!/usr/bin/env python3
"""Check a paper-size Figure-6 run against the paper's relationships and the
published table.

Reads the output of `bench_fig6_improvement` (at its defaults: 25 data
centers x 150 nodes x 3 CRACs, committed seeds) and fails unless

  * best-of-both improvement increases strictly from set 1 to set 2 to set 3;
  * in every set, best-of-both is at least each psi column;
  * every printed "mean ± half-width" equals the Figure-6 table in
    EXPERIMENTS.md digit for digit (plans are bit-identical, so any moved
    digit is a moved plan).

Exit status 0 when all hold, 1 otherwise, printing one line per failure.
Stdlib only.

Usage: bench_fig6_improvement | scripts/check_fig6.py [EXPERIMENTS.md]
       scripts/check_fig6.py [EXPERIMENTS.md] < fig6-output.txt
"""
import pathlib
import re
import sys

# One table row: "| set N: <label> | m ± h ... | m ± h ... | m ± h ... |".
# The bench prints "3.91 ± 0.50", EXPERIMENTS.md "3.91 ± 0.50 %".
ROW = re.compile(r"^\|\s*set (\d):[^|]*((?:\|\s*-?\d+\.\d+ ± \d+\.\d+[^|]*){3})\|")
CELL = re.compile(r"(-?\d+\.\d+) ± (\d+\.\d+)")
COLUMNS = ("psi=25", "psi=50", "best of both")


def parse_rows(text: str) -> dict:
    """Maps set number -> [(mean, half-width)] strings for the three columns."""
    rows = {}
    for line in text.splitlines():
        match = ROW.match(line.strip())
        if match:
            rows[int(match.group(1))] = CELL.findall(match.group(2))
    return rows


def figure6_section(experiments: str) -> str:
    start = experiments.index("## Figure 6")
    end = experiments.find("\n## ", start + 1)
    return experiments[start:] if end < 0 else experiments[start:end]


def main() -> int:
    experiments_path = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
    measured = parse_rows(sys.stdin.read())
    published = parse_rows(figure6_section(experiments_path.read_text()))

    failures = []
    if sorted(measured) != [1, 2, 3]:
        failures.append(f"expected rows for sets 1-3, got {sorted(measured)}")
    if sorted(published) != [1, 2, 3]:
        failures.append(f"{experiments_path}: expected a Figure-6 table for "
                        f"sets 1-3, got {sorted(published)}")
    if failures:
        print("\n".join(failures))
        return 1

    best = {s: float(measured[s][2][0]) for s in measured}
    for lo, hi in ((1, 2), (2, 3)):
        if not best[lo] < best[hi]:
            failures.append(f"best of both does not increase from set {lo} "
                            f"to set {hi}: {best[lo]} -> {best[hi]}")
    for s in (1, 2, 3):
        for column in (0, 1):
            if float(measured[s][column][0]) > best[s]:
                failures.append(f"set {s}: best of both {best[s]} is below "
                                f"{COLUMNS[column]} {measured[s][column][0]}")
        for column in range(3):
            if measured[s][column] != published[s][column]:
                failures.append(
                    f"set {s} {COLUMNS[column]}: measured "
                    f"{' ± '.join(measured[s][column])}, {experiments_path} "
                    f"says {' ± '.join(published[s][column])}")

    for failure in failures:
        print(failure)
    if not failures:
        print("Figure 6 relationships hold and the table matches "
              f"{experiments_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
