"""Same-host A/B gate for bench_hotpath: this change vs its merge base.

    python3 .github/scripts/hotpath_ab.py BASE_BINARY NEW_BINARY

Runs PAIRS alternating pairs of `bench_hotpath ACCESSES` (base first
in even pairs, the change first in odd ones, so a drift in host load
hits both sides alike), each in a fresh directory so the committed
BENCH_hotpath.json is never overwritten. Reads the aggregate
accesses/sec of every run and fails (exit 1) only if the change's
median falls below FLOOR times the base median. Both binaries run on
this host in one job, so no number recorded elsewhere enters the gate.
"""

import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 9
ACCESSES = 20000
FLOOR = 0.9


def aggregate_rate(binary):
    binary = os.path.abspath(binary)
    with tempfile.TemporaryDirectory() as cwd:
        out = subprocess.run([binary, str(ACCESSES)], cwd=cwd,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "aggregate":
            return float(fields[4])
    print(f"no aggregate line in the output of {binary}")
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} BASE_BINARY NEW_BINARY")
        return 2
    binaries = {"base": sys.argv[1], "new": sys.argv[2]}

    rates = {"base": [], "new": []}
    for pair in range(PAIRS):
        order = ("base", "new") if pair % 2 == 0 else ("new", "base")
        for side in order:
            rates[side].append(aggregate_rate(binaries[side]))
        print(f"pair {pair + 1}: base {rates['base'][-1]:.0f} acc/s, "
              f"new {rates['new'][-1]:.0f} acc/s")
    base = statistics.median(rates["base"])
    new = statistics.median(rates["new"])
    ratio = new / base if base else float("inf")
    print(f"median base {base:.0f} acc/s, new {new:.0f} acc/s, "
          f"ratio {ratio:.2f}x (gate: {FLOOR}x)")
    return 0 if ratio >= FLOOR else 1


if __name__ == "__main__":
    sys.exit(main())
