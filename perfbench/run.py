#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
simulator libraries and the benchmark binary (perfbench.cc) into
.bench_build/perfbench; later calls rebuild only what changed. Result
files and traces go to .bench_build/results. The last line of stdout is
the benchmark binary's JSON result; build output goes to stderr.

--smoke runs every workload of BENCHMARK.json once, at tiny lengths,
untraced and traced, and fails unless each prints exactly the metrics
BENCHMARK.json names, with their units.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "perfbench"
SEEDS = json.loads((BENCH_DIR / "seeds.json").read_text())
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's (and LTO's) temporary files inside the tree.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def source_digest():
    """sha256 over the simulator and benchmark sources, so a result can
    be tied to its code where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Run the benchmark binary once; return (exit code, stdout lines)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT_DIR), "--source-digest", source_digest()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, lines = run_bench(w["name"], SEEDS["default"], 0.2,
                                     trace, smoke=True)
            what = f"{w['name']} trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{what}: perfbench exited {code}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{what}: missing {missing}, unexpected "
                                f"{extra}, wrong unit {units}")
            if not result["correct"]:
                problems.append(f"{what}: correctness checks failed")
            print(f"smoke {what}: {len(got)} metrics, "
                  f"correct={result['correct']}")
    for p in problems:
        print(f"smoke FAILED: {p}")
    print(json.dumps({"smoke": "fail" if problems else "ok"}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    code, lines = run_bench(args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    if code != 0:
        log(f"perfbench exited {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
