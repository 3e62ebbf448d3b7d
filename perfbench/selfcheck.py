"""Check that the traced counts repeat exactly across two runs of one seed.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

Runs ``run.py --trace 1`` twice per workload (by default every workload in
BENCHMARK.json) and compares the counts below, plus the output digest.
Exits with status 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPEAT_COUNTS = (
    "lsap.calls",
    "graphs.transformations",
    "costs.calls",
    "solvers.solves",
    "median.iterations",
    "harness.distance_evals",
)
WORKLOADS = [w["name"] for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]]


def traced_run(workload, seed):
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", "1",
    ]
    out = subprocess.run(command, capture_output=True, text=True, check=True, timeout=900).stdout
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {name: result["metrics"][name]["value"] for name in REPEAT_COUNTS}
    return counts, record["digest"], result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        same = first == second and first[2]
        ok &= same
        print(f"{workload} seed={args.seed} {'repeat' if same else 'DIFFER'}: {first[0]} digest={first[1][:16]}")
        if not same:
            print(f"  second run: {second[0]} digest={second[1][:16]} correct={second[2]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
