"""Run every workload of the benchmark, untraced and traced, and fail if
any run fails, reports a failed check or operation, or prints a metric
set that differs from BENCHMARK.json.

    python3 bench/suite.py                         # desk-size smoke run, about 20 s
    python3 bench/suite.py --scale full --seed 1   # the measured sizes, a few minutes

Run from the repository root. The smoke run exercises every generator,
command, check and metric at desk size, so the benchmark cannot rot
silently; its timings mean nothing.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path.cwd()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"]) if args.scale == "full" else "1"
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    # every workload run.py knows, including train-desk, which BENCHMARK.json
    # leaves out of the gated set as too noisy
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                    "--seconds", seconds, "--trace", str(trace), "--scale", args.scale]
            argv[0] = sys.executable
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
    for problem in problems:
        print(f"SUITE FAILED: {problem}", file=sys.stderr)
    print("suite", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
