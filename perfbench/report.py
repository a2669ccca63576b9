#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, with its unit and the
share of failed correctness checks; exits nonzero if any check failed.

    python3 perfbench/report.py [--seed 1] [--seconds 10] [--smoke]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    all_correct = True
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
            + (["--smoke"] if args.smoke else []),
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        cells = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
        cells.append(f"checks_failed_frac = {result['failed']}/{result['attempted']}"
                     f" = {result['failed'] / result['attempted']:.6g}")
        print(f"{workload['name']}: " + ", ".join(cells))
        all_correct &= result["correct"]
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
