"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --workload scan_q --runs 10 --seconds 20

Runs the benchmark once per seed (first-seed, first-seed + 1, ...), one run
at a time, and prints for each end-to-end metric the median, the quartiles
(statistics.quantiles, n=4), the min and max, and the quartile spread as a
share of the median. The bounds in BENCHMARK.json are set from this output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds):
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "spread": (q3 - q1) / q2}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    table = {name: summary(v) for name, v in values.items()}
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}{'spread':>9}")
    for name, s in table.items():
        print(f"{name:<16}" + "".join(f"{s[k]:>12.6g}" for k in ("median", "q1", "q3", "min", "max")) + f"{s['spread']:>9.4f}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": args.seconds, "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
