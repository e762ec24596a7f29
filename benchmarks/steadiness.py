"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 benchmarks/steadiness.py --workload desk --seeds 10 [--first-seed 1]

Runs run.py for run_seconds once per seed and prints, per end-to-end metric, the
median of the run values and the spread: the distance between the first and
the third quartile (statistics.quantiles, n=4) as a share of that median,
next to the metric's bound in BENCHMARK.json. The runs' final lines are kept
in out/steadiness-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)
    print(f"{'metric':<14}{'median':>12}{'spread':>10}{'bound':>8}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:<14}{median:>12.5g}{(q3 - q1) / median:>10.3f}{bound:>8}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.workload}.json").write_text(json.dumps(runs))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
