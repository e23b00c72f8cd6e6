"""Run the benchmark over several seeds and print each metric's spread.

    python3 benchmark/spread.py --workload train-cd --seeds 1-10 [--trace 0]

For each metric: the median, and the distance between the first and the
third quartile (statistics.quantiles, n=4) as a share of the median, which
BENCHMARK.json's bound must exceed. The run length comes from
BENCHMARK.json; the results of every run go to
.bench_out/spread-<workload>-trace<n>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    raw = ROOT / ".bench_out" / f"spread-{args.workload}-trace{args.trace}.json"
    raw.write_text(json.dumps(runs, indent=1) + "\n")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share < bound / 3 else "  <-- above bound/3"
        print(f"{name:36s} median {med:14.6g}  iqr/median {share:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
