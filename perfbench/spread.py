"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads block-phi cli-mix --seeds 1-10

Runs the benchmark once per seed and workload, one run at a time, with
BENCHMARK.json's ``run_seconds`` and tracing off, and prints for each
end-to-end metric the median of the runs and the distance between
their first and third quartiles as a share of that median, next to the
metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: correct=%s failed=%d/%d %s" % (
                workload, seed, result["correct"], result["failed"], result["attempted"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()
                         if k in bounds)), flush=True)
        for name, vals in values.items():
            if name not in bounds or len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = bounds[name]
            print("  %-12s median %10.5f  spread %6.3f  bound %s%s" % (
                name, med, spread, bound,
                "" if spread < bound / 3 else "  <-- above a third"))


if __name__ == "__main__":
    main()
