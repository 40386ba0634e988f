"""Run the benchmark over several seeds and write a baseline record.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Run it from the root of a checkout.  For each workload it runs run.py for
BENCHMARK.json's ``run_seconds``, one run after another, with ``--runs``
consecutive seeds from ``--first-seed`` and ``--trace 0``, then once with
``--trace 1`` at the default seed.  For every end-to-end metric it records
the values, their median and quartiles, and the quartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json; the traced
run gives the per-layer values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    """The final JSON object of one run and the fuller record it wrote."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    record = Path(".perfbench") / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text(encoding="utf-8"))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        results = [result for result, _ in runs]
        entry = {"why": WORKLOADS[workload].why, "seeds": seeds, "inputs": runs[0][1]["inputs"],
                 "environment": runs[0][1]["environment"]}
        for name, bound in bounds.items():
            entry[name] = {**spread([r["metrics"][name]["value"] for r in results]),
                           "unit": results[0]["metrics"][name]["unit"], "bound": bound}
            print(f"{workload:14s} {name:12s} median {entry[name]['median']:.4f} "
                  f"spread {entry[name]['spread']:.4f} (bound {bound})", flush=True)
        traced, _ = run_once(workload, DEFAULT_SEED, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
