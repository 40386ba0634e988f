"""reftaylor benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload fem-sweep --seed 3 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Workloads are defined in workloads.py.  Each run starts fresh
interpreters: without ``--trace``, a few that only import the package
(set-up); then one that runs the workload's sweeps closed-loop, one after
another, for ``--seconds`` and checks every output.  ``REFTAYLOR_THREADS`` is
removed from their environment, so the package uses its default thread pool.

``sweep_s`` and ``cpu_s`` are the mean over the sweeps after the first, which
is a warm-up: the run's total time over its sweep count.  The median and the
tail percentile are printed beside them.  On a shared host, speed changes in
phases of tens of seconds; a run's median jumps between the fast and the slow
phase, while its mean moves with the share of time spent in each, so means
vary less from run to run.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
sweeps with ``--trace 1``.  A fuller record, with the environment, is written
to ``.perfbench/<workload>-seed<seed>-trace<trace>.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120  # beyond --seconds: the last sweep, the checks and writing results

END_TO_END = (
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail_percentile(values):
    """(percentile, value) of the highest order statistic with ten values above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _worker_env(root):
    env = dict(os.environ)
    env.pop("REFTAYLOR_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def measure_setup(root, env):
    """Seconds from starting an interpreter to the package being imported."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("set-up probe did not exit") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_worker(root, env, args, scratch):
    result_path = scratch / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--outdir", str(scratch), "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process timed out") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def summarise(args, result, setup):
    """(human-readable lines, metrics, attempted, failed) for the final JSON object."""
    sweeps = result["sweeps"]
    timed = [s for s in sweeps if not s["warmup"]]
    plain = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    attempted = sum(s["ops"] for s in sweeps)
    failed = sum(len(s["failures"]) for s in sweeps)
    walls = [s["wall_s"] for s in plain]
    lines = [f"workload {args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}"]
    if args.trace:
        layers = {name: statistics.median(run[name] for run in result["layers"])
                  for name, _ in METRICS if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.fmean(s["wall_s"] for s in traced)
                                      - statistics.fmean(walls))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRICS}
        lines.append(f"per-layer medians over {len(traced)} traced sweeps "
                     f"(mean of {len(plain)} untraced sweeps for trace.overhead_s):")
        lines.extend(f"  {name:34s} {layers[name]:.6g} {unit}" for name, unit in METRICS)
    else:
        values = {
            "sweep_s": statistics.fmean(walls),
            "cpu_s": statistics.fmean(s["cpu_s"] for s in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        tail = tail_percentile(walls)
        tail_text = (f", p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else ", no percentile with ten sweeps above it")
        lines += [
            f"  sweep_s      mean {values['sweep_s']:.4f} s, median {statistics.median(walls):.4f} s"
            f"{tail_text} (n={len(walls)} sweeps after 1 warm-up)",
            f"  cpu_s        mean {values['cpu_s']:.4f} s (n={len(walls)} sweeps)",
            f"  setup_s      median {values['setup_s']:.4f} s (n={len(setup)} fresh processes)",
            f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
        ]
    lines.append(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.6g}")
    messages = [message for sweep in sweeps for message in sweep["failures"]]
    lines.extend(f"  FAILED {message}" for message in messages[:5])
    return lines, metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "reftaylor" / "__init__.py").is_file():
        print("error: run from the root of a reftaylor checkout (no src/reftaylor here)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench"
    scratch = work / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    env = _worker_env(root)
    try:
        setup = [] if args.trace else [measure_setup(root, env) for _ in range(SETUP_PROBES)]
        result = run_worker(root, env, args, scratch)
        lines, metrics, attempted, failed = summarise(args, result, setup)
        if args.trace:
            shutil.copyfile(scratch / "spans.csv", work / f"{args.workload}-spans.csv")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": result["ops"],
        "environment": {**result["environment"], "nproc": os.cpu_count()},
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup,
        "sweeps": result["sweeps"],
    }
    (work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
