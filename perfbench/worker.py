"""Workload process: runs sweeps of one workload for a fixed time and checks them.

run.py starts it in a fresh interpreter with ``PYTHONPATH=src``.  With
``--probe`` it stops after its imports, which load the package, and prints
``ready``; run.py times that as set-up.  Otherwise it writes a JSON result
file: one entry per sweep (wall and CPU seconds of the operations,
failures; the first is marked as the warm-up), the versions and environment
it ran with and its peak resident memory.  With ``--trace 1`` every second sweep runs under the span recorder,
and the result also holds per-layer metrics of each traced sweep.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import reftaylor
import reftaylor.cli
from reftaylor import expansion

from spans import Recorder, install, per_run_metrics, write_spans
from workloads import ORACLE_TOL, WORKLOADS, CliOp, build_ops

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# The package namespace binds the name ``registry`` to a function of that module.
registry = importlib.import_module("reftaylor.registry")


def expected_digests(seed):
    """Reference CSV digests that apply at ``seed``, by operation key."""
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    out = {}
    for key, by_seed in table.items():
        digest = by_seed.get("any", by_seed.get(str(seed)))
        if digest is not None:
            out[key] = digest
    return out


def run_op(op, seed, outdir):
    """Run one operation; returns what check_op needs."""
    if isinstance(op, CliOp):
        out = outdir / "op.csv"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = reftaylor.cli.run_main([*op.argv, "--seed", str(seed), "--output", str(out)])
        return code, out
    f = registry.lookup(op.function).field()
    a, h = np.array([op.a]), np.array([op.h])
    rep = expansion.refined_expansion(f, a, h, op.m)
    oracle = expansion.remainder_integral(f, a, h, op.m)
    return abs(oracle - (rep.exact - rep.approx))


def check_op(op, outcome, expected):
    """None when the operation's output is correct, else the reason it is not.

    A CSV must match its reference digest; without one, the first digest seen
    in this process becomes the reference, so repeated sweeps must agree.
    """
    if isinstance(op, CliOp):
        code, out = outcome
        if code != 0:
            return f"exit code {code}"
        if not out.is_file():
            return "no CSV written"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        reference = expected.setdefault(op.key, digest)
        if digest != reference:
            return f"CSV sha256 {digest} differs from {reference}"
        return None
    if not math.isfinite(outcome) or outcome > ORACLE_TOL:
        return f"oracle gap {outcome:.3e} exceeds {ORACLE_TOL:.0e}"
    return None


def run_sweep(ops, seed, outdir, expected):
    """Every operation once: (wall seconds, CPU seconds, failure messages).

    Only the calls into the package are timed, not the checks.
    """
    wall = cpu = 0.0
    failures = []
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outcome = run_op(op, seed, outdir)
            error = None
        except Exception as exc:  # one broken operation is a failure to count, not the end of the run
            error = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if error is None:
            error = check_op(op, outcome, expected)
        if error is not None:
            failures.append(f"{op.key}: {error}")
    return wall, cpu, failures


def run_workload(ops, seed, seconds, outdir, expected, recorder=None):
    """Sweeps until ``seconds`` have passed; with a recorder every odd sweep is traced.

    The first sweep is a warm-up, left out of the timings by run.py.  At
    least one untraced sweep, and with a recorder one traced sweep, follow it.
    """
    sweeps = []
    start = time.perf_counter()
    least = 2 if recorder is None else 3
    while True:
        traced = recorder is not None and len(sweeps) % 2 == 1
        if traced:
            recorder.run = len(sweeps)
            uninstall = install(recorder)
        try:
            wall, cpu, failures = run_sweep(ops, seed, outdir, expected)
        finally:
            if traced:
                uninstall()
        sweeps.append({"warmup": not sweeps, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "ops": len(ops), "failures": failures})
        if time.perf_counter() - start >= seconds and len(sweeps) >= least:
            return sweeps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", type=Path)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    if args.probe:
        print("ready", flush=True)
        return 0

    import scipy

    ops = build_ops(WORKLOADS[args.workload], args.seed)
    recorder = Recorder() if args.trace else None
    sweeps = run_workload(ops, args.seed, args.seconds, args.outdir,
                          expected_digests(args.seed), recorder)
    result = {
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "reftaylor": reftaylor.__version__,
            "REFTAYLOR_THREADS_set": "REFTAYLOR_THREADS" in os.environ,
        },
        "package": reftaylor.__file__,
        "ops": [op.key for op in ops],
        "sweeps": sweeps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        spans, calls, counts = recorder.collect()
        result["layers"] = list(per_run_metrics(spans, calls, counts).values())
        write_spans(args.outdir / "spans.csv", spans, calls)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
