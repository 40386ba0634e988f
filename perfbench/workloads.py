"""The benchmark's workloads: what each one runs, and why it was chosen.

A workload is a fixed list of operations run in order; one pass over the list
is a sweep.  An operation is either one CLI invocation (through
``reftaylor.cli.run_main``) or one integral-oracle check (``remainder_integral``
against ``refined_expansion``).  The seed reaches the program only as the CLI's
``--seed`` flag and as the oracle segments drawn here.

Sizes are the paper-style sweeps scaled down so that one sweep takes one to
two seconds on a 2-core machine and a 40 s run holds fifteen or more sweeps,
while the layer that dominates each workload stays the same.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0

# Acceptance criterion 4: the oracle must reproduce exact - approx this closely.
ORACLE_TOL = 1e-9
ORACLE_FUNCTIONS = ("exp1d", "sin1d", "quad1d", "cubic1d", "classP(beta=0.75)")
ORACLE_M = (1, 4, 16, 64)


@dataclass(frozen=True)
class CliOp:
    """One ``reftaylor`` CLI invocation; ``--seed`` and ``--output`` are added when run."""

    argv: tuple

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass(frozen=True)
class OracleOp:
    """Check remainder_integral against exact - approx of refined_expansion."""

    function: str
    a: float
    h: float
    m: int

    @property
    def key(self):
        return f"oracle {self.function} a={self.a!r} h={self.h!r} m={self.m}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cli: tuple
    oracle: bool = False


def _cli(text):
    return CliOp(tuple(text.split()))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simplex-sweep",
            "point location and interpolant evaluation on 2D and 3D meshes, plus the 3D Kuhn "
            "mesh build; no FEM code runs",
            (
                _cli("simplex --function sinsin2d --subdivisions 4,8,16 --points 150"),
                _cli("simplex --function quad3d --subdivisions 2,4,8 --points 2"),
            ),
        ),
        Workload(
            "fem-sweep",
            "P1/P2 mesh build, topology, DOF tables, assembly, dense-LU and CG solves and L2 "
            "norms; no point location",
            (
                _cli("fem --dim 2 --space P1 --subdivisions 16,32,64"),
                _cli("fem --dim 2 --space P2 --subdivisions 8,16,32"),
            ),
        ),
        Workload(
            "expansion",
            "scalar field calls and Gauss panels: sampled and analytic expansion bounds plus "
            "the integral oracle; no meshes",
            (
                _cli("expand --function runge --m 1,10,100,1000,10000 --samples 10001"),
                _cli("expand --function exp3d --kind open --m 1,10,100,1000,10000"),
            ),
            oracle=True,
        ),
    )
}


def oracle_segments(seed):
    """One segment (a, h) per oracle function, drawn from the seed."""
    from reftaylor.registry import lookup

    rng = np.random.default_rng([seed, 4])
    segments = []
    for name in ORACLE_FUNCTIONS:
        (lo, hi), = lookup(name).box
        while True:
            a, b = sorted(rng.uniform(lo, hi, 2))
            h = min(b - a + 1e-3, hi - a)
            if h > 0.0:
                break
        segments.append((name, float(a), float(h)))
    return segments


def build_ops(workload, seed):
    """The operations of one sweep, in order."""
    ops = list(workload.cli)
    if workload.oracle:
        ops.extend(
            OracleOp(name, a, h, m) for name, a, h in oracle_segments(seed) for m in ORACLE_M
        )
    return ops
