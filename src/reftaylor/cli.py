"""Command-line front end: sweep studies written as CSV tables.

Five study commands plus a registry listing:

    expand    remainder of the averaged-derivative expansion over m
    interp1d  classical vs refined 1D interpolation bounds over beta
    simplex   mesh interpolation error vs bounds over subdivisions
    fem       Galerkin L2 error vs the a-priori chains over subdivisions
    savings   tolerance-driven mesh-size arithmetic over eps
    registry  list the named test fields, optionally self-test them

Every study writes one CSV (12 significant digits, scientific notation,
header row, rows sorted by the first column) and a key=value manifest next
to it echoing the configuration, the seed and the study's wall time (the
writes are not in it).  Given the same configuration and seed the CSV bytes
are identical run to run; the manifest is not, since it carries the wall
time.  Both files are written as new files: whatever was at the path before
is unlinked first, so a symlink there is replaced rather than followed and a
hard link to an old output keeps the old bytes.  Flags may come from a flat
key=value config file via --config, with explicit flags winning.

Each command's options and their defaults are written once, in _COMMANDS,
and each option's flag once, in _FLAGS; the parser and StudyConfig share
them, so `reftaylor fem` and StudyConfig("fem") run the same study.
Config-file keys are flag names without the dashes (`m = 1,2,4`); the
manifest names options as StudyConfig does (`m_values = 1,2,4`).

While building rows, entries with analytic derivative norms are checked
against their bounds; a violation aborts the run with exit code 2.  Exit
codes: 0 success, 1 usage, 2 numeric failure, 3 I/O failure.
"""

import argparse
import copy
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from .expansion import estimate_segment_bounds, refined_expansion, taylor_first_order
from .fields import sampled_derivative_norms
from .interp1d import (
    ClassPParams,
    Interval,
    class_p_field,
    class_p_sup_norms,
    compare_bounds,
    rate_for_beta,
)
from .registry import UnknownFieldError, lookup, registry, registry_selftest
from .simplex import InterpBounds, MeshInterpolant, mesh_savings, uniform_mesh

__all__ = [
    "StudyConfig",
    "UsageError",
    "NumericFailure",
    "run",
    "run_main",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_NUMERIC",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

SINE_D1 = math.pi     # sup |grad| of the manufactured product-of-sines solution
SINE_D2 = math.pi**2  # sup |D2|, both dims

# slack applied when enforcing measured <= bound on analytic entries
_ENFORCE_REL = 1e-9
_ENFORCE_ABS = 1e-15

_SELFTEST_TOL = 1e-6


class UsageError(Exception):
    """Bad flags, config keys or argument values."""


class NumericFailure(RuntimeError):
    """A measured value escaped its bound, a cell went non-finite, or a solve failed."""


class StudyConfig:
    """One study run: the command plus the options it reads.

    StudyConfig(command, **options) holds the command's options from
    _COMMANDS, an output_path and a seed.  Options left out take the
    command's defaults, the same ones the flags have; output_path defaults to
    "<command>.csv" and seed to 0.  An option the command does not read is a
    UsageError.
    """

    def __init__(self, command, **options):
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        _, _, defaults = _COMMANDS[command]
        defaults = {**defaults, "output_path": f"{command}.csv", "seed": 0}
        unread = sorted(options.keys() - defaults.keys())
        if unread:
            raise UsageError(f"{command} does not read {', '.join(unread)}")
        self.command = command
        for name, default in defaults.items():
            setattr(self, name, copy.copy(options.get(name, default)))

    def validate(self):
        # nan and +-inf fail every real-valued option, as they fail its flag's parser
        for option, (flag, parse, _) in _FLAGS.items():
            if parse in (_real, _real_list, _pair) and option in vars(self):
                value = getattr(self, option)
                try:
                    finite = np.isfinite(value).all()
                except TypeError:
                    raise UsageError(f"{flag} must be real, got {value!r}") from None
                if not finite:
                    raise UsageError(f"{flag} must be finite, got {_echo(value)}")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.command == "expand":
            self._require_function()
            self._require_list("m", self.m_values, minimum=1)
            if self.kind not in ("closed", "open"):
                raise UsageError(f"kind must be 'closed' or 'open', got {self.kind!r}")
            if self.samples < 2:
                raise UsageError("samples must be at least 2")
        elif self.command == "interp1d":
            self._require_list("beta", self.beta_values)
            if not all(beta > 0.5 for beta in self.beta_values):
                raise UsageError("beta values must exceed 0.5")
            if not self.forcing > 0:
                raise UsageError("forcing must be positive")
            if self.grid < 3:
                raise UsageError("grid must be at least 3")
            if not self.interval[0] < self.interval[1]:
                raise UsageError("interval must satisfy a < b")
        elif self.command == "simplex":
            self._require_function()
            self._require_list("subdivisions", self.subdivisions, minimum=1)
            if self.points < 1:
                raise UsageError("points must be at least 1")
        elif self.command == "fem":
            if self.dim not in (1, 2):
                raise UsageError(f"fem dim must be 1 or 2, got {self.dim}")
            self._require_list("subdivisions", self.subdivisions, minimum=1)
            if self.space not in ("P1", "P2"):
                raise UsageError(f"space must be P1 or P2, got {self.space!r}")
            if not self.diffusion > 0:
                raise UsageError("diffusion must be positive")
            if not self.reaction >= 0:
                raise UsageError("reaction must be nonnegative")
        elif self.command == "savings":
            self._require_list("eps", self.eps_values)
            if not all(eps > 0 for eps in self.eps_values):
                raise UsageError("eps values must be positive")
            if self.dim not in (1, 2, 3):
                raise UsageError(f"savings dim must be 1, 2 or 3, got {self.dim}")
            if not (self.d2_inf > 0 and self.big_c > 0 and self.alpha > 0):
                raise UsageError("d2, C and alpha must be positive")

    def _require_function(self):
        if not self.function:
            raise UsageError(f"{self.command} needs --function")

    def _require_list(self, label, values, minimum=None):
        if not values:
            raise UsageError(f"--{label} list must be nonempty")
        if minimum is not None and min(values) < minimum:
            raise UsageError(f"--{label} values must be >= {minimum}")


# -------------------------------------------------------------- helpers


def _map_ordered(fn, items):
    """fn over items, in order.

    A named function rather than an inline comprehension because the
    benchmark's tracer (perfbench/spans.py) hooks it by name to time each row.
    """
    return [fn(item) for item in items]


def _enforce(measured, bound, context):
    if measured > bound * (1.0 + _ENFORCE_REL) + _ENFORCE_ABS:
        raise NumericFailure(f"{context}: measured {measured:.6e} exceeds bound {bound:.6e}")


def _grid_points(box):
    """Deterministic probe grid for sampled derivative norms."""
    box = np.asarray(box, dtype=float)
    per_axis = {1: 201, 2: 41, 3: 17}[len(box)]
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


# --------------------------------------------------------- row builders


def _expand_rows(cfg):
    entry = lookup(cfg.function)
    f = entry.field()
    a, h = entry.segment
    if entry.analytic:
        seg = entry.segment_bounds
    else:
        seg = estimate_segment_bounds(f, a, h, samples=cfg.samples)
    base = taylor_first_order(f, a, h, bounds=seg)
    classical = max(abs(base.bound_lo), abs(base.bound_hi))

    def one(m):
        rep = refined_expansion(f, a, h, m, kind=cfg.kind, bounds=seg)
        if entry.analytic:
            if not (rep.bound_lo - _ENFORCE_ABS <= rep.remainder_eps <= rep.bound_hi + _ENFORCE_ABS):
                raise NumericFailure(
                    f"{entry.name} m={m}: remainder {rep.remainder_eps:.6e} escapes "
                    f"[{rep.bound_lo:.6e}, {rep.bound_hi:.6e}]"
                )
        measured = abs(rep.remainder_eps)
        magnitude = max(abs(rep.bound_lo), abs(rep.bound_hi))
        width = rep.bound_hi - rep.bound_lo
        ratio = measured / magnitude if magnitude > 0 else 0.0
        return (float(m), measured, classical, magnitude, width, ratio)

    header = ["m", "measured_abs_eps", "bound_classical", "bound_refined", "bound_width", "ratio"]
    return header, _map_ordered(one, sorted(set(cfg.m_values)))


def _interp1d_rows(cfg):
    iv = Interval(*cfg.interval)

    def one(beta):
        try:
            params = ClassPParams(
                rate=rate_for_beta(beta, iv), forcing=cfg.forcing, slope_at_a=cfg.slope
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        fld = class_p_field(params, iv)
        f1, f2 = class_p_sup_norms(params, iv)
        comp = compare_bounds(fld, iv, f1, f2, grid=cfg.grid)
        _enforce(comp.measured_sup_error, min(comp.classical, comp.refined), f"beta={beta:g}")
        return (
            beta,
            comp.measured_sup_error,
            comp.classical,
            comp.refined,
            0.5 * comp.classical,
            comp.refined / comp.classical,
        )

    header = ["beta", "measured_sup_error", "bound_classical", "bound_refined", "bound_floor", "ratio"]
    return header, _map_ordered(one, sorted(set(cfg.beta_values)))


def _simplex_rows(cfg):
    entry = lookup(cfg.function)
    f = entry.field()
    box = np.asarray(entry.box, dtype=float)
    if entry.analytic:
        d1, d2 = entry.d1_inf, entry.d2_inf
    else:
        d1, d2 = sampled_derivative_norms(f, _grid_points(box))
    lo, span = box[:, 0], box[:, 1] - box[:, 0]

    def one(k):
        mesh = uniform_mesh(entry.box, entry.dim, k)
        bounds = InterpBounds(mesh.mesh_size, d1, d2)
        plain = MeshInterpolant(mesh, f)
        star = MeshInterpolant(mesh, f, corrected=True)
        rng = np.random.default_rng([cfg.seed, k])
        pts = lo + rng.random((cfg.points, entry.dim)) * span
        vals = f.value_at(pts)
        err = max(abs(plain(p) - v) for p, v in zip(pts, vals))
        err_star = max(abs(star(p) - v) for p, v in zip(pts, vals))
        if entry.analytic:
            _enforce(err, bounds.combined, f"{entry.name} k={k} plain")
            _enforce(err_star, bounds.corrected, f"{entry.name} k={k} corrected")
        ratio = err / bounds.combined if bounds.combined > 0 else 0.0
        return (mesh.mesh_size, err, bounds.classical, bounds.refined, bounds.corrected, ratio)

    header = ["h", "measured_sup_error", "bound_classical", "bound_refined", "bound_corrected", "ratio"]
    return header, _map_ordered(one, sorted(set(cfg.subdivisions)))


def _fem_rows(cfg):
    # fem loads scipy; only this study needs it.
    from .fem import SolverError, estimate_report, sine_problem

    problem = sine_problem(cfg.dim, diffusion=cfg.diffusion, reaction=cfg.reaction)
    factor = problem.stability_factor

    def one(k):
        mesh = uniform_mesh([(0.0, 1.0)] * cfg.dim, cfg.dim, k)
        rep = estimate_report(problem, mesh, cfg.space, SINE_D1, SINE_D2)
        if cfg.space == "P1":
            applicable = min(rep.cea_rhs_classical, rep.cea_rhs_refined)
        else:
            applicable = rep.cea_rhs_corrected
        _enforce(rep.measured_interp_error, applicable / factor, f"k={k} interpolation")
        _enforce(rep.measured_solution_error, applicable, f"k={k} solution")
        return (
            rep.h,
            rep.measured_solution_error,
            rep.cea_rhs_classical,
            rep.cea_rhs_refined,
            rep.cea_rhs_corrected,
            rep.measured_solution_error / applicable,
        )

    header = ["h", "measured_l2_error", "bound_classical", "bound_refined", "bound_corrected", "ratio"]
    try:
        return header, _map_ordered(one, sorted(set(cfg.subdivisions)))
    except SolverError as exc:
        raise NumericFailure(str(exc)) from exc


def _savings_rows(cfg):
    def one(eps):
        s = mesh_savings(eps, cfg.d2_inf, cfg.big_c, cfg.alpha, cfg.dim)
        return (
            eps,
            s["h_classical"],
            s["h_corrected"],
            s["h_corrected"] / s["h_classical"],
            s["node_factor"],
        )

    header = ["eps", "h_classical", "h_corrected", "ratio", "node_factor"]
    return header, _map_ordered(one, sorted(set(cfg.eps_values)))


# --------------------------------------------------------------- output


def _format_cell(value):
    value = float(value)
    if not math.isfinite(value):
        raise NumericFailure("non-finite value in output table")
    return f"{value:.11e}"


def _echo(value):
    if isinstance(value, (list, tuple)):
        return ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in value)
    return str(value)


def _write_lines(path, lines):
    """Write lines to path as a new file.

    Truncating a file that was just written makes the file system flush its
    old data first (tens of ms on ext4); unlinking it does not.  Mode "x"
    then refuses to follow a symlink put back at the path in between.
    """
    Path(path).unlink(missing_ok=True)
    with open(path, "x", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_registry(cfg, out):
    print("name,dim,analytic", file=out)
    for entry in registry():
        print(f"{entry.name},{entry.dim},{str(entry.analytic).lower()}", file=out)
    if not cfg.selftest:
        return
    report = registry_selftest(seed=cfg.seed)
    failures = []
    for name, worst in sorted(report.items()):
        verdict = "PASS" if worst <= _SELFTEST_TOL else "FAIL"
        print(f"selftest {name}: max gradient error {worst:.3e} {verdict}", file=out)
        if worst > _SELFTEST_TOL:
            failures.append(name)
    if failures:
        raise NumericFailure(f"registry selftest failed for: {', '.join(failures)}")


def run(cfg, out=None):
    """Execute one study; returns EXIT_OK or raises a mapped exception."""
    out = sys.stdout if out is None else out
    cfg.validate()
    if cfg.command == "registry":
        _run_registry(cfg, out)
        return EXIT_OK
    start = time.perf_counter()
    _, build_rows, _ = _COMMANDS[cfg.command]
    header, rows = build_rows(cfg)
    rows = sorted(rows, key=lambda row: row[0])
    table = [",".join(header)] + [",".join(map(_format_cell, row)) for row in rows]
    wall_time = time.perf_counter() - start
    _write_lines(cfg.output_path, table)
    # the manifest echoes the config's own options, so its keys are StudyConfig names
    manifest = [f"{key} = {_echo(value)}" for key, value in sorted(vars(cfg).items())]
    manifest += [f"rows = {len(rows)}", f"wall_time_s = {wall_time:.6f}"]
    _write_lines(cfg.output_path + ".manifest", manifest)
    print(f"wrote {len(rows)} rows to {cfg.output_path}", file=out)
    return EXIT_OK


# ------------------------------------------------------------- the parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _real(text):
    """float(text), refusing nan and +-inf: the parser of every real-valued flag."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


# argparse words a ValueError as "invalid <type name> value: ..."
_real.__name__ = "float"


def _comma_list(parse, noun):
    def parse_list(text):
        try:
            return [parse(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse_list


_int_list = _comma_list(int, "integers")
_real_list = _comma_list(_real, "reals")


def _pair(text):
    values = _real_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals, got {text!r}")
    return tuple(values)


# StudyConfig option -> (flag, value parser, help); a parser of None makes a switch
_FLAGS = {
    "function": ("--function", str, "registry field name"),
    "m_values": ("--m", _int_list, "comma list of point counts"),
    "kind": ("--kind", str, "weight family: closed or open"),
    "samples": ("--samples", int, "samples for non-analytic bounds"),
    "beta_values": ("--beta", _real_list, None),
    "forcing": ("--forcing", _real, None),
    "slope": ("--slope", _real, None),
    "interval": ("--interval", _pair, "a,b with a < b"),
    "grid": ("--grid", int, "sup-error sample grid"),
    "subdivisions": ("--subdivisions", _int_list, None),
    "points": ("--points", int, "sample points per mesh"),
    "dim": ("--dim", int, None),
    "space": ("--space", str, "P1 or P2"),
    "diffusion": ("--diffusion", _real, None),
    "reaction": ("--reaction", _real, None),
    "eps_values": ("--eps", _real_list, "target tolerances"),
    "d2_inf": ("--d2", _real, "sup |D2 u|"),
    "big_c": ("--C", _real, "continuity constant"),
    "alpha": ("--alpha", _real, "ellipticity constant"),
    "selftest": ("--selftest", None, "finite-difference check of every entry"),
    "output_path": ("--output", str, "CSV output path"),
    "seed": ("--seed", int, "seed for sampled suites"),
}

# command -> (help, row builder, {option: default}); registry prints, it builds no rows
_COMMANDS = {
    "expand": ("m-point expansion remainder sweep", _expand_rows,
               {"function": None, "m_values": [1, 2, 4, 8], "kind": "closed", "samples": 201}),
    "interp1d": ("1D interpolation bound sweep over beta", _interp1d_rows,
                 {"beta_values": [0.6, 0.75, 0.9, 1.0], "forcing": 1.0, "slope": 0.0,
                  "interval": (0.0, 1.0), "grid": 1001}),
    "simplex": ("mesh interpolation error sweep", _simplex_rows,
                {"function": None, "subdivisions": [1, 2, 4, 8], "points": 200}),
    "fem": ("FEM convergence sweep on the sine problem", _fem_rows,
            {"dim": 1, "space": "P1", "subdivisions": [8, 16, 32, 64], "diffusion": 1.0,
             "reaction": 0.0}),
    "savings": ("mesh coarsening arithmetic", _savings_rows,
                {"eps_values": [1e-4], "dim": 3, "d2_inf": 1.0, "big_c": 1.0, "alpha": 1.0}),
    "registry": ("list named test fields", None, {"selftest": False}),
}


@functools.cache
def _build_parser():
    """The flags of every command, from _COMMANDS and _FLAGS; the parser holds no defaults.

    Built once per process and shared: parsing stores nothing in it, since
    each call fills a fresh namespace.
    """
    parser = _Parser(prog="reftaylor", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (summary, _, defaults) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        for option in [*defaults, "output_path", "seed"]:
            flag, parse, help_text = _FLAGS[option]
            how = {"action": "store_true"} if parse is None else {"type": parse}
            sub.add_argument(flag, dest=option, help=help_text, **how)
        sub.add_argument("--config", help="flat key=value config file")
    return parser


def _read_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _argv_with_config(argv):
    """Splice config-file values in as flags ahead of the explicit ones."""
    if not argv or argv[0].startswith("-"):
        return argv
    command = argv[0]
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    mapping = _read_config_file(path)
    file_command = mapping.pop("command", None)
    if file_command is not None and file_command != command:
        raise UsageError(
            f"config file names command {file_command!r} but {command!r} was invoked"
        )
    spliced = [command]
    for key, value in mapping.items():
        spliced.extend([f"--{key.replace('_', '-')}", value])
    spliced.extend(argv[1:])
    return spliced


def parse_argv(argv):
    argv = _argv_with_config(list(argv))
    knobs = vars(_build_parser().parse_args(argv))
    knobs.pop("config", None)
    return StudyConfig(**knobs)


def run_main(argv=None):
    """Console entry point; maps failures onto the documented exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(parse_argv(argv))
    except (UsageError, UnknownFieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(run_main())
