"""Command-line front end: sweep studies written as CSV tables.

Five study commands plus a registry listing:

    expand    remainder of the averaged-derivative expansion over m
    interp1d  classical vs refined 1D interpolation bounds over beta
    simplex   mesh interpolation error vs bounds over subdivisions
    fem       Galerkin L2 error vs the a-priori chains over subdivisions
    savings   tolerance-driven mesh-size arithmetic over eps
    registry  list the named test fields (it reads no option)

Every study writes one CSV (12 significant digits, scientific notation,
header row, rows sorted by the first column) and a key=value manifest next
to it echoing the configuration, the seed and the study's wall time (the
writes are not in it).  Given the same configuration and seed the CSV bytes
are identical run to run; the manifest is not, since it carries the wall
time.  Both files are written as new files: whatever was at the path before
is unlinked first, so a symlink there is replaced rather than followed and a
hard link to an old output keeps the old bytes.  Flags may come from a flat
key=value config file via --config, with explicit flags winning; a file
may not name another config file.

Each command's options and their defaults are written once, in _COMMANDS,
and each option's flag once, in _FLAGS; the parser and StudyConfig share
them, so `reftaylor fem` and StudyConfig("fem") run the same study.
Config-file keys are full flag names without the dashes (`m = 1,2,4`); the
manifest names options as StudyConfig does (`m_values = 1,2,4`) and writes
each real as repr does, so it reads back as the same float.

Each flag's parser only converts text (int, float or a comma list of
either), and StudyConfig.validate is the one check of what no library call
sees, for flags, config files and StudyConfig alike: each option's type,
shape and finiteness, the required --function, nonempty lists and the seed,
points and samples minimums.  The range of every other value (m,
beta, space, dim, ...) is checked by the library call that reads it, whose
ValueError comes before any output is written and exits 1 like any usage
error.  While building rows, each measured value is checked against its
bounds [lo, hi] by one gate, _check, with one slack s = 1e-9 max(|lo|, |hi|)
+ 1e-15, plus ExpansionReport.roundoff for the expansion remainder; a value
outside [lo - s, hi + s], or a non-finite one, aborts the run with exit code
2.  At the circumradius R, pi's error (simplex, interp1d, fem P1) is gated by
min(classical, refined) and pi*'s by the corrected bound.  expand and
simplex check only entries with analytic derivative norms: a sampled entry's
norms (runge1d's) are estimates, and so are the bounds built from them.
Exit codes: 0 success, 1 usage, 2 numeric failure, 3 I/O failure; a reader
of stdout that stops early (`reftaylor registry | head -1`) is not a failure.
"""

import argparse
import copy
import functools
import math
import os
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
from .registry import lookup, registry
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

# least value of each integer option no library call checks; the library
# checks samples only for sampled entries
_MINIMUM = {"seed": 0, "points": 1, "samples": 2}


class UsageError(ValueError):
    """Bad flags, config keys or option values, found before the study runs."""


class NumericFailure(RuntimeError):
    """A measured value escaped its bound, a cell went non-finite, or a solve failed."""


class StudyConfig:
    """One study run: the command plus the options it reads.

    StudyConfig(command, **options) holds the command's options from
    _COMMANDS and, for a study, an output_path and a seed; registry prints
    its listing and reads no option.  Options left out take the command's
    defaults, the same ones the flags have; output_path defaults to
    "<command>.csv" and seed to 0.  An option the command does not read is
    a UsageError.
    """

    def __init__(self, command, **options):
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        defaults = _defaults(command)
        unread = sorted(options.keys() - defaults.keys())
        if unread:
            raise UsageError(f"{command} does not read {', '.join(unread)}")
        self.command = command
        for name, default in defaults.items():
            setattr(self, name, copy.copy(options.get(name, default)))

    def validate(self):
        """Check what no library call sees: each option's type, shape and finiteness.

        Integer options must be integers and real options finite reals, in
        their flag's shape (one value, a nonempty list or a pair); seed must be
        at least 0, points at least 1 and samples at least 2, and expand and
        simplex need --function.  Every other range (m >= 1, beta > 1/2, space
        P1 or P2, ...) is checked by the library call that reads the value,
        which raises ValueError before any output is written.  The flags'
        parsers only convert text, so a value from a flag, a config file or
        StudyConfig fails here with the same message.
        """
        for option, (flag, parse, _) in _FLAGS.items():
            if option not in vars(self) or parse is str:
                continue
            value = getattr(self, option)
            items = np.asarray(value, dtype=object)
            if parse in (int, _int_list) and not all(
                isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in items.flat
            ):
                raise UsageError(f"{flag} must be an integer, got {value!r}")
            if parse in (float, _real_list, _pair):
                try:
                    finite = np.isfinite(value).all()
                except (TypeError, ValueError):
                    raise UsageError(f"{flag} must be real, got {value!r}") from None
                if not finite:
                    raise UsageError(f"{flag} must be finite, got {_echo(value)}")
            scalar = parse in (int, float)
            if items.ndim != (not scalar) or items.size == 0 or (parse is _pair and items.size != 2):
                shape = "two values" if parse is _pair else "one value" if scalar else "a nonempty list"
                raise UsageError(f"{flag} must be {shape}, got {value!r}")
            if option in _MINIMUM and value < _MINIMUM[option]:
                raise UsageError(f"{flag} must be at least {_MINIMUM[option]}, got {value}")
        if "function" in vars(self) and not self.function:
            raise UsageError(f"{self.command} needs --function")


# -------------------------------------------------------------- helpers


def _map_ordered(fn, items):
    """fn over items, in order.

    A named function rather than an inline comprehension because the
    benchmark's tracer (perfbench/spans.py) hooks it by name to time each row.
    """
    return [fn(item) for item in items]


def _check(context, measured, lo, hi, roundoff=0.0):
    """Require lo - s <= measured <= hi + s, s = 1e-9 max(|lo|, |hi|) + 1e-15 + roundoff.

    context names the row and the quantity ("exp1d m=4 remainder"); an
    error, a maximum of absolute values, is checked against [0, bound].
    """
    # a nan compares false against anything, so it would pass the test below
    if not all(map(math.isfinite, (measured, lo, hi, roundoff))):
        raise NumericFailure(
            f"{context} {measured:.6e}, bounds [{lo:.6e}, {hi:.6e}] or roundoff {roundoff:.6e} "
            "is not finite"
        )
    slack = 1e-9 * max(abs(lo), abs(hi)) + 1e-15 + roundoff
    if not lo - slack <= measured <= hi + slack:
        raise NumericFailure(f"{context} {measured:.6e} escapes [{lo:.6e}, {hi:.6e}]")


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
            # a quadratic's enclosure has width 0: the computed remainder needs the rounding slack
            _check(f"{entry.name} m={m} remainder", rep.remainder_eps,
                   rep.bound_lo, rep.bound_hi, rep.roundoff)
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
        params = ClassPParams(
            rate=rate_for_beta(beta, iv), forcing=cfg.forcing, slope_at_a=cfg.slope
        )
        fld = class_p_field(params, iv)
        f1, f2 = class_p_sup_norms(params, iv)
        comp = compare_bounds(fld, iv, f1, f2, grid=cfg.grid)
        _check(f"classP(beta={beta:g}) sup error", comp.measured_sup_error,
               0.0, min(comp.classical, comp.refined))
        return (
            beta,
            comp.measured_sup_error,
            comp.classical,
            comp.refined,
            0.5 * comp.classical,
            comp.beta,
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
        mesh = uniform_mesh(entry.box, k)
        bounds = InterpBounds(mesh.mesh_size, d1, d2)
        plain = MeshInterpolant(mesh, f)
        star = MeshInterpolant(mesh, f, corrected=True)
        rng = np.random.default_rng([cfg.seed, k])
        pts = lo + rng.random((cfg.points, entry.dim)) * span
        vals = f.value_at(pts)
        err = np.max(np.abs(plain.values_at(pts) - vals))
        err_star = np.max(np.abs(star.values_at(pts) - vals))
        if entry.analytic:
            # the bounds at R, the radius of the smallest ball holding an element.
            # Every uniform_mesh element has its longest edge as that ball's
            # diameter, so R = mesh_size / 2
            at_r = InterpBounds(mesh.mesh_size / 2.0, d1, d2)
            _check(f"{entry.name} k={k} plain error", err, 0.0, at_r.combined)
            _check(f"{entry.name} k={k} corrected error", err_star, 0.0, at_r.corrected)
        ratio = err / bounds.combined if bounds.combined > 0 else 0.0
        return (mesh.mesh_size, err, bounds.classical, bounds.refined, bounds.corrected, ratio)

    header = ["h", "measured_sup_error", "bound_classical", "bound_refined", "bound_corrected", "ratio"]
    return header, _map_ordered(one, sorted(set(cfg.subdivisions)))


def _fem_rows(cfg):
    # fem loads scipy; only this study needs it.
    from .fem import SolverError, _check_space, estimate_report, sine_problem

    # before any mesh is built: the smallest one can take seconds to build
    _check_space(cfg.space)
    problem = sine_problem(cfg.dim, diffusion=cfg.diffusion, reaction=cfg.reaction)

    def one(k):
        mesh = uniform_mesh([(0.0, 1.0)] * cfg.dim, k)
        rep = estimate_report(problem, mesh, cfg.space, SINE_D1, SINE_D2)
        # the interpolant's L2 error is at most sqrt(volume) times its sup bound at R
        at_r = InterpBounds(mesh.mesh_size / 2.0, SINE_D1, SINE_D2)
        if cfg.space == "P1":
            applicable, sup_bound = min(rep.cea_rhs_classical, rep.cea_rhs_refined), at_r.combined
        else:
            applicable, sup_bound = rep.cea_rhs_corrected, at_r.corrected
        row = f"sine{cfg.dim}d {cfg.space} k={k}"
        l2_bound = math.sqrt(sum(mesh.volumes.tolist())) * sup_bound
        _check(f"{row} interpolation error", rep.measured_interp_error, 0.0, l2_bound)
        _check(f"{row} solution error", rep.measured_solution_error, 0.0, applicable)
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
    # repr gives the shortest text that reads back as the same float
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in value)
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


def run(cfg, out=None):
    """Execute one study; returns EXIT_OK or raises a mapped exception."""
    out = sys.stdout if out is None else out
    cfg.validate()
    if cfg.command == "registry":
        print("name,dim,analytic", file=out)
        for entry in registry():
            print(f"{entry.name},{entry.dim},{str(entry.analytic).lower()}", file=out)
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


def _comma_list(parse, noun):
    def parse_list(text):
        try:
            return [parse(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse_list


_int_list = _comma_list(int, "integers")
_real_list = _comma_list(float, "reals")
_pair = _comma_list(float, "reals")  # validate wants two of them

# StudyConfig option -> (flag, value parser, help); a parser only converts text
_FLAGS = {
    "function": ("--function", str, "registry field name"),
    "m_values": ("--m", _int_list, "comma list of point counts"),
    "kind": ("--kind", str, "weight family: closed or open"),
    "samples": ("--samples", int, "samples for non-analytic bounds"),
    "beta_values": ("--beta", _real_list, None),
    "forcing": ("--forcing", float, None),
    "slope": ("--slope", float, None),
    "interval": ("--interval", _pair, "a,b with a < b"),
    "grid": ("--grid", int, "sup-error sample grid"),
    "subdivisions": ("--subdivisions", _int_list, None),
    "points": ("--points", int, "sample points per mesh"),
    "dim": ("--dim", int, None),
    "space": ("--space", str, "P1 or P2"),
    "diffusion": ("--diffusion", float, None),
    "reaction": ("--reaction", float, None),
    "eps_values": ("--eps", _real_list, "target tolerances"),
    "d2_inf": ("--d2", float, "sup |D2 u|"),
    "big_c": ("--C", float, "continuity constant"),
    "alpha": ("--alpha", float, "ellipticity constant"),
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
    "registry": ("list named test fields", None, {}),
}


def _defaults(command):
    """Every option the command reads, with its default, in flag order."""
    _, build_rows, defaults = _COMMANDS[command]
    study = {"output_path": f"{command}.csv", "seed": 0} if build_rows else {}
    return {**defaults, **study}


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
        for option in _defaults(command):
            flag, parse, help_text = _FLAGS[option]
            sub.add_argument(flag, dest=option, type=parse, help=help_text)
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


def parse_argv(argv):
    """StudyConfig from argv; values from a --config file go in ahead of the flags."""
    parser = _build_parser()
    knobs = vars(parser.parse_args(argv))
    path = knobs.pop("config", None)
    if path is not None:
        # parse again with the file's values as flags, so explicit flags win
        command = knobs["command"]
        mapping = _read_config_file(path)
        file_command = mapping.pop("command", None)
        if file_command is not None and file_command != command:
            raise UsageError(
                f"config file names command {file_command!r} but {command!r} was invoked"
            )
        flags = {_FLAGS[option][0] for option in _defaults(command)}
        spliced = [command]
        for key, value in mapping.items():
            flag = f"--{key}"
            if key == "config":
                raise UsageError(f"{path}: a config file cannot name another config file")
            # argparse would read a prefix as its flag, so a key must be a flag in full
            if flag not in flags:
                raise UsageError(f"{path}: unknown key {key!r}; keys are {command} flags in full")
            spliced.extend([flag, value])
        knobs = vars(parser.parse_args([*spliced, *argv[1:]]))
        knobs.pop("config", None)
    return StudyConfig(**knobs)


def run_main(argv=None):
    """Console entry point; maps failures onto the documented exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        code = run(parse_argv(argv))
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader stopped early (`reftaylor registry | head -1`): not a failure.
        # What is still buffered goes to devnull, so the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:
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
