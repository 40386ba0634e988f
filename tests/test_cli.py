import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reftaylor.cli as cli
import reftaylor.expansion as expansion
import reftaylor.fem as fem
import reftaylor.simplex as simplex
from reftaylor.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, StudyConfig, run_main
from reftaylor.registry import lookup

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, rows


def _run(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = run_main(list(args) + ["--output", str(out)])
    assert code == EXIT_OK
    return _read_csv(out)


def test_expand_width_column_scales_as_one_over_m(tmp_path):
    header, rows = _run(["expand", "--function", "exp", "--m", "1,2,4,8"], tmp_path)
    assert header[4] == "bound_width"
    products = rows[:, 0] * rows[:, 4]
    assert np.allclose(products, products[0], rtol=1e-12)


def test_expand_rows_sorted_and_deduplicated(tmp_path):
    _, rows = _run(["expand", "--function", "sin1d", "--m", "8,2,2,1"], tmp_path)
    assert rows[:, 0].tolist() == [1.0, 2.0, 8.0]


def test_expand_open_kind(tmp_path):
    _, rows = _run(["expand", "--function", "exp1d", "--kind", "open", "--m", "1,4"], tmp_path)
    assert np.all(np.isfinite(rows))


def test_expand_sampled_bounds_for_nonanalytic_field(tmp_path):
    _, rows = _run(["expand", "--function", "runge1d", "--m", "2,4"], tmp_path)
    assert np.all(rows[:, 4] > 0)


def test_simplex_sampled_bounds_for_nonanalytic_field(tmp_path, monkeypatch):
    # runge1d's norms are sampled on the probe grid, and its rows are not checked
    probes = []
    norms = cli.sampled_derivative_norms

    def sampled_norms(f, points):
        probes.append(len(points))
        return norms(f, points)

    def refused_check(*args):
        raise AssertionError(f"a sampled entry was checked: {args}")

    monkeypatch.setattr(cli, "sampled_derivative_norms", sampled_norms)
    monkeypatch.setattr(cli, "_check", refused_check)
    args = ["simplex", "--function", "runge1d", "--subdivisions", "2,4", "--points", "20"]
    _, rows = _run(args, tmp_path)
    assert probes == [len(cli._grid_points(lookup("runge1d").box))]
    assert rows.shape == (2, 6)
    assert np.all(np.isfinite(rows))


def test_interp1d_ratio_tracks_beta(tmp_path):
    _, rows = _run(["interp1d", "--beta", "0.6,0.75,0.9"], tmp_path)
    ratios = rows[:, 5]
    assert np.all(ratios <= rows[:, 0] + 1e-12)
    assert np.all(ratios >= 0.5)
    # steep members make the forcing negligible, so the ratio pins to beta
    assert ratios[0] == pytest.approx(0.6, abs=1e-6)


def test_simplex_corrected_column_is_half_classical(tmp_path):
    _, rows = _run(["simplex", "--function", "quad2d", "--subdivisions", "1,2,4"], tmp_path)
    assert np.allclose(rows[:, 4], 0.5 * rows[:, 2], rtol=1e-15)
    assert np.all(rows[:, 1] <= np.minimum(rows[:, 2], rows[:, 3]) + 1e-12)


def test_fem_csv_error_slope_is_two(tmp_path):
    _, rows = _run(["fem", "--dim", "1", "--subdivisions", "8,16,32,64,128"], tmp_path)
    slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)
    assert np.all(rows[:, 1] <= np.minimum(rows[:, 2], rows[:, 3]) + 1e-15)


def test_savings_node_factor_column(tmp_path):
    _, rows = _run(["savings", "--eps", "1e-3,1e-4", "--dim", "3"], tmp_path)
    assert np.allclose(rows[:, 3], math.sqrt(2.0), rtol=1e-15)
    assert np.allclose(rows[:, 4], 2.0 ** -1.5, rtol=1e-15)


def test_csv_bytes_deterministic(tmp_path):
    args = ["simplex", "--function", "exp2d", "--subdivisions", "1,2,4", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(args + ["--output", str(a)]) == EXIT_OK
    assert run_main(args + ["--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


_DIGEST_TABLE = json.loads(DIGESTS.read_text(encoding="utf-8"))


def _digest_id(key):
    """expand-exp3d, simplex-sinsin2d, fem-2d-P2, ...: the op's command and what it sweeps."""
    args = key.split()
    opts = dict(zip(args[1::2], args[2::2]))
    if args[0] == "fem":
        return f"fem-{opts['--dim']}d-{opts['--space']}"
    return f"{args[0]}-{opts['--function']}"


@pytest.mark.parametrize("key", sorted(_DIGEST_TABLE), ids=_digest_id)
def test_benchmark_csv_bytes_match_recorded_digests(key, tmp_path):
    # the benchmark's byte contract: perfbench/digests.json holds the SHA-256
    # of each benchmark CSV at seed 0 ("0"), or at every seed ("any")
    assert len(_DIGEST_TABLE) == 6
    by_seed = _DIGEST_TABLE[key]
    out = tmp_path / "golden.csv"
    assert run_main(key.split() + ["--seed", "0", "--output", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == by_seed.get("0", by_seed.get("any"))


def test_seed_changes_sampled_rows(tmp_path):
    _, a = _run(["simplex", "--function", "exp2d", "--subdivisions", "2", "--seed", "0"], tmp_path, "a.csv")
    _, b = _run(["simplex", "--function", "exp2d", "--subdivisions", "2", "--seed", "1"], tmp_path, "b.csv")
    assert a[0, 1] != b[0, 1]


def test_manifest_echoes_config(tmp_path):
    out = tmp_path / "fem.csv"
    assert run_main(["fem", "--dim", "1", "--subdivisions", "4,8", "--seed", "5",
                     "--output", str(out)]) == EXIT_OK
    manifest = (tmp_path / "fem.csv.manifest").read_text()
    assert "command = fem" in manifest
    assert "subdivisions = 4,8" in manifest
    assert "seed = 5" in manifest
    assert "rows = 2" in manifest
    assert "wall_time_s = " in manifest


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# comment line\ncommand = fem\ndim = 1\nsubdivisions = 4,8\nseed = 3\n")
    out = tmp_path / "c.csv"
    code = run_main(["fem", "--config", str(cfg), "--subdivisions", "8,16", "--output", str(out)])
    assert code == EXIT_OK
    manifest = (tmp_path / "c.csv.manifest").read_text()
    assert "subdivisions = 8,16" in manifest
    assert "seed = 3" in manifest


@pytest.mark.parametrize("flag", [["--conf", "{}"], ["--con={}"]])
def test_abbreviated_config_flag_reads_the_file_and_flags_win(flag, tmp_path):
    # argparse takes an unambiguous prefix of --config; the file must still be read
    cfg = tmp_path / "s.cfg"
    cfg.write_text("command = savings\neps = 1e-2,1e-3\ndim = 2\n")
    out = tmp_path / "s.csv"
    args = ["savings", *(t.format(cfg) for t in flag), "--dim", "1", "--output", str(out)]
    assert run_main(args) == EXIT_OK
    manifest = (tmp_path / "s.csv.manifest").read_text()
    assert "eps_values = 0.01,0.001" in manifest
    assert "dim = 1" in manifest


def test_manifest_writes_each_real_so_it_reads_back(tmp_path):
    out = tmp_path / "i.csv"
    assert run_main(["interp1d", "--beta", "0.6000001,0.75", "--grid", "11",
                     "--output", str(out)]) == EXIT_OK
    manifest = (tmp_path / "i.csv.manifest").read_text().splitlines()
    assert "beta_values = 0.6000001,0.75" in manifest


@pytest.mark.parametrize("value, prints_selftest", [("true", True), ("false", False)])
def test_config_file_sets_a_switch(value, prints_selftest, tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"selftest = {value}\n")
    assert run_main(["registry", "--config", str(cfg)]) == EXIT_OK
    assert ("selftest " in capsys.readouterr().out) == prints_selftest


@pytest.mark.parametrize("value", ["yes", "1", "True", ""])
def test_config_file_switch_refuses_other_values(value, tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"selftest = {value}\n")
    assert run_main(["registry", "--config", str(cfg)]) == EXIT_USAGE
    assert "true or false" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["config", "conf"])
def test_config_file_cannot_name_another_config_file(key, tmp_path, capsys):
    inner = tmp_path / "inner.cfg"
    inner.write_text("dim = 2\n")
    cfg = tmp_path / "outer.cfg"
    cfg.write_text(f"{key} = {inner}\n")
    out = tmp_path / "s.csv"
    assert run_main(["savings", "--config", str(cfg), "--output", str(out)]) == EXIT_USAGE
    # a prefix of config is no key at all: only full flag names are keys
    want = "another config file" if key == "config" else f"unknown key {key!r}"
    assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line", [
    ("fem", "sub = 2,4"),          # argparse would read it as --subdivisions
    ("registry", "self = true"),   # argparse would read it as --selftest true
    ("savings", "function = exp"), # a flag of another command
    ("savings", "eps_values = 1e-3"),
])
def test_config_file_keys_are_full_flag_names(command, line, tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    assert run_main([command, "--config", str(cfg), "--output", str(out)]) == EXIT_USAGE
    key = line.partition(" = ")[0]
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_command_mismatch(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("command = fem\n")
    assert run_main(["expand", "--config", str(cfg), "--function", "exp"]) == EXIT_USAGE
    assert "fem" in capsys.readouterr().err


def test_config_file_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("subdivisions 4,8\n")
    assert run_main(["fem", "--config", str(cfg)]) == EXIT_USAGE


def test_unknown_function_exits_usage_and_lists_registry(tmp_path, capsys):
    code = run_main(["expand", "--function", "nosuch", "--output", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "exp1d" in err and "classP" in err


@pytest.mark.parametrize("beta", ["0.5", "nan"])
def test_class_p_beta_not_above_one_half_exits_usage_unquoted(tmp_path, capsys, beta):
    name = f"classP(beta={beta})"
    out = tmp_path / "x.csv"
    assert run_main(["expand", "--function", name, "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown field '{name}'; known: exp1d, ")
    assert '"' not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--m", "1,2"],                      # function missing
        ["expand", "--function", "exp", "--m", "a,b"],  # unparseable list
        ["expand", "--function", "exp", "--kind", "midpoint"],
        ["interp1d", "--beta", "0.5"],
        ["fem", "--dim", "3"],
        ["fem", "--space", "P3"],
        ["savings", "--eps", "-1e-4"],
        ["nonsense"],
    ],
)
def test_usage_errors(args, tmp_path):
    assert run_main(args + ["--output", str(tmp_path / "x.csv")]) == EXIT_USAGE


# each value range StudyConfig.validate leaves to the library call that reads
# the value, with the message that call raises
_LIBRARY_RANGE_CASES = [
    (["expand", "--function", "exp", "--m", "0,1"], "m must be >= 1, got 0"),
    (["expand", "--function", "exp", "--kind", "midpoint"],
     "kind must be 'closed' or 'open', got 'midpoint'"),
    (["interp1d", "--beta", "0.4"], "beta must exceed 1/2, got 0.4"),
    (["interp1d", "--forcing", "0"], "forcing must be > 0, got 0.0"),
    (["interp1d", "--interval", "1,0"], "need a < b, got [1.0, 0.0]"),
    (["interp1d", "--grid", "2"], "grid must have at least 3 points, got 2"),
    (["simplex", "--function", "quad2d", "--subdivisions", "0"],
     "subdivisions must be >= 1, got 0"),
    (["fem", "--subdivisions", "0"], "subdivisions must be >= 1, got 0"),
    (["fem", "--dim", "0"], "dim must be >= 1, got 0"),
    (["fem", "--dim", "3"], "dim must be 1 or 2, got 3"),
    (["fem", "--space", "p2"], "space must be 'P1' or 'P2', got 'p2'"),
    (["fem", "--diffusion", "0"], "diffusion must be positive, got 0.0"),
    (["fem", "--reaction", "-1"], "reaction must be nonnegative, got -1.0"),
    (["savings", "--eps", "0"], "eps, d2_inf, C and alpha must all be positive"),
    (["savings", "--dim", "4"], "dim must be 1, 2 or 3, got 4"),
    (["savings", "--alpha", "-1"], "eps, d2_inf, C and alpha must all be positive"),
]


@pytest.mark.parametrize("args, message", _LIBRARY_RANGE_CASES,
                         ids=[" ".join(args[:1] + args[-2:]) for args, _ in _LIBRARY_RANGE_CASES])
def test_library_range_check_exits_usage(args, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_main(args + ["--output", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not (tmp_path / "x.csv.manifest").exists()


def _no_mesh(*args):
    raise AssertionError("uniform_mesh called before the fem options were checked")


def test_fem_space_is_refused_before_any_mesh_is_built(tmp_path, monkeypatch, capsys):
    # a 1024^2 mesh takes seconds and most of a gigabyte to build
    monkeypatch.setattr(cli, "uniform_mesh", _no_mesh)
    out = tmp_path / "x.csv"
    args = ["fem", "--dim", "2", "--space", "p2", "--subdivisions", "1024", "--output", str(out)]
    assert run_main(args) == EXIT_USAGE
    assert capsys.readouterr().err == "error: space must be 'P1' or 'P2', got 'p2'\n"
    assert not out.exists()


def test_fem_infinite_stability_factor_is_refused_before_any_mesh_is_built(
    tmp_path, monkeypatch, capsys
):
    # C/alpha overflows, so every interpolation chain would read inf/inf = nan after the solve
    monkeypatch.setattr(cli, "uniform_mesh", _no_mesh)
    out = tmp_path / "x.csv"
    args = ["fem", "--dim", "1", "--diffusion", "1e-320", "--subdivisions", "8", "--output", str(out)]
    assert run_main(args) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: diffusion and reaction give a stability factor C/alpha that is not finite, "
        "got 1e-320, 0.0\n"
    )
    assert not out.exists()


# quadratics have a zero-width closed enclosure, which only the rounding slack
# of the (m+2)-term sum separates from the computed remainder
_QUADRATIC_AT_LARGE_M = [("quad2d", "122"), ("quad1d", "290")]


@pytest.mark.parametrize("name, m", _QUADRATIC_AT_LARGE_M)
def test_zero_width_enclosure_allows_rounding(name, m, tmp_path):
    _, rows = _run(["expand", "--function", name, "--m", m], tmp_path)
    assert rows[0, 4] == 0.0  # bound_width
    assert 0.0 < rows[0, 1] < 1e-14  # measured_abs_eps


@pytest.mark.parametrize("name, m", _QUADRATIC_AT_LARGE_M)
def test_expansion_gate_catches_a_derivative_sum_off_by_1e_9(name, m, tmp_path, monkeypatch, capsys):
    weights = expansion.expansion_weights
    monkeypatch.setattr(expansion, "expansion_weights",
                        lambda m, kind: weights(m, kind) * (1.0 + 1e-9))
    out = tmp_path / "x.csv"
    assert run_main(["expand", "--function", name, "--m", m, "--output", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert re.fullmatch(rf"numeric failure: {name} m={m} remainder \S+ escapes \[\S+, \S+\]\n", err)
    assert math.isfinite(float(err.split()[5]))  # the measured remainder
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--function", "classP(beta=0.502)"],
        ["simplex", "--function", "classP(beta=0.502)"],
        ["interp1d", "--beta", "0.502,0.75"],
    ],
)
def test_overflowing_class_p_beta_exits_usage(args, tmp_path, capsys):
    assert run_main(args + ["--output", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--slope", "3"]])
def test_smallest_class_p_beta_on_a_long_interval_exits_usage(extra, tmp_path, capsys):
    # beta = 0.502818 passes rate_for_beta, but on [-1, 2] the classical bound
    # overflows a float, and with --slope 3 so does the sup norm of f'
    args = ["interp1d", "--beta", "0.502818", "--interval=-1,2", *extra]
    assert run_main(args + ["--output", str(tmp_path / "x.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflow" in err
    assert not (tmp_path / "x.csv").exists()


def test_interval_whose_bound_squares_past_a_float_exits_usage(tmp_path, capsys):
    # h**2 of the float h = 5e199 raises OverflowError rather than giving inf
    out = tmp_path / "x.csv"
    assert run_main(["interp1d", "--interval=0,1e200", "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: interpolation bounds on [0, 1e+200] overflow a float\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["expand", "--function", "classP(beta=inf)"],
        ["expand", "--function", "classP(beta=1e308)"],
        ["simplex", "--function", "classP(beta=inf)"],
        ["interp1d", "--beta", "0.75,1e308"],
    ],
)
def test_class_p_beta_without_a_positive_rate_exits_usage(args, tmp_path, capsys):
    assert run_main(args + ["--output", str(tmp_path / "x.csv")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: beta=") and "gives no positive rate" in err
    assert not (tmp_path / "x.csv").exists()


def test_affine_class_p_interp1d_exits_numeric(tmp_path, capsys):
    # slope = -forcing/rate makes the class-(P) member affine: its classical
    # bound is 0, so the ratio column is inf and the table refuses it
    out = tmp_path / "x.csv"
    args = ["interp1d", "--beta", "1.0", "--slope=-0.25", "--output", str(out)]
    assert run_main(args) == EXIT_NUMERIC
    assert "numeric failure: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "reftaylor" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run_main(argv[1:]) == EXIT_OK, argv
    assert "PASS" in capsys.readouterr().out  # the registry self-test
    studies = {argv[1] for argv in commands} - {"registry"}
    assert {p.name for p in tmp_path.glob("*.csv")} == {f"{s}.csv" for s in studies}


def test_unwritable_output_exits_io(tmp_path):
    code = run_main(["savings", "--output", str(tmp_path / "missing" / "x.csv")])
    assert code == EXIT_IO


def test_directory_as_output_exits_io(tmp_path):
    (tmp_path / "d.csv").mkdir()
    assert run_main(["savings", "--output", str(tmp_path / "d.csv")]) == EXIT_IO
    assert (tmp_path / "d.csv").is_dir()


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_ok_and_silent(tmp_path, monkeypatch):
    sink = tmp_path / "stdout"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert run_main(["registry"]) == EXIT_OK
        assert sys.stderr.getvalue() == ""
        # the descriptor now leads to devnull, so the flush at exit cannot fail
        os.write(fd, b"buffered\n")
    finally:
        os.close(fd)
    assert sink.read_bytes() == b""


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_reader_closing_stdout_early_is_not_a_failure(unbuffered):
    # `reftaylor registry | head -1`: the reader leaves before the listing is written
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
           "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "reftaylor.cli", "registry"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_OK, err
    assert err == b""


def test_rerun_to_an_existing_output_writes_the_new_bytes(tmp_path):
    out, fresh = tmp_path / "e.csv", tmp_path / "fresh.csv"
    assert run_main(["expand", "--function", "exp", "--m", "1,2", "--output", str(out)]) == EXIT_OK
    assert run_main(["expand", "--function", "exp", "--m", "4", "--output", str(out)]) == EXIT_OK
    assert run_main(["expand", "--function", "exp", "--m", "4", "--output", str(fresh)]) == EXIT_OK
    assert out.read_bytes() == fresh.read_bytes()
    assert "m_values = 4\n" in (tmp_path / "e.csv.manifest").read_text()


def test_rerun_leaves_a_hard_link_to_the_old_output_alone(tmp_path):
    out = tmp_path / "e.csv"
    assert run_main(["expand", "--function", "exp", "--m", "1", "--output", str(out)]) == EXIT_OK
    old = out.read_bytes()
    os.link(out, tmp_path / "hard.csv")
    assert run_main(["expand", "--function", "exp", "--m", "2", "--output", str(out)]) == EXIT_OK
    assert (tmp_path / "hard.csv").read_bytes() == old != out.read_bytes()


def test_symlink_at_output_is_replaced_by_a_regular_file(tmp_path):
    out, target = tmp_path / "e.csv", tmp_path / "target.csv"
    target.write_text("target\n")
    out.symlink_to(target)
    assert run_main(["expand", "--function", "exp", "--m", "1", "--output", str(out)]) == EXIT_OK
    assert not out.is_symlink() and out.read_text().startswith("m,")
    assert target.read_text() == "target\n"


def test_manifest_wall_time_leaves_out_the_writes(tmp_path, monkeypatch):
    write = cli._write_lines

    def slow_write(path, lines):
        time.sleep(0.2)
        write(path, lines)

    monkeypatch.setattr(cli, "_write_lines", slow_write)
    assert run_main(["savings", "--output", str(tmp_path / "s.csv")]) == EXIT_OK
    manifest = dict(
        line.split(" = ", 1) for line in (tmp_path / "s.csv.manifest").read_text().splitlines()
    )
    assert float(manifest["wall_time_s"]) < 0.2


def test_usage_error_leaves_the_cached_parser_as_it_was():
    assert run_main(["fem", "--subdivisions", "4", "--diffusion", "x"]) == EXIT_USAGE
    assert run_main(["fem", "--no-such-flag"]) == EXIT_USAGE
    assert cli._build_parser() is cli._build_parser()
    assert vars(cli.parse_argv(["fem"])) == vars(StudyConfig("fem"))


def test_bound_violation_exits_numeric(tmp_path, monkeypatch):
    # an entry that understates its second-derivative range cannot contain
    # the measured remainder; the run must abort rather than write the table
    honest = lookup("exp1d")
    lying = dataclasses.replace(
        honest,
        segment_bounds=dataclasses.replace(honest.segment_bounds, m2=1.0, M2=1.001),
    )
    monkeypatch.setattr(cli, "lookup", lambda name: lying)
    out = tmp_path / "x.csv"
    assert run_main(["expand", "--function", "exp1d", "--output", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


def test_solver_failure_exits_numeric(tmp_path, monkeypatch, capsys):
    def fail(problem, mesh, space="P1"):
        raise fem.SolverError("x")

    monkeypatch.setattr(fem, "assemble_and_solve", fail)
    out = tmp_path / "x.csv"
    assert run_main(["fem", "--dim", "1", "--subdivisions", "4", "--output", str(out)]) == EXIT_NUMERIC
    assert "numeric failure: x" in capsys.readouterr().err
    assert not out.exists()


# dense LU, then conjugate gradient: both refuse the overflowed system before solving
@pytest.mark.parametrize("subdivisions", ["8", "4096"])
def test_overflowing_fem_coefficients_exit_numeric(subdivisions, tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["fem", "--dim", "1", "--diffusion", "1e308", "--reaction", "1e308",
            "--subdivisions", subdivisions, "--output", str(out)]
    assert run_main(args) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: the assembled system has an inf or nan entry\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "measured, lo, hi, roundoff",
    [
        pytest.param(math.nan, 0.0, 1.0, 0.0, id="measured-nan"),
        pytest.param(math.inf, 0.0, 1.0, 0.0, id="measured-inf"),
        pytest.param(0.5, -math.inf, 1.0, 0.0, id="lo-inf"),
        pytest.param(0.5, 0.0, math.nan, 0.0, id="hi-nan"),
        pytest.param(0.5, 0.0, math.inf, 0.0, id="hi-inf"),
        pytest.param(0.5, 0.0, 1.0, math.nan, id="roundoff-nan"),
    ],
)
def test_check_refuses_a_non_finite_value(measured, lo, hi, roundoff):
    # nan <= hi is false, so only an explicit check stops a nan row; an infinite
    # bound or slack would let any value through
    with pytest.raises(cli.NumericFailure, match="^case .* is not finite$"):
        cli._check("case", measured, lo, hi, roundoff)


# the last is a zero-width enclosure, as a quadratic's expansion remainder has,
# which only the roundoff widens beyond 1e-15
@pytest.mark.parametrize("lo, hi, roundoff", [(-3.0, 2.0, 0.0), (0.25, 0.5, 1e-12), (0.0, 0.0, 1e-12)])
def test_check_allows_exactly_its_slack(lo, hi, roundoff):
    s = 1e-9 * max(abs(lo), abs(hi)) + 1e-15 + roundoff
    for edge, outward in [(hi + s, math.inf), (lo - s, -math.inf)]:
        cli._check("case", edge, lo, hi, roundoff)
        with pytest.raises(cli.NumericFailure, match=r"^case \S+ escapes \["):
            cli._check("case", math.nextafter(edge, outward), lo, hi, roundoff)


def test_nan_corrected_simplex_error_exits_numeric(tmp_path, monkeypatch, capsys):
    # the corrected error is enforced but not written, so the table cannot catch its nan
    values_at = simplex.MeshInterpolant.values_at

    def nan_in_p2(self, points):
        values = values_at(self, points)
        if self.space == "P2":
            values[len(values) // 2] = math.nan
        return values

    monkeypatch.setattr(simplex.MeshInterpolant, "values_at", nan_in_p2)
    out = tmp_path / "x.csv"
    args = ["simplex", "--function", "quad2d", "--subdivisions", "2", "--output", str(out)]
    assert run_main(args) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: quad2d k=2 corrected error nan, bounds [0.000000e+00, ")
    assert err.endswith(" is not finite\n")
    assert not out.exists()


def test_registry_listing(capsys):
    # dim and analytic are derived from each entry; the listing keeps its lines
    assert run_main(["registry"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(line + "\n" for line in [
        "name,dim,analytic",
        "exp1d,1,true",
        "sin1d,1,true",
        "quad1d,1,true",
        "cubic1d,1,true",
        "runge1d,1,false",
        "quad2d,2,true",
        "exp2d,2,true",
        "sinsin2d,2,true",
        "quad3d,3,true",
        "exp3d,3,true",
        "classP(beta=0.75),1,true",
    ])


def test_registry_selftest_passes(capsys):
    assert run_main(["registry", "--selftest"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert text.count("PASS") >= 10


def test_run_accepts_config_object(tmp_path, capsys):
    cfg = StudyConfig(command="savings", eps_values=[1e-4], dim=2,
                      output_path=str(tmp_path / "s.csv"))
    assert cli.run(cfg) == EXIT_OK
    assert (tmp_path / "s.csv").exists()


def test_config_validation_rejects_bad_values(tmp_path):
    with pytest.raises(cli.UsageError, match="--m must be a nonempty list, got"):
        StudyConfig(command="expand", function="exp", m_values=[]).validate()
    with pytest.raises(cli.UsageError, match="expand needs --function"):
        StudyConfig(command="expand").validate()
    with pytest.raises(cli.UsageError, match="--samples must be at least 2, got 1"):
        StudyConfig(command="expand", function="exp", samples=1).validate()
    with pytest.raises(cli.UsageError, match="--points must be at least 1, got 0"):
        StudyConfig(command="simplex", function="quad2d", points=0).validate()
    with pytest.raises(cli.UsageError, match="--seed must be at least 0, got -1"):
        StudyConfig(command="savings", seed=-1).validate()
    with pytest.raises(cli.UsageError):
        StudyConfig(command="orbit").validate()
    # a range is checked by the library call that reads the value, before any output
    out = tmp_path / "x.csv"
    for command, options in [
        ("expand", {"function": "exp", "m_values": [0]}),
        ("fem", {"diffusion": 0.0}),
        ("savings", {"alpha": -1.0}),
    ]:
        with pytest.raises(ValueError):
            cli.run(StudyConfig(command, **options, output_path=str(out)))
        assert not out.exists()
    nan_options = [
        ("fem", {"diffusion": math.nan}),
        ("fem", {"reaction": math.nan}),
        ("savings", {"eps_values": [1e-3, math.nan]}),
        ("savings", {"alpha": math.nan}),
        ("interp1d", {"forcing": math.nan}),
        ("interp1d", {"beta_values": [math.nan, 0.75]}),
        ("interp1d", {"interval": (0.0, math.nan)}),
        ("savings", {"alpha": math.inf}),
        ("savings", {"eps_values": [1e-3, math.inf]}),
        ("savings", {"d2_inf": -math.inf}),
        ("fem", {"diffusion": math.inf}),
        ("fem", {"reaction": math.inf}),
        ("interp1d", {"forcing": math.inf}),
        ("interp1d", {"slope": -math.inf}),
        ("interp1d", {"interval": (-math.inf, 1.0)}),
    ]
    for command, options in nan_options:
        with pytest.raises(cli.UsageError):
            StudyConfig(command, **options).validate()


@pytest.mark.parametrize(
    "command, options",
    [
        ("expand", {"function": "exp", "m_values": [1, 4]}),
        ("interp1d", {"beta_values": [0.75, 0.9], "grid": 11}),
        ("simplex", {"function": "quad2d", "subdivisions": [1, 2], "points": 5}),
        ("fem", {"subdivisions": [2, 4]}),
        ("savings", {"eps_values": [1e-4, 1e-3]}),
    ],
)
def test_numpy_array_list_option_runs_as_the_list(command, options, tmp_path):
    (name, values), = [(k, v) for k, v in options.items() if isinstance(v, list)]
    texts = []
    for label, given in (("list", values), ("array", np.array(values))):
        out = tmp_path / f"{label}.csv"
        cfg = StudyConfig(command, **{**options, name: given, "output_path": str(out)})
        assert cli.run(cfg) == EXIT_OK
        manifest = (tmp_path / f"{label}.csv.manifest").read_text().splitlines()
        texts.append((out.read_bytes(), [line for line in manifest if line.startswith(name)]))
    assert texts[0] == texts[1]
    empty = StudyConfig(command, **{**options, name: np.array([], dtype=type(values[0]))})
    with pytest.raises(cli.UsageError, match="must be a nonempty list"):
        empty.validate()


# the required flags of each command; every other option takes its default
_REQUIRED = {
    "expand": {"function": "exp"},
    "interp1d": {},
    "simplex": {"function": "quad2d"},
    "fem": {},
    "savings": {},
    "registry": {},
}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_study_config_and_flags_share_defaults(command):
    required = _REQUIRED[command]
    argv = [command] + [arg for name, value in required.items() for arg in (f"--{name}", value)]
    assert vars(StudyConfig(command, **required)) == vars(cli.parse_argv(argv))


def test_study_config_defaults_do_not_alias():
    a, b = StudyConfig("fem"), StudyConfig("fem")
    a.subdivisions.append(128)
    assert b.subdivisions == [8, 16, 32, 64]
    assert a.output_path == "fem.csv" and a.seed == 0


def test_study_config_rejects_options_the_command_does_not_read():
    with pytest.raises(cli.UsageError, match="fem does not read m_values"):
        StudyConfig("fem", m_values=[1])


# the option names each study's manifest echoes, besides command, output_path and seed
_MANIFEST_OPTIONS = {
    "expand": ("function", "m_values", "kind", "samples"),
    "interp1d": ("beta_values", "forcing", "slope", "interval", "grid"),
    "simplex": ("function", "subdivisions", "points"),
    "fem": ("dim", "space", "subdivisions", "diffusion", "reaction"),
    "savings": ("eps_values", "dim", "d2_inf", "big_c", "alpha"),
}
_SMALL_RUNS = {
    "expand": ["--function", "exp", "--m", "1"],
    "interp1d": ["--beta", "0.75", "--grid", "11"],
    "simplex": ["--function", "quad2d", "--subdivisions", "1", "--points", "2"],
    "fem": ["--subdivisions", "2"],
    "savings": [],
}


@pytest.mark.parametrize("command", sorted(_MANIFEST_OPTIONS))
def test_manifest_keys(command, tmp_path):
    out = tmp_path / "m.csv"
    assert run_main([command, *_SMALL_RUNS[command], "--output", str(out)]) == EXIT_OK
    lines = (tmp_path / "m.csv.manifest").read_text().splitlines()
    keys = [line.split(" = ", 1)[0] for line in lines]
    expected = {*_MANIFEST_OPTIONS[command], "command", "output_path", "seed"}
    assert keys == sorted(expected) + ["rows", "wall_time_s"]


@pytest.mark.parametrize(
    "args",
    [
        ["savings", "--eps", "nan"],
        ["savings", "--eps", "1e-3,-inf"],
        ["savings", "--d2", "nan"],
        ["savings", "--alpha", "inf"],
        ["fem", "--diffusion", "nan", "--dim", "2", "--subdivisions", "64"],
        ["fem", "--reaction", "nan"],
        ["interp1d", "--slope", "nan"],
        ["interp1d", "--forcing", "inf"],
        ["interp1d", "--beta", "0.75,nan"],
        ["interp1d", "--interval", "0,inf"],
    ],
)
def test_non_finite_reals_exit_usage(args, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_main(args + ["--output", str(out)]) == EXIT_USAGE
    assert "expected a finite real" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_value_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("alpha = nan\n")
    out = tmp_path / "x.csv"
    assert run_main(["savings", "--config", str(cfg), "--output", str(out)]) == EXIT_USAGE
    assert "argument --alpha: expected a finite real, got 'nan'" in capsys.readouterr().err
    assert not out.exists()


def test_nan_slope_from_a_config_object_is_a_usage_error(tmp_path):
    cfg = StudyConfig("interp1d", slope=math.nan, output_path=str(tmp_path / "x.csv"))
    with pytest.raises(cli.UsageError, match="--slope must be finite, got nan"):
        cli.run(cfg)
    assert not (tmp_path / "x.csv").exists()


def _bad_value(command, option, value, message, case=""):
    flag = cli._FLAGS[option][0]
    return pytest.param(command, option, value, f"{flag} must be {message}, got {value!r}",
                        id=f"{command}-{option}{case}")


# every real-valued option of every command (expand and simplex have none), every
# integer option including each command's seed, and values of the wrong shape
_BAD_OPTION_VALUES = [
    _bad_value(command, option, "1", "real")
    for command, (_, _, defaults) in sorted(cli._COMMANDS.items())
    for option in defaults
    if cli._FLAGS[option][1] in (cli._real, cli._real_list, cli._pair)
] + [
    _bad_value(command, option, "5" if cli._FLAGS[option][1] is int else ["2"], "an integer")
    for command, (_, _, defaults) in sorted(cli._COMMANDS.items())
    for option in [*defaults, "seed"]
    if cli._FLAGS[option][1] in (int, cli._int_list)
] + [
    _bad_value("simplex", "subdivisions", [2.5], "an integer", "-float"),
    _bad_value("fem", "dim", 2.0, "an integer", "-float"),
    _bad_value("fem", "subdivisions", 4, "a nonempty list", "-scalar"),
    _bad_value("savings", "eps_values", 1e-4, "a nonempty list", "-scalar"),
    _bad_value("interp1d", "interval", (0.0,), "two values", "-one"),
]


@pytest.mark.parametrize("command, option, value, message", _BAD_OPTION_VALUES)
def test_non_numeric_real_option_is_a_usage_error(command, option, value, message, tmp_path):
    cfg = StudyConfig(command, **{option: value, "output_path": str(tmp_path / "x.csv")})
    with pytest.raises(cli.UsageError, match=re.escape(message)):
        cli.run(cfg)
    assert not (tmp_path / "x.csv").exists()
