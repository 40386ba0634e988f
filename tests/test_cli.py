import dataclasses
import hashlib
import json
import math
import os
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import reftaylor.cli as cli
import reftaylor.fem as fem
from reftaylor.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, StudyConfig, run_main
from reftaylor.registry import lookup

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_benchmark_csv_bytes_match_recorded_digests(tmp_path):
    # the benchmark's byte contract: perfbench/digests.json holds the SHA-256
    # of each benchmark CSV at seed 0 ("0"), or at every seed ("any")
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(table) == 6
    for key, by_seed in table.items():
        out = tmp_path / "golden.csv"
        assert run_main(key.split() + ["--seed", "0", "--output", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == by_seed.get("0", by_seed.get("any")), key


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


def test_registry_listing(capsys):
    assert run_main(["registry"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "name,dim,analytic" in text
    assert "exp1d,1,true" in text
    assert "runge1d,1,false" in text


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


def test_config_validation_rejects_bad_values():
    with pytest.raises(cli.UsageError):
        StudyConfig(command="expand", function="exp", m_values=[]).validate()
    with pytest.raises(cli.UsageError):
        StudyConfig(command="expand", function="exp", m_values=[0]).validate()
    with pytest.raises(cli.UsageError):
        StudyConfig(command="fem", diffusion=0.0).validate()
    with pytest.raises(cli.UsageError):
        StudyConfig(command="savings", alpha=-1.0).validate()
    with pytest.raises(cli.UsageError):
        StudyConfig(command="orbit").validate()
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


# every real-valued option of every command; expand and simplex have none
_REAL_OPTIONS = [
    (command, option)
    for command, (_, _, defaults) in sorted(cli._COMMANDS.items())
    for option in defaults
    if cli._FLAGS[option][1] in (cli._real, cli._real_list, cli._pair)
]


@pytest.mark.parametrize("command, option", _REAL_OPTIONS)
def test_non_numeric_real_option_is_a_usage_error(command, option, tmp_path):
    cfg = StudyConfig(command, **{option: "1", "output_path": str(tmp_path / "x.csv")})
    with pytest.raises(cli.UsageError, match=f"{cli._FLAGS[option][0]} must be real, got '1'"):
        cli.run(cfg)
    assert not (tmp_path / "x.csv").exists()
