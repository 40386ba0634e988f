"""Tests of the benchmark's own code: tracing, self times, failure counting."""

import json
from argparse import Namespace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import reftaylor.cli
import reftaylor.quadrature
import reftaylor.simplex

import run
import spans
from spans import Recorder, install, layer_metrics, per_run_metrics, wrap_map_ordered
from worker import run_sweep, run_workload
from workloads import CliOp

SMALL_OPS = [
    CliOp(("simplex", "--function", "exp2d", "--subdivisions", "1,2", "--points", "5")),
    CliOp(("fem", "--dim", "2", "--subdivisions", "2,4")),
    CliOp(("expand", "--function", "runge", "--m", "1,2", "--samples", "11")),
]


class FakeClock:
    """A clock that moves only when the code under test calls ``tick``."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def one_thread_pool(fn, items):
    """Stands in for cli._map_ordered with a pool of one thread."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(fn, items))


def test_self_time_of_hand_built_span_tree():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    value = rec.aggregate("fields.scalar.value", lambda: clock.tick(0.25))
    face_counts = rec.span("simplex.Triangulation.face_counts", lambda: clock.tick(0.5))
    mesh = rec.span("simplex.uniform_mesh", lambda: clock.tick(3.0))

    def locate_body():
        clock.tick(1.0)
        face_counts()
        value()
        clock.tick(0.5)

    locate = rec.span("simplex.Triangulation.locate", locate_body)

    def one(k):  # runs on the pool thread: 1 s of cli work, then a mesh
        clock.tick(1.0)
        mesh()
        return k

    mapped = wrap_map_ordered(rec, one_thread_pool)

    def run_body():
        clock.tick(1.0)
        locate()
        assert mapped(one, [1, 2]) == [1, 2]
        clock.tick(2.0)

    rec.span("cli.run_main", run_body)()
    spans, calls, counts = rec.collect()
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    run_main, = by_name["cli.run_main"]
    pool, = by_name["cli._map_ordered"]
    items = by_name["cli.map_item"]
    locate_span, = by_name["simplex.Triangulation.locate"]

    # stored self times: duration minus same-thread children and aggregated calls
    assert run_main.end - run_main.start == 1.0 + 2.25 + 8.0 + 2.0
    assert run_main.self_s == 3.0
    assert locate_span.self_s == 1.5
    assert by_name["simplex.Triangulation.face_counts"][0].self_s == 0.5
    # the items run on another thread: their time stays in the pool span's self time
    assert pool.self_s == 8.0
    assert [(i.parent, i.self_s) for i in items] == [(pool.id, 1.0), (pool.id, 1.0)]
    assert {i.thread for i in items} != {run_main.thread}
    assert [m.parent for m in by_name["simplex.uniform_mesh"]] == [i.id for i in items]
    assert calls == {(0, "fields.scalar.value"): [1, 0.25]}

    metrics = layer_metrics(spans, {"fields.scalar.value": (1, 0.25)},
                            {"simplex.elements_built": 8})
    assert metrics["cli.run_s"] == 13.25
    assert metrics["cli.self_s"] == 3.0 + 1.0 + 1.0
    assert metrics["cli.pool_wait_s"] == 8.0
    assert metrics["simplex.self_s"] == 1.5 + 0.5 + 6.0
    assert metrics["simplex.uniform_mesh_s"] == 6.0
    assert metrics["simplex.locate_s"] == 1.5
    assert metrics["simplex.locate_calls"] == 1
    assert metrics["simplex.topology_s"] == 0.5
    assert metrics["simplex.face_counts_calls"] == 1
    assert metrics["simplex.elements_built"] == 8
    assert metrics["fields.scalar_calls"] == 1 and metrics["fields.scalar_s"] == 0.25
    assert metrics["fields.self_s"] == 0.25


def test_traced_sweep_writes_the_same_csv_bytes(tmp_path):
    expected = {}
    assert run_sweep(SMALL_OPS, 5, tmp_path, expected)[2] == []
    assert len(expected) == len(SMALL_OPS)
    original = reftaylor.cli.uniform_mesh

    recorder = Recorder()
    uninstall = install(recorder)
    try:
        assert reftaylor.cli.uniform_mesh is not original
        failures = run_sweep(SMALL_OPS, 5, tmp_path, expected)[2]
        evals = []
        reftaylor.quadrature.composite_gauss(lambda t: evals.append(t) or t, 0.0, 1.0,
                                             order=3, panels=4)
    finally:
        uninstall()
    assert failures == []  # same digests as the untraced sweep
    assert reftaylor.cli.uniform_mesh is original is reftaylor.simplex.uniform_mesh

    collected = recorder.collect()
    pools = {span.id for span in collected[0] if span.name == "cli._map_ordered"}
    items = [span for span in collected[0] if span.name == "cli.map_item"]
    assert len(items) == 2 + 2 + 2 and {span.parent for span in items} <= pools
    metrics = per_run_metrics(*collected)[0]
    assert metrics["cli.run_s"] > 0.0
    assert metrics["simplex.locate_calls"] == 2 * 2 * 5  # plain and corrected, per mesh
    assert metrics["simplex.elements_built"] == (2 + 8) + (8 + 32)
    assert metrics["simplex.face_counts_calls"] == 2 * 2  # conformity and boundary, per P1 solve
    assert metrics["fem.dense_solves"] == 2
    assert metrics["expansion.segment_samples"] == 11
    assert metrics["expansion.nodes"] == 2 + 3
    assert metrics["fields.scalar_calls"] > 0 and metrics["fields.batch_points"] > 0
    assert metrics["quadrature.integrand_evals"] == len(evals) == 3 * 4


def test_forced_failure_counts_in_fail_ratio(tmp_path):
    ops = [CliOp(("expand", "--function", "no-such-field")), SMALL_OPS[2]]
    sweeps = run_workload(ops, 0, 0, tmp_path, {})
    assert [sweep["warmup"] for sweep in sweeps] == [True, False]
    assert all(sweep["failures"] == [f"{ops[0].key}: exit code 1"] for sweep in sweeps)

    args = Namespace(workload="expansion", seed=0, seconds=0, trace=0)
    result = {"sweeps": sweeps, "peak_rss_mb": 1.0}
    lines, _, attempted, failed = run.summarise(args, result, [0.5])
    assert (attempted, failed) == (4, 2)
    assert any("fail_ratio   2/4 = 0.5" in line for line in lines)


def test_run_refuses_a_directory_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fem-sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in spans.METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in run.WORKLOADS.items()
    }
