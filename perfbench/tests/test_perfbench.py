"""Tests of the benchmark's own code (not of funcevt)."""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench_run  # noqa: E402
from perfbench import spans  # noqa: E402
from perfbench.workloads import WORKLOADS, timed_setup  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _span(sid, parent, name, start, end, pid=1, **counts):
    return {
        "id": sid, "parent": parent, "name": name, "layer": name.split(".")[0],
        "run": 1, "pid": pid, "counts": counts, "start": start, "end": end,
    }


def _fake_bench(metrics):
    bench = bench_run.Bench.__new__(bench_run.Bench)
    bench.run_s = [1.0, 1.0, 1.0]
    bench.traced = [(1.1, metrics)] * 3
    bench.worker_rss_kb = []
    return bench


def test_metric_names_are_well_formed_and_match_the_code():
    doc = _bench_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    layer = bench_run.per_layer(_fake_bench(spans.layer_metrics([], 1, 1)))
    assert {m["name"] for m in doc["per_layer"]} == set(layer)


def test_self_time_arithmetic_on_a_hand_built_tree():
    tree = [
        _span("r", None, "cli.main", 0.0, 10.0),
        _span("a", "r", "harness.run_experiment", 1.0, 4.0),
        _span("b", "r", "harness.load_config", 3.0, 6.0),  # overlaps a
        _span("c", "r", "harness.export_report", 8.0, 12.0),  # runs past r
        _span("g", "a", "process_sim.simulate_moving_max", 2.0, 3.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"r": 3.0, "a": 2.0, "b": 3.0, "c": 4.0, "g": 1.0})
    assert spans.covered([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_layer_metrics_with_parallel_worker_spans():
    tree = [
        _span("r", None, "cli.main", 0.0, 10.0),
        _span("h", "r", "harness.run_experiment", 1.0, 9.0, reps=4, flagged=1),
        _span("o", "h", "exponent_measure.intersection_mass", 8.5, 8.7),
        _span("w1", "h", "process_sim.simulate_pareto_gbm", 2.0, 5.0, pid=2),
        _span("w2", "h", "process_sim.simulate_pareto_gbm", 2.0, 6.0, pid=3),
        _span("w3", "h", "path_model.pareto_transform", 5.0, 8.0, pid=2, clamps=2),
    ]
    m = spans.layer_metrics(tree, owner=1, workers=2)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["harness.self_s"] == pytest.approx(8.0 - 6.0 - 0.2)
    assert m["harness.worker_busy_share"] == pytest.approx(10.0 / 16.0)
    assert m["harness.flagged_share"] == pytest.approx(0.25)
    assert m["process_sim.simulate_s"] == pytest.approx(7.0)
    assert m["process_sim.calls"] == 2
    assert m["path_model.tail_clamps"] == 2
    assert m["exponent_measure.intersection_mass_calls"] == 1
    assert m["trace.accounted_s"] == pytest.approx(10.0)


class _Replay:
    """Stands in for a workload, returning prepared outputs in turn."""

    workers = 1

    def __init__(self, outputs, check):
        self.outputs = list(outputs)
        self.check = check

    def prepare(self):
        pass

    def run(self):
        return self.outputs.pop(0)

    def collect(self, raw):
        return raw

    def fingerprint(self, output):
        return output["file"]


class _Steady(_Replay):
    """Returns the same output on every run; can fail whenever funcevt is traced."""

    def __init__(self, fail_traced=False):
        super().__init__([], lambda output: [])
        self.fail_traced = fail_traced
        self.calls = 0

    def run(self):
        import funcevt.cli

        self.calls += 1
        if self.calls > 200:
            pytest.fail("the measurement did not end")
        if self.fail_traced and hasattr(funcevt.cli.main, "__wrapped__"):
            raise RuntimeError("fails only when traced")
        return {"file": b"same"}


def _quick(monkeypatch, tmp_path, workload=None):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    monkeypatch.setattr(bench_run, "MIN_RUNS", 1)
    monkeypatch.setattr(bench_run, "SETUP_SAMPLES", 2)
    monkeypatch.setattr(bench_run, "probe_setup", lambda name, seed: 0.7)
    if workload is not None:
        monkeypatch.setattr(bench_run, "timed_setup", lambda n, s, w: (workload, 0.5))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(name, tmp_path, monkeypatch):
    # which metrics run_one emits does not depend on the workload's work
    _quick(monkeypatch, tmp_path, _Steady())
    result = bench_run.run_one(name, seed=3, seconds=0, trace=0)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _bench_json()["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.6)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_real_traced_workload_emits_every_per_layer_metric(tmp_path, monkeypatch):
    _quick(monkeypatch, tmp_path)
    result = bench_run.run_one("tailcov-gbm-w2", seed=3, seconds=0, trace=1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["process_sim.calls"] == 200
    assert metrics["exponent_measure.intersection_mass_calls"] == 3
    assert metrics["harness.worker_busy_share"] > 0


def test_runs_that_fail_only_when_traced_end_the_measurement(tmp_path, monkeypatch):
    _quick(monkeypatch, tmp_path, _Steady(fail_traced=True))
    result = bench_run.run_one("limit-mm", seed=3, seconds=0, trace=1)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["metrics"] == {}


def test_missing_targets_and_unreadable_counts_are_noted(monkeypatch, tmp_path):
    import funcevt.path_model

    def broken(result):
        raise AttributeError("no flag")

    monkeypatch.setattr(spans, "TARGETS", (
        ("funcevt.path_model", None, "no_such_function", "path_model", None),
        ("funcevt.no_such_module", None, "f", "path_model", None),
        ("funcevt.path_model", None, "make_grid", "path_model", broken),
    ))
    make_grid = funcevt.path_model.make_grid
    tracer = spans.Tracer(spans.Recorder(tmp_path))
    tracer.install()
    assert len(funcevt.path_model.make_grid(m=3)) == 3
    tracer.remove()
    assert funcevt.path_model.make_grid is make_grid
    notes = "\n".join(sorted(tracer.recorder.notes))
    assert "funcevt.path_model.no_such_function: not found" in notes
    assert "funcevt.no_such_module.f: not found" in notes
    assert "path_model.make_grid: counts not read" in notes


def test_a_corrupted_output_counts_as_a_failed_run(tmp_path):
    wl, _ = timed_setup("tailcov-gbm-w2", 5, tmp_path)
    good = wl.collect(wl.run())
    assert wl.check(good) == []
    text = good["file"].decode().splitlines()
    # corrupt the oracle column of the first row
    cells = text[1].split(",")
    cells[3] = "%.17g" % (float(cells[3]) * 1.001)
    bad = dict(good, file="\n".join([text[0], ",".join(cells), *text[2:]]).encode())
    assert wl.check(bad)

    bench = bench_run.Bench(_Replay([good, good, bad, good], wl.check), tmp_path, 0)
    for _ in range(4):
        bench.once()
    assert (bench.attempted, bench.failed) == (4, 1)
    assert bench.problems[0]["run"] == 3
    assert len(bench.run_s) == 3


def test_checks_reject_wrong_limit_and_sample_outputs(tmp_path):
    limit = WORKLOADS["limit-mm"]()
    doc = {"t": [0.0, 0.5, 1.0], "variance": {
        k: [v] * 3 for k, v in {"moment1": 1.0, "moment2": 20.0, "index": 2.0,
                                "location": 1.0, "scale": 3.0}.items()}}
    ok = {"exit": 0, "stdout": "", "file": json.dumps(doc).encode()}
    assert limit.check(ok) == []
    # JSON the check cannot parse is a failed run, not a crash
    truncated = dict(ok, file=ok["file"][:20])
    bench = bench_run.Bench(_Replay([ok, truncated], limit.check), tmp_path, 0)
    bench.once()
    bench.once()
    assert (bench.attempted, bench.failed) == (2, 1)
    doc["variance"]["scale"][1] = 3.5
    assert limit.check(dict(ok, file=json.dumps(doc).encode()))

    sample = WORKLOADS["sample-analysis"]()
    assert sample.check({"hill_median": 1.02, "finite": True}) == []
    assert sample.check({"hill_median": 1.5, "finite": True})
    assert sample.check({"hill_median": 1.0, "finite": False})
