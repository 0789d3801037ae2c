"""Tests of the end-to-end benchmark's own machinery (no workload is run).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

import catalog
import checks
import run
import summary
from spans import Tracer, layer_table, load, unattributed
from workload import BatchWorkload, Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    """A clock that reads the next scripted time on every call."""

    def __init__(self, *times: float) -> None:
        self._times = iter(times)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return next(self._times)


def _noop() -> None:
    return None


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
def test_self_time_under_nesting():
    # outer [0, 10] > middle [2, 6] > inner [3, 4]; a second child [7, 8].
    tracer = Tracer(clock=FakeClock(0, 2, 3, 4, 6, 7, 8, 10))
    inner = tracer.wrap("inner", _noop)
    leaf = tracer.wrap("leaf", _noop)

    def middle_body():
        inner()

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        middle()
        leaf()

    tracer.wrap("outer", outer_body)()
    table = layer_table(tracer.threads)
    assert table["outer"] == {"calls": 1, "busy_s": 10, "self_s": 10 - 4 - 1}
    assert table["middle"] == {"calls": 1, "busy_s": 4, "self_s": 3}
    assert table["inner"] == {"calls": 1, "busy_s": 1, "self_s": 1}
    assert table["leaf"] == {"calls": 1, "busy_s": 1, "self_s": 1}
    total_self = sum(row["self_s"] for row in table.values())
    assert total_self == table["outer"]["busy_s"]


def test_self_time_across_two_threads():
    # Thread A's span [0, 10] is open while thread B runs [2, 5] > [3, 4].
    # B's spans are roots of their own thread: A's self time keeps all 10 s.
    tracer = Tracer(clock=FakeClock(0, 2, 3, 4, 5, 10))
    b_done = threading.Event()
    a_open = threading.Event()

    def b_inner():
        return None

    def b_outer():
        tracer.wrap("b.inner", b_inner)()

    def thread_b():
        a_open.wait(5)
        tracer.wrap("b.outer", b_outer)()
        b_done.set()

    def a_body():
        a_open.set()
        assert b_done.wait(5)

    worker = threading.Thread(target=thread_b)
    worker.start()
    tracer.wrap("a.outer", a_body)()
    worker.join(5)
    assert not worker.is_alive()
    table = layer_table(tracer.threads)
    assert table["a.outer"]["self_s"] == 10
    assert table["b.outer"] == {"calls": 1, "busy_s": 3, "self_s": 2}
    assert table["b.inner"]["self_s"] == 1
    assert len(tracer.threads) == 2


def test_reentered_layer_counts_busy_once_and_trace_ids_propagate(tmp_path):
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3))
    inner = tracer.wrap("layer", _noop)
    outer = tracer.wrap("layer", lambda job: inner(), trace_of=lambda job: job)
    outer("job-7")
    table = layer_table(tracer.threads)
    assert table["layer"] == {"calls": 2, "busy_s": 3, "self_s": 3}
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert [span["trace"] for span in spans] == ["job-7", "job-7"]
    assert layer_table(load(str(path))) == table


def test_unattributed_is_root_self_time():
    # Two operations (roots) of 10 s and 5 s; the layer claims 9 s and 4.5 s.
    tracer = Tracer(clock=FakeClock(0, 0.5, 9.5, 10, 20, 20.25, 24.75, 25))
    layer = tracer.wrap("layer", _noop)
    for trace in ("op-0", "op-1"):
        with tracer.span("root", trace=trace):
            layer()
    table = layer_table(tracer.threads, within="root")
    seconds, share = unattributed(table, "root")
    assert seconds == 1.5
    assert share == pytest.approx(0.1)
    assert table["layer"]["self_s"] + seconds == table["root"]["busy_s"] == 15


def test_layer_table_within_drops_spans_outside_operations():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 5, 6))
    layer = tracer.wrap("layer", _noop)
    with tracer.span("root"):
        layer()
    layer()  # e.g. a check between operations
    table = layer_table(tracer.threads, within="root")
    assert table["layer"]["calls"] == 1


def test_counters_measure_arguments_and_results():
    tracer = Tracer()
    wrapped = tracer.wrap("f", lambda items: items, counts={"f.items": lambda a, r: len(r)})
    wrapped([1, 2, 3])
    wrapped([4])
    assert tracer.counts == {"f.items": 4}


# --------------------------------------------------------------------------- #
# Percentiles and spreads
# --------------------------------------------------------------------------- #
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert summary.tail(list(range(1, 101))) == ("p90", 90)
    assert summary.tail(list(range(1, 100))) == ("p50", 50)
    assert summary.tail(list(range(1, 1000))) == ("p90", 900)
    assert summary.tail(list(range(1, 1001))) == ("p99", 990)
    # Too few samples for any tail: the median stands in for it.
    assert summary.tail([4.0, 1.0, 3.0, 2.0]) == ("p50", 2.0)
    assert summary.tail([4.0]) == ("p50", 4.0)


def test_nearest_rank_and_spread():
    assert summary.nearest_rank([3, 1, 2, 4], 50) == 2
    assert summary.nearest_rank([3, 1, 2, 4], 90) == 4
    assert summary.nearest_rank([7], 1) == 7
    values = [10.0] * 4 + [11.0] * 4
    q1, _, q3 = summary.quartiles(values)
    assert summary.spread(values) == (q3 - q1) / 10.5


# --------------------------------------------------------------------------- #
# Value checks feed the failure count
# --------------------------------------------------------------------------- #
def _workload_with_reference(tmp_path, reference_values):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({"seed": 0, "cells": {"cell-ipss": reference_values}}))
    inputs = {
        "workload": "grid-cold",
        "tasks": [{"n_clients": 3}],
        "algorithms": ["IPSS"],
        "reference": str(path),
    }
    workload = BatchWorkload(inputs, str(tmp_path))
    workload.gammas = [5]
    return workload


def test_reference_perturbed_by_1e6_fails_the_operation(tmp_path):
    values = [0.125, 0.25, 0.5]
    cell = {"cell-ipss": {"algorithm": "IPSS", "status": "done", "values": values, "evaluations": 5}}
    report = {"fl_trainings": 5}

    exact = _workload_with_reference(tmp_path, values)
    assert exact.check(0, cell, report, store="") == []
    close = _workload_with_reference(tmp_path, [values[0] + 1e-12, *values[1:]])
    assert close.check(0, cell, report, store="") == []

    perturbed = _workload_with_reference(tmp_path, [values[0] + 1e-6, *values[1:]])
    problems = perturbed.check(0, cell, report, store="")
    assert problems and "off by" in problems[0]
    ops = [{"problems": []}, {"problems": problems}]
    assert summary.failed(ops) == 1


def test_calibration_pairs_operations_with_slices_near_them():
    calibration = Calibration.__new__(Calibration)
    calibration.samples = [(t / 2, 0.030) for t in range(8)] + [
        (4.0 + t / 2, 0.050) for t in range(8)
    ]
    # A long operation: the slices within one operation length on each side.
    assert calibration.around(1.0, 2.0) == 0.030
    assert calibration.around(5.0, 6.0) == 0.050
    # A short one: the four nearest slices, here two on each side of a change.
    assert calibration.around(3.74, 3.76) == 0.040
    assert calibration.median() == 0.040


def test_other_value_checks():
    assert checks.finite_problems("c", [0.0, float("nan")])
    assert not checks.finite_problems("c", [0.0, 1.0])
    assert checks.budget_problems("c", evaluations=33, gamma=32)
    assert not checks.budget_problems("c", evaluations=32, gamma=32)
    assert not checks.efficiency_problems("c", [0.25, 0.5], grand=0.875, empty=0.125)
    assert checks.efficiency_problems("c", [0.25, 0.5], grand=0.876, empty=0.125)
    assert checks.efficiency_problems("c", [0.25, 0.5], grand=None, empty=0.125)
    assert checks.agreement_problems({"c": [1.0]}, {"c": [1.0 + 1e-15]}, atol=None)
    assert not checks.agreement_problems({"c": [1.0]}, {"c": [1.0]}, atol=None)


# --------------------------------------------------------------------------- #
# Catalog <-> BENCHMARK.json <-> runner
# --------------------------------------------------------------------------- #
def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_catalog():
    assert _benchmark_json() == catalog.benchmark_json()


def test_runner_emits_exactly_the_declared_metrics():
    declared = _benchmark_json()
    seconds = summary.valuation_seconds([0.5, 0.7, 0.6], cpu_s=1.5)
    assert seconds == {"valuation_p50_s": 0.6, "valuation_tail_s": 0.6, "cpu_s_per_op": 0.5}
    # The second operation ran while the machine was half as fast.
    ops = [
        {"wall_s": 0.5, "calib_s": 0.025},
        {"wall_s": 1.0, "calib_s": 0.05},
        {"wall_s": 0.6, "calib_s": 0.025},
    ]
    e2e = summary.end_to_end([1.0, 1.2, 0.9], ops, cpu_s=1.5, peak_rss_mb=100.0)
    assert list(e2e) == [metric["name"] for metric in declared["end_to_end"]]
    assert e2e["setup_s"] == 1.0
    assert e2e["valuation_p50_calib"] == 20.0
    assert e2e["cpu_per_op_calib"] == 0.5 / 0.025
    layers = summary.per_layer(
        {"store.get": {"calls": 4, "busy_s": 1.0, "self_s": 1.0}},
        {"store.get.hits": 1},
        wall_s=2.0,
        unattributed_share=0.01,
        overhead_est=0.001,
        trainings=3,
        cache_hit_ratio=0.5,
        queue_wait_share=0.0,
    )
    assert list(layers) == [metric["name"] for metric in declared["per_layer"]]
    assert layers["store.get.hit_ratio"] == 0.25
    line = summary.result_line(e2e, attempted=3, failed=0, correct=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {metric["name"]: metric["unit"] for metric in declared["end_to_end"]} == {
        name: value["unit"] for name, value in line["metrics"].items()
    }


def test_names_units_and_bounds_follow_the_contract():
    declared = _benchmark_json()
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for workload in declared["workloads"]:
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= declared["run_seconds"] <= 60
    assert len(json.dumps(declared)) <= 64 * 1024


def test_inputs_come_from_the_seed_alone():
    for workload in catalog.WORKLOADS:
        assert run.make_inputs(workload, 3, 10) == run.make_inputs(workload, 3, 10)
        assert run.make_inputs(workload, 3, 10) != run.make_inputs(workload, 4, 10)
    jobs = run.make_inputs("service-steady", 0, 10)["jobs"]
    assert len(jobs) == run.SERVICE_RATE * 10
    duplicates = [index for index, job in enumerate(jobs) if job["duplicate_of"] is not None]
    assert len(duplicates) == len(jobs) // run.SERVICE_DUPLICATE_EVERY
    for index in duplicates:
        original = jobs[index]["duplicate_of"]
        assert jobs[original]["duplicate_of"] is None
        assert jobs[index]["spec"] == jobs[original]["spec"]
    distinct = {json.dumps(job["spec"], sort_keys=True) for job in jobs}
    assert len(distinct) == len(jobs) - len(duplicates)
