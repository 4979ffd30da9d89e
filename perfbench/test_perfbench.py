"""Tests of the benchmark itself: inputs, schema, a smoke run, the layer predictions.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WL = workloads.WORKLOADS
# Inputs of each kind a smoke or traced run takes from the start of a workload.
SMALL = {"knots": 6, "chains": 6, "alexander": 2}


@pytest.fixture(scope="module")
def bp():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield run.load_package()
    finally:
        signal.signal(signal.SIGALRM, previous)


def small_items(bp, name, seed=3):
    """The first SMALL[name] inputs of each kind; each kind is listed from small to large."""
    taken: dict[str, int] = {}
    items = []
    for item in WL[name].items(bp, seed):
        if taken.get(item.kind, 0) < SMALL[name]:
            taken[item.kind] = taken.get(item.kind, 0) + 1
            items.append(item)
    return items


def words(items):
    return [(it.word.strands, it.word.letters, it.rect) for it in items]


@pytest.mark.parametrize("name", sorted(WL))
def test_generator_is_deterministic_per_seed(bp, name):
    assert words(WL[name].items(bp, 5)) == words(WL[name].items(bp, 5))
    assert words(WL[name].items(bp, 5)) != words(WL[name].items(bp, 6))


def test_knot_words_respect_parity_and_are_distinct(bp):
    assert all((c - s + 1) % 2 == 0 for s, c in workloads._knot_cells())
    quota = workloads.KNOT_STRANDS_QUOTA
    items = [it for it in workloads.knot_items(bp, 11) if it.kind == "random"]
    keys = {(it.word.strands, it.word.canonical()) for it in items}
    assert len(keys) == len(items) == sum(quota.values())
    assert {s: sum(it.word.strands == s for it in items) for s in quota} == quota
    for it in items:
        w = it.word
        assert 4 <= w.strands <= 8 and 12 <= w.length <= 24
        assert w.is_connected and w.is_reduced and w.is_knot
        assert (w.length - w.strands + 1) % 2 == 0


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == tracing.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(WL)


@pytest.mark.parametrize("name", sorted(WL))
def test_smoke_run_reports_every_metric_and_repeats_its_digest(bp, name):
    wl = WL[name]
    items = small_items(bp, name)
    t0 = time.perf_counter()
    first = run.measure(bp, wl, items, 3, 0.2)
    second = run.measure(bp, wl, items, 3, 0.2)
    assert time.perf_counter() - t0 < 30
    first["metrics"]["setup_s"] = 0.1
    line = json.loads(run.result_line(True, first, run.END_TO_END_UNITS))
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v["unit"] == run.END_TO_END_UNITS[k] for k, v in line["metrics"].items())
    assert line["failed"] == 0 and line["attempted"] == len(items)
    assert first["info"]["certificate_sha256"] == second["info"]["certificate_sha256"]


@pytest.mark.parametrize("name", sorted(WL))
def test_traced_run_meets_the_predicted_call_counts(bp, name, tmp_path):
    wl = WL[name]
    res = run.traced_run(bp, wl, small_items(bp, name), 3, 60.0, str(tmp_path / "spans.tsv"))
    metrics = res["metrics"]
    assert set(metrics) == set(tracing.metric_units())
    for layer in wl.predicted_zero:
        assert metrics[f"{layer}.calls"] == 0, layer
    for layer in wl.stressed:
        assert metrics[f"{layer}.calls"] > 0, layer
    header, *rows = (tmp_path / "spans.tsv").read_text().splitlines()
    assert header.split("\t") == ["span", "input", "name", "start_s", "end_s", "parent"]
    assert len(rows) == res["info"]["spans"] > 0


def test_only_timeouts_refusals_and_known_defects_go_without_a_verdict(bp, monkeypatch):
    monkeypatch.setattr(run, "LIMIT_S", 0.2)
    wl = WL["chains"]
    item = small_items(bp, "chains")[0]

    def raising(exc):
        def step(*args):
            raise exc
        return step

    def attempt(**steps):
        return run.attempt(bp, dataclasses.replace(wl, **steps), item)

    known = bp.errors.InternalConsistencyError(wl.known_defects[0])
    assert attempt(validate=raising(known)).startswith(run.KNOWN_DEFECT)
    assert "refused" in attempt(certify=raising(bp.errors.SearchBudgetExceeded("budget")))
    assert "within" in attempt(certify=lambda *args: time.sleep(1))
    with pytest.raises(workloads.WrongVerdict):
        attempt(certify=raising(bp.errors.InternalConsistencyError("engine bug")))
    with pytest.raises(workloads.WrongVerdict):
        attempt(validate=raising(bp.errors.InternalConsistencyError("C_1 is not embedded")))
    with pytest.raises(workloads.WrongVerdict):
        attempt(certify=raising(KeyError("top_left_rectangle")))
    assert not isinstance(run.attempt(bp, wl, item), str)


def test_speed_scale_comes_from_the_reference_samples_around_a_mark():
    clock = speed.Speed()
    clock.samples = [2 * speed.REF_NOMINAL_S] * 20 + [speed.REF_NOMINAL_S / 2] * 20
    assert clock.scale(3) == 0.5
    assert clock.scale(35) == 2.0
    assert clock.mark() == 40 and len(clock.samples) == 41


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        tracer.call("plumbing.trefoil_step", child)
        time.sleep(0.01)

    tracer.call("plumbing.trefoil_decompose", parent)
    m = tracer.metrics(0.0)
    assert 0.015 < m["plumbing.trefoil_step.self_s"] < 0.05
    assert 0.005 < m["plumbing.trefoil_decompose.self_s"] < 0.02
    assert list(tracer.span_parent) == [-1, 0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(321)))[1] == 310
    assert run.tail([3.0, 1.0, 2.0]) == (200.0 / 3, 2.0)


def test_fails_without_a_result_where_the_package_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
