"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The last test runs every workload item once (about 25 s).
"""

from __future__ import annotations

import collections
import copy
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads(worker.REFERENCE.read_text())
CHEAP = [("cli", tuple("decompose vec-g --n 61".split())), ("stable", (3, 1))]


@pytest.fixture(scope="module")
def bhl():
    return worker.import_bhl()


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("BHL_DIM_GUARD", raising=False)


def test_seed_fixes_the_order_and_only_permutes_it():
    for name, spec in workloads.WORKLOADS.items():
        first = workloads.ordered_items(name, 7)
        assert first == workloads.ordered_items(name, 7)
        other = workloads.ordered_items(name, 8)
        assert other != first
        ids = collections.Counter(map(workloads.item_id, spec["items"]))
        assert collections.Counter(map(workloads.item_id, other)) == ids
        assert collections.Counter(map(workloads.item_id, first)) == ids


def test_a_corrupted_reference_drives_error_rate_above_zero(bhl):
    result = worker.measure(CHEAP, bhl, REFERENCE, count=3)
    assert result["errors"] == []

    changed = copy.deepcopy(REFERENCE)
    changed[workloads.item_id(CHEAP[1])]["chain"][0] += 1
    result = worker.measure(CHEAP, bhl, changed, count=3)
    assert len(result["errors"]) / result["attempted"] > 0

    # A SKIP where the reference has PASS is a difference as well.
    changed = copy.deepcopy(REFERENCE)
    checks = changed[workloads.item_id(CHEAP[0])]["checks"]
    assert checks[0]["status"] == "PASS"
    checks[0]["status"] = "SKIP"
    result = worker.measure(CHEAP, bhl, changed, count=3)
    assert {e["item"] for e in result["errors"]} == {
        workloads.item_id(CHEAP[0])}


def test_self_time_on_a_synthetic_nested_trace():
    spans = [
        (0, None, 0, "cli.main", 0.0, 10.0),
        (1, 0, 0, "exactmat.Mat.nullity", 1.0, 4.0),
        (2, 1, 0, "exactmat.Mat.rank", 2.0, 3.0),
        (3, 0, 0, "graded.tensor_map", 5.0, 7.0),
        (4, 3, 0, "exactmat.Mat.kron", 5.5, 6.5),
        (5, None, 1, "hopf.verify_antipode", 20.0, 30.0),
        (6, 5, 1, "graded.GradedMap.__matmul__", 21.0, 23.0),
        (7, 5, 1, "graded.GradedMap.__matmul__", 24.0, 27.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 5.0,
                     6: 2.0, 7: 3.0}
    got = tracing.layer_metrics(spans, {})
    assert got["cli.self_s"] == 5.0
    assert got["exactmat.self_s"] == 4.0
    assert got["graded.self_s"] == 6.0
    assert got["hopf.self_s"] == 5.0
    # rank nests in nullity: one elimination, timed once
    assert got["exactmat.elim_s"] == 3.0
    assert got["exactmat.elim_calls"] == 1
    assert got["exactmat.kron_s"] == 1.0
    assert got["graded.compose_calls"] == 2


def test_tracing_wraps_and_restores_without_changing_verdicts(bhl):
    main = bhl["cli"].main
    mul = bhl["exactmat"].Mat.__mul__
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, bhl)
    try:
        assert bhl["cli"].main is not main
        lat, errors = worker.run_pass(CHEAP, bhl, REFERENCE, tracer)
    finally:
        tracing.uninstall(patches)
    assert errors == []
    assert bhl["cli"].main is main
    assert bhl["exactmat"].Mat.__mul__ is mul
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["cli.main_s"] > 0 and metrics["classify.s"] > 0
    assert metrics["exactmat.elim_calls"] > 0
    assert metrics["scalars.mul_calls"] > 0
    assert all(s is not None for s in tracer.spans)


@pytest.mark.parametrize("table, key, names", [
    ("SPAN_SETS", "exactmat.elim", ("exactmat.Mat.rank",
                                    "exactmat.Mat.bareiss")),
    ("PRIVATE_COUNTED", "algebras", ("_pair_product_uncached",)),
    ("SCALAR_COUNTED", "from_fraction", "scalars.from_fraction"),
])
def test_a_name_missing_from_bhl_refuses_to_trace(bhl, monkeypatch, table,
                                                  key, names):
    monkeypatch.setitem(getattr(tracing, table), key, names)
    main = bhl["cli"].main
    with pytest.raises(RuntimeError, match="not found in bhl"):
        tracing.install(tracing.Tracer(), bhl)
    assert bhl["cli"].main is main


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = {name: tracing.metric_unit(name) for name in tracing.LAYER_METRICS}
    want.update({name: unit for name, (_, unit) in probes.PROBES.items()})
    want["trace.overhead_ratio"] = "ratio"
    assert layer == want


def test_scaling_cancels_machine_speed_but_not_program_speed():
    timings = [0.010, 0.200, 0.030, 0.004]
    references = [0.006, 0.007, 0.008, 0.007, 0.006]
    scaled = calibration.scale_all(timings, references)
    # The machine runs at half speed: items and references take twice as
    # long, and the scaled timings do not move.
    slow = calibration.scale_all([2 * t for t in timings],
                                 [2 * r for r in references])
    assert slow == pytest.approx(scaled)
    # The program gets slower on the same machine: the scaled timings
    # move by as much as the raw ones.
    slower = calibration.scale_all([1.5 * t for t in timings], references)
    assert slower == pytest.approx([1.5 * t for t in scaled])
    # Item 1 lies between references 1 and 2; it is scaled by the two
    # reference runs before it and the two after it.
    assert scaled[1] == pytest.approx(
        0.200 * calibration.REFERENCE_S / statistics.median(references[0:4]))
    with pytest.raises(ValueError):
        calibration.scale_all(timings, references[:-1])


def test_harrell_davis_percentile():
    assert worker.percentile(list(range(1, 10)), 0.5) == pytest.approx(5)
    assert worker.percentile([3.0] * 36, 0.72) == pytest.approx(3.0)
    xs = [1, 2, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    got = [worker.percentile(xs, q) for q in (0.1, 0.5, 0.72, 0.9)]
    assert got == sorted(got) and min(xs) < got[0] and got[-1] < max(xs)
    # tail_percentile gives p0 below 11 samples: the fastest sample.
    assert worker.percentile(xs, 0) == min(xs)


def test_tail_percentile_keeps_ten_samples_above_it():
    assert worker.tail_percentile(100) == 90
    assert worker.tail_percentile(1000) == 90
    assert worker.tail_percentile(36) == 72
    for n in (12, 24, 36, 54, 99):
        q = worker.tail_percentile(n)
        assert n * (1 - q / 100) >= 10


def _run_bench(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_refuses_a_dimension_guard_override():
    done = _run_bench(ROOT, dict(os.environ, BHL_DIM_GUARD="1000"))
    assert done.returncode != 0
    assert done.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_every_item_matches_its_reference_without_guard_skips(bhl):
    for name, spec in workloads.WORKLOADS.items():
        for item in spec["items"]:
            key = workloads.item_id(item)
            got = workloads.verdict(item, workloads.execute(item, bhl))
            assert got == REFERENCE[key], key
            checks = got["checks"] if item[0] == "cli" else got
            if not isinstance(checks, list):
                continue
            for c in checks:
                # `suite --p` deselects some criteria by design; nothing
                # may be skipped by the dimension guard.
                assert c["status"] != "SKIP" or c["details"].startswith(
                    "no parameters selected by --p"), (key, c)


def test_negative_controls_fail_with_a_witness():
    for p in (5, 11):
        checks = REFERENCE["anyonic_hopf(%d, 0)" % p]
        failed = [c for c in checks if c["status"] == "FAIL"]
        assert failed and all(c["witnesses"] for c in failed)
