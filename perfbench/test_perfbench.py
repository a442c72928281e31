"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    bench = _bench()
    for name, unit in {**run.END_TO_END_UNITS, **tracing.PER_LAYER_UNITS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def _span(name, start, end, parent=None, **extra):
    return {"name": name, "op": 0, "parent": parent, "start": start, "end": end, **extra}


def test_self_time_subtracts_covered_child_intervals_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 4.0, parent=0),    # overlaps a: [1, 4] covered once
        _span("c", 8.0, 12.0, parent=0),   # clipped to the parent's end
        _span("d", 1.5, 2.5, parent=1),    # grandchild: only a's child
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 1.0, 2.0, 4.0, 1.0])


def test_per_layer_arithmetic_on_hand_built_spans():
    spans = [
        _span("orchestrator.ensemble_predict", 0.0, 10.0, peak_bytes=800, volume_bytes=100),
        _span("orchestrator.predictor", 1.0, 3.0, parent=0),
        _span("orchestrator.predictor", 4.0, 6.0, parent=0),
        _span("cli.main", 20.0, 30.0),
        _span("metrics.connected_components", 21.0, 23.0, parent=3, fg_voxels=4_000_000, components=5),
    ]
    gen_spans = [_span("synthdata.make_phantom", 0.0, 0.5), _span("synthdata.make_phantom", 1.0, 1.25)]
    m = tracing.per_layer(spans, n_ops=2, gen_spans=gen_spans, overhead_frac=0.01)
    assert list(m) == list(tracing.PER_LAYER_UNITS)
    assert m["orchestrator.ensemble_predict.s"] == pytest.approx(5.0)
    assert m["orchestrator.predictor.s"] == pytest.approx(2.0)
    assert m["orchestrator.overhead_s"] == pytest.approx(3.0)
    assert m["orchestrator.overhead_ratio"] == pytest.approx(1.5)
    assert m["orchestrator.invocations"] == 1.0
    assert m["orchestrator.ensemble_predict.peak_vol_eq"] == 8.0
    assert m["cli.main.self_s"] == pytest.approx(4.0)
    assert m["metrics.connected_components.fg_mvox_per_s"] == pytest.approx(2.0)
    assert m["metrics.components"] == 2.5
    assert m["synthdata.make_phantom.s"] == pytest.approx(0.75)
    assert m["nifti.read_volume.s"] == 0.0
    assert m["trace.overhead_frac"] == 0.01


def test_conv_flops_from_shapes():
    # batch 2, 8 -> 16 channels, 3x3 kernel, 112x112 -> 56x56
    flops = tracing.conv_flops((2, 8, 112, 112), (16, 8, 3, 3), (2, 16, 56, 56))
    assert flops == 2 * 2 * 16 * 56 * 56 * 8 * 9


@pytest.fixture(scope="module")
def evaluate_tiny(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return gen.ensure_inputs(cache, "evaluate", 5, "tiny")


def test_injected_bad_output_and_raising_op_count_as_failed(evaluate_tiny, tmp_path):
    wl = workloads.Evaluate(evaluate_tiny, tmp_path)
    times, failures, _ = worker.run_cycles(wl, n_cycles=1)
    assert failures == [None] * len(wl.cycle)

    good_op = wl.op

    def wrong_fpv(item, k):
        out = good_op(item, k)
        return dataclasses.replace(out, fpv_voxels=out.fpv_voxels + 1)

    wl.op = wrong_fpv
    _, failures, _ = worker.run_cycles(wl, n_cycles=1)
    assert all(f and f.startswith("fpv_voxels") for f in failures)

    def raising(item, k):
        raise RuntimeError("boom")

    wl.op = raising
    _, failures, _ = worker.run_cycles(wl, n_cycles=1)
    assert all(f and "boom" in f for f in failures)


def test_trace_install_records_spans_and_uninstall_restores(evaluate_tiny, tmp_path):
    import petseg.metrics

    original = petseg.metrics.connected_components
    wl = workloads.Evaluate(evaluate_tiny, tmp_path)
    rec = tracing.Recorder()
    tracing.install(rec)
    try:
        _, failures, _ = worker.run_cycles(wl, n_cycles=1, rec=rec)
    finally:
        tracing.uninstall(rec)
    assert petseg.metrics.connected_components is original
    assert failures == [None] * len(wl.cycle)
    names = {s["name"] for s in rec.spans}
    assert {"nifti.read_volume", "metrics.connected_components", "metrics.dice"} <= names
    components = sum(s["components"] for s in rec.spans if s["name"] == "metrics.connected_components")
    assert components == sum(i["expected"]["n_pred_components"] + i["expected"]["n_gt_components"]
                             for i in wl.cycle)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                      "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = _run_bench("--workload", "route", "--seed", "3", "--seconds", "1", "--trace", "1",
                      "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == tracing.PER_LAYER_UNITS
    assert result["metrics"]["orchestrator.invocations"]["value"] == 48


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "route", "--seed", "1", "--seconds", "10", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
