"""Tests of the performance harness itself, on the smoke-size inputs.

Run with ``python -m pytest benchmarks/perf`` (about a minute).
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import verdict
from layers import LAYERS, layer_of_relpath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_harness(tmp_path: Path, *arguments: str, root: Path = ROOT):
    """Run run.py; returns (exit code, final JSON line or None, result document)."""
    document = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "perf" / "run.py"), "--smoke",
         "--out", str(tmp_path), "--json", str(document), *arguments],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    result = json.loads(document.read_text()) if document.exists() else None
    return completed.returncode, final, result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return out, run_harness(out, "--trace", "1")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_harness(tmp_path_factory.mktemp("untraced"))


def copy_harness(checkout: Path) -> Path:
    """Copy BENCHMARK.json and this directory into ``checkout``; returns the copy."""
    shutil.copy(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    harness = checkout / "benchmarks" / "perf"
    shutil.copytree(HERE, harness, ignore=shutil.ignore_patterns("__pycache__"))
    return harness


def test_benchmark_json_names_are_valid_and_unique():
    names = WORKLOAD_NAMES + [metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_workload_registry_matches_benchmark_json():
    from workloads import WORKLOADS

    assert list(WORKLOADS) == WORKLOAD_NAMES


def test_untraced_run_reports_every_end_to_end_metric(untraced):
    code, final, result = untraced
    assert code == 0 and final["correct"] and final["failed"] == 0
    expected = {metric["name"] for metric in SPEC["end_to_end"]}
    for name in WORKLOAD_NAMES:
        metrics = result["workloads"][name]["metrics"]
        assert set(metrics) == expected
        assert all(value > 0 for value in metrics.values()), (name, metrics)
    assert set(final["metrics"]) == {f"{w}.{m}" for w in WORKLOAD_NAMES for m in expected}


def test_traced_run_reports_every_per_layer_metric_and_layer(traced):
    out, (code, final, result) = traced
    assert code == 0 and final["correct"]
    expected = {metric["name"] for metric in SPEC["per_layer"]}
    for name in WORKLOAD_NAMES:
        assert set(result["workloads"][name]["metrics"]) == expected
        layers = json.loads((out / f"{name}.layers.json").read_text())
        assert set(layers["layers"]) == set(LAYERS)
        assert (out / f"{name}.pstats").stat().st_size > 0
        self_total = sum(entry["self_s"] for entry in layers["layers"].values())
        assert self_total == pytest.approx(layers["total_s"], rel=0.01)


def test_exact_counters_repeat_across_runs(traced, untraced):
    _out, (_code, _final, traced_result) = traced
    _code, _final, untraced_result = untraced
    for name in WORKLOAD_NAMES:
        counters = dict(traced_result["workloads"][name]["counters"])
        assert counters.pop("systemc.dispatches") > 0
        assert counters == untraced_result["workloads"][name]["counters"], name


def test_every_source_file_maps_to_a_named_layer():
    package = ROOT / "src" / "repro"
    for path in package.rglob("*.py"):
        layer = layer_of_relpath(path.relative_to(package).as_posix())
        assert layer in LAYERS and layer != "python", path


def test_gauge_passes_are_left_out_of_the_clock():
    from gauge import INTERVAL_S, HostGauge

    gauge = HostGauge()
    wall_start, clock_start = time.perf_counter(), gauge.clock()
    with gauge.sampling():
        while time.perf_counter() - wall_start < 4 * INTERVAL_S:
            pass
    wall = time.perf_counter() - wall_start
    passes = [seconds for _start, seconds in gauge.samples]
    assert len(passes) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gauge.clock() - clock_start <= wall - sum(passes)


def test_corrupted_oracle_fails_the_run(tmp_path):
    expect_path = copy_harness(tmp_path) / "expect.json"
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expect = json.loads(expect_path.read_text())
    expect["smoke"]["smp_spin"] = "0" * 64
    expect_path.write_text(json.dumps(expect))
    code, final, _result = run_harness(tmp_path, "--workload", "smp_spin", root=tmp_path)
    assert code != 0
    assert not final["correct"] and final["failed"] > 0 and final["attempted"] > final["failed"]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    copy_harness(tmp_path)
    code, final, _result = run_harness(tmp_path, root=tmp_path)
    assert code != 0 and final is None


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "improved"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], "regressed"),
    ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.0, 10.1, 9.9, 10.0], "within bound"),
    ([10.0, 14.0, 7.0, 12.0, 9.0], [10.5, 13.0, 8.0, 11.0, 9.5], "unresolved"),
    # a host slowdown that moves both runs of each pair cancels in the ratios
    ([10.0, 12.0, 14.0, 16.0, 18.0], [10.1, 12.1, 14.1, 16.1, 18.1], "within bound"),
])
def test_compare_verdicts(parent, change, expected):
    assert verdict(parent, change, "lower", 0.1)[1] == expected
