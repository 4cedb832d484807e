"""A tiny pass of every workload, untraced and traced, plus the contract."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import runner
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SECONDS = 0.4


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def reports(request, tmp_path_factory):
    name = request.param

    def make():
        workdir = tmp_path_factory.mktemp(name.replace("-", "_"))
        return workloads.WORKLOADS[name](7, workloads.Sizes.tiny(), workdir)

    untraced = runner.run_untraced(make(), SECONDS, own_import=1.0, src=str(ROOT / "src"),
                                   fresh_imports=0)
    traced = runner.run_traced(make(), SECONDS)
    return name, untraced, traced


def _values(report):
    return {name: entry["value"] for name, entry in report["metrics"].items()}


def test_untraced_pass_is_correct_and_complete(reports):
    name, untraced, _ = reports
    assert untraced["problems"] == []
    assert untraced["attempted"] >= 1
    assert untraced["failed"] == 0
    values = _values(untraced)
    assert set(values) == set(runner.END_TO_END_UNITS)
    for metric, value in values.items():
        assert math.isfinite(value) and value > 0, (name, metric, value)


def test_traced_pass_reports_every_layer(reports):
    name, _, traced = reports
    assert traced["problems"] == []
    values = _values(traced)
    assert set(values) == set(runner.PER_LAYER_UNITS)
    assert values["trace.missing_shims"] == 0
    assert values["trace.spans"] > 0


def test_layers_are_zero_where_no_work_is_predicted(reports):
    name, _, traced = reports
    values = _values(traced)
    if name != "ingest":
        assert all(v == 0 for k, v in values.items() if k.startswith("storage.")), name
    if name == "adhoc":
        assert all(v == 0 for k, v in values.items() if k.startswith("parallel.")), name
        assert values["core.block.self_ms"] > 0
        assert values["stats.normal_quantile.calls"] > 0
    if name == "scan":
        assert values["parallel.scan.wall_ms"] > 0
        assert values["parallel.exact.self_ms"] > 0
        assert values["sampling.US.self_ms"] > 0
    if name == "ingest":
        assert values["core.cache_hit.self_ms"] == 0
        assert values["serve.cache.hit_rate"] > 0
        assert values["serve.cache.lookup.self_ms"] > 0
        assert values["serve.cache.invalidations"] > 0
        assert values["storage.wal.append.self_ms"] > 0
        assert values["storage.append.p50_ms"] > 0
        assert values["storage.reopen_s"] > 0
        assert values["storage.open.wall_ms"] > 0
        assert values["storage.wal.replayed"] > 0
        assert values["storage.write_amp"] > 1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == runner.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == runner.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adhoc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
