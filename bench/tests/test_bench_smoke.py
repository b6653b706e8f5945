"""Toy-size smoke test of the benchmark harness.

Each workload runs two ops with its oracles on; one oracle is fed a
perturbed expected value and must count the op as failed; traced runs
must give identical LAPACK counts; and the harness must refuse to run
without the program's sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from ampbench import UNLISTED_WORKLOADS, WORKLOAD_NAMES, report, trace, workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def make(name, tmp_path, recorder=None, seed=3):
    ctx = workloads.Context(ROOT, tmp_path, bench_run.child_env(), recorder)
    return workloads.WORKLOADS[name](seed, ctx)


@pytest.mark.parametrize("name", WORKLOAD_NAMES + UNLISTED_WORKLOADS)
def test_two_ops_pass_their_oracles(name, tmp_path):
    wl = make(name, tmp_path)
    for i in range(2):
        x = wl.inputs(i)
        assert wl.check(x, wl.run(x, trace.null_span)) == []


def test_perturbed_expectation_counts_as_failure(tmp_path, monkeypatch):
    wl = make("product-chain", tmp_path)
    exact = workloads.site_amplitude
    monkeypatch.setattr(workloads, "site_amplitude", lambda a, b: exact(a, b) + 1e-6)
    latencies, ok, failures = bench_run.measure(wl, 0.0, trace.null_span)
    assert len(latencies) == wl.round and ok == 0
    assert "site amplitude powers" in failures[0]


def _traced_round(tmp_path):
    recorder = trace.Recorder()
    patch = trace.LapackPatch(recorder)
    patch.apply()
    try:
        with pytest.raises(RuntimeError):
            trace.require_untraced()
        wl = make("dense-pairs", tmp_path, recorder)
        latencies, ok, _ = bench_run.measure(wl, 0.0, recorder.span)
    finally:
        patch.restore()
    assert ok == len(latencies) == wl.round
    probes = {"interpreter_ms": 1.0, "import_ms": 1.0}
    values = report.per_layer(recorder.spans, wl.chain_points, probes, 1.0, 1.0)
    assert set(values) == set(report.PER_LAYER)
    return {k: v for k, v in values.items() if k.endswith("_calls")}


def test_traced_counts_repeat_and_tracing_is_removed(tmp_path):
    first = _traced_round(tmp_path)
    assert first == _traced_round(tmp_path)
    assert first["linalg.eigh_calls"] > 0
    trace.require_untraced()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES + UNLISTED_WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "product-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert "metrics" not in res.stdout
