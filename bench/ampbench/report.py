"""Metric names, units and the arithmetic that turns timings into metrics."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
from importlib import metadata
from pathlib import Path

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}

SPANS = (
    "algebra.functional_build",
    "amplitudes.transition_amplitude",
    "amplitudes.uhlmann_fidelity",
    "amplitudes.inequality_suite",
    "central.amplitude_sum_check",
    "modular.kms_defect",
    "modular.support_reduce",
    "forms.gram_build",
    "forms.geometric_mean",
    "forms.interpolated_form",
    "restriction.build_chain",
    "restriction.chain_amplitudes",
    "serialize.load",
    "cli.main",
    "op",
)

PER_LAYER = {
    **{f"{s}.{m}": u for s in SPANS for m, u in (("ms", "ms"), ("eigh_calls", "count"))},
    "linalg.eigh_calls": "count",
    "linalg.eigvalsh_calls": "count",
    "linalg.svd_calls": "count",
    "linalg.lapack_ms": "ms",
    "linalg.lapack_share": "ratio",
    "restriction.chain_points_per_s": "1/s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "op.self_ms": "ms",
    "trace.overhead": "ratio",
}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With n samples that is the (n - 10)-th smallest; below 11 samples the
    maximum is reported as the 100th percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(latencies: list[float], ok: int, setup_s: list[float], peak_rss_kb: int) -> dict:
    value, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * value,
        "ops_per_s": ok / sum(latencies),
        "ok_rate": ok / len(latencies),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _op_of(span):
    while span is not None and span.name != "op":
        span = span.parent
    return span


def per_layer(spans, chain_points: int, probes: dict, traced_p50_s: float, untraced_p50_s: float) -> dict:
    ops = [s for s in spans if s.name == "op"]
    n_ops = len(ops)
    in_ops = [s for s in spans if _op_of(s) is not None]
    out: dict = {}
    for name in SPANS:
        calls = [s for s in spans if s.name == name]
        out[f"{name}.ms"] = 1e3 * statistics.median(s.seconds for s in calls) if calls else 0.0
        out[f"{name}.eigh_calls"] = sum(s.counts["eigh"] for s in calls) / len(calls) if calls else 0.0
    for label in ("eigh", "eigvalsh", "svd"):
        out[f"linalg.{label}_calls"] = sum(s.counts[label] for s in in_ops) / n_ops
    lapack_s = sum(s.lapack_s for s in in_ops)
    out["linalg.lapack_ms"] = 1e3 * lapack_s / n_ops
    out["linalg.lapack_share"] = lapack_s / sum(s.seconds for s in ops)
    chains = [s.seconds for s in spans if s.name == "restriction.chain_amplitudes"]
    out["restriction.chain_points_per_s"] = chain_points * len(chains) / sum(chains) if chains else 0.0
    out["cli.interpreter_ms"] = probes["interpreter_ms"]
    out["cli.import_ms"] = probes["import_ms"]
    child_s: dict = {}
    for s in spans:
        if s.parent is not None and s.parent.name == "op":
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + s.seconds
    out["op.self_ms"] = 1e3 * statistics.median(op.seconds - child_s.get(id(op), 0.0) for op in ops)
    out["trace.overhead"] = traced_p50_s / untraced_p50_s
    return out


def as_metrics(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS this process loaded, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np

    sha = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = res.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
    }
