"""Run one workload of the amplitude-lab benchmark and print its metrics.

    python3 bench/run.py --workload dense-pairs --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports ``amplitude_lab`` from
the checkout's ``src``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, the tail percentile used and the op count, and a
traced run prints every span of its traced half on the line before that.  The
exit code is 1 when any op failed its oracle and 2 when the sources are
missing.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
SETUP_RUNS = 3  # set-ups per run, each in a fresh process; setup_s is their median
PROBE_RUNS = 3  # interpreter and import probes per traced run


def child_env() -> dict:
    """The bench's own environment plus src and bench on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("AMPLITUDE_LAB_THREADS", None)
    paths = [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _wall_until(cmd: list[str], marker: bytes | None = None) -> float:
    """Seconds from spawning ``cmd`` until it prints ``marker`` (or exits)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        for line in proc.stdout:
            if marker is not None and line.strip() == marker:
                break
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0:
        raise RuntimeError(f"{cmd} exited with {code}")
    return elapsed


def setup_times(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    return [_wall_until(cmd, b"ready") for _ in range(SETUP_RUNS)]


def cli_probes() -> dict:
    def median_ms(code: str) -> float:
        return 1e3 * statistics.median(
            _wall_until([sys.executable, "-c", code]) for _ in range(PROBE_RUNS)
        )

    return {"interpreter_ms": median_ms("pass"), "import_ms": median_ms("import amplitude_lab.cli")}


def untraced_p50(workload: str, seed: int, seconds: float) -> tuple[float, int, int]:
    """op_p50 in seconds, attempted and failed, from an untraced run in a child."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    res = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=170)
    last = json.loads(res.stdout.strip().splitlines()[-1])
    return last["metrics"]["op_p50_ms"]["value"] / 1e3, last["attempted"], last["failed"]


def measure(wl, seconds: float, span):
    """Closed loop: whole rounds of ops until ``seconds`` of wall time have passed."""
    latencies: list[float] = []
    failures: list[str] = []
    ok = 0
    i = 0
    t_begin = time.perf_counter()
    while True:
        for _ in range(wl.round):
            x = wl.inputs(i)
            t = time.perf_counter()
            try:
                with span("op"):
                    out = wl.run(x, span)
            except Exception:  # an op that raises is a failed op; keep measuring
                latencies.append(time.perf_counter() - t)
                failures.append(f"op {i} raised:\n{traceback.format_exc()}")
            else:
                latencies.append(time.perf_counter() - t)
                bad = wl.check(x, out)
                failures.extend(f"op {i}: {msg}" for msg in bad)
                ok += not bad
            i += 1
        if time.perf_counter() - t_begin >= seconds:
            return latencies, ok, failures


def parse_args(argv):
    from ampbench import UNLISTED_WORKLOADS, WORKLOAD_NAMES

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + UNLISTED_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "amplitude_lab" / "__init__.py").is_file():
        print(f"bench: no amplitude_lab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("AMPLITUDE_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))

    setup_s = [] if args.trace or args.setup_only else setup_times(args.workload, args.seed)

    from ampbench import trace

    recorder = None
    if args.trace:
        recorder = trace.Recorder()
        patch = trace.LapackPatch(recorder)
        patch.apply()
    from ampbench import report, workloads

    if args.trace:
        patch.apply()
    else:
        trace.require_untraced()
    workdir = BENCH / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(ROOT, workdir, child_env(), recorder)
        wl = workloads.WORKLOADS[args.workload](args.seed, ctx)
        wl.run(wl.inputs(0), trace.null_span)  # warm-up
        if args.setup_only:
            print("ready", flush=True)
            return 0

        if args.trace:
            half = args.seconds / 2.0
            base_p50, base_attempted, base_failed = untraced_p50(args.workload, args.seed, half)
            probes = cli_probes()
            recorder.spans.clear()
            latencies, ok, failures = measure(wl, half, recorder.span)
            values = report.per_layer(recorder.spans, wl.chain_points, probes,
                                      statistics.median(latencies), base_p50)
            metrics = report.as_metrics(values, report.PER_LAYER)
            attempted = len(latencies) + base_attempted
            failed = len(latencies) - ok + base_failed
        else:
            latencies, ok, failures = measure(wl, args.seconds, trace.null_span)
            rss_kb = ctx.peak_child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = report.end_to_end(latencies, ok, setup_s, rss_kb)
            metrics = report.as_metrics(values, report.END_TO_END)
            attempted, failed = len(latencies), len(latencies) - ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures[:20]:
        print(msg, file=sys.stderr)
    if args.trace:
        print(json.dumps({"spans": recorder.export()}))
    _, pct = report.tail(latencies)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(latencies),
        "tail_percentile": pct,
        "setup_runs": setup_s,
        "spectral_spread": wl.spectral_spread,
        "env": report.environment(ROOT),
    }
    print(json.dumps({"info": info}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
