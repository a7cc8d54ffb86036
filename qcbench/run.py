"""quantcert benchmark: one seeded workload, measured in fresh interpreters.

    python3 qcbench/run.py --workload certify_range --seed 1 --seconds 15 --trace 0
    python3 qcbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the last line of stdout is the JSON result.
``--smoke`` runs every workload at a tiny size with tracing off and on and
checks the results' shape; it is the benchmark's own test.

Load is one client in a closed loop: one request at a time, no threads in
the measured process.  Each measured process is a fresh interpreter with
BLAS/OpenMP pinned to one thread, so set-up time and peak memory belong to
that workload alone.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from child import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify_range", "block_dims", "closure_probe", "surfaces")

#: extra interpreters started only to sample set-up time
SETUP_SAMPLES = 10
#: the tail percentile: the highest of these with >= 10 samples beyond it
TAIL_PERCENTILES = (90, 75, 50)
#: least share of the traced call time the layers' self times must cover
COVERAGE_MIN = 0.95
#: a run must end within this many seconds of its start
DEADLINE_S = 170

WORK_UNITS = {
    "certify_range": "levels certified",
    "block_dims": "block dimensions",
    "closure_probe": "closure elements",
    "surfaces": "requests",
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind (``end_to_end`` or ``per_layer``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        env[var] = "1"
    return env


def spawn(opts: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run child.py; return (seconds from start to ready, result or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), *opts]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or json.loads(ready or "{}").get("event") != "ready":
        raise BenchError(f"child {' '.join(opts)} exited with {code}")
    lines = rest.splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(math.ceil(q / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the reported tail."""
    n = len(sorted_values)
    for q in TAIL_PERCENTILES:
        beyond = n - math.ceil(q / 100 * n)
        if beyond >= 10:
            return percentile(sorted_values, q), q, beyond
    return sorted_values[-1], 100, 0


def run_end_to_end(workload: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, list[str]]:
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    base += ["--tiny"] if tiny else []
    runs = [spawn(base + ["--mode", "setup"], deadline) for _ in range(1 if tiny else SETUP_SAMPLES)]
    runs.append(spawn(base + ["--mode", "timed"], deadline))
    raw_setups = [setup for setup, _ in runs]
    setups = [setup * REFERENCE_S / child["setup_reference_s"] for setup, child in runs]
    res = runs[-1][1]
    lat = sorted(res["latencies"])
    tail_s, tail_q, beyond = tail(lat)
    metrics = {
        "work_per_s": res["units"] / res["busy_s"],
        "call_p50_ms": percentile(lat, 50) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kib"] / 1024,
    }
    notes = [
        f"inputs sha256 {res['inputs_sha256']}  rounds {res['rounds']}",
        f"times at reference speed; the reference kernel took {res['reference_s'] * 1e3:.4g} ms here"
        f" against {REFERENCE_S * 1e3:.4g} ms",
        f"work_per_s    {metrics['work_per_s']:.6g} {WORK_UNITS[workload]}/s"
        f"  ({res['units']} units in {res['busy_s']:.3f} s of calls; raw {res['units'] / res['raw_busy_s']:.6g}/s)",
        f"call_p50_ms   {metrics['call_p50_ms']:.6g} ms  (n={len(lat)}; raw {res['raw_p50_s'] * 1e3:.6g} ms)",
        f"call_tail_ms  {metrics['call_tail_ms']:.6g} ms  (p{tail_q}, {beyond} samples beyond, n={len(lat)})",
        f"setup_s       {metrics['setup_s']:.6g} s  (median of {len(setups)} interpreters;"
        f" raw {statistics.median(raw_setups):.6g} s)",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.6g} MiB",
        f"error_ratio   {res['failed'] / res['attempted']:.6g}  ({res['failed']} failed / {res['attempted']} attempted)",
    ]
    return _result(res, metrics, metric_units("end_to_end"), res["unexpected"] == []), notes + _failure_notes(res)


def run_traced(workload: str, seed: int, tiny: bool) -> tuple[dict, list[str]]:
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--mode", "fixed"]
    base += ["--tiny"] if tiny else []
    spans = ROOT / ".qcbench" / f"spans-{workload}.npz"
    spans.parent.mkdir(exist_ok=True)
    _, plain = spawn(base + ["--trace", "0"], deadline)
    _, traced = spawn(base + ["--trace", "1", "--spans", str(spans)], deadline)
    identical = plain["digests"] == traced["digests"]
    metrics = dict(traced["layers"])
    metrics["cli.output_bytes"] = traced["output_bytes"]
    metrics["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
    notes = [
        f"inputs sha256 {plain['inputs_sha256']}  rounds {plain['rounds']}  requests {plain['attempted']}",
        f"untraced {plain['busy_s']:.4f} s, traced {traced['busy_s']:.4f} s; "
        f"outputs byte-identical: {identical}; spans in {spans.relative_to(ROOT)}",
    ]
    units = metric_units("per_layer")
    notes += [f"{name:32s} {value:.6g} {units[name]}" for name, value in metrics.items()]
    correct = identical and plain["unexpected"] == []
    return _result(plain, metrics, units, correct), notes + _failure_notes(plain)


def _result(res: dict, metrics: dict, units: dict, correct: bool) -> dict:
    return {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _failure_notes(res: dict) -> list[str]:
    notes = [f"failed check {name} x{count}" for name, count in sorted(res["failures"].items())]
    for name, count in sorted(res["defects"].items()):
        kind = "unexpected failure" if name in res["unexpected"] else "known defect shown"
        notes.append(f"{kind}: {name} x{count} (probe, off the clock, not in attempted)")
    return notes


def smoke() -> int:
    """Tiny run of every workload, traced and untraced; checks the results."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, notes = run_traced(workload, 1, True) if trace else run_end_to_end(workload, 1, 1, True)
            print(f"-- {workload} trace={trace}: " + json.dumps(result)[:160])
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: incorrect or empty")
            if trace == 0 and not all(m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            if trace == 1:
                m = result["metrics"]
                if not COVERAGE_MIN <= m["trace.coverage"]["value"] <= 1:
                    problems.append(f"{workload}: module self times do not add up to traced wall time")
            if result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} measured calls failed")
            shown = any(note.startswith("known defect shown") for note in notes)
            if shown != (workload in ("closure_probe", "surfaces")):
                problems.append(f"{workload} trace={trace}: known defects shown = {shown}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "quantcert" / "__init__.py").is_file():
        print(f"error: no quantcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.trace:
            result, notes = run_traced(args.workload, args.seed, False)
        else:
            result, notes = run_end_to_end(args.workload, args.seed, args.seconds, False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
