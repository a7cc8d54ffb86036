"""One measured interpreter: set up, then run a workload as a closed loop.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
prints JSON lines on stdout: ``{"event": "ready"}`` once set-up is done
(import, input generation, warm-up), then one result object.

Modes:
  setup  stop after set-up and one speed reading (extra set-up samples)
  timed  run whole rounds until the summed call time reaches --seconds;
         check every outcome between calls, off the clock; then run the
         plan's known-defect probes, also off the clock
  fixed  run the first rounds of the plan, the same for every version of
         the program; with --trace 1 under the span tracer (no checks, so
         no oracle call is traced), otherwise with checks and probes

Speed calibration: on a shared 2-vCPU Intel Xeon VM the CPU speed
drifted by up to 1.7x over seconds to minutes, whatever ran on it.  After
set-up, and after every ``SEGMENT_S`` of call time, the child takes a
speed reading: it times a fixed pure-Python kernel that does not touch
the program.  Each call time is scaled by ``REFERENCE_S`` over the mean of
the two readings around it, so times are reported at one reference speed.
Raw times are reported next to them.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

#: the reference kernel's duration at the reference speed
REFERENCE_S = 0.005
#: call time between two speed readings
SEGMENT_S = 0.1


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def reference_kernel() -> int:
    """Fixed pure-Python work: tuple hashing, dict updates, int arithmetic."""
    seen: dict[tuple, int] = {}
    acc = 0
    for i in range(10_000):
        key = (i % 97, i * 31 % 101, i & 7)
        seen[key] = seen.get(key, 0) + 1
        acc += hash(key) & 0xFF
    return acc


def speed_reading() -> float:
    """Seconds the reference kernel takes now (median of three)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import workloads  # imports quantcert and numpy

    wl = workloads.WORKLOADS[args.workload]
    plan = wl.generate(random.Random(args.seed), args.tiny)
    for req in plan.warmup:
        wl.execute(req)
    emit({"event": "ready"})
    readings = [speed_reading()]
    if args.mode == "setup":
        emit({"event": "result", "setup_reference_s": readings[0]})
        return

    tracer = None
    if args.mode == "fixed":
        rounds = plan.rounds[: wl.trace_rounds]
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(COUNTS)
    else:
        rounds = plan.rounds

    # call times between consecutive speed readings
    segments: list[list[float]] = [[]]
    digests: list[str] = []
    failures: Counter[str] = Counter()
    units = attempted = failed_calls = out_bytes = rounds_run = 0
    well_formed: dict[str, list[int]] = {"veech": [], "orbits": []}
    busy = 0.0
    for rnd in rounds:
        if args.mode == "timed" and busy >= args.seconds:
            break
        rounds_run += 1
        for req in rnd:
            if tracer is not None:
                tracer.current_request[0] = attempted
            t0 = perf_counter()
            outcome = wl.execute(req)
            dt = perf_counter() - t0
            busy += dt
            attempted += 1
            segments[-1].append(dt)
            if args.mode == "fixed":
                digests.append(workloads.outcome_digest(outcome))
                out_bytes += workloads.output_bytes(outcome)
                for command, ids in well_formed.items():
                    if workloads.is_well_formed(req, command, outcome):
                        ids.append(attempted - 1)
            if tracer is None:
                done, failed = checked(wl, req, outcome)
                units += done
                failed_calls += bool(failed)
                failures.update(failed)
            del outcome
            if sum(segments[-1]) >= SEGMENT_S:
                readings.append(speed_reading())
                segments.append([])
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if segments[-1]:
        readings.append(speed_reading())
    else:
        segments.pop()
    defects: Counter[str] = Counter()
    if tracer is None:
        for req in plan.probes:
            defects.update(checked(wl, req, wl.execute(req))[1])

    latencies = []
    for i, segment in enumerate(segments):
        scale = REFERENCE_S / ((readings[i] + readings[i + 1]) / 2)
        latencies.extend(dt * scale for dt in segment)
    result = {
        "event": "result",
        "inputs_sha256": plan.digest(),
        "rounds": rounds_run,
        "attempted": attempted,
        "failed": failed_calls,
        "failures": dict(failures),
        "defects": dict(defects),
        "unexpected": sorted(set(failures) | (set(defects) - workloads.KNOWN_DEFECTS)),
        "units": units,
        "busy_s": sum(latencies),
        "raw_busy_s": busy,
        "latencies": latencies,
        "raw_p50_s": statistics.median(dt for segment in segments for dt in segment),
        "reference_s": statistics.mean(readings),
        "setup_reference_s": readings[0],
        "peak_rss_kib": peak_rss_kib,
    }
    if args.mode == "fixed":
        result["digests"] = digests
        result["output_bytes"] = out_bytes
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, well_formed, busy, REFERENCE_S / result["reference_s"])
        if args.spans:
            tracer.write(args.spans)
    emit(result)


def checked(wl, req, outcome) -> tuple[int, list[str]]:
    """``wl.check``, with an oracle that cannot read the output as a failure."""
    try:
        return wl.check(req, outcome)
    except Exception as exc:
        return 0, [f"{wl.name}.check_raised {type(exc).__name__}"]


#: Counts taken from return values at span boundaries.
COUNTS = {
    "burau.burau_closure_oracle": lambda r: getattr(r, "order", None) or r.explored,
    "orbits.enumerate_orbits": len,
    "orbits.count_orbits": int,
}


def layer_metrics(tracer, well_formed: dict[str, list[int]], wall: float, scale: float) -> dict[str, float]:
    """Per-layer metrics; self times are scaled to the reference speed."""
    import numpy as np
    from tracing import LAYERS

    per_name = tracer.summary()
    none = {"calls": 0, "self_s": 0.0}
    out: dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for k, v in per_name.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)

    def calls(name):
        return per_name.get(name, none)["calls"]

    def self_s(name):
        return per_name.get(name, none)["self_s"]

    def per(count, n):
        return count / n if n else 0.0

    def calls_per(names, command):
        """Calls of ``names`` per well-formed ``command`` request."""
        ids = well_formed[command]
        spans = tracer.arrays()
        in_request = np.isin(spans["request"], ids)
        nids = [i for i, n in enumerate(tracer.names) if n in names]
        return per(int(np.count_nonzero(in_request & np.isin(spans["name"], nids))), len(ids))

    out["blocks.tadpole_basis.self_s"] = self_s("blocks.tadpole_basis")
    out["blocks.block_dimension.self_s"] = self_s("blocks.block_dimension")
    out["blocks.level_colors.calls"] = calls("blocks.level_colors")
    out["hermitian.selectors_scanned"] = calls("hermitian.gram_profile")
    out["burau.elements"] = tracer.counters.get("burau.burau_closure_oracle", 0)
    out["burau.mat_mul.calls"] = calls("burau.mat_mul")
    out["veech.perron.self_s"] = self_s("veech.perron")
    out["veech.perron_per_report"] = calls_per({"veech.perron"}, "veech")
    enumerators = ("orbits.enumerate_orbits", "orbits.count_orbits")
    out["orbits.calls_per_request"] = calls_per(set(enumerators), "orbits")
    curve_types = sum(tracer.counters.get(n, 0) for n in enumerators)
    out["orbits.curve_types"] = per(curve_types, len(well_formed["orbits"]))
    out["trace.coverage"] = per(sum(out[f"{layer}.self_s"] for layer in LAYERS), wall)
    for name in out:
        if name.endswith(".self_s"):
            out[name] *= scale
    return out


if __name__ == "__main__":
    main()
