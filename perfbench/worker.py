"""One workload run in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports the
package from the checkout's ``src``, writes the seeded inputs, builds the
op cycle and warms it up, then prints ``READY`` (so the parent can time
set-up from process start) and, unless ``--mode setup``, measures:

* ``measure``: the untraced closed loop for ``--seconds`` seconds;
* ``trace``: an untraced half, then a traced half whose spans give the
  per-layer metrics.

The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent

# p90 needs at least ten samples beyond it.
MIN_OPS = 110
# Each half of a traced run keeps at least this many ops.
MIN_TRACE_OPS = 12
# An op's host slowdown is the median of the probes of this many ops on
# either side of it, and its own.
PROBE_HALF_WINDOW = 5


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import extreme_sentinel

    origin = Path(extreme_sentinel.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"error: extreme_sentinel imported from {origin}, not {src}")
    return extreme_sentinel


def _write_inputs(workload: str, seed: int, work_dir: Path) -> dict[str, str]:
    import inputs

    fixture = (ROOT / "src/extreme_sentinel/data/listeriosis_lombardy.csv").read_bytes()
    files = inputs.generate(workload, seed, fixture)
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (work_dir / name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(files.items())}


def _attempt(form, k: int, tracer, report: bool):
    """Latency of op ``k`` and the cells it evaluated; None cells if it failed."""
    t0 = perf_counter()
    try:
        out = form.run(k) if tracer is None else tracer.run_op(form.run, k)
    except Exception:
        latency = perf_counter() - t0
    else:
        latency = perf_counter() - t0
        try:
            return latency, form.check(k, out)
        except Exception:
            pass
    if report:  # the first failure of a loop is enough to debug it
        traceback.print_exc(file=sys.stderr)
    return latency, None


def run_loop(
    cycle, seconds: float, min_ops: int, probe=hostspeed.scalar, tracer=None, first_op: int = 0
) -> dict:
    """Closed loop with one client: next op starts when the last one is checked.

    Latency covers the op only; its check and a host speed probe run after
    the clock stops and, when traced, outside the op's root span.  An op
    fails if it raises or its check fails.
    """
    latencies, cells, probes = [], [], []
    failed = 0
    k = first_op
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(latencies) < min_ops:
        latency, done = _attempt(cycle[k % len(cycle)], k, tracer, failed == 0)
        latencies.append(latency)
        cells.append(done or 0)
        failed += done is None
        probes.append(probe())
        k += 1
    return {"latencies": latencies, "cells": cells, "probes": probes, "failed": failed,
            "next_op": k}


def slowdowns(probes, nominal_s: float) -> np.ndarray:
    """Host slowdown at each op: the median probe of its window, over nominal.

    Host speed swings within a second, so each op is divided by the probes
    taken around it rather than by one figure for the whole run.
    """
    p = np.asarray(probes) / nominal_s
    padded = np.pad(p, PROBE_HALF_WINDOW, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * PROBE_HALF_WINDOW + 1)
    return np.median(windows, axis=1)


def summarize(loop: dict, cycle_len: int, slowdown=1.0) -> dict:
    """Latency percentiles, and throughput as the median over op cycles.

    Latencies are divided by the host ``slowdown`` at each op.  Cycles
    hold one op of each position of the cycle, so their throughput is
    comparable; the median keeps bursts from moving it.
    """
    lat = np.asarray(loop["latencies"]) / slowdown
    cells = np.asarray(loop["cells"], dtype=float)
    whole = lat.size // cycle_len * cycle_len
    per_cycle = (
        cells[:whole].reshape(-1, cycle_len).sum(axis=1)
        / lat[:whole].reshape(-1, cycle_len).sum(axis=1)
    )
    return {
        "ops": int(lat.size),
        "failed": loop["failed"],
        "cells_per_s": float(np.median(per_cycle)),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    es = _import_package()
    import scipy

    import workloads

    sha256 = _write_inputs(args.workload, args.seed, args.work_dir)
    cycle = workloads.build(args.workload, args.work_dir)
    forms = tuple(dict.fromkeys(cycle))
    warm = run_loop(forms, 0.0, len(forms))  # each form once
    print("READY", flush=True)

    result = {
        "sha256": sha256,
        "warmup_ops": len(forms),
        "warmup_failed": warm["failed"],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "extreme_sentinel": es.__version__,
        },
    }
    # Set-up is mostly the interpreter importing modules: the scalar probe.
    result["setup_slowdown"] = float(
        np.median([hostspeed.scalar() for _ in range(21)])
        / hostspeed.NOMINAL_S[hostspeed.scalar]
    )
    probe = workloads.PROBES[args.workload]
    if args.mode == "measure":
        loop = run_loop(cycle, args.seconds, MIN_OPS, probe)
        slow = slowdowns(loop["probes"], hostspeed.NOMINAL_S[probe])
        result.update(summarize(loop, len(cycle), slow))
        result["raw"] = summarize(loop, len(cycle))
        result["slowdown"] = float(np.median(slow))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif args.mode == "trace":
        result.update(trace(cycle, args.seconds, args.work_dir, probe))
    print(json.dumps(result), flush=True)
    return 0


def trace(cycle, seconds: float, work_dir: Path, probe) -> dict:
    """Untraced then traced halves; per-layer metrics from the traced one."""
    import tracer as tr

    plain = run_loop(cycle, seconds / 2, MIN_TRACE_OPS, probe)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = run_loop(cycle, seconds / 2, MIN_TRACE_OPS, probe, tracer, plain["next_op"])
    finally:
        tracer.restore()
    tracer.save(work_dir / "spans.npz")
    table = tr.SpanTable(tracer.names, tracer.spans(), len(traced["latencies"]))
    nominal = hostspeed.NOMINAL_S[probe]
    plain_s = summarize(plain, len(cycle), slowdowns(plain["probes"], nominal))
    traced_s = summarize(traced, len(cycle), slowdowns(traced["probes"], nominal))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    layer = {
        m["name"]: tr.layer_metric(table, m["name"])
        for m in declared
        if m["name"] != "trace.overhead_ratio"
    }
    layer["trace.overhead_ratio"] = traced_s["cells_per_s"] / plain_s["cells_per_s"]
    return {
        "ops": plain_s["ops"] + traced_s["ops"],
        "failed": plain["failed"] + traced["failed"],
        "layer": layer,
    }


if __name__ == "__main__":
    sys.exit(main())
