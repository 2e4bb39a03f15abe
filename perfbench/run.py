"""Benchmark of extreme-sentinel: one workload, one seed, one run.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` measures the per-layer ones.
Every workload run happens in a fresh interpreter (``worker.py``), so
set-up time includes importing the package.  The last stdout line is the
result object; the lines before it give the environment, the sha256 of
every generated input and a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# A run that is not done after this many seconds is stopped.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of the workers: math libraries pinned to one thread."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop(signum, frame):
    # SIGALRM is the run's own deadline; SIGTERM comes from outside.
    raise WorkerError(f"stopped by {signal.Signals(signum).name}")


def run_worker(args, mode: str, work_dir: Path) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its result object."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work-dir", str(work_dir),
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out = proc.stdout.read()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed with exit status {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in bench["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "extreme_sentinel" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_work" / args.workload

    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    setups = []
    try:
        if args.trace:
            _, res = run_worker(args, "trace", work_dir)
        else:
            for mode in ["setup"] * (SETUPS - 1) + ["measure"]:
                setup_s, res = run_worker(args, mode, work_dir)
                setups.append({"raw_s": setup_s, "slowdown": res["setup_slowdown"]})
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    env = {
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        **res["versions"],
        "git_commit": _git_commit(ROOT),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }
    # Warm-up ops count too: a wrong output there also makes the run incorrect.
    attempted = res["ops"] + res["warmup_ops"]
    failed = res["failed"] + res["warmup_failed"]
    if args.trace:
        values = res["layer"]
        declared = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["raw_s"] / s["slowdown"] for s in setups),
            "cells_per_s": res["cells_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs_sha256": res["sha256"],
        "setups": setups,
        "raw": res.get("raw"),
        "slowdown": res.get("slowdown"),
        "fail_ratio": failed / attempted,
        **result,
    }
    (work_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("env " + json.dumps(env))
    print("inputs " + json.dumps(res["sha256"]))
    if not args.trace:
        shown = " ".join(f"{k}={v:.6g}" for k, v in values.items())
        print(
            f"{args.workload}: {shown} fail_ratio={failed / attempted:.6g} ops={attempted}"
            f" host_slowdown={res['slowdown']:.3g}"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
