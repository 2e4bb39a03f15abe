"""Seeded inputs for the benchmark workloads.

``generate(workload, seed, fixture_csv)`` returns the files one workload
run reads, as a mapping of file name to bytes.  It uses numpy and the
standard library only, never the package under test, so the program sees
nothing but these files.  The same seed gives the same bytes; another seed
gives other panels and parameters that still pass every op check.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("fixture", "surveil", "simulate", "audit")

# Published per-capita listeriosis rate for the bundled Lombardy panel.
FIXTURE_RATE = 9.703e-7

# surveil: a pool of region-by-week panels with a few injected outbreaks.
REGIONS = 20
WEEKS = 52
POOL = 5  # coprime to the 4-op cycle, so every panel meets both op forms
SURVEIL_RATE = 2e-5  # cases per person-week; median region mean is 10
SURVEIL_ALPHA = 0.001
INJECTED = 3
INJECT_FACTOR = 8.0
# An 8x outbreak on a mean of 8 or more is always the most extreme cell;
# on a mean near 1 it is often invisible, which the check could not allow.
MIN_INJECT_MEAN = 8.0

SIM_TRIALS = 50_000
AUDIT_DRAWS = 20_000
AUDIT_GRID = 1001


def generate(workload: str, seed: int, fixture_csv: bytes) -> dict[str, bytes]:
    """Input files for one run of ``workload``, from ``seed`` alone."""
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    if workload == "fixture":
        return {"panel.csv": _shuffled_fixture(rng, fixture_csv)}
    if workload == "surveil":
        return _surveil(rng)
    if workload == "simulate":
        panel = _shuffled_fixture(rng, fixture_csv)
        n = panel.count(b"\n") - 1
        spec = {
            "alpha": 0.05,
            "lambda": FIXTURE_RATE,
            "trials": SIM_TRIALS,
            "alt_cell": int(rng.integers(n)),
            "alt_factor": INJECT_FACTOR,
            "size_seed": _seed(rng),
            "power_seed": _seed(rng),
        }
        return {"panel.csv": panel, "spec.json": _json(spec)}
    if workload == "audit":
        return {"spec.json": _json(_audit(rng))}
    raise ValueError(f"unknown workload {workload!r}")


def _seed(rng) -> int:
    return int(rng.integers(2**62))


def _json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode()


def _shuffled_fixture(rng, fixture_csv: bytes) -> bytes:
    # Row order is the only thing a seed may change about the paper's panel.
    lines = [ln for ln in fixture_csv.decode().splitlines() if ln.strip()]
    rows = lines[1:]
    order = rng.permutation(len(rows))
    return ("\n".join([lines[0]] + [rows[i] for i in order]) + "\n").encode()


def _surveil(rng) -> dict[str, bytes]:
    files = {}
    panels = []
    regions = [f"R{r + 1:02d}" for r in range(REGIONS)]
    weeks = [f"W{w + 1:02d}" for w in range(WEEKS)]
    for p in range(POOL):
        pops = np.rint(rng.lognormal(np.log(5e5), 0.6, size=REGIONS))
        means = SURVEIL_RATE * np.repeat(pops, WEEKS)  # region-major cells
        eligible = np.flatnonzero(means >= MIN_INJECT_MEAN)
        if eligible.size < INJECTED:
            raise RuntimeError("no region is large enough to carry an outbreak")
        hot = rng.choice(eligible, INJECTED, replace=False)
        means[hot] *= INJECT_FACTOR
        counts = rng.poisson(means)
        lines = ["region,period,count,population"]
        for i, count in enumerate(counts):
            r, w = divmod(i, WEEKS)
            lines.append(f"{regions[r]},{weeks[w]},{count},{int(pops[r])}")
        name = f"panel{p}.csv"
        files[name] = ("\n".join(lines) + "\n").encode()
        panels.append(
            {
                "file": name,
                "injected": sorted([regions[i // WEEKS], weeks[i % WEEKS]] for i in hot),
                "peel_seed": _seed(rng),
            }
        )
    spec = {
        "alpha": SURVEIL_ALPHA,
        "lambda": SURVEIL_RATE,
        "max_rounds": 5,
        "panels": panels,
    }
    files["spec.json"] = _json(spec)
    return files


def _model(rng, kind: str) -> dict:
    # Narrow ranges keep an op's work about the same from seed to seed.
    if kind == "poisson":
        return {"kind": kind, "mean": float(rng.uniform(3.0, 5.0))}
    if kind == "binomial":
        return {"kind": kind, "trials": int(rng.integers(20, 31)), "p": float(rng.uniform(0.2, 0.5))}
    if kind == "tabulated":
        size = int(rng.integers(4, 7))
        support = np.cumsum(rng.uniform(0.5, 1.5, size))
        masses = rng.dirichlet(np.ones(size))
        return {"kind": kind, "support": support.tolist(), "masses": masses.tolist()}
    return {"kind": "uniform"}


def _observe(rng, model: dict) -> float:
    kind = model["kind"]
    if kind == "poisson":
        return float(rng.poisson(model["mean"]))
    if kind == "binomial":
        return float(rng.binomial(model["trials"], model["p"]))
    if kind == "tabulated":
        return float(rng.choice(model["support"], p=model["masses"]))
    return float(rng.uniform())


def _audit(rng) -> dict:
    kinds = ("poisson", "binomial", "tabulated", "uniform")
    models = [_model(rng, k) for k in kinds]
    panel = [_model(rng, k) for k in kinds]
    return {
        "draws": AUDIT_DRAWS,
        "grid": AUDIT_GRID,
        "models": models,
        "stream_seeds": [_seed(rng) for _ in models],
        "pair_mean": float(rng.uniform(0.8, 1.25)),
        "pair_factor": INJECT_FACTOR,
        "panel": panel,
        "observations": [_observe(rng, m) for m in panel],
    }
