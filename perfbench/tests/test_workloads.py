import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import inputs
import tracer as tr
import workloads
import worker

FIXTURE = (
    Path(__file__).resolve().parents[2] / "src/extreme_sentinel/data/listeriosis_lombardy.csv"
).read_bytes()


def _build(workload, seed, tmp_path):
    for name, data in inputs.generate(workload, seed, FIXTURE).items():
        (tmp_path / name).write_bytes(data)
    return workloads.build(workload, tmp_path)


def _forms(cycle):
    return tuple(dict.fromkeys(cycle))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    a = inputs.generate(workload, 5, FIXTURE)
    assert a == inputs.generate(workload, 5, FIXTURE)
    b = inputs.generate(workload, 6, FIXTURE)
    assert a.keys() == b.keys()
    assert all(a[name] != b[name] for name in a)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_op_form_passes_its_check(workload, seed, tmp_path):
    cycle = _build(workload, seed, tmp_path)
    # One full cycle per surveil panel, so every panel is tested and peeled.
    ops = inputs.POOL * len(cycle) if workload == "surveil" else len(cycle)
    loop = worker.run_loop(cycle, 0.0, ops)
    assert loop["failed"] == 0
    assert min(loop["cells"]) > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_and_untraced_ops_agree(workload, tmp_path):
    forms = _forms(_build(workload, 3, tmp_path))
    plain = [form.run(k) for k, form in enumerate(forms)]
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = [tracer.run_op(form.run, k) for k, form in enumerate(forms)]
    finally:
        tracer.restore()
    assert traced == plain
    assert len(tracer.names) > 1


def _rejects(form, k, out):
    with pytest.raises(workloads.CheckError):
        form.check(k, out)


def test_fixture_checks_reject_wrong_outputs(tmp_path):
    test, _, _, peel = _build("fixture", 0, tmp_path)
    code, text = test.run(0)
    good = json.loads(text)
    _rejects(test, 0, (0, text))
    _rejects(test, 0, (code, json.dumps({**good, "flagged_period": "2011"})))
    _rejects(test, 0, (code, json.dumps({**good, "p_upper": 0.5})))
    _rejects(test, 0, (code, json.dumps({**good, "branch": "accept"})))
    code, text = peel.run(3)
    rounds = json.loads(text)["rounds"]
    _rejects(peel, 3, (code, json.dumps({"rounds": rounds[:1]})))
    second = {**rounds[1], "branch": "reject", "rejected": True}
    _rejects(peel, 3, (code, json.dumps({"rounds": [rounds[0], second]})))


def test_surveil_checks_reject_wrong_outputs(tmp_path):
    test, _, _, peel = _build("surveil", 0, tmp_path)
    report = test.run(0)
    _rejects(test, 0, dataclasses.replace(report, flagged_cell=("R01", "W99")))
    _rejects(test, 0, dataclasses.replace(report, rejected=False))
    wrong_branch = dataclasses.replace(report.decision, branch="accept")
    _rejects(test, 0, dataclasses.replace(report, decision=wrong_branch))
    reports = peel.run(3)
    _rejects(peel, 3, reports[:3])
    _rejects(peel, 3, [reports[0], reports[0], *reports[2:]])
    _rejects(peel, 3, [*reports[:-1], dataclasses.replace(reports[-1], rejected=True)])


def test_simulate_and_audit_checks_reject_wrong_outputs(tmp_path):
    size, _, _, power = _build("simulate", 0, tmp_path)
    result = size.run(0)
    _rejects(size, 0, dataclasses.replace(result, rejection_rate=result.rejection_rate + 0.01))
    _rejects(size, 0, dataclasses.replace(result, n_trials=result.n_trials // 2))
    _rejects(power, 3, result)  # a size-run rate is far from the power
    audit_dir = tmp_path / "audit"
    audit_dir.mkdir()
    (audit,) = _build("audit", 0, audit_dir)
    out = audit.run(0)
    ks = out.ks[0]
    bad_ks = dataclasses.replace(ks, statistic=3.0 * ks.critical_value)
    _rejects(audit, 0, dataclasses.replace(out, ks=(bad_ks, *out.ks[1:])))
    _rejects(audit, 0, dataclasses.replace(out, mlr=dataclasses.replace(out.mlr, passed=False)))
    off = dataclasses.replace(out.exact, upper=out.exact.upper + 1e-9)
    _rejects(audit, 0, dataclasses.replace(out, exact=off))


def test_loop_counts_a_wrong_output_as_failed():
    def broken_check(k, out):
        raise workloads.CheckError("wrong")

    def raises(k):
        raise ValueError("op blew up")

    bad = workloads.Form(lambda k: k, broken_check)
    boom = workloads.Form(raises, lambda k, out: 1)
    loop = worker.run_loop((bad, boom), 0.0, 4)
    assert len(loop["latencies"]) == 4
    assert loop["failed"] == 4
    assert loop["cells"] == [0, 0, 0, 0]


def test_summary_divides_timings_by_the_host_slowdown():
    loop = {"latencies": [0.01, 0.02, 0.01, 0.04], "cells": [10, 10, 10, 10], "failed": 0}
    plain = worker.summarize(loop, 2)
    assert plain["cells_per_s"] == pytest.approx((20 / 0.03 + 20 / 0.05) / 2)
    halved = worker.summarize(loop, 2, 2.0)
    assert halved["op_p50_ms"] == pytest.approx(plain["op_p50_ms"] / 2)
    assert halved["op_p90_ms"] == pytest.approx(plain["op_p90_ms"] / 2)
    assert halved["cells_per_s"] == pytest.approx(plain["cells_per_s"] * 2)


def test_slowdown_is_the_median_probe_around_each_op():
    nominal = hostspeed.NOMINAL_S[hostspeed.scalar]
    slow = worker.slowdowns([nominal] * 20 + [3 * nominal] * 20, nominal)
    assert slow.shape == (40,)
    assert slow[0] == pytest.approx(1.0) and slow[-1] == pytest.approx(3.0)
    spiky = [nominal] * 20
    spiky[10] = 50 * nominal  # one slow probe does not move its neighbours
    np.testing.assert_allclose(worker.slowdowns(spiky, nominal), 1.0)
