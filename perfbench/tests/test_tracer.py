import importlib
import inspect

import numpy as np
import pytest

import tracer as tr


def _snapshot():
    """Every attribute of the package modules and their classes, by identity."""
    mods = [importlib.import_module(tr.PACKAGE)]
    mods += [importlib.import_module(f"{tr.PACKAGE}.{m}") for m in tr.LAYERS]
    snap = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    snap[(obj.__qualname__, cattr)] = cobj
    return snap


def test_install_wraps_and_restore_puts_back_every_original():
    from extreme_sentinel import Poisson, cli, surveillance, umptest
    import extreme_sentinel as es

    before = _snapshot()
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert surveillance.pvalue_bounds is not before[("extreme_sentinel.surveillance", "pvalue_bounds")]
        assert cli.epidemic_test is not before[("extreme_sentinel.cli", "epidemic_test")]
        assert es.epidemic_test is cli.epidemic_test
        assert umptest.pvalue_bounds is surveillance.pvalue_bounds
        assert vars(Poisson)["cdf"] is not before[("Poisson", "cdf")]
        assert vars(Poisson)["cdf"].__wrapped__ is before[("Poisson", "cdf")]
    finally:
        tracer.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []


def test_traced_calls_record_names_parents_and_sizes():
    from extreme_sentinel import Poisson, pvalue_bounds, umptest

    tracer = tr.Tracer()
    tracer.install()
    try:
        dists = [Poisson(1.0), Poisson(2.0), Poisson(3.0)]
        tracer.run_op(lambda k: umptest.pvalue_bounds(dists, [0, 1, 9]), 0)
    finally:
        tracer.restore()
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[0] == tr.OP and spans["parent"][0] == -1
    assert names[1] == "umptest.pvalue_bounds" and spans["parent"][1] == 0
    assert spans["size"][1] == 3
    brackets = [i for i, n in enumerate(names) if n in ("distributions.sf", "distributions.sf_left")]
    # sf_left calls sf; count only the spans pvalue_bounds makes directly.
    direct = [i for i in brackets if spans["parent"][i] == 1]
    assert len(direct) == 6
    assert np.all(spans["op"] == 0)
    assert pvalue_bounds is umptest.pvalue_bounds


def _table(rows, names, ops=1):
    """SpanTable from (name, start, end, parent, size) rows."""
    spans = {
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int32),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows], dtype=np.int64),
        "op": np.zeros(len(rows), dtype=np.int64),
        "size": np.array([r[4] for r in rows], dtype=np.int64),
    }
    return tr.SpanTable(names, spans, ops)


def test_self_time_on_hand_built_tree():
    names = [tr.OP, "surveillance.epidemic_test", "umptest.pvalue_bounds", "distributions.sf"]
    rows = [
        (tr.OP, 0.0, 10.0, -1, 0),
        ("surveillance.epidemic_test", 1.0, 9.0, 0, 40),
        ("umptest.pvalue_bounds", 2.0, 6.0, 1, 40),
        ("distributions.sf", 2.5, 3.0, 2, 1),
        ("distributions.sf", 4.0, 5.5, 2, 1),
        ("umptest.pvalue_bounds", 7.0, 8.0, 1, 40),
    ]
    table = _table(rows, names, ops=2)
    np.testing.assert_allclose(table.self_t, [2.0, 3.0, 2.0, 0.5, 1.5, 1.0])
    assert table.calls("umptest.pvalue_bounds") == 1.0
    assert table.self_ms("umptest.pvalue_bounds") == pytest.approx(1500.0)
    assert table.ms("surveillance.epidemic_test") == pytest.approx(4000.0)
    assert tr.layer_metric(table, "umptest.pvalue_bounds.us_per_cell") == pytest.approx(5e6 / 80)
    assert tr.layer_metric(table, "trace.op_ms") == pytest.approx(5000.0)
    # Layer self times add up to the op time less the loop's own time.
    assert tr.layer_metric(table, "trace.layer_self_ms") + tr.layer_metric(
        table, "bench.op.self_ms"
    ) == pytest.approx(tr.layer_metric(table, "trace.op_ms"))
    assert table.under("surveillance.epidemic_test").tolist() == [False, False, True, True, True, True]


def test_unknown_metric_is_an_error():
    table = _table([(tr.OP, 0.0, 1.0, -1, 0)], [tr.OP])
    with pytest.raises(KeyError):
        tr.layer_metric(table, "cli.ingest.no_such_kind")
