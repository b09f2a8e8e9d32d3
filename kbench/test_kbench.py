"""Tests of the benchmark's own code, at tiny sizes.

    python3 -m pytest -q kbench/test_kbench.py
"""
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_p95_needs_ten_samples_beyond_it():
    xs = list(range(200))
    assert tracing.percentile(xs, 0.95) == 189  # 190..199 lie beyond
    assert tracing.percentile(reversed(xs), 0.5) == 99
    with pytest.raises(ValueError):
        tracing.percentile(range(199), 0.95)
    with pytest.raises(ValueError):
        tracing.percentile(range(15), 0.5)


def _tree():
    # op [0, 10] holds a [1, 6] and c [7, 9]; a holds b [2, 4]
    return [["op", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0],
            ["b", 2.0, 4.0, 1], ["c", 7.0, 9.0, 0]]


def test_self_time_is_duration_minus_children():
    folded = tracing.fold_spans(_tree())
    assert folded == {"op": [1, 10.0, 3.0], "a": [1, 5.0, 3.0],
                      "b": [1, 2.0, 2.0], "c": [1, 2.0, 2.0]}
    assert sum(row[2] for row in folded.values()) == 10.0
    assert tracing.span_problems(_tree()) == []


def test_same_name_spans_are_summed():
    spans = _tree() + [["b", 7.5, 8.0, 3]]
    folded = tracing.fold_spans(spans)
    assert folded["b"] == [2, 2.5, 2.5]
    assert folded["c"] == [1, 2.0, 1.5]
    assert tracing.span_problems(spans) == []


def test_span_outside_its_parent_is_reported():
    spans = _tree()
    spans[2][2] = 6.5  # b now ends after a
    assert any("leaves its parent" in p for p in tracing.span_problems(spans))


def test_wrappers_time_only_open_ops_and_are_restored():
    calls = []

    def inner(x):
        calls.append(x)
        return x + 1

    api = SimpleNamespace(inner=inner)
    outer = SimpleNamespace(outer=lambda x: api.inner(x) * 2)
    tracer = tracing.Tracer()
    sites = [(api, "inner", "m.inner", lambda t, r: t.count("m.results", r)),
             (outer, "outer", "m.outer", None)]
    with tracing.Patches(tracer, sites):
        assert outer.outer(1) == 4  # no op open: nothing recorded
        tracer.open_op()
        assert outer.outer(2) == 6
        spans = tracer.close_op()
    assert api.inner is inner
    assert [s[0] for s in spans] == ["op", "m.outer", "m.inner"]
    assert [s[3] for s in spans] == [-1, 0, 1]
    assert tracer.counts == {"m.results": 3}
    assert tracing.span_problems(spans) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    w = workloads.WORKLOADS[name]

    def fp(seed):
        return workloads.fingerprint(t for op in w.generate(seed)
                                     for t in w.texts(op))

    assert fp(1) == fp(1)
    assert fp(1) != fp(2)


def test_translate_shapes_pass_the_size_filter():
    assert all(workloads.shape_weight(s) <= workloads.MAX_SHAPE_WEIGHT
               for s in workloads.TRANSLATE_SHAPES)


def _traced(name, ops):
    w = workloads.WORKLOADS[name]
    api = workloads.library_api()
    tracer = tracing.Tracer()
    p = run.Pass(w, api, ops)
    layer = {}
    with tracing.Patches(tracer, workloads.trace_sites(api)):
        for _ in ops:
            spans = p.step(tracer, tracer.counts)
            assert tracing.span_problems(spans) == []
            for key, row in tracing.fold_spans(spans).items():
                layer[key] = layer.get(key, 0) + row[0]
    assert p.failures == []
    return layer, tracer.counts


def test_traced_refute_reverifies_each_countermodel_once():
    ops = workloads.WORKLOADS["refute"].generate(5)
    # the cheap slots: five exhaustive and eight sampled
    ops = ops[6:6 + len(workloads._CHEAP_REFUTE)]
    layer, counts = _traced("refute", ops)
    assert layer["semantics.satisfies"] == len(ops)
    assert counts["validity.countermodels"] == len(ops)
    assert layer.get("engine.run_range", 0) > 0
    assert layer.get("engine.run_one", 0) > 0


def test_traced_translate_check_makes_no_kernel_call():
    ops = workloads.WORKLOADS["translate-check"].generate(5)[1:4]
    layer, counts = _traced("translate-check", ops)
    assert "engine.run_range" not in layer and "engine.run_one" not in layer
    assert layer["translate.translate_traced"] == len(ops)
    assert counts["translate.trace_steps"] >= len(ops)


def test_traced_axiom_sweep_scans_each_size():
    layer, counts = _traced("axiom-sweep",
                            workloads.WORKLOADS["axiom-sweep"].generate(5)[:2])
    assert layer["engine.run_range"] == 4
    assert counts["engine.run_range.models"] == 2 * workloads.AXIOM_MODELS
