"""Span arithmetic and instrumentation of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""
import math

import pytest

import spans


def scripted(events):
    """A recorder whose clock returns the given times in order."""
    times = iter(events)
    return spans.Recorder(clock=lambda: next(times))


def build(tree, rec):
    """tree: (name, start, children, end), opened depth-first."""
    name, start, children, end = tree
    i = rec.open(name)
    rec.start[i] = start
    for child in children:
        build(child, rec)
    rec.close(i)
    rec.end[i] = end


def recorder_for(tree):
    rec = spans.Recorder(clock=lambda: 0)
    build(tree, rec)
    return rec


TREE = ("op", 0, [
    ("counterexample.gram", 10, [
        ("kernels", 15, [], 20),
        ("kernels", 25, [], 30),
    ], 40),
    ("lorentz.norm", 50, [("lorentz.norm", 55, [], 70)], 90),
], 100)


def test_self_time_subtracts_children():
    rec = recorder_for(TREE)
    assert spans.self_times(rec) == [30, 20, 5, 5, 25, 15]


def test_self_time_counts_overlapping_children_once_and_clips():
    rec = recorder_for(("op", 0, [("a", 10, [], 40), ("b", 30, [], 60),
                                  ("c", 90, [], 130)], 100))
    assert spans.self_times(rec)[0] == 100 - 50 - 10


def test_layer_self_times_and_remainder_add_up_to_op_time():
    rec = recorder_for(TREE)
    m = spans.layer_metrics(rec, n_ops=1)
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert math.isclose(layers + m["trace.unattributed_s"], m["trace.op_s"])
    assert m["trace.op_s"] == pytest.approx(100e-9)
    assert m["trace.unattributed_s"] == pytest.approx(30e-9)
    assert m["kernels.calls"] == 2
    # nested spans of one name are one call, timed by the outer span
    assert m["lorentz.norm.s"] == pytest.approx(40e-9)


def test_scripted_clock_records_start_end_parent():
    rec = scripted([1, 2, 3, 4])
    with rec.span("op"):
        with rec.span("kernels"):
            pass
    assert list(rec.start) == [1, 2] and list(rec.end) == [4, 3]
    assert list(rec.parent) == [-1, 0]


def test_instrument_wraps_every_binding_and_restores_it():
    from weissbench import counterexample, quadrature
    from weissbench import _kernels

    original = _kernels.powcos_panels
    rec = spans.Recorder()
    with spans.instrument(rec) as missing:
        assert missing == []
        assert quadrature.powcos_panels is not original
        assert counterexample.powcos_panels is not original
        with rec.span(spans.ROOT_SPAN):
            quadrature.singular_oscillatory_integral(0.5, 3)
    assert quadrature.powcos_panels is original
    assert counterexample.powcos_panels is original
    names = [rec.span_name(i) for i in range(len(rec.start))]
    assert names[:2] == ["op", "quadrature.singular"]
    assert names.count("kernels") == 2
    m = spans.layer_metrics(rec, n_ops=1)
    assert m["quadrature.singular.calls"] == 1
    assert m["quadrature.estimate_share"] == pytest.approx(1.0 / 3.0)
    assert m["quadrature.singular.panels_per_call"] == m["kernels.panels"]


def test_instrument_counts_raised_errors_once():
    from weissbench import quadrature
    from weissbench.errors import ToleranceNotMet

    rec = spans.Recorder()
    tight = quadrature.QuadratureSpec(relative_tolerance=1e-12)
    with spans.instrument(rec):
        with pytest.raises(ToleranceNotMet):
            quadrature.singular_oscillatory_integral(1.75, 8, tight)
    assert spans.layer_metrics(rec, 1)["quadrature.tolerance_not_met"] == 1


def test_instrument_reports_a_target_it_cannot_find(monkeypatch):
    renamed = ("weissbench.counterexample", "GramBuilder.__init__",
               "counterexample.gram")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS[:1] + (renamed,))
    with spans.instrument(spans.Recorder()) as missing:
        assert missing == ["weissbench.counterexample.GramBuilder.__init__"]
