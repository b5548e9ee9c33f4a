"""Self-tests of the benchmark's own computations on synthetic inputs.

    python3 -m pytest perfbench/tests
"""

import contextlib
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import hostspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from run import RunFailed, normalised_ops  # noqa: E402
from spans import Span, member_times, self_times  # noqa: E402


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.median(values) == 4.0
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert q2 == 4.0
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))          # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0
    assert stats.percentile([1, 2, 3], 50) == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    # 100 samples: p90 sits at rank 90 with exactly 10 above it; p91 has 9
    q, value = stats.tail_percentile([float(v) for v in range(1, 101)])
    assert (q, value) == (90.0, 90.0)
    # 20 samples: rank ceil(q/100*20) <= 10 allows q up to 50
    q, value = stats.tail_percentile([float(v) for v in range(20)])
    assert q == 50.0 and value == 9.0
    # 10 samples or fewer: no percentile has ten samples beyond it
    assert stats.tail_percentile([1.0] * 10) is None


def test_self_time_from_nested_spans():
    spans = [
        Span("a.root", -1, 0.0, 10.0),   # children cover 2 + 5 -> self 3
        Span("a.child", 0, 1.0, 3.0),    # no children -> self 2
        Span("b.child", 0, 4.0, 9.0),    # grandchild covers 4 -> self 1
        Span("c.leaf", 2, 4.5, 8.5),     # self 4
        Span("a.root", -1, 11.0, 12.0),  # a second root -> self 1
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    # self times sum to the time the roots cover
    assert sum(selfs) == pytest.approx(10.0 + 1.0)


def test_member_times_pair_builds_with_evaluations():
    spans = [
        Span("specs.parse_document", -1, 0.0, 0.5),
        Span("specs.build_document", -1, 0.5, 2.0),
        Span("theorems.evaluate_ring", -1, 2.0, 5.0),
        Span("classify.classify_ideal", 2, 3.0, 4.0),
        Span("specs.build_document", -1, 5.0, 5.5),
        Span("theorems.search_ring", -1, 5.5, 6.0),
    ]
    assert member_times(spans) == pytest.approx([4.5, 1.0])


def test_normalised_ops_use_the_pass_factor_or_the_pooled_window():
    ref = hostspeed.KERNELS["gather"][1]
    passes = [
        {"factor": 0.5, "ops": [["x", 2.0, True, None], ["y", 1.0, False, None]]},
        {"factor": None, "ops": [["p", 4.0, True, [10.0, 11.0]]]},
    ]
    # only the two samples inside [10, 11] count: mean(2, 4) = 3
    probes = [[9.5, ref], [10.2, ref / 2], [10.8, ref / 4], [11.5, ref]]
    out = normalised_ops(passes, "gather", probes)
    assert out[0] == {"x": (1.0, True), "y": (0.5, False)}
    assert out[1]["p"] == (pytest.approx(12.0), True)
    with pytest.raises(RunFailed):
        normalised_ops(passes, "gather", [])
    assert hostspeed.factor("gather", []) is None
    assert hostspeed.factor("gather", [ref, ref / 3]) == pytest.approx(2.0)


def test_every_workload_has_a_probe_kernel():
    assert set(workloads.PROBE_KERNEL) == set(workloads.WORKLOADS)
    for kernel in workloads.PROBE_KERNEL.values():
        assert hostspeed.Probe(kernel)() > 0


class _StubSampler:
    """Reports 0.25 s spent in probes during every op."""

    def mark(self):
        return (0, 0.0)

    def handler_since(self, mark):
        return 0.25

    def paused(self):
        return contextlib.nullcontext()


def test_recorder_leaves_probe_time_out_of_in_process_ops_only():
    rec = workloads.Recorder(_StubSampler())
    assert rec.timed("in_process", lambda: 7) == 7
    rec.timed("pooled", lambda: 8, pooled=True)
    rec.timed("raises", lambda: 1 / 0)
    here, pooled, raised = rec.ops
    assert here.latency_s < 0 and here.output == 7 and here.window is None
    assert pooled.latency_s >= 0 and pooled.window[0] <= pooled.window[1]
    assert raised.error.startswith("ZeroDivisionError")


def test_tracer_reports_missing_names_and_restores_originals(monkeypatch):
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    monkeypatch.syspath_prepend(os.path.join(root, "src"))
    import ringbench
    import spans as spans_mod

    monkeypatch.setitem(spans_mod.WRAPPED, "rings",
                        spans_mod.WRAPPED["rings"] + ("make_nothing",))
    monkeypatch.setitem(spans_mod.WRAPPED, "no_such_module", ("f",))
    original = ringbench.make_zn
    tracer = spans_mod.Tracer()
    tracer.install()
    try:
        assert {"rings.make_nothing", "no_such_module.f"} <= set(tracer.missing)
        ringbench.make_zn(4)
        assert [s.name for s in tracer.spans] == ["rings.make_zn"]
        assert tracer.spans[0].n == 4
    finally:
        tracer.uninstall()
    assert ringbench.make_zn is original
