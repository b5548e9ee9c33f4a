"""`classify._sandwich_kernel` and `classify._kernel_twins` against their
first forms in `kernel_oracles`: U, inv and zero of every kernel that
`classify._kernel` builds, and the twin signatures of every triple kernel,
bit for bit. The twins are taken past the size rule of `classify._saves`,
so small rings have them too, and the kernels are built at `_BLOCK` edges,
so that rows arrive in many blocks."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import build_ring, ends_within, graded_cases
from kernel_oracles import dict_sandwich_kernel, inv_twins
from ringbench import classify
from test_twin_scan import EXPLICIT_RINGS


def check_kernels(gr, *context) -> None:
    """Every sandwich kernel that _kernel builds on gr, at g None and at each
    degree, equals the oracle's as it is built, and so do the twins of each
    triple kernel."""
    built = []
    fast = classify._sandwich_kernel

    def checked(*args):
        kernel, want = fast(*args), dict_sandwich_kernel(*args)
        for name in ("U", "inv", "zero"):
            assert kernel[name].dtype == want[name].dtype, (*context, len(built), name)
            assert np.array_equal(kernel[name], want[name]), (*context, len(built), name)
        built.append(kernel)
        return kernel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_sandwich_kernel", checked)
        mp.setattr(classify, "_saves", lambda h, pairs: True)
        for g in [None, *range(gr.group.order)]:
            tk = classify._kernel(gr, g, 1)[0]
            got, want = classify._kernel_twins(gr, tk), inv_twins(tk["inv"])
            for name, a, b in zip(("row twins", "column twins"), got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (*context, g, name)
    assert built, context


def check_explicit_kernels() -> None:
    for spec in EXPLICIT_RINGS:
        check_kernels(build_ring(spec), spec)


@pytest.mark.parametrize("block", [classify._BLOCK, 64, 1])
def test_kernels_match_oracle(monkeypatch, block):
    """Block 64 cuts the value rows of the larger classes into pieces of a
    few ys, and 1 makes every row of x*S and of values a block of its own."""
    monkeypatch.setattr(classify, "_BLOCK", block)
    check_explicit_kernels()


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(case=graded_cases())
def test_drawn_kernels_match_oracle(case):
    expr, gr, _, _ = case
    check_kernels(gr, expr)


def test_zn4096_kernel_and_twins_within_bounds():
    """zn(4096)'s homogeneous kernel and its twin classes: built within 9
    traced bytes per pair of elements (the (h, h) int32 inv alone is 4),
    with 13 classes an axis."""
    gr = build_ring("ring: zn(4096)")
    n = gr.order
    with ends_within(60):
        tracemalloc.start()
        try:
            kernel = classify.sandwich_kernel(gr, None, None, None)
            twins = classify._kernel_twins(gr, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 9 * n * n, peak / (n * n)
    assert [len(np.unique(of)) for of in twins] == [13, 13]
    assert len(kernel["U"]) == 13
