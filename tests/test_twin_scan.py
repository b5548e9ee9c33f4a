"""The twin-class triple scan (`classify._scan`) against the position scan it
replaced (`triple_oracles.position_triples`): equal hit counts, first
triples and full censuses in C order, for every scan the classifier and
P2 make, at block edges and on the non-commutative rings where outside is
not symmetric. The twin classes here are refined without the size rule of
`classify._kernel_twins`, so small rings take the twin path too; one case
scans with the kernel's own classes from `classify._kernel_twins`, its
size rule forced."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from conftest import TRIANGULAR_Z2_Z4, _table_spec, build_ring, graded_cases
from hypothesis import HealthCheck, given, settings
from ringbench import classify
from ringbench.bitsets import bools_from_mask
from ringbench.classify import classify_ideal
from ringbench.ideals import enumerate_graded_ideals
from triple_oracles import position_triples

# [[a, 0], [b, 0]] over Z_4: a right unity only; the k twins of its kernels
# need outside's row k as well as its column k
COLUMN_MATRICES_Z4 = _table_spec((4, 4), lambda x, y: (x[0] * y[0] % 4, x[1] * y[0] % 4))
# non-commutative (outside is not symmetric), a word edge at h = 65, and
# unit classes of several sizes
EXPLICIT_RINGS = ("ring: matrix(zn(2), 2)", "ring: matrix(zn(3), 2)", TRIANGULAR_Z2_Z4,
                  COLUMN_MATRICES_Z4, "ring: zn(65)", "ring: product(zn(4), gaussian(2))")
# classify_ideal(...).to_dict() over the proper ideals of zn(1024), as json.dumps
# with sorted keys, before the scan ran over twin classes
ZN1024_DIGEST = "e459846fc06c7821bf0af49a4c5fc34449c20365d7598e4f26c7322decb841c1"


def forced_twins(inv: np.ndarray, outside: np.ndarray):
    return classify._refine((inv, inv.T), outside)


def widened(rows: np.ndarray) -> np.ndarray:
    """rows with every third bit also set, so that most pairs hit."""
    spread = (np.arange(rows.size) % 3 == 0).reshape(rows.shape)
    return rows | spread


def scans(gr, pmask: int):
    """(label, rows, inv, outside) of every scan made at one ideal: the
    element kernel's three predicates and census rows, completely weakly
    over the distinct products and over their distinct rows, P2's
    outer-product outside, each degree's
    kernel the ideal leaves uncovered, and each of those widened."""
    Pb = bools_from_mask(pmask, gr.order)
    tk, inside, outside = classify._kernel(gr, None, pmask)
    found = [("2abs", inside, tk["inv"], outside),
             ("weakly", inside & ~tk["zero"], tk["inv"], outside)]
    pr = classify._products(gr, tk)
    cw = Pb[pr["az"]] & pr["nonzero"]
    same = classify._partition(cw)
    found += [("cw", cw, pr["inv"], outside),
              ("cw values", cw[same.reps], same.of[pr["inv"]], outside)]
    notin = ~Pb[tk["X"]]
    found.append(("P2", inside & ~tk["zero"], tk["inv"], notin[:, None] & notin[None, :]))
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        if pmask & comp != comp:
            tg, inside_g, outside_g = classify._kernel(gr, g, pmask)
            found += [(f"g{g} census", tg["zero"], tg["inv"], outside_g),
                      (f"g{g} weakly", inside_g & ~tg["zero"], tg["inv"], outside_g)]
    return found + [(label + " widened", widened(rows), inv, out)
                    for label, rows, inv, out in found]


def assert_scan_matches(rows, inv, outside, *context) -> None:
    want = position_triples(rows, inv, outside, False)
    want_first = position_triples(rows, inv, outside, True)
    for twins in (forced_twins(inv, outside), None):
        got = classify._scan(rows, inv, outside, twins, False)
        assert got.count() == len(want), context
        assert np.array_equal(got.triples(), want), context
        first = classify._scan(rows, inv, outside, twins, True).first()
        assert first == (tuple(int(v) for v in want_first[0]) if len(want_first) else None), context
        assert got.first() == first, context


def check_twin_scans(specs) -> None:
    for spec in specs:
        gr = build_ring(spec)
        for sub in enumerate_graded_ideals(gr)[:-1]:
            for label, rows, inv, outside in scans(gr, sub.mask):
                assert_scan_matches(rows, inv, outside, spec, sub.mask, label)


@pytest.mark.parametrize("block", [classify._BLOCK, 64, 1])
def test_twin_scan_matches_position_scan(monkeypatch, block):
    """Block 64 holds one class row of 8-byte words at a time and 1 cuts
    every block to one class row: each edge between blocks is crossed."""
    monkeypatch.setattr(classify, "_BLOCK", block)
    check_twin_scans(EXPLICIT_RINGS)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(case=graded_cases())
def test_drawn_twin_scan_matches_position_scan(case):
    expr, gr, sub, _ = case
    if sub.mask != (1 << gr.order) - 1:
        for label, rows, inv, outside in scans(gr, sub.mask):
            assert_scan_matches(rows, inv, outside, expr, sub.mask, label)


def check_kernel_twin_scans(specs) -> None:
    """Each element kernel's census, weakly and plain rows, and each of those
    widened, scanned through classify._ideal_scan with the twins that the
    ideal's entry refines from classify._kernel_twins, against the position
    scan."""
    for spec in specs:
        gr = build_ring(spec)
        for sub in enumerate_graded_ideals(gr)[:-1]:
            degrees = [g for g in range(gr.group.order)
                       if sub.mask & gr.component_mask(g) != gr.component_mask(g)]
            for g in [None, *degrees]:
                tk, inside, outside = classify._kernel(gr, g, sub.mask)
                kinds = (tk["zero"], inside & ~tk["zero"], inside)
                for rows in kinds + tuple(widened(r) for r in kinds):
                    context = (spec, sub.mask, g)
                    want = position_triples(rows, tk["inv"], outside, False)
                    got = classify._ideal_scan(gr, tk, sub.mask, rows, False)
                    assert got.twins is not None, context
                    assert got.count() == len(want), context
                    assert np.array_equal(got.triples(), want), context
                    first = classify._ideal_scan(gr, tk, sub.mask, rows, True).first()
                    assert first == (tuple(int(v) for v in want[0]) if len(want) else None), context


def test_kernel_twin_classes_scan_matches_position_scan(monkeypatch):
    """The scans that the classifier makes, over the kernel's own twin
    classes: _saves is forced true, so every kernel takes them."""
    monkeypatch.setattr(classify, "_saves", lambda h, pairs: True)
    check_kernel_twin_scans(EXPLICIT_RINGS)


def test_twins_split_on_outside_rows_and_columns():
    """Where outside is not symmetric, refining the k classes by outside's
    columns alone or by its rows alone gives fewer classes than by both:
    the k signature needs both."""
    fewer = set()
    for spec in ("ring: matrix(zn(3), 2)", COLUMN_MATRICES_Z4):
        gr = build_ring(spec)
        for sub in enumerate_graded_ideals(gr)[:-1]:
            tk, _, outside = classify._kernel(gr, None, sub.mask)
            both = len(forced_twins(tk["inv"], outside)[1].sizes)
            for axis in (0, 1):
                bits = np.packbits(outside, axis=axis)
                if len(classify._partition(tk["inv"].T, bits.T if axis == 0 else bits).sizes) < both:
                    fewer.add(axis)
    assert fewer == {0, 1}


def test_zn1024_reports_unchanged():
    """Every proper ideal of zn(1024) is classified as before twin classes:
    its kernels take the twin path (8 to 11 classes an axis at h = 1024)."""
    gr = build_ring("ring: zn(1024)")
    report = [classify_ideal(gr, sub).to_dict() for sub in enumerate_graded_ideals(gr)[:-1]]
    tk = classify._kernel(gr, None, 1)[0]
    assert classify._kernel_twins(gr, tk) is not None
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == ZN1024_DIGEST


def test_completely_weakly_alone_refines_once(monkeypatch):
    """A lone completely weakly call refines only its own product classes;
    the kernel's twins are refined at P when a scan of the kernel first
    reads them, and once."""
    refined = []
    real = classify._refine
    monkeypatch.setattr(classify, "_refine", lambda base, outside:
                        refined.append(base is not None) or real(base, outside))
    monkeypatch.setattr(classify, "_saves", lambda h, pairs: True)
    gr = build_ring("ring: zn(8)")
    two = 0b01010101
    classify.is_graded_completely_weakly_2_absorbing(gr, two)
    assert refined == [True]
    classify.is_graded_2_absorbing(gr, two)
    classify.is_graded_weakly_2_absorbing(gr, two)
    assert refined == [True, True]
