"""P10-P12 as per-slice table expressions, checked against their loop
oracles (slice_oracles.py) outcome for outcome, witnesses and their order
included, on the default corpus and on drawn rings; plus a scale guard."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from conftest import TRIANGULAR_Z2_Z4, UPPER_TRIANGULAR_F2, build_ring, ends_within, graded_cases
from ringbench import classify
from ringbench.theorems import RingContext, default_corpus, run_property
from slice_oracles import differences, force_g_weakly, widen_census

CORPUS = default_corpus()
TRIANGULAR = [("upper triangular F2", UPPER_TRIANGULAR_F2),
              ("triangular Z2 Z4", TRIANGULAR_Z2_Z4)]
# the members built on matrix(zn(8), 2) take most of the loop oracles'
# time; the widened census, which multiplies P12's rows, runs on the others
SMALL_CORPUS = [m for m in CORPUS if "matrix(zn(8), 2)" not in m.label]
MODES = {"as is": lambda mp: None, "g-weakly forced": force_g_weakly}


@pytest.mark.parametrize("mode", MODES)
def test_default_corpus_matches_loops(mode, monkeypatch):
    MODES[mode](monkeypatch)
    violations = dict.fromkeys(("P10", "P11", "P12"), 0)
    for m in CORPUS:
        gr = m.build()
        assert differences(gr, m.label) == {}, m.label
        for pid in violations:
            violations[pid] += len(run_property(gr, pid, m.label).violations)
    # none as is; with the hypothesis forced, every property reports witnesses
    assert all(violations.values()) if mode != "as is" else not any(violations.values())


@pytest.mark.parametrize("mode", MODES)
def test_widened_census_matches_loops(mode, monkeypatch):
    MODES[mode](monkeypatch)
    widen_census(monkeypatch)
    p12 = 0
    for label, spec in [(m.label, m.spec_text) for m in SMALL_CORPUS] + TRIANGULAR:
        gr = build_ring(spec)
        assert differences(gr, label) == {}, label
        p12 += len(run_property(gr, "P12", label).violations)
    # P12 fires on many members, so its witnesses and their order are compared
    assert p12 > 20


@pytest.mark.parametrize("label, spec", TRIANGULAR)
def test_triangular_rings_match_loops(label, spec, monkeypatch):
    gr = build_ring(spec)
    assert differences(gr, label) == {}
    force_g_weakly(monkeypatch)
    assert differences(build_ring(spec), label) == {}


@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
@given(case=graded_cases())
def test_drawn_rings_match_loops(case):
    expr, gr, _, _ = case
    assert differences(gr, expr) == {}
    with pytest.MonkeyPatch.context() as mp:
        force_g_weakly(mp)
        widen_census(mp)
        assert differences(build_ring("ring: " + expr), expr) == {}


def test_small_blocks_match_loops(monkeypatch):
    """With a 256-byte block every blocked loop of P10-P12 takes many
    blocks (one left ideal, ideal or element at a time), and the witnesses
    found across block boundaries still match the loops'."""
    monkeypatch.setattr(classify, "_BLOCK", 256)
    force_g_weakly(monkeypatch)
    found = 0
    for spec in ("ring: zn(16)", "ring: matrix(zn(4), 2)", TRIANGULAR_Z2_Z4):
        gr = build_ring(spec)
        assert differences(gr) == {}, spec
        found += sum(len(run_property(gr, pid).violations) for pid in ("P10", "P11", "P12"))
    assert found > 10


def test_p10_to_p12_scale_guard():
    """zn(2)^5: 32 elements and 32 ideals, 32^3 ideal triples per slice."""
    gr = build_ring("ring: product(zn(2), product(zn(2), product(zn(2), "
                    "product(zn(2), zn(2)))))")
    ctx = RingContext(gr, "zn(2)^5")
    with ends_within(10):
        counts = {pid: run_property(gr, pid, ctx=ctx).instances
                  for pid in ("P10", "P11", "P12")}
    assert counts == {"P10": 94_241, "P11": 551_352, "P12": 1_830}
