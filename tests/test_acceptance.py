"""Release gate: eight end-to-end checks, one printed verdict line each.

Every check recomputes its expected facts straight from the multiplication
table or an independently built report rather than trusting the code path
under test, and enforces a wall-clock budget where one is stated.  Run with
``pytest -rA`` to see the verdict lines for passing checks too.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np
import pytest

from conftest import build_ring, kernel_arrays, raw_sandwich_kernels
from ringbench import classify
from ringbench.bitsets import contains, indices_from_mask, is_subset
from ringbench.classify import (
    find_g_triple_zeros,
    g_sandwich_values,
    is_graded_2_absorbing,
    is_graded_prime,
    is_graded_weakly_2_absorbing,
    is_graded_weakly_prime,
    raw_product_mask,
    verify_witness,
)
from ringbench.ideals import enumerate_graded_ideals, is_graded_ideal
from ringbench.specs import build_document, parse_document
from ringbench.theorems import default_corpus, run_all_properties, search_question1

REQUIRED_NON_VACUOUS = ("P2", "P3", "P6", "P7", "P8", "P12", "P13", "P14",
                        "P15", "P17", "P19")


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def built_corpus():
    return [(m.label, m.build()) for m in default_corpus()]


@pytest.fixture(scope="module")
def suite_reports():
    t0 = time.perf_counter()
    serial = run_all_properties(workers=1)
    seconds = time.perf_counter() - t0
    parallel = run_all_properties(workers=8)
    return {"serial": serial, "parallel": parallel, "seconds": seconds}


def test_criterion_1_zero_ideal_splits_weakly_from_plain():
    t0 = time.perf_counter()
    gr = build_ring("ring: gaussian(8)")
    weakly = is_graded_weakly_2_absorbing(gr, 1)
    plain = is_graded_2_absorbing(gr, 1)
    elapsed = time.perf_counter() - t0
    w = plain.witness or {}
    triple = (w.get("x"), w.get("y"), w.get("z"))
    ok = (weakly.value is True
          and plain.value is False
          and triple == (2, 2, 2)
          and w.get("names") == ["2", "2", "2"]
          and verify_witness(gr, 1, "graded_2_absorbing", w)
          and elapsed < 5.0)
    _verdict(1, ok, f"gaussian(8) zero ideal: weakly 2-absorbing but not "
                    f"2-absorbing, first witness {triple}, "
                    f"{elapsed:.2f}s (budget 5s)")


def test_criterion_2_product_ring_cross_ideal():
    t0 = time.perf_counter()
    built = build_document(parse_document(
        "ring: product(gaussian(2), gaussian(4))\n"
        "grading: product\n"
        "ideal P: gens [(0, 2), (0, 2i)]"))
    gr, P = built.graded_ring, built.ideals["P"]
    graded = is_graded_ideal(gr, P)
    wprime = is_graded_weakly_prime(gr, P)
    two = is_graded_2_absorbing(gr, P)
    elapsed = time.perf_counter() - t0
    wit = wprime.witness or {"I": {"generators": []}, "J": {"generators": []}}
    gens = set(wit["I"]["generators"]) | set(wit["J"]["generators"])
    wanted = {built.parse_element("(0, 1)"), built.parse_element("(1, 2)")}
    ok = (graded
          and wprime.value is False
          and wanted <= gens
          and verify_witness(gr, P, "graded_weakly_prime", wprime.witness)
          and two.value is True
          and elapsed < 30.0)
    _verdict(2, ok, f"product ring, zero-cross-(2) ideal: graded, not weakly "
                    f"prime (ideal pair generated by (0, 1) and (1, 2)), "
                    f"2-absorbing, {elapsed:.2f}s (budget 30s)")


def test_criterion_3_matrix_ring_reduced_witness():
    t0 = time.perf_counter()
    built = build_document(parse_document(
        "ring: matrix(zn(8), 2)\n"
        "ideal P: gens [[[2,0],[0,0]]]"))
    gr, P = built.graded_ring, built.ideals["P"]
    mul = gr.ring.mul
    prime = is_graded_prime(gr, P)
    cw = classify.is_graded_completely_weakly_2_absorbing(gr, P)
    elapsed = time.perf_counter() - t0
    a = built.parse_element("[[3,0],[0,2]]")
    b = built.parse_element("[[0,3],[5,0]]")
    c = built.parse_element("[[7,0],[0,4]]")
    abc = int(mul[int(mul[a, b]), c])
    reduced = verify_witness(gr, P, "graded_completely_weakly_2_absorbing",
                             {"x": a, "y": b, "z": c})
    own = (cw.value is False
           and verify_witness(gr, P, "graded_completely_weakly_2_absorbing",
                              cw.witness))
    ok = (prime.value is True
          and own
          and reduced
          and gr.name(abc) == "[[0,4],[6,0]]"
          and elapsed < 120.0)
    _verdict(3, ok, f"order-4096 matrix ring, even-entry ideal: graded prime, "
                    f"not completely weakly 2-absorbing; reduced witness with "
                    f"product [[0,4],[6,0]] accepted, {elapsed:.1f}s "
                    f"(budget 120s)")


def test_criterion_4_property_suite_clean(suite_reports):
    rep = suite_reports["serial"]
    rows = {r["id"]: r for r in rep["properties"]}
    vacuous = [pid for pid in REQUIRED_NON_VACUOUS
               if rows[pid]["instances_checked"] == 0]
    elapsed = suite_reports["seconds"]
    ok = (rep["violations_total"] == 0
          and len(rows) == 19
          and not vacuous
          and elapsed < 600.0)
    _verdict(4, ok, f"{len(rep['corpus'])}-member corpus, 19 properties, "
                    f"{rep['violations_total']} violations, "
                    f"{len(vacuous)} vacuous required ids, "
                    f"{elapsed:.0f}s (budget 600s)")


def test_criterion_5_fast_path_equals_raw_route(built_corpus):
    triples = 0
    checked = 0
    for label, gr in built_corpus:
        if gr.order > 256:
            continue
        checked += 1
        for sub in enumerate_graded_ideals(gr):
            raw = raw_sandwich_kernels(gr, sub.mask)
            fast = kernel_arrays(gr, sub.mask)
            if not (np.array_equal(fast["subseteq"], raw["subseteq"])
                    and np.array_equal(fast["iszero"], raw["iszero"])):
                _verdict(5, False, f"kernel disagreement on {label}, "
                                   f"ideal mask {sub.mask}")
            triples += int(raw["subseteq"].size)
    ok = checked == len(built_corpus) - 2 and triples > 0
    _verdict(5, ok, f"containment and vanishing agree on {triples} homogeneous "
                    f"triples over every graded ideal of {checked} rings of "
                    f"order <= 256")


def test_criterion_6_triple_zero_annihilation(built_corpus, suite_reports):
    verified = 0
    z8_hits = 0
    for label, gr in built_corpus:
        mul = gr.ring.mul
        zero = gr.ring.zero
        Re = gr.component_indices(gr.group.identity)
        for sub in enumerate_graded_ideals(gr):
            for g in range(gr.group.order):
                comp = gr.component_mask(g)
                if sub.mask & comp == comp:
                    continue
                census = find_g_triple_zeros(gr, sub, g)
                if not census.p_is_g_weakly_2_absorbing:
                    continue
                pg = indices_from_mask(sub.mask & comp, gr.order)
                pp = mul[np.ix_(pg, pg)].ravel()
                if census.count and (mul[pp[:, None], pg] != zero).any():
                    _verdict(6, False, f"{label}: degree-{g} slice of mask "
                                       f"{sub.mask} has a nonzero cube")
                for (x, y, z) in census.triples.tolist():
                    vals = g_sandwich_values(gr, g, x, y, z)
                    genuine = (set(int(v) for v in vals) == {zero}
                               and not contains(sub.mask, int(mul[x, y]))
                               and not contains(sub.mask, int(mul[y, z]))
                               and not contains(sub.mask, int(mul[x, z])))
                    xry = mul[mul[x, Re], y]
                    pyr = mul[np.ix_(mul[pg, y], Re)].ravel()
                    slices = (mul[np.ix_(xry, pg)], mul[pyr, z],
                              mul[mul[x, pg], z], mul[pp, z],
                              mul[x, pp], mul[np.ix_(mul[pg, y], pg)])
                    if not genuine or any((s != zero).any() for s in slices):
                        _verdict(6, False, f"{label}: triple {(x, y, z)} at "
                                           f"degree {g} breaks an annihilation "
                                           f"identity")
                    verified += 1
                    if label == "zn(8)":
                        z8_hits += 1
    p12 = {r["id"]: r for r in suite_reports["serial"]["properties"]}["P12"]
    ok = (verified > 0
          and z8_hits > 0
          and verified == p12["instances_checked"])
    _verdict(6, ok, f"{verified} censused triples re-verified (slice products "
                    f"and cubes all zero, {z8_hits} from zn(8)); count matches "
                    f"the property suite")


def test_criterion_7_worker_count_invariance(suite_reports):
    a = json.dumps(suite_reports["serial"], sort_keys=True)
    b = json.dumps(suite_reports["parallel"], sort_keys=True)
    ok = a == b
    _verdict(7, ok, f"reports for 1 and 8 workers agree byte for byte "
                    f"({len(a)} bytes)")


def test_criterion_8_search_yields_certificate(built_corpus):
    t0 = time.perf_counter()
    result = search_question1(workers=8)
    elapsed = time.perf_counter() - t0
    scanned = result["counters"]["triples_scanned"]
    by_label = dict(built_corpus)
    confirmed = []
    for ce in result["counterexamples"]:
        gr = by_label[ce["ring"]]
        pm, am, bm, km = (ce[k]["mask"] for k in ("P", "A", "B", "K"))
        ab = raw_product_mask(gr, am, bm)
        abk = raw_product_mask(gr, ab, km)
        confirmed.append(
            abk != 1 and is_subset(abk, pm)
            and not is_subset(ab, pm)
            and not is_subset(raw_product_mask(gr, am, km), pm)
            and not is_subset(raw_product_mask(gr, bm, km), pm))
    ok = (scanned > 0
          and result["discarded_candidates"] == 0
          and result["exhausted"] is True
          and all(confirmed))
    found = len(result["counterexamples"])
    outcome = (f"{found} counterexamples, every one re-verified"
               if found else
               f"no counterexample; exhaustion certificate over {scanned} "
               f"ideal-triple candidates")
    _verdict(8, ok, f"{outcome}, 0 discarded, {elapsed:.0f}s")


# sha256 of json.dumps(report, sort_keys=True) for the default corpus: the
# property suite's and the question-1 search's counts, witnesses and order
SUITE_REPORT_SHA256 = "7186e28eb3e4efbfabdab672cc3adca212bfcc2834373048c9b59b5576c28672"
SEARCH_REPORT_SHA256 = "225b9f992ac71536160cb3ec757df3752af5b7f80bce91a6b0a42b37f9b2add0"


def _digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def test_default_corpus_report_bytes_pinned(suite_reports):
    assert _digest(suite_reports["serial"]) == SUITE_REPORT_SHA256
    assert _digest(search_question1(workers=2)) == SEARCH_REPORT_SHA256
