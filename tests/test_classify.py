"""Classifier predicates cross-checked against raw definition-level routes."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_ring, raw_sandwich_kernels, raw_triple_verdicts
from ringbench import classify
from ringbench.bitsets import popcount
from ringbench.classify import (
    ImproperIdealError,
    NotGradedIdealError,
    NotIdealError,
    PreconditionError,
    classify_ideal,
    find_g_triple_zeros,
    g_sandwich_values,
    graded_ideal_lattice,
    is_free_g_triple_zero,
    is_g_weakly_2_absorbing,
    is_graded_2_absorbing,
    is_graded_prime,
    is_graded_strongly_weakly_2_absorbing,
    is_graded_weakly_2_absorbing,
    is_graded_weakly_prime,
    raw_product_mask,
    verify_witness,
)
from ringbench.grading import GradedRing, Grading, GradingError, validate_grading
from ringbench.groups import make_cyclic
from ringbench.ideals import IdealSubset, generate_ideal
from ringbench.rings import make_matrix_ring, make_product_ring, make_zn
from ringbench.specs import build_document, parse_document
from ringbench.theorems import run_property

SMALL_RINGS = [
    "ring: zn(8)",
    "ring: zn(12)",
    "ring: gaussian(3)",
    "ring: gaussian(4)",
    "ring: matrix(zn(2), 2)",
    "ring: product(zn(2), zn(4))",
    "ring: idealization(zn(4), regular)",
]


def test_dual_route_kernels_agree():
    for text in SMALL_RINGS:
        gr = build_ring(text)
        for sub in graded_ideal_lattice(gr):
            raw = raw_sandwich_kernels(gr, sub.mask)
            hk = classify._hom_kernel(gr)
            ik = classify._ideal_kernel(gr, sub.mask)
            assert np.array_equal(ik["subseteq"], raw["subseteq"]), text
            assert np.array_equal(hk["iszero"], raw["iszero"]), text
            assert np.array_equal(ik["pair_any"], raw["pair_any"]), text


def test_dual_route_verdicts_agree():
    fns = {"graded_2_absorbing": is_graded_2_absorbing,
           "graded_weakly_2_absorbing": is_graded_weakly_2_absorbing,
           "graded_completely_weakly_2_absorbing":
               classify.is_graded_completely_weakly_2_absorbing}
    full = 0
    for text in SMALL_RINGS:
        gr = build_ring(text)
        for sub in graded_ideal_lattice(gr):
            if sub.mask == (1 << gr.order) - 1:
                continue
            expected = raw_triple_verdicts(gr, sub.mask)
            for key, fn in fns.items():
                verdict = fn(gr, sub)
                assert verdict.value == expected[key], (text, sub.mask, key)
                if not verdict.value:
                    assert verify_witness(gr, sub, key, verdict.witness)
                    full += 1
    assert full > 0


def brute_prime_verdicts(gr, pmask: int) -> tuple[bool, bool]:
    """(prime, weakly prime) by scanning every ordered pair of graded ideals
    with products recomputed from all members."""
    masks = [s.mask for s in graded_ideal_lattice(gr)]
    prime, weakly = True, True
    for im in masks:
        for jm in masks:
            ij = raw_product_mask(gr, im, jm)
            if ij & ~pmask:
                continue
            if im & ~pmask and jm & ~pmask:
                prime = False
                if ij != 1:
                    weakly = False
    return prime, weakly


def test_prime_predicates_match_brute_force():
    hits = 0
    for text in SMALL_RINGS:
        gr = build_ring(text)
        for sub in graded_ideal_lattice(gr):
            if sub.mask == (1 << gr.order) - 1:
                continue
            prime, weakly = brute_prime_verdicts(gr, sub.mask)
            vp = is_graded_prime(gr, sub)
            vw = is_graded_weakly_prime(gr, sub)
            assert vp.value == prime, (text, sub.mask)
            assert vw.value == weakly, (text, sub.mask)
            for kind, v in (("graded_prime", vp), ("graded_weakly_prime", vw)):
                if not v.value:
                    assert verify_witness(gr, sub, kind, v.witness)
                    hits += 1
    assert hits > 0


def brute_strongly_weakly(gr, pmask: int) -> bool:
    masks = [s.mask for s in graded_ideal_lattice(gr)]
    for am in masks:
        for bm in masks:
            ab = raw_product_mask(gr, am, bm)
            for cm in masks:
                abc = raw_product_mask(gr, ab, cm)
                if abc == 1 or abc & ~pmask:
                    continue
                if (ab & ~pmask
                        and raw_product_mask(gr, am, cm) & ~pmask
                        and raw_product_mask(gr, bm, cm) & ~pmask):
                    return False
    return True


def test_strongly_weakly_matches_brute_force():
    for text in ("ring: zn(8)", "ring: zn(16)", "ring: gaussian(4)"):
        gr = build_ring(text)
        for sub in graded_ideal_lattice(gr):
            if sub.mask == (1 << gr.order) - 1:
                continue
            expected = brute_strongly_weakly(gr, sub.mask)
            got = is_graded_strongly_weakly_2_absorbing(gr, sub)
            assert got.value == expected, (text, sub.mask)
            if not got.value:
                assert verify_witness(
                    gr, sub, "graded_strongly_weakly_2_absorbing", got.witness)


def test_strongly_weakly_frozen_values():
    gr4 = build_ring("ring: zn(4)")
    two = generate_ideal(gr4, [2])
    assert is_graded_strongly_weakly_2_absorbing(gr4, two).value is True

    gr16 = build_ring("ring: zn(16)")
    eight = generate_ideal(gr16, [8])
    got = is_graded_strongly_weakly_2_absorbing(gr16, eight)
    assert got.value is False
    two16 = generate_ideal(gr16, [2]).mask
    assert got.witness["A"]["mask"] == two16
    assert got.witness["B"]["mask"] == two16
    assert got.witness["C"]["mask"] == two16


def test_gaussian8_zero_ideal_frozen():
    gr = build_ring("ring: gaussian(8)")
    report = classify_ideal(gr, 1)
    assert report.verdicts == {
        "graded_prime": False,
        "graded_weakly_prime": True,
        "graded_2_absorbing": False,
        "graded_weakly_2_absorbing": True,
        "graded_completely_weakly_2_absorbing": True,
        "graded_strongly_weakly_2_absorbing": True,
    }
    w = report.witnesses["graded_2_absorbing"]
    assert (w["x"], w["y"], w["z"]) == (2, 2, 2)
    assert w["names"] == ["2", "2", "2"]
    for g in (0, 1):
        v = report.g_variants[g]
        assert v["weakly"] is True and v["plain"] is False
        assert v["triple_zeros"] == 8


def test_matrix_zn8_even_entry_ideal_frozen():
    doc = parse_document(
        "ring: matrix(zn(8), 2)\nideal P: gens [[[2,0],[0,0]]]")
    built = build_document(doc)
    gr = built.graded_ring
    P = built.ideals["P"]
    assert popcount(P.mask) == 256
    report = classify_ideal(gr, P)
    assert report.verdicts["graded_prime"] is True
    assert report.verdicts["graded_weakly_prime"] is True
    assert report.verdicts["graded_completely_weakly_2_absorbing"] is False
    # the classifier picks its own witness; this specific triple must also
    # pass raw verification
    a = built.parse_element("[[3,0],[0,2]]")
    b = built.parse_element("[[0,3],[5,0]]")
    c = built.parse_element("[[7,0],[0,4]]")
    names = [gr.name(x) for x in (a, b, c)]
    assert verify_witness(gr, P, "graded_completely_weakly_2_absorbing",
                          {"x": a, "y": b, "z": c, "names": names})
    assert verify_witness(gr, P, "graded_completely_weakly_2_absorbing",
                          report.witnesses["graded_completely_weakly_2_absorbing"])


def test_g_variants_match_scalar_recomputation():
    for text in ("ring: zn(8)", "ring: gaussian(4)"):
        gr = build_ring(text)
        for sub in graded_ideal_lattice(gr):
            for g in range(gr.group.order):
                comp = gr.component_mask(g)
                if sub.mask & comp == comp:
                    with pytest.raises(PreconditionError):
                        is_g_weakly_2_absorbing(gr, sub, g)
                    continue
                idx = [x for x in range(gr.order) if (comp >> x) & 1]
                weakly = plain = True
                zeros = []
                for x in idx:
                    for y in idx:
                        for z in idx:
                            vals = g_sandwich_values(gr, g, x, y, z)
                            inside = all((sub.mask >> int(v)) & 1 for v in vals)
                            pair = any(
                                (sub.mask >> int(gr.ring.mul[u, v])) & 1
                                for u, v in ((x, y), (y, z), (x, z)))
                            if inside and not pair:
                                plain = False
                                if set(vals.tolist()) == {0}:
                                    zeros.append((x, y, z))
                                else:
                                    weakly = False
                assert is_g_weakly_2_absorbing(gr, sub, g, "weakly").value == weakly
                assert is_g_weakly_2_absorbing(gr, sub, g, "plain").value == plain
                census = find_g_triple_zeros(gr, sub, g)
                assert census.triples == zeros
                assert census.p_is_g_weakly_2_absorbing == weakly


def test_zn16_census_frozen():
    gr = build_ring("ring: zn(16)")
    census = find_g_triple_zeros(gr, IdealSubset(1), 0)
    assert census.count == 96
    assert (2, 2, 4) in census.triples
    assert census.triples == sorted(census.triples)


def test_free_triple_zero():
    gr = build_ring("ring: zn(8)")
    zero = IdealSubset(1)
    two = generate_ideal(gr, [2])
    four = generate_ideal(gr, [4])
    hit = is_free_g_triple_zero(gr, zero, two, two, two, 0)
    assert hit.value is False
    assert (hit.witness["x"], hit.witness["y"], hit.witness["z"]) == (2, 2, 2)
    assert is_free_g_triple_zero(gr, zero, four, two, two, 0).value is True
    with pytest.raises(PreconditionError):
        is_free_g_triple_zero(gr, zero, IdealSubset((1 << 8) - 1), two, two, 0)


def test_commutative_weakly_equals_completely_weakly():
    for text in ("ring: zn(8)", "ring: zn(12)", "ring: gaussian(4)",
                 "ring: product(zn(2), zn(4))"):
        gr = build_ring(text)
        assert gr.ring.is_commutative() and gr.ring.unity is not None
        for sub in graded_ideal_lattice(gr):
            if sub.mask == (1 << gr.order) - 1:
                continue
            w = is_graded_weakly_2_absorbing(gr, sub).value
            cw = classify.is_graded_completely_weakly_2_absorbing(gr, sub).value
            assert w == cw, (text, sub.mask)


def test_input_validation():
    gr = build_ring("ring: zn(8)")
    with pytest.raises(NotIdealError):
        is_graded_2_absorbing(gr, 0b101)       # {0, 2}: not additively closed
    with pytest.raises(ImproperIdealError):
        is_graded_2_absorbing(gr, (1 << 8) - 1)

    gauss = build_ring("ring: gaussian(2)")
    with pytest.raises(NotGradedIdealError):
        is_graded_2_absorbing(gauss, 0b1001)   # {0, 1+i}: ungraded

    report = classify_ideal(gr, (1 << 8) - 1)
    assert report.verdicts == {}
    assert all(v == "requires a proper ideal" for v in report.skips.values())
    assert report.g_variants == {}

    with pytest.raises(ValueError):
        is_g_weakly_2_absorbing(gr, IdealSubset(1), 7)
    with pytest.raises(ValueError):
        is_g_weakly_2_absorbing(gr, IdealSubset(1), 0, mode="loose")


def test_report_to_dict_shape():
    gr = build_ring("ring: zn(8)")
    report = classify_ideal(gr, generate_ideal(gr, [4]))
    d = report.to_dict()
    assert set(d) == {"ideal_mask", "ideal_size", "proper", "generators",
                      "generator_names", "verdicts", "witnesses", "skips",
                      "g_variants"}
    assert d["generator_names"] == ["4"]
    assert "0" in d["g_variants"]
    d2 = report.to_dict(include_timings=True)
    assert "timings" in d2 and d2["timings"]


def test_unvalidated_grading_raises_grading_error():
    """A GradedRing built without validate_grading whose components are not
    multiplicative: the kernels name the stray product instead of reading a
    -1 slot as the last element."""
    def span(a, b):
        return 1 | 1 << a | 1 << b | 1 << (a ^ b)

    # M_2(Z_2) split into two additive subgroups that are not closed under products
    ring = make_matrix_ring(make_zn(2), 2)
    grading = Grading(make_cyclic(2), [span(1, 2), span(4, 9)])
    assert not validate_grading(ring, grading)
    gr = GradedRing(ring, grading)
    stray = r"product \[\[0,1\],\[0,0\]\]\*\[\[0,0\],\[0,1\]\]\*\[\[0,0\],\[1,0\]\] = "
    with pytest.raises(GradingError, match=stray + r".*homogeneous component"):
        is_graded_2_absorbing(gr, 1)
    with pytest.raises(GradingError, match=stray):
        classify_ideal(gr, 1)

    # Z_2 x Z_2 with (1,1) in degree 0 and (0,1) in degree 1
    ring = make_product_ring(make_zn(2), make_zn(2))
    grading = Grading(make_cyclic(2), [1 | 1 << 3, 1 | 1 << 1])
    assert not validate_grading(ring, grading)
    gr = GradedRing(ring, grading)
    stray = r"product \(0, 1\)\*\(1, 1\)\*\(0, 1\) = \(0, 1\) is not in component 0"
    with pytest.raises(GradingError, match=stray):
        is_g_weakly_2_absorbing(gr, 1, 1)
    with pytest.raises(GradingError, match=stray):
        run_property(gr, "P10")
