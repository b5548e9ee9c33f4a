"""Classifier predicates cross-checked against raw definition-level routes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import (
    ROW_MATRICES_F2,
    SMALL_RINGS,
    TRIANGULAR_Z2_Z4,
    UPPER_TRIANGULAR_F2,
    build_ring,
    counted_sandwich_kernels,
    graded_cases,
    kernel_arrays,
    raw_g_sandwich_kernels,
    raw_ideal_verdicts,
    raw_sandwich_kernels,
    raw_triple_verdicts,
)
from hypothesis import HealthCheck, given, settings
from ringbench import classify, ideals
from ringbench.bitsets import popcount
from ringbench.classify import (
    ImproperIdealError,
    NotGradedIdealError,
    NotIdealError,
    PreconditionError,
    classify_ideal,
    find_g_triple_zeros,
    g_sandwich_values,
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
from ringbench.ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    IdealSubset,
    enumerate_graded_ideals,
    generate_ideal,
)
from ringbench.constructions import make_quotient
from ringbench.rings import make_matrix_ring, make_product_ring, make_zn
from ringbench.specs import build_document, parse_document
from ringbench.theorems import run_property

def test_dual_route_kernels_agree():
    for text in SMALL_RINGS:
        gr = build_ring(text)
        for sub in enumerate_graded_ideals(gr):
            raw = raw_sandwich_kernels(gr, sub.mask)
            fast = kernel_arrays(gr, sub.mask)
            assert np.array_equal(fast["subseteq"], raw["subseteq"]), text
            assert np.array_equal(fast["iszero"], raw["iszero"]), text
            assert np.array_equal(fast["pair_any"], raw["pair_any"]), text


def test_g_kernel_matches_raw_route():
    """Degree-local kernel against the definition with multipliers from R_e,
    for every graded ideal and every degree it leaves uncovered."""
    checked = 0
    for text in SMALL_RINGS:
        gr = build_ring(text)
        for sub in enumerate_graded_ideals(gr):
            for g in range(gr.group.order):
                comp = gr.component_mask(g)
                if sub.mask & comp == comp:
                    continue
                raw = raw_g_sandwich_kernels(gr, g, sub.mask)
                fast = kernel_arrays(gr, sub.mask, g)
                assert np.array_equal(fast["X"], raw["Rg"]), (text, g)
                for key in ("subseteq", "iszero", "pair_any"):
                    assert np.array_equal(fast[key], raw[key]), (text, sub.mask, g, key)
                checked += 1
    assert checked > 0


def test_hom_kernel_matches_raw_route_at_order_256():
    """The shape the idealization properties run on: n = h = 256, 23 ideals.
    counted_sandwich_kernels is first checked against raw_sandwich_kernels,
    whose (h, n, h, h) temporary would be 4 GB here."""
    small = build_ring("ring: idealization(zn(4), regular)")
    masks = [s.mask for s in enumerate_graded_ideals(small)]
    for pmask, counted in counted_sandwich_kernels(small, masks):
        raw = raw_sandwich_kernels(small, pmask)
        for key in ("subseteq", "iszero", "pair_any"):
            assert np.array_equal(counted[key], raw[key]), (pmask, key)

    gr = build_ring("ring: idealization(zn(16), regular)")
    lattice = enumerate_graded_ideals(gr)
    assert (gr.order, len(gr.hom_indices()), len(lattice)) == (256, 256, 23)
    for pmask, raw in counted_sandwich_kernels(gr, [s.mask for s in lattice]):
        fast = kernel_arrays(gr, pmask)
        for key in ("subseteq", "iszero", "pair_any"):
            assert np.array_equal(fast[key], raw[key]), (pmask, key)


def test_trivial_grading_builds_one_kernel():
    """Trivially graded: H = R_e, so the homogeneous kernel and the g = e
    kernel are one cache entry; a Z_2-graded ring keeps two."""
    def kernels(gr):
        return [k for k in gr._cache if isinstance(k, tuple) and k[0] == "sandwich"]

    gr = build_ring("ring: zn(16)")
    is_graded_2_absorbing(gr, 1)
    is_g_weakly_2_absorbing(gr, 1, 0)
    find_g_triple_zeros(gr, 1, 0)
    assert len(kernels(gr)) == 1
    assert len([k for k in gr._cache if isinstance(k, tuple) and k[0] == "triple"]) == 1

    gauss = build_ring("ring: gaussian(3)")
    is_graded_2_absorbing(gauss, 1)
    is_g_weakly_2_absorbing(gauss, 1, 0)
    assert len(kernels(gauss)) == 2


def test_ideal_check_runs_once_per_mask(monkeypatch):
    calls = []
    real = ideals.check_closure
    monkeypatch.setattr(ideals, "check_closure",
                        lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
    gr = build_ring("ring: zn(8)")
    four = generate_ideal(gr, [4])
    for _ in range(3):
        is_graded_2_absorbing(gr, four)
        is_graded_weakly_2_absorbing(gr, four.mask)
        is_g_weakly_2_absorbing(gr, four, 0)
    assert calls == [four.mask]
    for _ in range(2):
        with pytest.raises(NotIdealError, match=r"failed \('add', 2, 2\)"):
            is_graded_2_absorbing(gr, 0b101)
    assert calls == [four.mask, 0b101]


def test_lattice_ideals_skip_closure_recheck(monkeypatch):
    """A mask of the ring's enumerated two-sided lattice is a graded two-sided
    ideal by construction, so make_quotient and the classifier take it
    without check_closure. On a ring whose lattice is not enumerated they
    share one check of the mask. A left ideal that is not two-sided and an
    ideal that is not graded are checked as before, with the same errors.
    On a ring not recorded as one, make_quotient and the classifier judge a
    mask by the ordered scan even when the lattice is enumerated, once per
    mask, and keep the result."""
    calls = []
    real = ideals.check_closure
    monkeypatch.setattr(ideals, "check_closure",
                        lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
    gr = build_ring(TRIANGULAR_Z2_Z4)
    lattice = [s.mask for s in enumerate_graded_ideals(gr)]
    for mask in lattice:
        make_quotient(gr, mask)
        classify.require_graded_ideal(gr, mask, proper=False)
    assert len(lattice) == 8 and calls == []

    fresh = build_ring(TRIANGULAR_Z2_Z4)
    make_quotient(fresh, lattice[1])
    classify.require_graded_ideal(fresh, lattice[1], proper=False)
    assert calls == [lattice[1]]

    scans = []
    real_scan = ideals._first_closure_failure
    monkeypatch.setattr(ideals, "_first_closure_failure",
                        lambda *a: scans.append(a[1]) or real_scan(*a))
    assert ideals.ideal_check(fresh, lattice[1]) == (True, None, None)
    unrecorded = build_document(parse_document(TRIANGULAR_Z2_Z4),
                                check_tables=False).graded_ring
    assert [s.mask for s in enumerate_graded_ideals(unrecorded)] == lattice
    for _ in range(2):
        make_quotient(unrecorded, lattice[1])
        classify.require_graded_ideal(unrecorded, lattice[1], proper=False)
    assert scans == [lattice[1]]

    def errors(ring, mask):
        out = []
        for fn in (make_quotient, is_graded_weakly_2_absorbing):
            with pytest.raises(ValueError) as exc:
                fn(ring, mask)
            out.append((type(exc.value), str(exc.value)))
        return out

    left = next(s.mask for s in enumerate_graded_ideals(gr, LEFT) if s.mask not in lattice)
    assert errors(gr, left) == errors(fresh, left)
    assert "not a two-sided ideal" in errors(gr, left)[0][1]
    g4 = build_ring("ring: gaussian(4)")
    g4_lattice = enumerate_graded_ideals(g4)
    leaky = generate_ideal(g4, [5]).mask            # (1+i) holds 1+i but not 1
    assert leaky not in [s.mask for s in g4_lattice]
    assert errors(g4, leaky) == errors(build_ring("ring: gaussian(4)"), leaky)
    assert "not graded" in errors(g4, leaky)[0][1]


def test_dual_route_verdicts_agree():
    fns = {"graded_2_absorbing": is_graded_2_absorbing,
           "graded_weakly_2_absorbing": is_graded_weakly_2_absorbing,
           "graded_completely_weakly_2_absorbing":
               classify.is_graded_completely_weakly_2_absorbing}
    full = 0
    for text in SMALL_RINGS:
        gr = build_ring(text)
        for sub in enumerate_graded_ideals(gr):
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
    masks = [s.mask for s in enumerate_graded_ideals(gr)]
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
        for sub in enumerate_graded_ideals(gr):
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
    masks = [s.mask for s in enumerate_graded_ideals(gr)]
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
        for sub in enumerate_graded_ideals(gr):
            if sub.mask == (1 << gr.order) - 1:
                continue
            expected = brute_strongly_weakly(gr, sub.mask)
            got = is_graded_strongly_weakly_2_absorbing(gr, sub)
            assert got.value == expected, (text, sub.mask)
            if not got.value:
                assert verify_witness(
                    gr, sub, "graded_strongly_weakly_2_absorbing", got.witness)


IDEAL_PREDICATES = (("graded_prime", is_graded_prime),
                    ("graded_weakly_prime", is_graded_weakly_prime),
                    ("graded_strongly_weakly_2_absorbing",
                     is_graded_strongly_weakly_2_absorbing))


def check_ideal_predicates(gr, pmask: int, where) -> int:
    """The table predicates against the loop oracle: verdict and first
    witness; returns how many verdicts were False."""
    expected = raw_ideal_verdicts(gr, pmask)
    false = 0
    for kind, fn in IDEAL_PREDICATES:
        verdict = fn(gr, pmask)
        value, witness = expected[kind]
        assert verdict.value == value, (where, pmask, kind)
        if not value:
            assert {k: w["mask"] for k, w in verdict.witness.items()} == witness, \
                (where, pmask, kind)
            assert verify_witness(gr, pmask, kind, verdict.witness)
            false += 1
    return false


def test_ideal_predicates_match_loop_oracle():
    false = 0
    for text in SMALL_RINGS + ["ring: zn(16)", "ring: product(zn(4), zn(4))",
                               ROW_MATRICES_F2, UPPER_TRIANGULAR_F2, TRIANGULAR_Z2_Z4]:
        gr = build_ring(text)
        full = (1 << gr.order) - 1
        for sub in enumerate_graded_ideals(gr):
            if sub.mask != full:
                false += check_ideal_predicates(gr, sub.mask, text)
    assert false > 0


def test_lattice_table_matches_raw_products():
    """Positions, containment, zero and every product I*J against
    raw_product_mask: two-sided on SMALL_RINGS, all three sidednesses on
    four non-commutative rings."""
    cases = [(text, TWO_SIDED) for text in SMALL_RINGS] + [
        (text, s) for text in ("ring: matrix(zn(2), 2)", ROW_MATRICES_F2,
                               UPPER_TRIANGULAR_F2, TRIANGULAR_Z2_Z4)
        for s in (TWO_SIDED, LEFT, RIGHT)]
    for text, sidedness in cases:
        gr = build_ring(text)
        t = classify.lattice_table(gr, sidedness)
        masks = [s.mask for s in enumerate_graded_ideals(gr, sidedness)]
        assert list(t.masks) == masks and t.masks[t.zero] == 1
        for i, a in enumerate(masks):
            assert t.index[a] == i
            assert list(t.inside(a)) == [b & ~a == 0 for b in masks]
            for j, b in enumerate(masks):
                assert t.sub[i, j] == (a & ~b == 0)
                assert t.masks[t.prod[i, j]] == raw_product_mask(gr, a, b), \
                    (text, sidedness, a, b)
        assert classify.lattice_table(gr, sidedness) is t


def test_lattice_table_of_256_ideals():
    """Z_2^8 has 256 graded ideals, as many positions as one byte holds; in
    a Boolean ring the product I*J is the intersection."""
    gr = build_ring("ring: " + "product(zn(2), " * 7 + "zn(2)" + ")" * 7)
    t = classify.lattice_table(gr)
    assert len(t.masks) == 256 and (t.prod.min(), t.prod.max()) == (0, 255)
    assert all(t.masks[t.prod[i, j]] == a & b
               for i, a in enumerate(t.masks) for j, b in enumerate(t.masks))


def test_ideal_predicates_keep_blocks_small(monkeypatch):
    """With blocks of one index (and one homogeneous element per product
    chunk) the table and the predicates' verdicts and witnesses agree."""
    def run(text):
        gr = build_ring(text)
        masks = [s.mask for s in enumerate_graded_ideals(gr)][:-1]
        t = classify.lattice_table(gr)
        return t, [[fn(gr, p) for _, fn in IDEAL_PREDICATES] for p in masks]

    for text in ("ring: zn(16)", "ring: idealization(zn(4), regular)", TRIANGULAR_Z2_Z4):
        t, want = run(text)
        with monkeypatch.context() as m:
            m.setattr(classify, "_BLOCK", 1)
            small, got = run(text)
        assert np.array_equal(small.prod, t.prod) and np.array_equal(small.sub, t.sub)
        assert got == want


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
        for sub in enumerate_graded_ideals(gr):
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
                                    zeros.append([x, y, z])
                                else:
                                    weakly = False
                assert is_g_weakly_2_absorbing(gr, sub, g, "weakly").value == weakly
                assert is_g_weakly_2_absorbing(gr, sub, g, "plain").value == plain
                census = find_g_triple_zeros(gr, sub, g)
                assert census.triples.tolist() == zeros
                assert census.p_is_g_weakly_2_absorbing == weakly


def test_zn16_census_frozen():
    gr = build_ring("ring: zn(16)")
    census = find_g_triple_zeros(gr, IdealSubset(1), 0)
    assert census.count == 96
    assert [2, 2, 4] in census.triples.tolist()
    assert census.triples.tolist() == sorted(census.triples.tolist())
    assert census.triples.dtype == np.uint16
    empty = find_g_triple_zeros(gr, generate_ideal(gr, [2]), 0)
    assert empty.count == 0
    assert (empty.triples.shape, empty.triples.dtype) == ((0, 3), np.uint16)


def test_census_memory_bound():
    """The census is built as a uint16 array: on zn(512)'s zero ideal at
    degree 0, with the ring's kernels warm, find_g_triple_zeros peaks within
    32 traced bytes per triple and holds at most 8 afterwards."""
    gr = build_ring("ring: zn(512)")
    is_g_weakly_2_absorbing(gr, 1, 0)
    tracemalloc.start()
    try:
        census = find_g_triple_zeros(gr, 1, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.count == 1_216_512
    assert peak <= 32 * census.count, peak / census.count
    assert held <= 8 * census.count, held / census.count


def whole_block_triples(rows: np.ndarray, inv: np.ndarray,
                        outside: np.ndarray) -> np.ndarray:
    """triple_oracles.position_triples(first=False) as it was before it unpacked only the
    occupied words: every block of the bit cube is unpacked to one byte per
    (i, k, m) before np.argwhere."""
    h = outside.shape[0]
    nbytes = -(-h // 64) * 8

    def words(bits: np.ndarray) -> np.ndarray:
        out = np.zeros((len(bits), nbytes), dtype=np.uint8)
        out[:, :-(-h // 8)] = np.packbits(bits, axis=1)
        return out.view(np.uint64)

    packed = words(np.vstack([rows, np.zeros(h, dtype=bool)]))
    idx = np.where(outside, inv, np.intp(len(rows)))
    out_w = words(outside)
    step = max(1, classify._BLOCK // (h * nbytes))
    found = [np.empty((0, 3), dtype=np.uint16)]
    for i0 in range(0, h, step):
        blk = packed[idx[i0:i0 + step]] & out_w[None, :, :] & out_w[i0:i0 + step, None, :]
        hits = np.argwhere(np.unpackbits(blk.view(np.uint8), axis=2, count=h))
        hits[:, 0] += i0
        found.append(hits.astype(np.uint16))
    return np.concatenate(found)


def _census_scans_agree(gr, pmask: int, g: int) -> int:
    """Compare the census scan with the whole-block unpack at one ideal and
    degree; returns the number of triples."""
    tk, _, outside = classify._kernel(gr, g, pmask)
    fast = classify._census(gr, pmask, g)[1].triples()
    slow = whole_block_triples(tk["zero"], tk["inv"], outside)
    assert fast.dtype == np.uint16 and fast.shape[1] == 3
    assert np.array_equal(fast, slow)
    return len(fast)


@pytest.mark.parametrize("spec", SMALL_RINGS + ["ring: zn(128)", "ring: zn(512)"])
def test_census_scan_matches_whole_block_unpack(spec):
    """The scan unpacks only the nonzero 64-bit words; the census it yields,
    order included, is the whole-block unpack's at every proper graded ideal
    and uncovered degree. On zn(512), whose unpack takes about 1 s an ideal,
    only the first four ideals: the three with a census and one without."""
    gr = build_ring(spec)
    proper = [s.mask for s in enumerate_graded_ideals(gr)][:-1]
    counts = [_census_scans_agree(gr, p, g)
              for p in (proper if gr.order < 512 else proper[:4])
              for g in range(gr.group.order)
              if p & gr.component_mask(g) != gr.component_mask(g)]
    if gr.order == 512:
        assert counts == [1_216_512, 376_832, 32_768, 0]


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(case=graded_cases())
def test_drawn_census_scan_matches_whole_block_unpack(case):
    _, gr, sub, g = case
    comp = gr.component_mask(g)
    if sub.mask & comp != comp:
        _census_scans_agree(gr, sub.mask, g)


def test_commutative_weakly_equals_completely_weakly():
    for text in ("ring: zn(8)", "ring: zn(12)", "ring: gaussian(4)",
                 "ring: product(zn(2), zn(4))"):
        gr = build_ring(text)
        assert gr.ring.is_commutative() and gr.ring.unity is not None
        for sub in enumerate_graded_ideals(gr):
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


def test_unvalidated_grading_names_stray_z_side_product():
    """R_g*R_e*R_g stays in C_{g^2}, but C_{g^2}*R_e*R_g escapes C_{g^3}.

    F_2^3 graded over Z_3 by a = (1, (1, 0)) in degree 0, b = (0, (1, 1)) in
    degree 1 and c = ab = (0, (1, 0)) in degree 2: b*a*b = c lies in C_2,
    while c*a*b = c is not in C_0.
    """
    ring = make_product_ring(make_zn(2), make_product_ring(make_zn(2), make_zn(2)))
    a, b, c = 6, 3, 2
    assert [ring.name(x) for x in (a, b, c)] == ["(1, (1, 0))", "(0, (1, 1))",
                                                "(0, (1, 0))"]
    grading = Grading(make_cyclic(3), [1 | 1 << a, 1 | 1 << b, 1 | 1 << c])
    assert not validate_grading(ring, grading)
    gr = GradedRing(ring, grading)
    classify.sandwich_kernel(gr, 1, 0, 1)      # the x-side sandwich is fine
    stray = (r"product \(0, \(1, 0\)\)\*\(1, \(1, 0\)\)\*\(0, \(1, 1\)\) = "
             r"\(0, \(1, 0\)\) is not in component 0")
    with pytest.raises(GradingError, match=stray):
        is_g_weakly_2_absorbing(gr, 1, 1)
    with pytest.raises(GradingError, match=stray):
        find_g_triple_zeros(gr, 1, 1)


@settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
@given(graded_cases())
def test_kernel_fuzz_against_raw_route(case):
    expr, gr, sub, g = case
    assert gr.order <= 64, expr
    raw = raw_sandwich_kernels(gr, sub.mask)
    fast = kernel_arrays(gr, sub.mask)
    for key in ("subseteq", "iszero", "pair_any"):
        assert np.array_equal(fast[key], raw[key]), (expr, sub.mask, key)
    if sub.mask != (1 << gr.order) - 1:
        expected = raw_triple_verdicts(gr, sub.mask)
        for key, fn in (("graded_2_absorbing", is_graded_2_absorbing),
                        ("graded_weakly_2_absorbing", is_graded_weakly_2_absorbing),
                        ("graded_completely_weakly_2_absorbing",
                         classify.is_graded_completely_weakly_2_absorbing)):
            verdict = fn(gr, sub)
            assert verdict.value == expected[key], (expr, sub.mask, key)
            if not verdict.value:
                assert verify_witness(gr, sub, key, verdict.witness), (expr, key)
        check_ideal_predicates(gr, sub.mask, expr)
    comp = gr.component_mask(g)
    if sub.mask & comp == comp:
        return
    rawg = raw_g_sandwich_kernels(gr, g, sub.mask)
    fastg = kernel_arrays(gr, sub.mask, g)
    for key in ("subseteq", "iszero", "pair_any"):
        assert np.array_equal(fastg[key], rawg[key]), (expr, sub.mask, g, key)
    open_ = rawg["subseteq"] & ~rawg["pair_any"]
    for mode, kind, viol in (("weakly", "g_weakly_2_absorbing", open_ & ~rawg["iszero"]),
                             ("plain", "g_plain_2_absorbing", open_)):
        verdict = is_g_weakly_2_absorbing(gr, sub, g, mode)
        assert verdict.value == (not viol.any()), (expr, sub.mask, g, mode)
        if not verdict.value:
            assert verify_witness(gr, sub, kind, verdict.witness, g), (expr, mode)
    Rg = rawg["Rg"]
    census = find_g_triple_zeros(gr, sub, g)
    assert census.triples.tolist() == [[int(Rg[i]), int(Rg[k]), int(Rg[m])]
                                       for i, k, m in np.argwhere(rawg["iszero"]
                                                                  & ~rawg["pair_any"])]
    for x, y, z in census.triples[:3].tolist():
        assert verify_witness(gr, sub, "g_triple_zero",
                              {"x": x, "y": y, "z": z}, g), (expr, g)
