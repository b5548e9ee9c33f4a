"""Ideal generation, closure checking, and enumeration against a brute oracle."""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ROW_MATRICES_F2,
    SMALL_RINGS,
    TRIANGULAR_Z2_Z4,
    UPPER_TRIANGULAR_F2,
    assert_closure_matches_scan,
    assert_spans_match_raw_fixpoint,
    graded_cases,
)
from ringbench import ideals
from ringbench.bitsets import indices_from_mask, popcount
from ringbench.classify import ideal_info
from ringbench.ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    additive_span,
    check_closure,
    enumerate_graded_ideals,
    generate_ideal,
    graded_ideal_masks,
    graded_defect,
    ideal_product,
    ideal_sum,
    is_graded_ideal,
    minimal_homogeneous_generators,
)
from ringbench.specs import build_document, parse_document
from ringbench.theorems import RingContext, default_corpus


def build(text: str):
    return build_document(parse_document(text)).graded_ring


def brute_graded_ideals(gr, sidedness=TWO_SIDED) -> list[int]:
    """Check every subset containing 0: additive closure, absorption by all
    ring elements per sidedness, and gradedness."""
    n = gr.order
    add, mul = gr.ring.add, gr.ring.mul
    left = sidedness in (TWO_SIDED, LEFT)
    right = sidedness in (TWO_SIDED, RIGHT)
    out = []
    for s in range(1, 1 << n, 2):
        idx = [x for x in range(n) if (s >> x) & 1]
        if not all((s >> add[x, y]) & 1 for x in idx for y in idx):
            continue
        if left and not all((s >> mul[r, x]) & 1
                            for x in idx for r in range(n)):
            continue
        if right and not all((s >> mul[x, r]) & 1
                             for x in idx for r in range(n)):
            continue
        if graded_defect(gr, s) is not None:
            continue
        out.append(s)
    return out


def test_generate_ideal_zn8():
    gr = build("ring: zn(8)")
    assert generate_ideal(gr, []).mask == 1
    two = generate_ideal(gr, [2])
    assert sorted(indices_from_mask(two.mask, 8)) == [0, 2, 4, 6]
    assert two.graded is True
    four = generate_ideal(gr, [4])
    assert sorted(indices_from_mask(four.mask, 8)) == [0, 4]


def test_generate_ideal_gaussian():
    gr = build("ring: gaussian(8)")
    two = generate_ideal(gr, [2])
    assert popcount(two.mask) == 16            # 2Z_8[i]
    gen_i = generate_ideal(gr, [8])            # (i) = whole ring
    assert popcount(gen_i.mask) == 64


def test_generate_ideal_matrix():
    gr = build("ring: matrix(zn(8), 2)")
    e00_2 = 2 * 512                            # [[2,0],[0,0]]
    sub = generate_ideal(gr, [e00_2])
    assert popcount(sub.mask) == 256           # M_2(2Z_8)


def test_non_homogeneous_generator_makes_ungraded_ideal():
    gr = build("ring: gaussian(2)")
    sub = generate_ideal(gr, [3])              # 1+i
    assert sub.graded is False
    assert graded_defect(gr, sub.mask) is not None


def test_check_closure_witnesses():
    gr = build("ring: zn(8)")
    ok, witness = check_closure(gr, IdealSubset(0b101), TWO_SIDED)
    assert ok is False and witness == ("add", 2, 2)
    ok, witness = check_closure(gr, IdealSubset(0b100), TWO_SIDED)
    assert ok is False and witness == ("zero missing",)
    ok, _ = check_closure(gr, generate_ideal(gr, [2]), TWO_SIDED)
    assert ok is True


@st.composite
def closure_cases(draw):
    """A ring from SMALL_RINGS or graded_cases(), or an idealization of it
    of order at most 256, and a mask: an enumerated graded ideal of a drawn
    sidedness, the additive span of drawn elements, a drawn subset, or an
    ideal with one bit flipped; one in four loses 0."""
    if draw(st.booleans()):
        expr = draw(st.sampled_from(SMALL_RINGS))
        gr = build(expr)
    else:
        expr, gr, _, _ = draw(graded_cases())
    if gr.order <= 16 and draw(st.booleans()):
        ctx = RingContext(gr, expr)
        mlabel, _, xc = draw(st.sampled_from(ctx.idealizations()))
        gr = xc.gr
        expr = f"idealization({expr}, {mlabel})"
    n = gr.order
    lattice = graded_ideal_masks(gr, draw(st.sampled_from((TWO_SIDED, LEFT, RIGHT))))
    members = st.lists(st.integers(0, n - 1), max_size=4)
    kind = draw(st.sampled_from(("ideal", "span", "subset", "flip")))
    if kind == "ideal":
        mask = draw(st.sampled_from(lattice))
    elif kind == "span":
        mask = additive_span(gr, draw(members))
    elif kind == "subset":
        mask = sum({1 << x for x in [0, *draw(members)]})
    else:
        mask = draw(st.sampled_from(lattice)) ^ (1 << draw(st.integers(0, n - 1)))
    if draw(st.integers(0, 3)) == 0:
        mask &= ~1
    return expr, gr, mask


@settings(max_examples=300)
@given(closure_cases())
def test_check_closure_matches_ordered_scan(case):
    expr, gr, mask = case
    assert_closure_matches_scan(gr, mask, expr)


@pytest.mark.parametrize("text, gens, sidedness", [
    ("ring: zn(4096)", [2], TWO_SIDED),
    ("ring: zn(4096)", [1024], TWO_SIDED),
    ("ring: matrix(zn(8), 2)", [2 * 512], TWO_SIDED),     # M_2(2Z_8)
    ("ring: matrix(zn(8), 2)", [512], LEFT),              # generated by e_00
    ("ring: matrix(zn(8), 2)", [512], RIGHT),
])
def test_check_closure_matches_ordered_scan_at_order_4096(text, gens, sidedness):
    """The same differential at n = 4096: an ideal, the ideal with one bit
    flipped and without 0 under its own sidedness, and an additive span
    under every sidedness."""
    gr = build(text)
    assert gr.order == 4096
    mask = generate_ideal(gr, gens, sidedness).mask
    for variant in (mask, mask ^ (1 << 3), mask & ~1):
        assert check_closure(gr, variant, sidedness) == \
            ideals._first_closure_failure(gr, variant, sidedness), (text, gens, variant)
    assert_closure_matches_scan(gr, additive_span(gr, [3 * gens[0]]), text, gens)


def test_enumeration_matches_brute_force():
    cases = [
        "ring: zn(8)",
        "ring: zn(12)",
        "ring: zn(16)",
        "ring: gaussian(2)",
        "ring: gaussian(3)",
        "ring: gaussian(4)",
        "ring: matrix(zn(2), 2)",
        "ring: product(zn(2), zn(4))",
        "ring: idealization(zn(4), quotient([2]))",
    ]
    for text in cases:
        gr = build(text)
        assert gr.order <= 16
        expected = brute_graded_ideals(gr)
        got = [i.mask for i in enumerate_graded_ideals(gr)]
        assert got == expected, text
        assert got == sorted(got)


def test_one_sided_enumeration_matches_brute_force():
    gr = build("ring: matrix(zn(2), 2)")
    for sidedness in (LEFT, RIGHT):
        expected = brute_graded_ideals(gr, sidedness)
        got = [i.mask for i in enumerate_graded_ideals(gr, sidedness)]
        assert got == expected, sidedness
    # the matrix ring is simple: only {0} and R are two-sided,
    # but one-sided ideals are strictly more numerous
    two = len(enumerate_graded_ideals(gr, TWO_SIDED))
    left = len(enumerate_graded_ideals(gr, LEFT))
    assert two == 2 and left > two


def test_principal_enumeration_matches_brute_force_every_sidedness():
    """Sums of principal ideals against the subset scan, for two-sided,
    left and right ideals, on commutative and non-commutative rings (the
    last has a left unity only)."""
    cases = [
        "ring: matrix(zn(2), 2)",
        "ring: product(zn(2), zn(4))",
        "ring: gaussian(3)",
        "ring: idealization(zn(4), quotient([2]))",
        UPPER_TRIANGULAR_F2,
        TRIANGULAR_Z2_Z4,
        ROW_MATRICES_F2,
    ]
    for text in cases:
        gr = build(text)
        for sidedness in (TWO_SIDED, LEFT, RIGHT):
            got = [i.mask for i in enumerate_graded_ideals(gr, sidedness)]
            assert got == brute_graded_ideals(gr, sidedness), (text, sidedness)
    assert [len(enumerate_graded_ideals(gr, s)) for s in (TWO_SIDED, LEFT, RIGHT)] \
        == [3, 5, 3]


def test_enumeration_memo(monkeypatch):
    """One enumeration per ring and sidedness, a fresh list per call, the
    caller's cap checked on every read, and a run over the cap not kept."""
    runs = []
    real = ideals._enumerate
    monkeypatch.setattr(ideals, "_enumerate",
                        lambda gr, s, cap: runs.append(s) or real(gr, s, cap))
    gr = build("ring: zn(16)")
    first = enumerate_graded_ideals(gr)
    second = enumerate_graded_ideals(gr)
    assert first == second and first is not second
    assert graded_ideal_masks(gr) == tuple(i.mask for i in first)
    assert runs == [TWO_SIDED]
    enumerate_graded_ideals(gr, LEFT)
    assert runs == [TWO_SIDED, LEFT]
    message = "more than 3 graded two-sided ideals; raise the ideal cap to enumerate them"
    for read in (enumerate_graded_ideals, graded_ideal_masks):
        with pytest.raises(EnumerationCapError) as exc:
            read(gr, TWO_SIDED, 3)
        assert str(exc.value) == message
    assert runs == [TWO_SIDED, LEFT]

    assert len(enumerate_graded_ideals(gr, TWO_SIDED, 5)) == 5
    with pytest.raises(EnumerationCapError, match="more than 4 graded"):
        graded_ideal_masks(gr, TWO_SIDED, 4)

    fresh = build("ring: zn(16)")
    for cap in (3, 4):
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_graded_ideals(fresh, TWO_SIDED, cap)
        assert str(exc.value) == message.replace("3", str(cap))
    assert [i.mask for i in enumerate_graded_ideals(fresh, TWO_SIDED, 5)] \
        == [i.mask for i in first]
    assert runs == [TWO_SIDED, LEFT, TWO_SIDED, TWO_SIDED, TWO_SIDED]


def test_enumeration_cap():
    gr = build("ring: zn(16)")
    with pytest.raises(EnumerationCapError):
        enumerate_graded_ideals(gr, TWO_SIDED, cap=3)


def test_ideal_product_and_sum():
    gr = build("ring: zn(16)")
    two = generate_ideal(gr, [2])
    four = generate_ideal(gr, [4])
    prod = ideal_product(gr, two, two)
    assert prod.mask == four.mask
    total = ideal_sum(gr, four, generate_ideal(gr, [8]))
    assert total.mask == four.mask
    zero = generate_ideal(gr, [])
    assert ideal_product(gr, zero, two).mask == 1


def test_minimal_generators_round_trip():
    for text in ("ring: zn(16)", "ring: gaussian(4)", "ring: matrix(zn(4), 2)"):
        gr = build(text)
        for sub in enumerate_graded_ideals(gr):
            gens = minimal_homogeneous_generators(gr, sub)
            assert all(gr.is_homogeneous(x) for x in gens)
            again = generate_ideal(gr, gens)
            assert again.mask == sub.mask, (text, gens)
    gr = build("ring: zn(4)")
    assert minimal_homogeneous_generators(gr, generate_ideal(gr, [])) == []


def test_minimal_generators_memoized(monkeypatch):
    gr = build("ring: matrix(zn(4), 2)")
    masks = graded_ideal_masks(gr)
    calls = 0
    minimal_generators = ideals._minimal_generators

    def counting_minimal_generators(*args):
        nonlocal calls
        calls += 1
        return minimal_generators(*args)

    monkeypatch.setattr(ideals, "_minimal_generators", counting_minimal_generators)
    first = [ideal_info(gr, m) for m in masks]
    assert calls > 0
    before = calls
    assert [ideal_info(gr, m) for m in masks] == first
    assert calls == before
    first[-1]["generators"].append(0)
    assert ideal_info(gr, masks[-1])["generators"] == first[-1]["generators"][:-1]


def test_additive_span():
    gr = build("ring: zn(8)")
    assert additive_span(gr, [2]) == generate_ideal(gr, [2]).mask
    assert additive_span(gr, []) == 1


# cyclic components on which doubling takes several rounds
_CYCLIC_RINGS = ("ring: zn(128)", "ring: zn(256)", "ring: gaussian(16)")
build_once = lru_cache(maxsize=None)(build)


@st.composite
def span_cases(draw):
    """A ring from SMALL_RINGS, graded_cases() or _CYCLIC_RINGS, and two
    short lists of its elements."""
    source = draw(st.sampled_from(("small", "graded", "cyclic")))
    if source == "graded":
        expr, gr, _, _ = draw(graded_cases())
    else:
        expr = draw(st.sampled_from(SMALL_RINGS if source == "small" else _CYCLIC_RINGS))
        gr = build_once(expr)
    elements = st.lists(st.integers(0, gr.order - 1), max_size=3)
    return expr, gr, draw(elements), draw(elements)


@settings(max_examples=200)
@given(span_cases())
def test_spans_match_raw_fixpoint(case):
    """generate_ideal under every sidedness, additive_span, ideal_product
    and ideal_sum, all grown through groups.grow_span, equal the raw
    fixpoint of sums and products."""
    expr, gr, xs, ys = case
    assert_spans_match_raw_fixpoint(gr, xs, ys, expr)


def enumeration_digest(labels) -> str:
    """sha256 over graded_ideal_masks and the minimal homogeneous generators
    of every mask, for each ring label and each of the three sidednesses."""
    digest = hashlib.sha256()
    for label in labels:
        gr = build(f"ring: {label}")
        for sidedness in (TWO_SIDED, LEFT, RIGHT):
            masks = graded_ideal_masks(gr, sidedness)
            gens = [minimal_homogeneous_generators(gr, IdealSubset(m, sidedness, graded=True))
                    for m in masks]
            digest.update(json.dumps([label, sidedness, [hex(m) for m in masks], gens]).encode())
    return digest.hexdigest()


def test_enumeration_and_minimal_generators_pin():
    """Graded-ideal masks and minimal generators are unchanged since closures
    grew through the coset walk: pinned over the default corpus, zn(128),
    zn(256) and zn(8)^3."""
    labels = [m.label for m in default_corpus()] + [
        "zn(128)", "zn(256)", "product(zn(8), product(zn(8), zn(8)))"]
    assert len(labels) == 55
    assert enumeration_digest(labels) == \
        "c4c9b99a421d2fe289afb6b835ecb33898267992cf3721542e8665e9c1c343d1"


def test_is_graded_ideal():
    gr = build("ring: gaussian(2)")
    assert is_graded_ideal(gr, 1)
    assert is_graded_ideal(gr, (1 << 4) - 1)
    assert not is_graded_ideal(gr, 0b1001)     # {0, 1+i}: ungraded
