"""Quotients, homomorphisms, bimodules, and idealizations."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from conftest import UPPER_TRIANGULAR_F2, build_ring, graded_cases
from hypothesis import HealthCheck, given, settings
from ringbench import cli, constructions
from ringbench.constructions import (
    BimoduleError,
    ConstructionError,
    GradedBimodule,
    GradedRingHom,
    HomError,
    embed_ideal_in_idealization,
    hom_image,
    hom_kernel,
    hom_preimage,
    idealization_subset,
    make_graded_hom,
    make_idealization,
    make_quotient,
    product_projections,
    quotient_bimodule,
    regular_bimodule,
    validate_bimodule,
    validate_graded_hom,
)
from ringbench.grading import validate_grading
from ringbench.ideals import IdealSubset, check_closure, generate_ideal
from ringbench.rings import RingTooLargeError, validate_ring
from ringbench.theorems import _BASE_LABELS, RingContext, _factor_graded_rings


def test_gaussian_quotient_matches_independent_construction():
    # Z_8[i] / (4) has the same tables, names, and components as Z_4[i]
    big = build_ring("ring: gaussian(8)")
    small = build_ring("ring: gaussian(4)")
    q = make_quotient(big, generate_ideal(big, [4]))
    qr = q.graded_ring
    assert qr.order == 16
    assert np.array_equal(qr.ring.add, small.ring.add)
    assert np.array_equal(qr.ring.mul, small.ring.mul)
    assert np.array_equal(qr.ring.neg, small.ring.neg)
    assert qr.ring.element_names == small.ring.element_names
    assert qr.ring.unity == small.ring.unity
    assert [qr.component_mask(g) for g in range(2)] == \
        [small.component_mask(g) for g in range(2)]


def test_quotient_by_zero_is_identity_copy():
    gr = build_ring("ring: zn(8)")
    q = make_quotient(gr, IdealSubset(1))
    assert np.array_equal(q.graded_ring.ring.mul, gr.ring.mul)
    assert np.array_equal(q.projection.mapping, np.arange(8))


def test_quotient_projection_transport():
    gr = build_ring("ring: zn(8)")
    four = generate_ideal(gr, [4])
    q = make_quotient(gr, four)
    proj = q.projection
    assert validate_graded_hom(proj).ok
    assert proj.is_surjective()
    assert hom_kernel(proj).mask == four.mask
    two_up = generate_ideal(gr, [2])
    two_down = hom_image(proj, two_up)
    assert two_down.mask == generate_ideal(q.graded_ring, [2]).mask
    assert hom_preimage(proj, two_down).mask == two_up.mask
    assert hom_preimage(proj, IdealSubset(1)).mask == four.mask


def test_quotient_rejects_bad_ideals():
    gr = build_ring("ring: gaussian(2)")
    with pytest.raises(ConstructionError):
        make_quotient(gr, 0b1001)              # {0, 1+i} is not graded
    with pytest.raises(ConstructionError):
        make_quotient(gr, 0b11)                # {0, 1} is not an ideal


def test_hom_validation_failures():
    gr = build_ring("ring: zn(4)")
    v = validate_graded_hom(make_graded_hom(gr, gr, [0, 1, 2, 3]))
    assert v.ok
    with pytest.raises(HomError, match="not additive|not multiplicative"):
        make_graded_hom(gr, gr, [0, 1, 2, 1])
    with pytest.raises(HomError, match="zero not preserved"):
        make_graded_hom(gr, gr, [1, 0, 3, 2])
    # identity mapping with swapped degrees: R_0 cannot land inside R_1
    f = GradedRingHom(gr, gr, np.arange(4), group_map=np.array([1, 0]))
    v = validate_graded_hom(f)
    assert not v.ok and v.failure == "degree not preserved"


def test_hom_image_requires_surjective():
    small = build_ring("ring: zn(2)")
    pair = build_ring("ring: product(zn(2), zn(2))")
    f = make_graded_hom(small, pair, [0, 2])   # x -> (x, 0)
    assert not f.is_surjective()
    with pytest.raises(HomError, match="surjective"):
        hom_image(f, generate_ideal(small, [1]))


def test_product_projections():
    pgr = build_ring("ring: product(zn(2), zn(4))")
    g1 = build_ring("ring: zn(2)")
    g2 = build_ring("ring: zn(4)")
    p1, p2 = product_projections(pgr, g1, g2)
    assert p1.is_surjective() and p2.is_surjective()
    # ker p1 = {0} x Z_4 = indices 0..3, ker p2 = Z_2 x {0} = indices 0 and 4
    assert hom_kernel(p1).mask == 0b1111
    assert hom_kernel(p2).mask == 0b10001
    with pytest.raises(ConstructionError):
        product_projections(g1, g1, g1)


def test_regular_and_quotient_bimodules_validate():
    gr = build_ring("ring: zn(8)")
    reg = regular_bimodule(gr)
    assert validate_bimodule(gr, reg).ok
    qb = quotient_bimodule(make_quotient(gr, generate_ideal(gr, [4])))
    assert validate_bimodule(gr, qb).ok
    assert qb.order == 4
    assert int(qb.left[3, 2]) == 2             # 3 * (2 + K) = 6 + K = 2 + K
    assert int(qb.right[3, 5]) == 3            # (3 + K) * 5 = 15 + K = 3 + K
    assert qb.element_names == ["0", "1", "2", "3"]


def test_corrupted_bimodule_rejected():
    gr = build_ring("ring: zn(4)")
    reg = regular_bimodule(gr)
    left = reg.left.copy()
    left[3, 3] = 0                             # 3*3 is 1, not 0
    bad = GradedBimodule(order=reg.order, add=reg.add, neg=reg.neg,
                         left=left, right=reg.right,
                         components=list(reg.components),
                         element_names=list(reg.element_names),
                         unital=reg.unital, label="corrupted")
    v = validate_bimodule(gr, bad)
    assert not v.ok
    with pytest.raises(BimoduleError):
        make_idealization(gr, bad)

    lying = GradedBimodule(order=reg.order, add=reg.add, neg=reg.neg,
                           left=np.zeros_like(reg.left), right=reg.right,
                           components=list(reg.components),
                           element_names=list(reg.element_names),
                           unital=True, label="lying")
    v = validate_bimodule(gr, lying)
    assert not v.ok


def test_idealization_multiplication():
    gr = build_ring("ring: zn(4)")
    x = make_idealization(gr, regular_bimodule(gr))
    assert x.order == 16
    assert validate_ring(x.ring).ok
    assert validate_grading(x.ring, x.grading).ok
    # (2, 1) * (2, 3) = (2*2, 2*3 + 1*2) = (0, 0)
    assert int(x.ring.mul[2 * 4 + 1, 2 * 4 + 3]) == 0
    # (1, 0) is the unity
    assert x.ring.unity == 4
    assert x.ring.name(9) == "(2, 1)"
    # square-zero: (0, m1) * (0, m2) = (0, 0)
    assert (x.ring.mul[:4, :4] == 0).all()


def test_idealization_grading_components():
    gr = build_ring("ring: gaussian(2)")
    x = make_idealization(gr, regular_bimodule(gr))
    # R_0 = {0, 1}, M_0 = {0, 1}: pairs (0,0), (0,1), (1,0), (1,1)
    assert sorted(int(i) for i in x.component_indices(0)) == [0, 1, 4, 5]
    assert sorted(int(i) for i in x.component_indices(1)) == [0, 2, 8, 10]


def test_embed_ideal_in_idealization():
    gr = build_ring("ring: zn(4)")
    x = make_idealization(gr, regular_bimodule(gr))
    two = generate_ideal(gr, [2])
    emb = embed_ideal_in_idealization(x, two)
    assert emb.mask == idealization_subset(two.mask, 0b1111, 4, 4)
    ok, _ = check_closure(x, emb.mask)
    assert ok and emb.graded
    with pytest.raises(ConstructionError):
        embed_ideal_in_idealization(gr, two)


def test_idealization_cap():
    gr = build_ring("ring: zn(16)")
    with pytest.raises(RingTooLargeError):
        make_idealization(gr, regular_bimodule(gr), cap=100)


def test_idealization_checks_cap_before_validating(monkeypatch, tmp_path, capsys):
    """An over-cap idealization fails on the cap alone: validating its
    bimodule first would cost O(n m^2) before the inevitable rejection."""
    def no_validation(gr, M):
        raise AssertionError("validate_bimodule ran before the cap check")

    monkeypatch.setattr(constructions, "validate_bimodule", no_validation)
    gr = build_ring("ring: zn(512)")
    with pytest.raises(RingTooLargeError, match="carrier cap 4096"):
        make_idealization(gr, regular_bimodule(gr))
    spec = tmp_path / "big.spec"
    spec.write_text("ring: idealization(zn(512), regular)\n")
    assert cli.main(["validate", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "idealization has order 262144, exceeding the carrier cap 4096" in err


@pytest.mark.parametrize("spec, kgens", [
    ("ring: zn(8)", [4]),
    (UPPER_TRIANGULAR_F2, [2]),
], ids=["commutative", "noncommutative"])
def test_idealization_tables_match_definition(spec, kgens):
    """(r1, m1) + (r2, m2) = (r1 + r2, m1 + m2), -(r, m) = (-r, -m) and
    (r1, m1)(r2, m2) = (r1 r2, r1 m2 + m1 r2), entry by entry, for the regular
    bimodule and a quotient one, over a commutative and a non-commutative base."""
    gr = build_ring(spec)
    R = gr.ring
    assert R.is_commutative() == (spec == "ring: zn(8)")
    for M in (regular_bimodule(gr),
              quotient_bimodule(make_quotient(gr, generate_ideal(gr, kgens)))):
        assert M.order < gr.order or M.label == "regular"
        X = make_idealization(gr, M).ring
        m = M.order
        for x in range(X.order):
            r1, m1 = divmod(x, m)
            assert X.neg[x] == R.neg[r1] * m + M.neg[m1]
            for y in range(X.order):
                r2, m2 = divmod(y, m)
                assert X.add[x, y] == R.add[r1, r2] * m + M.add[m1, m2]
                assert X.mul[x, y] == R.mul[r1, r2] * m + M.add[M.left[r1, m2],
                                                                M.right[m1, r2]]


def digit_table(radices: tuple[int, ...], terms) -> np.ndarray:
    """(order, order) uint16 table over a mixed-radix digit encoding, the
    general form of the former rings._digit_table.

    Elements have digits in `radices`, most significant first. terms[d] is
    (xs, ys, small): output digit d is small[x-digits xs, y-digits ys], with
    xs and ys ascending. Each weighted small table is broadcast into a view
    with one axis per x-digit and one per y-digit, so nothing of size
    order^2 is indexed or held in a wider dtype. Partial sums stay at most
    order - 1, which fits uint16.
    """
    ndig = len(radices)
    order = math.prod(radices)
    out = np.zeros(tuple(radices) * 2, dtype=np.uint16)
    weight = order
    for d, (xs, ys, small) in enumerate(terms):
        weight //= radices[d]
        shape = [1] * (2 * ndig)
        for a in (*xs, *(ndig + y for y in ys)):
            shape[a] = radices[a % ndig]
        out += (small.astype(np.uint16) * np.uint16(weight)).reshape(shape)
    return out.reshape(order, order)


def gathered_idealization_mul(gr, M) -> np.ndarray:
    """The idealization's mul table by the former route, kept as the oracle:
    the module part r1 m2 + m1 r2 as one 4-D gather on the (r1, m1, r2, m2)
    axes, combined with r1 r2 by digit_table."""
    return digit_table((gr.order, M.order), [
        ((0,), (0,), gr.ring.mul),
        ((0, 1), (0, 1), M.add[M.left[:, None, None, :], M.right[None, :, :, None]])])


# sha256 of add bytes then mul bytes, captured from the 4-D gather build
IDEALIZATION_4096_SHA256 = {
    ("gaussian(8)", "regular"):
        "4c1b9a2497439d88ec4e934580cca061aae41227aef5d397bd7ddce928c9aa03",
    ("matrix(zn(4), 2)", "quotient([[[0,0],[0,2]]])"):
        "b9c4c7147bd49a16984891967dd54938e5cc361faf6f0212937353391bc1ea0c",
    ("product(gaussian(2), gaussian(4))", "regular"):
        "7e4976ccdcc16e1fd331295ab1c31e783f623aa7eb860a3f64ba16dbd4406f02",
}


def test_idealization_tables_match_gather_oracle():
    """Every default-corpus base with each bimodule RingContext offers it:
    the in-place mul table equals the 4-D gather's in bytes, dtype and C
    layout, and the three order-4096 idealizations keep their pinned bytes."""
    pinned = {}
    for label in _BASE_LABELS:
        ctx = RingContext(build_ring(f"ring: {label}"), label)
        for mlabel, M, xc in ctx.idealizations():
            X = xc.gr.ring
            expected = gathered_idealization_mul(ctx.gr, M)
            assert X.mul.dtype == expected.dtype == np.uint16, (label, mlabel)
            assert X.mul.flags.c_contiguous, (label, mlabel)
            assert X.mul.tobytes() == expected.tobytes(), (label, mlabel)
            if X.order == 4096:
                pinned[label, mlabel] = hashlib.sha256(
                    X.add.tobytes() + X.mul.tobytes()).hexdigest()
    assert pinned == IDEALIZATION_4096_SHA256


def _assert_valid(v, *context):
    assert v.ok, (*context, v.failure, v.witness)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(graded_cases())
def test_constructor_outputs_pass_every_validator(case):
    """What the constructors return unchecked, the validators accept: R/K with
    its grading and projection, P8's identity map, the regular and quotient
    bimodules, their idealizations up to order 256 and, for a product, the
    graded factors with both projections."""
    expr, gr, sub, _ = case
    _assert_valid(validate_ring(gr.ring), expr)
    q = make_quotient(gr, sub)
    qr = q.graded_ring
    _assert_valid(validate_ring(qr.ring), expr, sub.mask)
    _assert_valid(validate_grading(qr.ring, qr.grading), expr, sub.mask)
    _assert_valid(validate_graded_hom(q.projection), expr, sub.mask)
    _assert_valid(validate_graded_hom(GradedRingHom(gr, gr, np.arange(gr.order))), expr)
    for M in (regular_bimodule(gr), quotient_bimodule(q)):
        _assert_valid(validate_bimodule(gr, M), expr, M.label)
        if gr.order * M.order <= 256:
            X = constructions._idealization(gr, M)
            _assert_valid(validate_ring(X.ring), expr, M.label)
            _assert_valid(validate_grading(X.ring, X.grading), expr, M.label)
    if gr.ring.kind == "product":
        factors = _factor_graded_rings(gr)
        for f in factors:
            _assert_valid(validate_ring(f.ring), expr)
        for p in product_projections(gr, *factors):
            _assert_valid(validate_graded_hom(p), expr)
