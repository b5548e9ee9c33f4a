"""Grading construction, validation, and decomposition."""

from __future__ import annotations

import pytest

from ringbench.bitsets import popcount
from ringbench.grading import (
    GradedRing,
    Grading,
    GradingError,
    attach_grading,
    decompose,
    make_checkerboard_grading,
    make_gaussian_grading,
    make_product_grading,
    make_trivial_grading,
    validate_grading,
)
from ringbench.groups import make_cyclic
from ringbench.rings import make_gaussian, make_matrix_ring, make_product_ring, make_zn


def graded_zn(n: int) -> GradedRing:
    ring = make_zn(n)
    return attach_grading(ring, make_trivial_grading(ring, make_cyclic(2)))


def graded_gaussian(n: int) -> GradedRing:
    ring = make_gaussian(n)
    return attach_grading(ring, make_gaussian_grading(ring))


def test_trivial_grading():
    gr = graded_zn(8)
    assert gr.group.order == 2
    assert popcount(gr.component_mask(0)) == 8
    assert gr.component_mask(1) == 1
    assert gr.degree_of(5) == 0
    assert gr.degree_of(0) is None
    assert gr.is_homogeneous(5)


def test_gaussian_grading_components():
    gr = graded_gaussian(4)
    # reals 0..3 in degree 0, pure imaginaries 0,4,8,12 in degree 1
    assert sorted(gr.component_indices(0)) == [0, 1, 2, 3]
    assert sorted(gr.component_indices(1)) == [0, 4, 8, 12]
    assert popcount(gr.hom_mask) == 7
    assert gr.degree_of(8) == 1
    assert gr.degree_of(2) == 0
    assert not gr.is_homogeneous(5)   # 1+i
    assert gr.is_homogeneous(0)


def test_gaussian_grading_multiplies_into_components():
    gr = graded_gaussian(3)
    check = validate_grading(gr.ring, gr.grading)
    assert check.ok
    # i * i = -1 lands back in degree 0 = 1+1 mod 2
    assert gr.degree_of(int(gr.ring.mul[3, 3])) == 0


def test_checkerboard_grading():
    ring = make_matrix_ring(make_zn(4), 2)
    gr = attach_grading(ring, make_checkerboard_grading(ring))
    assert gr.group.order == 4
    sizes = [popcount(gr.component_mask(g)) for g in range(4)]
    assert sizes == [16, 1, 16, 1]
    e01 = 0 * 64 + 1 * 16 + 0 * 4 + 0
    assert gr.degree_of(e01) == 2
    diag = 3 * 64 + 0 * 16 + 0 * 4 + 2
    assert gr.degree_of(diag) == 0
    check = validate_grading(ring, gr.grading)
    assert check.ok


def test_product_grading():
    g1 = graded_gaussian(2)
    g2 = graded_gaussian(4)
    ring = make_product_ring(g1.ring, g2.ring)
    gr = attach_grading(ring, make_product_grading(g1, g2, ring))
    assert gr.group.order == 2
    assert popcount(gr.component_mask(0)) == 2 * 4
    assert popcount(gr.component_mask(1)) == 2 * 4
    # (1, 2) is real x real -> degree 0
    assert gr.degree_of(1 * 16 + 2) == 0
    # (i, 2i) -> degree 1
    assert gr.degree_of(2 * 16 + 8) == 1
    # (1, i) mixes degrees -> not homogeneous
    assert not gr.is_homogeneous(1 * 16 + 4)


def test_product_grading_rejects_mismatched_factors():
    g1 = graded_gaussian(2)
    g2 = graded_gaussian(4)
    ring = make_product_ring(g1.ring, g2.ring)
    with pytest.raises(GradingError):
        make_product_grading(g2, g1, ring)


def test_decompose():
    gr = graded_gaussian(4)
    parts = decompose(gr, 6)   # 2+i
    assert parts == {0: 2, 1: 4}
    assert decompose(gr, 0) == {}
    assert decompose(gr, 3) == {0: 3}


def test_validate_grading_rejects_non_direct_sum():
    ring = make_zn(4)
    full = (1 << 4) - 1
    bad = Grading(make_cyclic(2), [full, 0b0101])   # components overlap in 2
    check = validate_grading(ring, bad)
    assert not check.ok


def test_validate_grading_rejects_leaky_products():
    ring = make_zn(4)
    # {0,2} + {0,1}: covers nothing properly; 1*1 = 1 lands in degree 0 component? no:
    # components {0,2} (deg 0) and {0,1,3}? not a subgroup; use {0,2},{0,1} direct-sum
    # fails since 3 is missed -> validation must fail on coverage
    bad = Grading(make_cyclic(2), [0b0101, 0b0011])
    assert not validate_grading(ring, bad).ok


def test_attach_grading_raises_on_invalid():
    ring = make_zn(4)
    with pytest.raises(GradingError):
        attach_grading(ring, Grading(make_cyclic(2), [0b0101, 0b0101]))


def test_gaussian_grading_requires_gaussian_ring():
    with pytest.raises(GradingError):
        make_gaussian_grading(make_zn(4))
    with pytest.raises(GradingError):
        make_checkerboard_grading(make_zn(4))
