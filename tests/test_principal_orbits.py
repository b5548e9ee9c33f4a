"""Enumeration closes one principal ideal per orbit of homogeneous units:
the masks it assigns equal each element's own closure, at every sidedness."""

from __future__ import annotations

import dataclasses

import pytest

from conftest import TRIANGULAR_Z2_Z4, build_ring
from ringbench import ideals
from ringbench.bitsets import mask_from_bools
from ringbench.grading import GradedRing
from ringbench.ideals import LEFT, RIGHT, SUBGROUP_ONLY, TWO_SIDED, graded_ideal_masks

ZN8_CUBED = "ring: product(zn(8), product(zn(8), zn(8)))"
ZN2_SIXTH = "ring: " + "product(zn(2), " * 5 + "zn(2)" + ")" * 5


@pytest.mark.parametrize("spec", ["ring: matrix(zn(8), 2)", "ring: zn(128)", ZN8_CUBED,
                                  ZN2_SIXTH, "ring: matrix(zn(2), 2)", TRIANGULAR_Z2_Z4])
@pytest.mark.parametrize("sidedness", [TWO_SIDED, LEFT, RIGHT, SUBGROUP_ONLY])
def test_orbit_masks_equal_each_closure(spec, sidedness):
    gr = build_ring(spec)
    left, right = ideals._flags(sidedness)
    got = ideals._principal_masks(gr, left, right)
    want = [int(mask_from_bools(ideals._close(gr, None, [x], left, right)))
            for x in gr.hom_indices().tolist()]
    assert got == want


def test_units_found_on_the_tables():
    """zn(8)'s units are 1, 3, 5, 7 and zn(2)^6 has only its unity; the
    same zn(8) tables, not recorded as a ring, get none."""
    zn8 = build_ring("ring: zn(8)")
    assert ideals._homogeneous_units(zn8).tolist() == [1, 3, 5, 7]
    assert len(ideals._homogeneous_units(build_ring(ZN2_SIXTH))) == 1
    unchecked = GradedRing(dataclasses.replace(zn8.ring, laws_checked=False), zn8.grading)
    assert len(ideals._homogeneous_units(unchecked)) == 0


def test_one_closure_per_principal_ideal_on_zn8_cubed(monkeypatch):
    """zn(8)^3 has 512 homogeneous elements and 64 distinct two-sided
    principal ideals; enumeration closes at most one element for each."""
    calls = []
    close = ideals._close

    def spy(*args):
        calls.append(args[2])
        return close(*args)

    monkeypatch.setattr(ideals, "_close", spy)
    masks = graded_ideal_masks(build_ring(ZN8_CUBED), TWO_SIDED)
    assert len(masks) == 64
    assert len(calls) <= 64
