"""Group construction and exhaustive validation."""

from __future__ import annotations

import numpy as np

from ringbench.groups import (
    FiniteGroup,
    greedy_generators,
    grow_span,
    make_cyclic,
    make_product_group,
    validate_group,
)


def test_cyclic_tables():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.inv(0) == 0


def test_cyclic_validates():
    for n in (1, 2, 5, 8):
        check = validate_group(make_cyclic(n))
        assert check.ok, check.failure


def test_product_group():
    g = make_product_group(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    check = validate_group(g)
    assert check.ok
    # (1, 2) + (1, 2) = (0, 1) -> index 0*3 + 1
    assert g.mul(1 * 3 + 2, 1 * 3 + 2) == 1


def test_validate_rejects_broken_associativity():
    op = make_cyclic(4).op.copy()
    op[1, 2] = 0  # 1+2 = 0 breaks associativity and inverses
    g = FiniteGroup(4, op, make_cyclic(4).inverse.copy())
    check = validate_group(g)
    assert not check.ok
    assert check.failure
    assert check.witness is not None


def test_validate_rejects_bad_identity():
    op = make_cyclic(3).op.copy()
    op[0, 1] = 2
    g = FiniteGroup(3, op, make_cyclic(3).inverse.copy())
    assert not validate_group(g).ok


def test_validate_rejects_bad_inverse():
    base = make_cyclic(5)
    inv = base.inverse.copy()
    inv[2] = 2
    assert not validate_group(FiniteGroup(5, base.op.copy(), inv)).ok


def test_element_names_default():
    g = make_cyclic(3)
    assert g.name(2) == "2"
    assert np.array_equal(g.op[0], np.arange(3))


def _closure(op: np.ndarray, members: set[int]) -> set[int]:
    """Smallest superset of members closed under op, pair by pair."""
    out = set(members)
    while extra := {int(op[a, b]) for a in out for b in out} - out:
        out |= extra
    return out


def test_grow_span_is_the_generated_subgroup():
    """From a subgroup and an element, doubling reaches the subgroup the two
    generate, on cyclic and product groups; on other tables it ends."""
    groups = (make_cyclic(12), make_cyclic(1),
              make_product_group(make_cyclic(4), make_cyclic(6)))
    for group in groups:
        op, n = group.op, group.order
        for h in range(n):
            base = _closure(op, {0, h})
            span = np.zeros(n, dtype=bool)
            span[sorted(base)] = True
            for g in range(n):
                got = set(np.flatnonzero(grow_span(op, span, g)).tolist())
                assert got == _closure(op, base | {g}), (n, h, g)
    # 0 + 1 = 0, and the doubled steps 1, 2, 1, ... never enter {0}: the
    # growth ends after n rounds
    stuck = np.array([[0, 0, 0], [0, 2, 0], [0, 0, 1]])
    assert grow_span(stuck, np.array([True, False, False]), 1).tolist() == [True, False, False]


def test_greedy_generators_span_subgroups_and_reject_the_rest():
    """Generators of every subgroup of Z_12 and Z_4 x Z_6, each the first
    member outside the span so far; None for a subset that is no subgroup,
    one without 0, and tables where 0 is no left identity."""
    for group in (make_cyclic(12), make_product_group(make_cyclic(4), make_cyclic(6))):
        op, n = group.op, group.order
        assert greedy_generators(op) == greedy_generators(op, np.ones(n, dtype=bool))
        for h in range(n):
            sub = np.zeros(n, dtype=bool)
            sub[sorted(_closure(op, {0, h}))] = True
            gens = greedy_generators(op, sub)
            assert _closure(op, {0, *gens}) == set(np.flatnonzero(sub).tolist())
            span = {0}
            for g in gens:
                assert g == min(set(np.flatnonzero(sub).tolist()) - span)
                span = _closure(op, span | {g})
            if sub.sum() > 2:                    # <h> without h is no subgroup
                sub[h] = False
                assert greedy_generators(op, sub) is None, (n, h)
        no_zero = np.ones(n, dtype=bool)
        no_zero[0] = False
        assert greedy_generators(op, no_zero) is None
    no_left_zero = np.array([[0, 2, 1], [1, 0, 0], [2, 0, 0]])
    assert greedy_generators(no_left_zero) is None
