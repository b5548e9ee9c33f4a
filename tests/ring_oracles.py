"""The ordered ring scan that validate_ring's witnesses must match.

Every law is checked in a fixed order, generator by generator, and the first
violated one is reported with its lexicographically first witness. The
additive generators come from a frontier closure under + that takes sums in
both orders, so it is exact on any table. Each comparison is made over the
whole table at once, which gives the same first offender as any blocking.
"""

from __future__ import annotations

import numpy as np

from ringbench.groups import Validation, first_offender, range_check
from ringbench.rings import FiniteRing, find_unity


def additive_generators(add: np.ndarray) -> list[int]:
    """Repeatedly adjoin the smallest element outside the closure under +
    of the generators so far."""
    span = np.zeros(add.shape[0], dtype=bool)
    span[0] = True
    gens: list[int] = []
    while at := first_offender(~span):
        g = at[0]
        gens.append(g)
        span[g] = True
        frontier = np.array([g])
        while frontier.size:
            members = np.flatnonzero(span)
            new = np.concatenate([add[frontier[:, None], members].ravel(),
                                  add[members[:, None], frontier].ravel()])
            frontier = np.unique(new[~span[new]])
            span[frontier] = True
    return gens


def check_additive_group(add: np.ndarray, neg: np.ndarray, gens: list[int]) -> Validation:
    """Identities, commutativity and inverses exhaustively, then
    associativity (g + u) + v = g + (u + v) for each generator g in turn."""
    idx = np.arange(add.shape[0])
    if at := first_offender(add[0, :] != idx):
        return Validation(False, "zero is not a left additive identity", (0, *at))
    if at := first_offender(add[:, 0] != idx):
        return Validation(False, "zero is not a right additive identity", (*at, 0))
    if at := first_offender(add != add.T):
        return Validation(False, "addition is not commutative", at)
    if at := first_offender(add[idx, neg] != 0):
        return Validation(False, "neg is not an additive inverse", (*at, int(neg[at])))
    for g in gens:
        if at := first_offender(add[add[g], :] != add[g][add]):
            return Validation(False, "addition is not associative", (g, *at))
    return Validation(True)


def first_ring_failure(ring: FiniteRing) -> Validation:
    """Shape, range, the additive group, then for each generator g left and
    right distributivity a(g + c) = ag + ac and (g + b)c = gc + bc, the
    associator on generator triples and the declared unity."""
    n = ring.order
    add, neg, mul = ring.add, ring.neg, ring.mul
    if add.shape != (n, n) or mul.shape != (n, n) or neg.shape != (n,):
        return Validation(False, "table shape", (add.shape, mul.shape, neg.shape))
    if not (v := range_check(n, add=add, mul=mul)):
        return v
    gens = additive_generators(add)
    if not (v := check_additive_group(add, neg, gens)):
        return v

    for g in gens:
        if at := first_offender(mul[:, add[g]] != add[mul[:, g][:, None], mul]):
            a, c = at
            return Validation(False, "left distributivity fails", (a, g, c))
        if at := first_offender(mul[add[g], :] != add[mul[g][None, :], mul]):
            return Validation(False, "right distributivity fails", (g, *at))

    garr = np.asarray(gens, dtype=np.int64)
    ab = mul[garr[:, None], garr[None, :]]
    lhs = mul[ab[:, :, None], garr[None, None, :]]
    rhs = mul[garr[:, None, None], ab[None, :, :]]
    if at := first_offender(lhs != rhs):
        return Validation(False, "multiplication is not associative",
                          tuple(int(garr[i]) for i in at))

    if ring.unity is not None and find_unity(ring) != ring.unity:
        return Validation(False, "declared unity is not a two-sided identity",
                          (ring.unity,))
    return Validation(True)
