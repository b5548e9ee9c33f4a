"""Gradings: direct-sum decompositions of a ring over a finite group.

A grading assigns each group element g an additive subgroup R_g (a bitset
over the carrier) such that R = (+)_g R_g as a direct sum and
R_g . R_h <= R_{gh}. Homogeneous elements are the union of the components;
the degree map is partial (undefined on 0 and on non-homogeneous elements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitsets import bools_from_mask, contains, indices_from_mask, mask_from_bools
from .groups import FiniteGroup, make_cyclic
from .rings import FiniteRing


class GradingError(ValueError):
    pass


@dataclass
class Grading:
    group: FiniteGroup
    components: list[int]        # bitset per group element index

    def component(self, g: int) -> int:
        return self.components[g]


@dataclass
class GradingValidation:
    ok: bool
    failure: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class GradedRing:
    ring: FiniteRing
    grading: Grading
    decomp: np.ndarray = field(init=False, repr=False)       # (n, |G|) component of x at g
    degree: np.ndarray = field(init=False, repr=False)       # (n,) degree or -1
    hom_mask: int = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.decomp = _decomposition_table(self.ring, self.grading)
        nonzero = self.decomp != 0
        counts = nonzero.sum(axis=1)
        deg = np.where(counts == 1, np.argmax(nonzero, axis=1), -1)
        self.degree = deg.astype(np.int64)
        mask = 0
        for comp in self.grading.components:
            mask |= comp
        self.hom_mask = mask

    @property
    def order(self) -> int:
        return self.ring.order

    @property
    def group(self) -> FiniteGroup:
        return self.grading.group

    def component_mask(self, g: int) -> int:
        return self.grading.components[g]

    def component_indices(self, g: int) -> np.ndarray:
        key = ("comp_idx", g)
        if key not in self._cache:
            self._cache[key] = indices_from_mask(self.grading.components[g], self.order)
        return self._cache[key]

    def hom_indices(self) -> np.ndarray:
        if "hom_idx" not in self._cache:
            self._cache["hom_idx"] = indices_from_mask(self.hom_mask, self.order)
        return self._cache["hom_idx"]

    def degree_of(self, x: int) -> int | None:
        """Degree of a homogeneous element; None on 0 and non-homogeneous ones."""
        d = int(self.degree[x])
        return None if d < 0 else d

    def is_homogeneous(self, x: int) -> bool:
        return contains(self.hom_mask, x)

    def name(self, x: int) -> str:
        return self.ring.name(x)

    def __repr__(self):
        return (f"GradedRing(kind={self.ring.kind!r}, order={self.ring.order}, "
                f"group_order={self.group.order})")


def _decomposition_table(ring: FiniteRing, grading: Grading) -> np.ndarray:
    """Fold the components; fails loudly if the sum is not direct or not all of R."""
    n = ring.order
    k = grading.group.order
    add = ring.add
    sums = np.zeros(1, dtype=np.int64)
    rows = np.zeros((1, k), dtype=np.int64)
    for g in range(k):
        comp = indices_from_mask(grading.components[g], n)
        new_sums = add[sums[:, None], comp[None, :]].astype(np.int64).ravel()
        new_rows = np.repeat(rows, comp.size, axis=0)
        new_rows[:, g] = np.tile(comp, sums.size)
        sums, rows = new_sums, new_rows
    order = np.argsort(sums, kind="stable")
    sums, rows = sums[order], rows[order]
    if sums.size != n or (sums != np.arange(n)).any():
        if sums.size > 1:
            dup = np.nonzero(np.diff(sums) == 0)[0]
            if dup.size:
                raise GradingError(
                    f"components do not sum directly: element "
                    f"{ring.name(int(sums[dup[0]]))} has two decompositions")
        missing = sorted(set(range(n)) - set(int(s) for s in sums))
        raise GradingError(
            f"components do not span the ring: element {ring.name(missing[0])} unreachable")
    return rows


def validate_grading(ring: FiniteRing, grading: Grading) -> GradingValidation:
    """Subgroup, direct-sum and multiplicativity checks; first failure wins."""
    n = ring.order
    k = grading.group.order
    if len(grading.components) != k:
        return GradingValidation(False, "component count does not match group order",
                                 (len(grading.components), k))
    for g, comp in enumerate(grading.components):
        if comp & 1 == 0:
            return GradingValidation(False, "component misses zero", (g,))
        if comp >> n:
            return GradingValidation(False, "component exceeds carrier", (g,))
        idx = indices_from_mask(comp, n)
        sums = ring.add[np.ix_(idx, idx)]
        ok = bools_from_mask(comp, n)
        bad = ~ok[sums]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return GradingValidation(False, "component not additively closed",
                                     (g, int(idx[i]), int(idx[j])))
    try:
        _decomposition_table(ring, grading)
    except GradingError as e:
        return GradingValidation(False, str(e))
    op = grading.group.op
    for g in range(k):
        ig = indices_from_mask(grading.components[g], n)
        for h in range(k):
            ih = indices_from_mask(grading.components[h], n)
            target = bools_from_mask(grading.components[int(op[g, h])], n)
            prod = ring.mul[np.ix_(ig, ih)]
            bad = ~target[prod]
            if bad.any():
                i, j = np.argwhere(bad)[0]
                return GradingValidation(False, "component product escapes its target",
                                         (g, h, int(ig[i]), int(ih[j])))
    if ring.unity is not None and not contains(grading.components[grading.group.identity],
                                               ring.unity):
        return GradingValidation(False, "unity outside the identity component",
                                 (ring.unity,))
    return GradingValidation(True)


def product_slots(gr: GradedRing, pos: np.ndarray, products: np.ndarray,
                  factors: tuple[np.ndarray, ...], target: str) -> np.ndarray:
    """pos[products], where pos is -1 outside the set the products must land in.

    products[i, j, ...] is the product of factors[0][i], factors[1][j], ...;
    the first one that misses raises GradingError naming it, which happens
    only for a grading that validate_grading would have rejected.
    """
    slots = pos[products]
    if slots.min() < 0:
        at = tuple(int(i) for i in np.argwhere(slots < 0)[0])
        names = "*".join(gr.name(int(f[i])) for f, i in zip(factors, at))
        raise GradingError(f"product {names} = {gr.name(int(products[at]))} "
                           f"is not in {target}; the grading is not multiplicative")
    return slots


def attach_grading(ring: FiniteRing, grading: Grading) -> GradedRing:
    """Validate and bundle; precomputes the decomposition table."""
    check = validate_grading(ring, grading)
    if not check:
        raise GradingError(f"{check.failure}: witness {check.witness}")
    return GradedRing(ring, grading)


def decompose(gr: GradedRing, x: int) -> dict[int, int]:
    """Nonzero homogeneous components of x, keyed by degree."""
    row = gr.decomp[x]
    return {g: int(c) for g, c in enumerate(row) if c != 0}


def homogeneous_elements(gr: GradedRing) -> int:
    """Bitset of all homogeneous elements (union of the components)."""
    return gr.hom_mask


def make_trivial_grading(ring: FiniteRing, group: FiniteGroup) -> Grading:
    """Everything in the identity component, {0} elsewhere."""
    full = (1 << ring.order) - 1
    comps = [1] * group.order
    comps[group.identity] = full
    return Grading(group, comps)


def make_gaussian_grading(ring: FiniteRing) -> Grading:
    """Z_2-grading of Z_n[i]: reals in degree 0, pure imaginaries in degree 1."""
    if ring.kind != "gaussian":
        raise GradingError(f"gaussian grading needs a gaussian ring, got kind {ring.kind!r}")
    n = ring.params["n"]
    ids = np.arange(ring.order)
    reals = mask_from_bools(ids % n == ids)          # b == 0  <=>  id < n
    imags = mask_from_bools(ids % n == 0)            # a == 0
    return Grading(make_cyclic(2), [int(reals), int(imags)])


def make_checkerboard_grading(ring: FiniteRing) -> Grading:
    """Z_4-grading of a 2x2 matrix ring: diagonal in degree 0, antidiagonal in
    degree 2, components 1 and 3 zero."""
    if ring.kind != "matrix" or ring.params.get("k") != 2:
        raise GradingError("checkerboard grading needs a 2x2 matrix ring")
    digits = ring.params["digits"]
    diag = mask_from_bools((digits[:, 1] == 0) & (digits[:, 2] == 0))
    anti = mask_from_bools((digits[:, 0] == 0) & (digits[:, 3] == 0))
    return Grading(make_cyclic(4), [int(diag), 1, int(anti), 1])


def make_product_grading(gr1: GradedRing, gr2: GradedRing,
                         product_ring: FiniteRing) -> Grading:
    """Componentwise grading of a product ring; both factors must share the group."""
    g1, g2 = gr1.group, gr2.group
    if g1.order != g2.order or (g1.op != g2.op).any():
        raise GradingError("factors are graded over different groups")
    if product_ring.kind != "product":
        raise GradingError("product grading needs a product ring")
    f1, f2 = product_ring.params["factors"]
    if f1 is not gr1.ring or f2 is not gr2.ring:
        raise GradingError("product ring factors do not match the graded factors")
    n2 = gr2.order
    comps = []
    for g in range(g1.order):
        i1 = gr1.component_indices(g)
        i2 = gr2.component_indices(g)
        pairs = (i1[:, None] * n2 + i2[None, :]).ravel()
        flags = np.zeros(product_ring.order, dtype=bool)
        flags[pairs] = True
        comps.append(int(mask_from_bools(flags)))
    return Grading(g1, comps)
