"""Gradings: direct-sum decompositions of a ring over a finite group.

A grading assigns each group element g an additive subgroup R_g (a bitset
over the carrier) such that R = (+)_g R_g as a direct sum and
R_g . R_h <= R_{gh}. Homogeneous elements are the union of the components;
the degree map is partial (undefined on 0 and on non-homogeneous elements).

The component checks (`check_components`, `check_graded_products`) read
only tables and bitsets, so graded bimodules reuse them for M = (+)_g M_g
and for both actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitsets import bools_from_mask, contains, indices_from_mask, mask_from_bools
from .groups import FiniteGroup, Validation, first_offender, make_cyclic
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
class GradedRing:
    ring: FiniteRing
    grading: Grading
    decomp: np.ndarray = field(init=False, repr=False)       # (n, |G|) component of x at g
    degree: np.ndarray = field(init=False, repr=False)       # (n,) degree or -1
    hom_mask: int = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        # the ring's own when it has one (an idealization's, from R's and M's)
        decomp = self.ring.decomposition(self.grading.components)
        self.decomp = decomp if decomp is not None else _decomposition_table(
            self.ring.add, self.grading.components, self.ring.name)
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

    def memo(self, key, build):
        """The value kept under key, built by build() on first use; the only
        writer of this ring's derived state."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def component_indices(self, g: int) -> np.ndarray:
        return self.memo(("comp_idx", g), lambda: indices_from_mask(
            self.grading.components[g], self.order))

    def hom_indices(self) -> np.ndarray:
        return self.memo("hom_idx", lambda: indices_from_mask(self.hom_mask, self.order))

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


def _decomposition_table(add: np.ndarray, components: list[int], name) -> np.ndarray:
    """Fold the components; fails loudly if the sum is not direct or not all
    of the carrier. Row x holds the component of x in each degree; `name`
    labels elements in the error."""
    n = add.shape[0]
    sums = np.zeros(1, dtype=np.int64)
    rows = np.zeros((1, len(components)), dtype=np.int64)
    for g, mask in enumerate(components):
        comp = indices_from_mask(mask, n)
        new_sums = add[sums[:, None], comp[None, :]].astype(np.int64).ravel()
        new_rows = np.repeat(rows, comp.size, axis=0)
        new_rows[:, g] = np.tile(comp, sums.size)
        sums, rows = new_sums, new_rows
    order = np.argsort(sums, kind="stable")
    sums, rows = sums[order], rows[order]
    if sums.size != n or (sums != np.arange(n)).any():
        if at := first_offender(np.diff(sums) == 0):
            raise GradingError(f"components do not sum directly: element "
                               f"{name(int(sums[at]))} has two decompositions")
        missing, = first_offender(~np.isin(np.arange(n), sums))
        raise GradingError(
            f"components do not span the ring: element {name(missing)} unreachable")
    return rows


def check_components(add: np.ndarray, components: list[int], k: int, name) -> Validation:
    """One bitset per degree of a group of order k, each an additive subgroup
    of the carrier, summing directly to the whole carrier. Closure under + is
    enough for a subgroup: a nonempty subset of a finite group that is closed
    under + is one."""
    n = add.shape[0]
    if len(components) != k:
        return Validation(False, "component count does not match group order",
                          (len(components), k))
    for g, comp in enumerate(components):
        if comp & 1 == 0:
            return Validation(False, "component misses zero", (g,))
        if comp >> n:
            return Validation(False, "component exceeds carrier", (g,))
        idx = indices_from_mask(comp, n)
        if at := first_offender(~bools_from_mask(comp, n)[add[np.ix_(idx, idx)]]):
            i, j = at
            return Validation(False, "component not additively closed",
                              (g, int(idx[i]), int(idx[j])))
    try:
        _decomposition_table(add, components, name)
    except GradingError as e:
        return Validation(False, str(e))
    return Validation(True)


def check_graded_products(op: np.ndarray, table: np.ndarray, xs: list[np.ndarray],
                          ys: list[np.ndarray], zs: list[np.ndarray],
                          failure: str) -> Validation:
    """X_g . Y_h inside Z_gh for all degrees g, h, where table[x, y] is the
    product. xs and ys hold each degree's indices, zs each degree's flags;
    the witness is (g, h, x, y)."""
    k = op.shape[0]
    for g in range(k):
        for h in range(k):
            prod = table[np.ix_(xs[g], ys[h])]
            if at := first_offender(~zs[int(op[g, h])][prod]):
                i, j = at
                return Validation(False, failure, (g, h, int(xs[g][i]), int(ys[h][j])))
    return Validation(True)


def validate_grading(ring: FiniteRing, grading: Grading) -> Validation:
    """Subgroup, direct-sum and multiplicativity checks; first failure wins."""
    n = ring.order
    comps, group = grading.components, grading.group
    if not (v := check_components(ring.add, comps, group.order, ring.name)):
        return v
    idx = [indices_from_mask(c, n) for c in comps]
    if not (v := check_graded_products(group.op, ring.mul, idx, idx,
                                       [bools_from_mask(c, n) for c in comps],
                                       "component product escapes its target")):
        return v
    if ring.unity is not None and not contains(comps[group.identity], ring.unity):
        return Validation(False, "unity outside the identity component", (ring.unity,))
    return Validation(True)


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
