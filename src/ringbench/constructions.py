"""Derived graded rings: quotients, idealizations, and graded ring maps.

Quotients keep the coset with the smallest base index as representative, so
element order (and hence every downstream witness) is deterministic.
Idealizations pair the ring with a graded bimodule; the pair (r, m) sits at
index r*|M| + m and multiplies as (r1, m1)(r2, m2) = (r1 r2, r1 m2 + m1 r2).
An idealization computes its products from that rule and builds its dense
tables only when they are read (`IdealizationRing`).

Trust boundary: given a valid graded ring R, make_quotient checks only that
K is a graded two-sided ideal and make_idealization only that M is a graded
bimodule. What they build is a graded ring, and R -> R/K a graded map, by
construction, so neither re-validates it. An ideal that R's two-sided
graded-ideal enumeration produced is graded and two-sided by construction
too, and is not re-checked; nor is P x M in R(+)M for a two-sided ideal P
of R, which embed_ideal_in_idealization records as one. Any other ideal is
checked once per ring and mask, in one `ideals.ideal_check` entry that the
classifier reads too. The regular and quotient bimodules built here are
bimodules by construction, so their idealizations go through
_idealization, which skips validate_bimodule. make_graded_hom,
product_projections and grading.attach_grading validate what callers pass.
R/K and R(+)M keep R's record of whether its tables form a ring
(`FiniteRing.laws_checked`).

R/{0} is R again: make_quotient by the zero ideal reads R's tables through
read-only views and projects by the identity, with no coset gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitsets import bools_from_mask, indices_from_mask, mask_from_bools, popcount
from .grading import (
    GradedRing,
    Grading,
    _decomposition_table,
    check_components,
    check_graded_products,
)
from .groups import Validation, first_offender, range_check
from .ideals import TWO_SIDED, IdealSubset, graded_defect, ideal_check
from .rings import (
    DEFAULT_RING_CAP,
    FiniteRing,
    _check_cap,
    _pair_table,
    check_additive_group,
    find_unity,
)


class ConstructionError(ValueError):
    pass


class BimoduleError(ConstructionError):
    pass


class HomError(ConstructionError):
    pass


# ---------------------------------------------------------------------------
# graded homomorphisms


@dataclass(frozen=True)
class GradedRingHom:
    """Table-backed ring map. group_map carries degrees when the grading
    groups differ; None means degrees map identically."""

    source: GradedRing
    target: GradedRing
    mapping: np.ndarray
    group_map: np.ndarray | None = None

    def apply(self, x: int) -> int:
        return int(self.mapping[x])

    def degree_image(self, g: int) -> int:
        return g if self.group_map is None else int(self.group_map[g])

    def image_mask(self, subset_mask: int | None = None) -> int:
        if subset_mask is None:
            vals = self.mapping
        else:
            vals = self.mapping[indices_from_mask(subset_mask, self.source.order)]
        flags = np.zeros(self.target.order, dtype=bool)
        flags[vals] = True
        return int(mask_from_bools(flags))

    def preimage_mask(self, target_mask: int) -> int:
        flags = bools_from_mask(target_mask, self.target.order)
        return int(mask_from_bools(flags[self.mapping]))

    def is_surjective(self) -> bool:
        return self.image_mask() == (1 << self.target.order) - 1


def validate_graded_hom(f: GradedRingHom) -> Validation:
    """Additive, multiplicative, zero-preserving, and degree-preserving."""
    src, tgt, m = f.source, f.target, f.mapping
    if m.shape != (src.order,):
        return Validation(False, "mapping shape", (m.shape,))
    if m.min() < 0 or m.max() >= tgt.order:
        return Validation(False, "mapping range", (int(m.min()), int(m.max())))
    if m[0] != 0:
        return Validation(False, "zero not preserved", (int(m[0]),))
    if at := first_offender(tgt.ring.add[m[:, None], m[None, :]] != m[src.ring.add]):
        return Validation(False, "not additive", at)
    if at := first_offender(tgt.ring.mul[m[:, None], m[None, :]] != m[src.ring.mul]):
        return Validation(False, "not multiplicative", at)
    if f.group_map is not None and f.group_map.shape != (src.group.order,):
        return Validation(False, "group map shape", (f.group_map.shape,))
    for g in range(src.group.order):
        h = f.degree_image(g)
        if h < 0 or h >= tgt.group.order:
            return Validation(False, "group map range", (g, h))
        comp = bools_from_mask(tgt.component_mask(h), tgt.order)
        src_idx = src.component_indices(g)
        if at := first_offender(~comp[m[src_idx]]):
            return Validation(False, "degree not preserved", (g, int(src_idx[at])))
    return Validation(True)


def make_graded_hom(source: GradedRing, target: GradedRing, mapping,
                    group_map=None) -> GradedRingHom:
    f = GradedRingHom(source, target,
                      np.asarray(mapping, dtype=np.int64),
                      None if group_map is None
                      else np.asarray(group_map, dtype=np.int64))
    v = validate_graded_hom(f)
    if not v:
        raise HomError(f"not a graded homomorphism: {v.failure} at {v.witness}")
    return f


def hom_kernel(f: GradedRingHom) -> IdealSubset:
    """Kernel as an ideal of the source; graded because f preserves degrees."""
    mask = int(mask_from_bools(f.mapping == 0))
    return IdealSubset(mask, TWO_SIDED,
                       graded=graded_defect(f.source, mask) is None)


def hom_image(f: GradedRingHom, P: IdealSubset) -> IdealSubset:
    """Image of an ideal; needs surjectivity (then f(P) is again an ideal)."""
    if not f.is_surjective():
        raise HomError("image transport requires a surjective homomorphism")
    mask = f.image_mask(P.mask)
    return IdealSubset(mask, P.sidedness,
                       graded=graded_defect(f.target, mask) is None)


def hom_preimage(f: GradedRingHom, Q: IdealSubset | int) -> IdealSubset:
    qmask = Q.mask if isinstance(Q, IdealSubset) else int(Q)
    mask = f.preimage_mask(qmask)
    sidedness = Q.sidedness if isinstance(Q, IdealSubset) else TWO_SIDED
    return IdealSubset(mask, sidedness,
                       graded=graded_defect(f.source, mask) is None)


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientConstruction:
    graded_ring: GradedRing
    projection: GradedRingHom


def _coset_tables(gr: GradedRing, kmask: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, proj): smallest representative of each coset, old index -> new."""
    kidx = indices_from_mask(kmask, gr.order)
    rep = gr.ring.add[:, kidx].min(axis=1).astype(np.int64)
    reps = np.unique(rep)
    pos = np.full(gr.order, -1, dtype=np.int64)
    pos[reps] = np.arange(len(reps), dtype=np.int64)
    return reps, pos[rep]


def _read_only(table: np.ndarray) -> np.ndarray:
    """A uint16 view of table that cannot be written through."""
    view = np.asarray(table, dtype=np.uint16).view()
    view.flags.writeable = False
    return view


def make_quotient(gr: GradedRing, K: IdealSubset | int) -> QuotientConstruction:
    """R/K with its inherited grading (R/K)_g = (R_g + K)/K, plus the
    projection map. Cosets are named after their smallest representative.
    K is judged by `ideal_check`, by the ordered closure scan alone when R
    is not recorded as a ring; R/K keeps R's record."""
    kmask = K.mask if isinstance(K, IdealSubset) else int(K)
    ok, witness, defect = ideal_check(gr, kmask)
    if not ok:
        raise ConstructionError(f"not a two-sided ideal: failed {witness}")
    if defect is not None:
        raise ConstructionError(
            f"ideal is not graded: member {gr.name(defect)} leaks a component")
    base = gr.ring
    if kmask == 1:
        reps = proj = np.arange(gr.order, dtype=np.int64)
        q_add, q_neg, q_mul = (_read_only(t) for t in (base.add, base.neg, base.mul))
    else:
        reps, proj = _coset_tables(gr, kmask)
        q_add = proj[base.add[np.ix_(reps, reps)]].astype(np.uint16)
        q_mul = proj[base.mul[np.ix_(reps, reps)]].astype(np.uint16)
        q_neg = proj[base.neg[reps]].astype(np.uint16)
    names = [base.name(int(r)) for r in reps]
    ring = FiniteRing(
        order=len(reps), add=q_add, neg=q_neg, mul=q_mul,
        unity=None if base.unity is None else int(proj[base.unity]),
        element_names=names, kind="quotient",
        params={"base": base, "ideal_mask": kmask}, laws_checked=base.laws_checked)
    if ring.unity is None:
        ring.unity = find_unity(ring)
    comps = []
    for g in range(gr.group.order):
        flags = np.zeros(len(reps), dtype=bool)
        flags[proj[gr.component_indices(g)]] = True
        comps.append(int(mask_from_bools(flags)))
    qgr = GradedRing(ring, Grading(gr.group, comps))
    return QuotientConstruction(qgr, GradedRingHom(gr, qgr, proj))


# ---------------------------------------------------------------------------
# graded bimodules


@dataclass
class GradedBimodule:
    """Finite abelian group with compatible left/right ring actions and a
    grading over the ring's group; the module half of an idealization."""

    order: int
    add: np.ndarray           # (order, order)
    neg: np.ndarray           # (order,)
    left: np.ndarray          # (ring order, order): left[r, m] = r.m
    right: np.ndarray         # (order, ring order): right[m, r] = m.r
    components: list[int]     # bitset per group element
    element_names: list[str]
    unital: bool = False      # 1.m == m == m.1 (meaningful for unital rings)
    label: str = "module"

    def name(self, m: int) -> str:
        return self.element_names[m]


def validate_bimodule(gr: GradedRing, M: GradedBimodule) -> Validation:
    """Abelian group, biadditive associative actions, compatibility
    (r m) s == r (m s), graded actions, direct-sum decomposition, and the
    declared unital flag."""
    n, m = gr.order, M.order
    if M.add.shape != (m, m) or M.neg.shape != (m,):
        return Validation(False, "additive table shape")
    if M.left.shape != (n, m) or M.right.shape != (m, n):
        return Validation(False, "action table shape")
    if not (v := range_check(m, add=M.add, left=M.left, right=M.right, neg=M.neg)):
        return v
    if not (v := check_additive_group(M.add, M.neg)):
        return Validation(False, f"additive group: {v.failure}", v.witness)

    add, mul = gr.ring.add, gr.ring.mul
    checks = (
        # r(m1+m2) == rm1 + rm2                         (n, m, m)
        ("left action not additive over the module",
         M.left[:, M.add],
         M.add[M.left[:, :, None], M.left[:, None, :]]),
        # (r1+r2)m == r1m + r2m                         (n, n, m)
        ("left action not additive over the ring",
         M.left[add.astype(np.int64)],
         M.add[M.left[:, None, :], M.left[None, :, :]]),
        # (m1+m2)r == m1r + m2r                         (m, m, n)
        ("right action not additive over the module",
         M.right[M.add.astype(np.int64)],
         M.add[M.right[:, None, :], M.right[None, :, :]]),
        # m(r1+r2) == mr1 + mr2                         (m, n, n)
        ("right action not additive over the ring",
         M.right[:, add],
         M.add[M.right[:, :, None], M.right[:, None, :]]),
        # (r1 r2)m == r1(r2 m)                          (n, n, m)
        ("left action not associative",
         M.left[mul.astype(np.int64)],
         M.left[np.arange(n)[:, None, None], M.left[None, :, :]]),
        # m(r1 r2) == (m r1)r2                          (m, n, n)
        ("right action not associative",
         M.right[:, mul],
         M.right[M.right[:, :, None], np.arange(n)[None, None, :]]),
        # (r m)s == r(m s)                              (n, m, n)
        ("actions not compatible",
         M.right[M.left.astype(np.int64)],
         M.left[np.arange(n)[:, None, None], M.right[None, :, :]]),
    )
    for label, lhs, rhs in checks:
        if at := first_offender(lhs != rhs):
            return Validation(False, label, at)

    k = gr.group.order
    if not (v := check_components(M.add, M.components, k, M.name)):
        return v
    rs = [gr.component_indices(g) for g in range(k)]
    ms = [indices_from_mask(c, m) for c in M.components]
    flags = [bools_from_mask(c, m) for c in M.components]
    op = gr.group.op
    if not (v := check_graded_products(op, M.left, rs, ms, flags,
                                       "left action leaks a component")):
        return v
    if not (v := check_graded_products(op, M.right, ms, rs, flags,
                                       "right action leaks a component")):
        return v

    if M.unital:
        e = gr.ring.unity
        if e is None:
            return Validation(False, "unital flag on a ring without unity")
        ids = np.arange(m)
        if (M.left[e] != ids).any() or (M.right[:, e] != ids).any():
            return Validation(False, "declared unital but 1 does not act as identity")
    return Validation(True)


def regular_bimodule(gr: GradedRing) -> GradedBimodule:
    """The ring acting on itself; components are the ring's own."""
    r = gr.ring
    comps = [gr.component_mask(g) for g in range(gr.group.order)]
    return GradedBimodule(
        order=r.order, add=r.add, neg=r.neg, left=r.mul, right=r.mul,
        components=comps, element_names=list(r.element_names),
        unital=r.unity is not None, label="regular")


def quotient_bimodule(q: QuotientConstruction) -> GradedBimodule:
    """R/K as an R-bimodule via r.(m+K) = rm+K and (m+K).r = mr+K: since the
    projection is a ring map, both actions are rows and columns of R/K's own
    multiplication table."""
    qr, proj = q.graded_ring.ring, q.projection.mapping
    ids = np.arange(qr.order)
    return GradedBimodule(
        order=qr.order, add=qr.add, neg=qr.neg,
        left=qr.mul[proj[:, None], ids],        # (n, m): proj(r) . m
        right=qr.mul[ids[:, None], proj],       # (m, n): m . proj(r)
        components=list(q.graded_ring.grading.components),
        element_names=list(qr.element_names),
        unital=q.projection.source.ring.unity is not None,
        label=f"quotient by ideal of size {popcount(qr.params['ideal_mask'])}")


# ---------------------------------------------------------------------------
# idealization


def make_idealization(gr: GradedRing, M: GradedBimodule,
                      cap: int = DEFAULT_RING_CAP) -> GradedRing:
    """Square-zero extension on R x M: degree-g part is R_g x M_g, and the
    module multiplies to zero against itself."""
    # before validation, which alone costs O(n m^2) on an over-cap input
    _check_cap(gr.order * M.order, cap, "idealization")
    check = validate_bimodule(gr, M)
    if not check:
        raise BimoduleError(f"bimodule invalid: {check.failure} at {check.witness}")
    return _idealization(gr, M, cap)


class IdealizationRing(FiniteRing):
    """R(+)M on its pair rule (r1, v1)(r2, v2) = (r1 r2, r1 v2 + v1 r2), with
    (r, v) at index r*m + v: digit 0 is the ring part, digit 1 the module
    part. `products` evaluates the rule on just the pairs asked for, from
    R's mul and M's add and actions; the dense add and mul tables are built
    when first read. graded_base is R, module is M and pair_components the
    grading R_g x M_g."""

    def __init__(self, gr: GradedRing, M: GradedBimodule):
        base, n, m = gr.ring, gr.order, M.order
        neg = base.neg.astype(np.int64)[:, None] * m + M.neg[None, :]
        unity = base.unity * m if base.unity is not None and M.unital else None
        super().__init__(n * m, None, neg.ravel().astype(np.uint16), None,
                         unity=unity, kind="idealization",
                         element_names=[f"({a}, {b})" for a in base.element_names
                                        for b in M.element_names],
                         params={"base": base},
                         laws_checked=base.laws_checked)
        del self.add, self.mul          # left to the cached properties below
        self.graded_base, self.module = gr, M
        self.pair_components = [
            idealization_subset(gr.component_mask(g), M.components[g], n, m)
            for g in range(gr.group.order)]

    @cached_property
    def add(self) -> np.ndarray:
        return _pair_table(self.graded_base.ring.add, self.module.add)

    @cached_property
    def mul(self) -> np.ndarray:
        return _idealization_mul(self.graded_base, self.module)

    def products(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        M, m = self.module, self.module.order
        r1, v1 = np.divmod(np.asarray(rows, dtype=np.intp)[:, None], m)
        r2, v2 = np.divmod(np.asarray(cols, dtype=np.intp), m)
        at = M.left[r1, v2].astype(np.intp)        # r1 v2 + v1 r2, read off M.add
        at *= m
        at += M.right[v1, r2]
        out = self.graded_base.ring.mul[r1, r2] * np.uint16(m)
        out += M.add.take(at).astype(np.uint16, copy=False)
        return out

    def decomposition(self, components: list[int]) -> np.ndarray | None:
        """At pair_components: as pairs add digit by digit, the component of
        (r, v) at g is (r_g, v_g), at r_g*m + v_g, so it comes from R's and
        M's and no table of R(+)M is read. Any other grading is folded."""
        if components != self.pair_components:
            return None
        M, m = self.module, self.module.order
        module = _decomposition_table(M.add, M.components, M.name)
        decomp = self.graded_base.decomp[:, None, :] * m + module[None, :, :]
        return decomp.reshape(self.order, -1)


def _idealization(gr: GradedRing, M: GradedBimodule,
                  cap: int = DEFAULT_RING_CAP) -> GradedRing:
    """make_idealization without validate_bimodule, for bimodules that are
    valid by construction (regular_bimodule, quotient_bimodule). Building
    it reads no table of R(+)M (`IdealizationRing.decomposition`)."""
    _check_cap(gr.order * M.order, cap, "idealization")
    ring = IdealizationRing(gr, M)
    return GradedRing(ring, Grading(gr.group, ring.pair_components))


def _idealization_mul(gr: GradedRing, M: GradedBimodule) -> np.ndarray:
    """(r1, v1)(r2, v2) = (r1 r2, r1 v2 + v1 r2) as an (n m, n m) uint16 table.

    Filled in place on the (r1, v1, r2, v2) axes, one r1 at a time: with
    sums[w, v2] = r1 v2 + w, the r1 block is sums[v1 r2, v2], a row gather
    written straight into the output. While the block is in cache, the high
    digit r1 r2 is added to each of its m rows as one contiguous (n m,) row,
    row r1 of `high`. Both parts stay below n m, so nothing is held wider
    than uint16.
    """
    n, m = gr.order, M.order
    out = np.empty((n, m, n, m), dtype=np.uint16)
    right = M.right.astype(np.intp)
    high = np.repeat(gr.ring.mul.astype(np.uint16) * np.uint16(m), m, axis=1)    # (n, n m)
    for r in range(n):
        sums = np.take(M.add.T, M.left[r], axis=1)
        np.take(sums, right, axis=0, out=out[r])
        block = out[r].reshape(m, n * m)
        np.add(block, high[r], out=block)
    return out.reshape(n * m, n * m)


def idealization_subset(pmask: int, module_mask: int, ring_order: int,
                        module_order: int) -> int:
    """Bitset of {(p, v) : p in pmask, v in module_mask} inside R x M: the
    outer AND of the two flag vectors, packed once."""
    flags = (bools_from_mask(pmask, ring_order)[:, None]
             & bools_from_mask(module_mask, module_order)[None, :])
    return mask_from_bools(flags.ravel())


def embed_ideal_in_idealization(xgr: GradedRing, P: IdealSubset | int) -> IdealSubset:
    """P x M inside R x M, for an idealization built by make_idealization.

    When P is a two-sided ideal of R by `ideal_check` (a member of R's
    enumerated lattice passes it unchecked), so is P x M of R(+)M: the
    pairs add digit by digit, and (r, v)(p, w) = (rp, rw + vp) and
    (p, w)(r, v) = (pr, pv + wr) lie in P x M as rp and pr lie in P. It is
    then recorded in R(+)M's `ideal_check` memo with its graded defect, and
    no closure check runs on R(+)M."""
    ring = xgr.ring
    if not isinstance(ring, IdealizationRing):
        raise ConstructionError("expected an idealization ring")
    gr, m = ring.graded_base, ring.module.order
    pmask = P.mask if isinstance(P, IdealSubset) else int(P)
    mask = idealization_subset(pmask, (1 << m) - 1, gr.order, m)
    defect = graded_defect(xgr, mask)
    if ideal_check(gr, pmask)[0]:
        xgr.memo(("ideal_check", mask), lambda: (True, None, defect))
    sidedness = P.sidedness if isinstance(P, IdealSubset) else TWO_SIDED
    return IdealSubset(mask, sidedness, graded=defect is None)


# ---------------------------------------------------------------------------
# product projections


def product_projections(pgr: GradedRing, gr1: GradedRing,
                        gr2: GradedRing) -> tuple[GradedRingHom, GradedRingHom]:
    """The two coordinate projections of a product ring, as graded maps."""
    if pgr.ring.kind != "product":
        raise ConstructionError("expected a product ring")
    n2 = gr2.order
    ids = np.arange(pgr.order, dtype=np.int64)
    p1 = make_graded_hom(pgr, gr1, ids // n2)
    p2 = make_graded_hom(pgr, gr2, ids % n2)
    return p1, p2
