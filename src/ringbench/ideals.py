"""Ideal subsets: closure, gradedness, products, and graded-ideal enumeration.

Subsets are bit-packed (Python ints). Closure works with homogeneous
multipliers only: once a set is additively closed, absorbing r*x for every
homogeneous r absorbs all of R, because a general multiplier is a sum of
homogeneous ones and multiplication distributes over the sum.

Every additive span grows through `groups.grow_span`, which adjoins one
element to a subgroup by doubling: generated ideals, additive spans, ideal
products and sums, the principal closures that enumeration starts from,
and minimal generating sets. It ends within n rounds on any tables, and a
closure ends too, as each element it adjoins is kept in a mask that only
grows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .bitsets import bools_from_mask, indices_from_mask, mask_from_bools, popcount
from .grading import GradedRing
from .groups import first_offender, greedy_generators, grow_span

TWO_SIDED = "two-sided"
LEFT = "left"
RIGHT = "right"
SUBGROUP_ONLY = "subgroup-only"

_SIDEDNESS_FLAGS = {
    TWO_SIDED: (True, True),
    LEFT: (True, False),
    RIGHT: (False, True),
    SUBGROUP_ONLY: (False, False),
}
_SIDEDNESS_BY_FLAGS = {flags: side for side, flags in _SIDEDNESS_FLAGS.items()}


class EnumerationCapError(RuntimeError):
    """Graded-ideal enumeration exceeded the configured cap."""


@dataclass(frozen=True)
class IdealSubset:
    mask: int
    sidedness: str = TWO_SIDED
    graded: bool | None = None

    @property
    def size(self) -> int:
        return popcount(self.mask)

    def indices(self, n: int) -> np.ndarray:
        return indices_from_mask(self.mask, n)

    def contains(self, x: int) -> bool:
        return (self.mask >> x) & 1 == 1

    def is_subset_of(self, other: "IdealSubset | int") -> bool:
        other_mask = other if isinstance(other, int) else other.mask
        return self.mask & ~other_mask == 0


def _flags(sidedness: str) -> tuple[bool, bool]:
    try:
        return _SIDEDNESS_FLAGS[sidedness]
    except KeyError:
        raise ValueError(f"unknown sidedness {sidedness!r}") from None


def _close(gr: GradedRing, base: np.ndarray | None, seeds, left: bool, right: bool) -> np.ndarray:
    """Smallest additively closed, absorption-closed superset of base and seeds.

    base, when given, must itself already be closed the same way. Spans grow
    by left translates x + a, through add.T; the side matters only on tables
    not checked to form a ring.
    """
    ring = gr.ring
    add_t, mul = ring.add.T, ring.mul
    multipliers = gr.hom_indices()
    if base is None:
        members = np.zeros(ring.order, dtype=bool)
        members[0] = True
    else:
        members = base.copy()
    pending = [int(s) for s in seeds]
    while pending:
        x = pending.pop()
        if members[x]:
            continue
        members = grow_span(add_t, members, x)
        members[x] = True       # kept where x + 0 != x, so the loop ends
        if left or right:
            fresh = np.zeros(ring.order, dtype=bool)
            if left:
                fresh[mul[multipliers, x]] = True
            if right:
                fresh[mul[x, multipliers]] = True
            pending.extend(np.flatnonzero(fresh & ~members).tolist())
    return members


def additive_span(gr: GradedRing, elements) -> int:
    """Bitset of the additive subgroup generated by the elements."""
    return int(mask_from_bools(_close(gr, None, elements, False, False)))


def generate_ideal(gr: GradedRing, generators, sidedness: str = TWO_SIDED) -> IdealSubset:
    """Smallest subset containing the generators that is an additive subgroup
    and absorbs multiplication per the sidedness; generators are always kept
    (non-unital rings included)."""
    left, right = _flags(sidedness)
    members = _close(gr, None, generators, left, right)
    mask = int(mask_from_bools(members))
    return IdealSubset(mask, sidedness, graded=graded_defect(gr, mask) is None)


def graded_defect(gr: GradedRing, mask: int) -> int | None:
    """None if every member's homogeneous components stay inside; otherwise
    the first member that leaks a component."""
    idx = indices_from_mask(mask, gr.order)
    flags = bools_from_mask(mask, gr.order)
    comps = gr.decomp[idx]
    at = first_offender(~flags[comps].all(axis=1))
    return None if at is None else int(idx[at])


def is_graded_ideal(gr: GradedRing, subset: IdealSubset | int) -> bool:
    mask = subset if isinstance(subset, int) else subset.mask
    return graded_defect(gr, mask) is None


def check_closure(gr: GradedRing, subset: IdealSubset | int,
                  sidedness: str | None = None) -> tuple[bool, tuple | None]:
    """Verify additive-subgroup and absorption closure; returns (ok, witness).

    sidedness defaults to the subset's own tag (two-sided for raw masks).
    `_closure_holds` decides; the ordered scan runs only when it says no, so
    the scan alone picks the witness. The decision's yes is exact on a ring,
    so it runs only when the ring records that its tables form one
    (`laws_checked`); on other tables the scan alone decides.
    """
    if sidedness is None:
        sidedness = TWO_SIDED if isinstance(subset, int) else subset.sidedness
    mask = subset if isinstance(subset, int) else subset.mask
    if gr.ring.laws_checked and _closure_holds(gr, mask, *_flags(sidedness)):
        return True, None
    return _first_closure_failure(gr, mask, sidedness)


def _closure_holds(gr: GradedRing, mask: int, left: bool, right: bool) -> bool:
    """Whether mask is an additive subgroup absorbing products per the flags.

    `greedy_generators` finds the mask to be the span of its generators, a
    subgroup, or answers no. Absorption is then checked against the
    generators alone: on a ring r(g1 + g2) = rg1 + rg2, so the members x
    with rx in the mask for every r are closed under +. The answer comes
    in at most n rounds on any tables; a no only hands over to the scan.
    """
    flags = bools_from_mask(mask, gr.order)
    gens = greedy_generators(gr.ring.add, flags)
    if gens is None:
        return False
    mul = gr.ring.mul
    return not ((left and not flags[mul[:, gens]].all())
                or (right and not flags[mul[gens, :]].all()))


def _first_closure_failure(gr: GradedRing, mask: int,
                           sidedness: str) -> tuple[bool, tuple | None]:
    """The ordered scan: zero, then sums, then left and right products, each
    reporting its lexicographically first offender. Exact on any tables."""
    if mask & 1 == 0:
        return False, ("zero missing",)
    n = gr.order
    idx = indices_from_mask(mask, n)
    flags = bools_from_mask(mask, n)
    if at := first_offender(~flags[gr.ring.add[np.ix_(idx, idx)]]):
        i, j = at
        return False, ("add", int(idx[i]), int(idx[j]))
    left, right = _flags(sidedness)
    everyone = np.arange(n)
    if left:
        if at := first_offender(~flags[gr.ring.mul[np.ix_(everyone, idx)]]):
            r, i = at
            return False, ("left", r, int(idx[i]))
    if right:
        if at := first_offender(~flags[gr.ring.mul[np.ix_(idx, everyone)]]):
            i, r = at
            return False, ("right", int(idx[i]), r)
    return True, None


def _span_indices(gr: GradedRing, ideal: IdealSubset) -> np.ndarray:
    """Additive spanning set: homogeneous members when graded, else everything."""
    mask = ideal.mask & gr.hom_mask if ideal.graded else ideal.mask
    return indices_from_mask(mask, gr.order)


def ideal_product(gr: GradedRing, a: IdealSubset, b: IdealSubset) -> IdealSubset:
    """Additive span of pairwise products. Left closure survives from the left
    factor, right closure from the right one."""
    ia, ib = _span_indices(gr, a), _span_indices(gr, b)
    mask = additive_span(gr, np.unique(gr.ring.mul[np.ix_(ia, ib)]))
    sidedness = _SIDEDNESS_BY_FLAGS[(_flags(a.sidedness)[0], _flags(b.sidedness)[1])]
    return IdealSubset(mask, sidedness, graded=graded_defect(gr, mask) is None)


def ideal_sum(gr: GradedRing, a: IdealSubset, b: IdealSubset) -> IdealSubset:
    la, ra = _flags(a.sidedness)
    lb, rb = _flags(b.sidedness)
    sidedness = _SIDEDNESS_BY_FLAGS[(la and lb, ra and rb)]
    mask = additive_span(gr, indices_from_mask(a.mask | b.mask, gr.order))
    return IdealSubset(mask, sidedness, graded=graded_defect(gr, mask) is None)


def _cap_error(cap: int, sidedness: str) -> EnumerationCapError:
    return EnumerationCapError(f"more than {cap} graded {sidedness} ideals; "
                               f"raise the ideal cap to enumerate them")


def _homogeneous_units(gr: GradedRing) -> np.ndarray:
    """The homogeneous u with uv = 1 = wu for some homogeneous v and w, on
    tables recorded as a ring with a unity; none on any other tables."""
    ring = gr.ring
    H = gr.hom_indices()
    if not ring.laws_checked or ring.unity is None:
        return H[:0]
    one = ring.mul[np.ix_(H, H)] == ring.unity
    return H[one.any(axis=1) & one.any(axis=0)]


def _principal_masks(gr: GradedRing, left: bool, right: bool) -> list[int]:
    """The mask of each homogeneous x's principal ideal, in hom_indices order.

    For a homogeneous unit u, x = u^-1 (ux), so (ux) = (x) when the ideal
    absorbs from the left, and (xu) = (x) from the right: one closure
    serves x's multiples by the units on its absorbing sides. On a
    commutative ring these are x's whole orbit under the units; the
    products uxv are left to closures of their own, as they would take
    |units|^2 products for each x. Closed once per ring and sidedness.
    """
    def build():
        mul, units = gr.ring.mul, _homogeneous_units(gr)
        found: dict[int, int] = {}
        for x in gr.hom_indices().tolist():
            if x in found:
                continue
            found[x] = mask = int(mask_from_bools(_close(gr, None, [x], left, right)))
            if left:
                found.update(dict.fromkeys(mul[units, x].tolist(), mask))
            if right:
                found.update(dict.fromkeys(mul[x, units].tolist(), mask))
        return tuple(found[x] for x in gr.hom_indices().tolist())
    return list(gr.memo(("principal", left, right), build))


def _enumerate(gr: GradedRing, sidedness: str, cap: int) -> tuple[int, ...]:
    """Sorted masks of the graded ideals: the distinct principal ideals of
    homogeneous elements, closed under sums.

    Every graded ideal is generated by its homogeneous members, so it is the
    sum of their principal ideals. A sum I + J of additive subgroups is the
    set of sums i + j, so it needs one gather and no re-closure; and as
    |I + J| = |I| |J| / |I & J|, a known member of that size holding I and J
    is the sum, so no gather at all. Each principal ideal p is added to the
    members known before it at once, on their masks as 64-bit words; only
    the sums left unknown are compared, in order, with the members that
    its own sums added.
    """
    left, right = _flags(sidedness)
    add, n, w = gr.ring.add, gr.order, -(-gr.order // 64)
    members: dict[int, np.ndarray] = {}
    words = bytearray()

    def keep(flags: np.ndarray) -> int:
        mask = int(mask_from_bools(flags))
        if mask not in members:
            if len(members) >= cap:
                raise _cap_error(cap, sidedness)
            members[mask] = np.flatnonzero(flags)
            words.extend(mask.to_bytes(8 * w, "little"))
        return mask

    principal = list(dict.fromkeys(_principal_masks(gr, left, right)))
    for p in principal:
        keep(bools_from_mask(p, n))
    for at, p in enumerate(principal):
        known = list(members)
        sizes, held = _known_sums(np.frombuffer(bytes(words), dtype="<u8").reshape(-1, w), at)
        fresh: list[int] = []
        for i in np.flatnonzero(~held).tolist():
            mask, size = known[i], int(sizes[i])
            if not any((mask | p) & ~m == 0 for m in fresh if m.bit_count() == size):
                flags = np.zeros(n, dtype=bool)
                flags[add[members[mask][:, None], members[p]]] = True
                fresh.append(keep(flags))
    return tuple(sorted(members))


def _known_sums(words: np.ndarray, at: int) -> tuple[np.ndarray, np.ndarray]:
    """(size, known) over the masks words[i] as rows of 64-bit words:
    size[i] = |I + P| with P = words[at], and known[i] whether some row of
    that size holds I and P, in blocks of rows of about a megabyte."""
    sizes = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    size = sizes * sizes[at] // np.bitwise_count(words & words[at]).sum(axis=1, dtype=np.int64)
    union, known = words | words[at], np.empty(len(words), dtype=bool)
    step = max(1, (1 << 20) // (8 * len(words)))
    for i0 in range(0, len(words), step):
        holds = size[i0:i0 + step, None] == sizes[None, :]
        for c in range(words.shape[1]):
            holds &= (union[i0:i0 + step, c, None] & ~words[None, :, c]) == 0
        known[i0:i0 + step] = holds.any(axis=1)
    return size, known


def graded_ideal_masks(gr: GradedRing, sidedness: str = TWO_SIDED,
                       cap: int = 10000) -> tuple[int, ...]:
    """Sorted masks of the graded ideals of the given sidedness.

    Enumerated once per ring and sidedness; a run that exceeds the cap is
    not kept. Every call checks its own cap.
    """
    masks = gr.memo(f"lattice:{sidedness}", lambda: _enumerate(gr, sidedness, cap))
    if len(masks) > cap:
        raise _cap_error(cap, sidedness)
    return masks


def enumerate_graded_ideals(gr: GradedRing, sidedness: str = TWO_SIDED,
                            cap: int = 10000) -> list[IdealSubset]:
    """graded_ideal_masks as a fresh list of ideals."""
    return [IdealSubset(mask, sidedness, graded=True)
            for mask in graded_ideal_masks(gr, sidedness, cap)]


def ideal_check(gr: GradedRing, mask: int) -> tuple[bool, tuple | None, int | None]:
    """Whether mask is a graded two-sided ideal: check_closure's (ok, witness)
    and, when ok, graded_defect.

    Decided once per ring and mask, as the tables never change. On a ring
    recorded as one (`laws_checked`), a member of the memoized two-sided
    lattice, graded and two-sided by construction, passes unchecked; a
    lattice not yet enumerated is not enumerated here. An idealization's
    entry for P x M may already be recorded when P was embedded
    (`constructions.embed_ideal_in_idealization`).
    """
    def check():
        masks = gr._cache.get(f"lattice:{TWO_SIDED}", ()) if gr.ring.laws_checked else ()
        at = bisect_left(masks, mask)
        if at < len(masks) and masks[at] == mask:
            return True, None, None
        ok, witness = check_closure(gr, mask, TWO_SIDED)
        return ok, witness, graded_defect(gr, mask) if ok else None

    return gr.memo(("ideal_check", mask), check)


def minimal_homogeneous_generators(gr: GradedRing, ideal: IdealSubset) -> list[int]:
    """Small deterministic homogeneous generating set: the first homogeneous
    member, in index order, whose principal ideal is the ideal, else greedy
    growth with pruning.

    Computed once per ring, mask and sidedness; every call returns a fresh
    list."""
    return list(gr.memo(("min_gens", ideal.mask, ideal.sidedness),
                        lambda: tuple(_minimal_generators(gr, ideal.mask, ideal.sidedness))))


def _minimal_generators(gr: GradedRing, target: int, sidedness: str) -> list[int]:
    left, right = _flags(sidedness)
    for m, mask in zip(gr.hom_indices().tolist(), _principal_masks(gr, left, right)):
        if m and mask == target:
            return [m]
    gens: list[int] = []
    span = bools_from_mask(1, gr.order)
    for m in indices_from_mask(target & gr.hom_mask, gr.order):
        if not span[m]:
            gens.append(int(m))
            span = _close(gr, span, [int(m)], left, right)
            if mask_from_bools(span) == target:
                break
    for g in list(gens):
        rest = [x for x in gens if x != g]
        if mask_from_bools(_close(gr, None, rest, left, right)) == target:
            gens = rest
    return gens
