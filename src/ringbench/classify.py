"""Classification predicates for graded ideals.

Element-wise predicates reduce sandwich conditions x*R*y*R*z to homogeneous
multipliers: a general multiplier is a sum of homogeneous ones, products
distribute over those sums, and the target sets (an ideal, or {0}) are
additively closed, so the full sandwich lies in the target iff the
homogeneous-multiplier sandwich does. sandwich_values and g_sandwich_values
evaluate the raw definitions without that reduction and exist so results can
be cross-checked through an independent route.

Ideal-wise predicates (prime, weakly prime, strongly weakly 2-absorbing)
quantify over the graded two-sided ideal lattice.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .bitsets import bools_from_mask, indices_from_mask, is_subset, mask_from_bools
from .grading import GradedRing, product_slots
from .ideals import (
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    check_closure,
    enumerate_graded_ideals,
    graded_defect,
    minimal_homogeneous_generators,
)

DEFAULT_IDEAL_CAP = 10000

ELEMENT_PREDICATES = (
    "graded_2_absorbing",
    "graded_weakly_2_absorbing",
    "graded_completely_weakly_2_absorbing",
)
IDEAL_PREDICATES = (
    "graded_prime",
    "graded_weakly_prime",
    "graded_strongly_weakly_2_absorbing",
)


class ClassificationError(ValueError):
    pass


class ImproperIdealError(ClassificationError):
    """The whole ring was passed where a proper ideal is required."""


class NotIdealError(ClassificationError):
    """Subset is not closed as a two-sided ideal."""


class NotGradedIdealError(ClassificationError):
    """Ideal is not graded; the message names the leaking member."""


class PreconditionError(ClassificationError):
    """A stated hypothesis of the predicate fails for these inputs."""


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: dict | None = None
    note: str | None = None


@dataclass
class GTripleZeroCensus:
    degree: int
    triples: list[tuple[int, int, int]]
    p_is_g_weakly_2_absorbing: bool

    @property
    def count(self) -> int:
        return len(self.triples)


@dataclass
class ClassificationReport:
    ideal_mask: int
    ideal_size: int
    proper: bool
    generators: list[int]
    generator_names: list[str]
    verdicts: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, dict] = field(default_factory=dict)
    skips: dict[str, str] = field(default_factory=dict)
    g_variants: dict[int, dict] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "ideal_mask": self.ideal_mask,
            "ideal_size": self.ideal_size,
            "proper": self.proper,
            "generators": list(self.generators),
            "generator_names": list(self.generator_names),
            "verdicts": dict(self.verdicts),
            "witnesses": dict(self.witnesses),
            "skips": dict(self.skips),
            "g_variants": {str(g): v for g, v in sorted(self.g_variants.items())},
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def as_ideal_subset(gr: GradedRing, P: IdealSubset | int) -> IdealSubset:
    if isinstance(P, IdealSubset):
        return P
    return IdealSubset(int(P), TWO_SIDED, graded=graded_defect(gr, int(P)) is None)


def require_graded_ideal(gr: GradedRing, P: IdealSubset | int,
                         proper: bool = True) -> IdealSubset:
    """Validate the subset is a graded two-sided ideal (and proper when asked)."""
    P = as_ideal_subset(gr, P)
    ok, witness = check_closure(gr, P.mask, TWO_SIDED)
    if not ok:
        raise NotIdealError(f"subset is not a two-sided ideal: failed {witness}")
    defect = graded_defect(gr, P.mask)
    if defect is not None:
        raise NotGradedIdealError(
            f"ideal is not graded: member {gr.name(defect)} has a homogeneous "
            f"component outside the ideal")
    if proper and P.mask == _full_mask(gr.order):
        raise ImproperIdealError("classification requires a proper ideal")
    return P


# ---------------------------------------------------------------------------
# homogeneous sandwich kernel


def _hom_kernel(gr: GradedRing) -> dict:
    ker = gr._cache.get("hom_kernel")
    if ker is not None:
        return ker
    mul = gr.ring.mul
    H = gr.hom_indices()
    hm = len(H)
    pos = np.full(gr.order, -1, dtype=np.int32)
    pos[H] = np.arange(hm, dtype=np.int32)
    M1 = mul[np.ix_(H, H)]
    # V3[i, j, k] = H[i] * H[j] * H[k]; all values are homogeneous
    V3 = mul[M1[:, :, None], H[None, None, :]]
    slots = product_slots(gr, pos, V3, (H, H, H), "a homogeneous component")
    rows = np.broadcast_to(
        np.arange(hm, dtype=np.int64)[:, None, None] * hm
        + np.arange(hm, dtype=np.int64)[None, None, :],
        V3.shape)
    # Vb[(x, y) pair, slot of v] marks v in V(x, y) = x * h(R) * y
    Vb = np.zeros((hm * hm, hm), dtype=bool)
    Vb[rows.ravel(), slots.ravel()] = True
    Vf = Vb.astype(np.float32)
    # kill[v, z]: v * s * z = 0 for every homogeneous s
    kill = (V3 == 0).all(axis=1)
    iszero = (Vf @ (~kill).astype(np.float32)) == 0
    ker = {
        "H": H, "pos": pos, "hm": hm, "M1": M1, "V3": V3, "Vf": Vf,
        "iszero": iszero.reshape(hm, hm, hm),
    }
    gr._cache["hom_kernel"] = ker
    return ker


def _ideal_kernel(gr: GradedRing, pmask: int) -> dict:
    cache = gr._cache.setdefault("ideal_kernels", OrderedDict())
    ker = cache.get(pmask)
    if ker is not None:
        return ker
    hk = _hom_kernel(gr)
    Pb = bools_from_mask(pmask, gr.order)
    hm = hk["hm"]
    # good[v, z]: v * s * z in P for every homogeneous s
    good = Pb[hk["V3"]].all(axis=1)
    subseteq = ((hk["Vf"] @ (~good).astype(np.float32)) == 0).reshape(hm, hm, hm)
    PP = Pb[hk["M1"]]
    pair_any = PP[:, :, None] | PP[None, :, :] | PP[:, None, :]
    ker = {"Pb": Pb, "PP": PP, "pair_any": pair_any, "subseteq": subseteq}
    while len(cache) >= 8:
        cache.popitem(last=False)
    cache[pmask] = ker
    return ker


def _triple_witness(gr: GradedRing, x: int, y: int, z: int) -> dict:
    return {
        "x": int(x), "y": int(y), "z": int(z),
        "names": [gr.name(int(x)), gr.name(int(y)), gr.name(int(z))],
    }


def _first_triple(viol: np.ndarray, H: np.ndarray) -> tuple[int, int, int]:
    i, k, m = np.argwhere(viol)[0]
    return int(H[i]), int(H[k]), int(H[m])


def is_graded_2_absorbing(gr: GradedRing, P: IdealSubset | int) -> Verdict:
    """x*R*y*R*z inside P forces a pairwise product into P (x, y, z homogeneous)."""
    P = require_graded_ideal(gr, P)
    hk, ik = _hom_kernel(gr), _ideal_kernel(gr, P.mask)
    viol = ik["subseteq"] & ~ik["pair_any"]
    if viol.any():
        x, y, z = _first_triple(viol, hk["H"])
        return Verdict(False, _triple_witness(gr, x, y, z))
    return Verdict(True)


def is_graded_weakly_2_absorbing(gr: GradedRing, P: IdealSubset | int) -> Verdict:
    """Nonzero x*R*y*R*z inside P forces a pairwise product into P."""
    P = require_graded_ideal(gr, P)
    hk, ik = _hom_kernel(gr), _ideal_kernel(gr, P.mask)
    viol = ik["subseteq"] & ~hk["iszero"] & ~ik["pair_any"]
    if viol.any():
        x, y, z = _first_triple(viol, hk["H"])
        return Verdict(False, _triple_witness(gr, x, y, z))
    return Verdict(True)


def is_graded_completely_weakly_2_absorbing(gr: GradedRing,
                                            P: IdealSubset | int) -> Verdict:
    """Nonzero product xyz in P forces a pairwise product into P."""
    P = require_graded_ideal(gr, P)
    hk, ik = _hom_kernel(gr), _ideal_kernel(gr, P.mask)
    xyz = hk["V3"]
    viol = ik["Pb"][xyz] & (xyz != 0) & ~ik["pair_any"]
    if viol.any():
        x, y, z = _first_triple(viol, hk["H"])
        return Verdict(False, _triple_witness(gr, x, y, z))
    return Verdict(True)


# ---------------------------------------------------------------------------
# degree-local kernel (multipliers from the identity component)


def _g_kernel(gr: GradedRing, g: int) -> dict:
    cache = gr._cache.setdefault("g_kernels", {})
    ker = cache.get(g)
    if ker is not None:
        return ker
    mul = gr.ring.mul
    g2 = gr.group.mul(g, g)
    Rg = gr.component_indices(g)
    Re = gr.component_indices(gr.group.identity)
    C2 = gr.component_indices(g2)
    m, m2 = len(Rg), len(C2)
    pos2 = np.full(gr.order, -1, dtype=np.int32)
    pos2[C2] = np.arange(m2, dtype=np.int32)
    M1g = mul[np.ix_(Rg, Re)]
    V3g = mul[M1g[:, :, None], Rg[None, None, :]]
    slots = product_slots(gr, pos2, V3g, (Rg, Re, Rg), f"component {g2}")
    rows = np.broadcast_to(
        np.arange(m, dtype=np.int64)[:, None, None] * m
        + np.arange(m, dtype=np.int64)[None, None, :],
        V3g.shape)
    Vbg = np.zeros((m * m, m2), dtype=bool)
    Vbg[rows.ravel(), slots.ravel()] = True
    Vfg = Vbg.astype(np.float32)
    W = mul[mul[np.ix_(C2, Re)][:, :, None], Rg[None, None, :]]
    killg = (W == 0).all(axis=1)
    iszero = (Vfg @ (~killg).astype(np.float32)) == 0
    PRg = mul[np.ix_(Rg, Rg)]
    ker = {
        "Rg": Rg, "m": m, "Vfg": Vfg, "W": W,
        "iszero": iszero.reshape(m, m, m), "PRg": PRg,
    }
    cache[g] = ker
    return ker


def _g_ideal_kernel(gr: GradedRing, g: int, pmask: int) -> dict:
    cache = gr._cache.setdefault("g_ideal_kernels", OrderedDict())
    key = (g, pmask)
    ker = cache.get(key)
    if ker is not None:
        return ker
    gk = _g_kernel(gr, g)
    Pb = bools_from_mask(pmask, gr.order)
    m = gk["m"]
    good = Pb[gk["W"]].all(axis=1)
    subseteq = ((gk["Vfg"] @ (~good).astype(np.float32)) == 0).reshape(m, m, m)
    PPg = Pb[gk["PRg"]]
    pair_any = PPg[:, :, None] | PPg[None, :, :] | PPg[:, None, :]
    ker = {"Pb": Pb, "pair_any": pair_any, "subseteq": subseteq}
    while len(cache) >= 16:
        cache.popitem(last=False)
    cache[key] = ker
    return ker


def _require_degree(gr: GradedRing, P: IdealSubset, g: int) -> None:
    if not 0 <= g < gr.group.order:
        raise ValueError(f"degree {g} outside group of order {gr.group.order}")
    comp = gr.component_mask(g)
    if P.mask & comp == comp:
        raise PreconditionError(
            f"component at degree {g} is covered by the ideal; "
            f"the degree-local predicates require P_g != R_g")


def is_g_weakly_2_absorbing(gr: GradedRing, P: IdealSubset | int, g: int,
                            mode: str = "weakly") -> Verdict:
    """Degree-local variant: x, y, z from R_g, multipliers from the identity
    component. mode "weakly" requires the sandwich x*R_e*y*R_e*z to be
    nonzero before it must force a pairwise product into P; mode "plain"
    drops the nonzero hypothesis."""
    P = require_graded_ideal(gr, P, proper=False)
    _require_degree(gr, P, g)
    gk, ik = _g_kernel(gr, g), _g_ideal_kernel(gr, g, P.mask)
    if mode == "weakly":
        viol = ik["subseteq"] & ~gk["iszero"] & ~ik["pair_any"]
    elif mode == "plain":
        viol = ik["subseteq"] & ~ik["pair_any"]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if viol.any():
        x, y, z = _first_triple(viol, gk["Rg"])
        return Verdict(False, _triple_witness(gr, x, y, z))
    return Verdict(True)


def find_g_triple_zeros(gr: GradedRing, P: IdealSubset | int,
                        g: int) -> GTripleZeroCensus:
    """Triples (x, y, z) in R_g with x*R_e*y*R_e*z = 0 and no pairwise
    product in P, in lexicographic order."""
    P = require_graded_ideal(gr, P, proper=False)
    _require_degree(gr, P, g)
    gk, ik = _g_kernel(gr, g), _g_ideal_kernel(gr, g, P.mask)
    hits = np.argwhere(gk["iszero"] & ~ik["pair_any"])
    Rg = gk["Rg"]
    triples = [(int(Rg[i]), int(Rg[k]), int(Rg[m])) for i, k, m in hits]
    weakly = is_g_weakly_2_absorbing(gr, P, g, "weakly")
    return GTripleZeroCensus(g, triples, weakly.value)


def is_free_g_triple_zero(gr: GradedRing, P: IdealSubset | int,
                          A: IdealSubset | int, B: IdealSubset | int,
                          K: IdealSubset | int, g: int = 0) -> Verdict:
    """True when no g-triple-zero of P draws its entries from A_g, B_g, K_g.

    Requires the setwise product A_g * B_g * K_g to land inside P.
    """
    P = require_graded_ideal(gr, P, proper=False)
    A = require_graded_ideal(gr, A, proper=False)
    B = require_graded_ideal(gr, B, proper=False)
    K = require_graded_ideal(gr, K, proper=False)
    _require_degree(gr, P, g)
    comp = gr.component_mask(g)
    n = gr.order
    ia = indices_from_mask(A.mask & comp, n)
    ib = indices_from_mask(B.mask & comp, n)
    ik_ = indices_from_mask(K.mask & comp, n)
    mul = gr.ring.mul
    Pb = bools_from_mask(P.mask, n)
    prods = mul[mul[np.ix_(ia, ib)][:, :, None], ik_[None, None, :]]
    if not Pb[prods].all():
        i, j, k = np.argwhere(~Pb[prods])[0]
        raise PreconditionError(
            f"setwise product escapes the ideal: "
            f"{gr.name(int(ia[i]))} * {gr.name(int(ib[j]))} * "
            f"{gr.name(int(ik_[k]))} is outside")
    census = find_g_triple_zeros(gr, P, g)
    note = None
    if not census.p_is_g_weakly_2_absorbing:
        note = f"ideal is not g-weakly 2-absorbing at degree {g}"
    amask, bmask, kmask = A.mask & comp, B.mask & comp, K.mask & comp
    for (x, y, z) in census.triples:
        if (amask >> x) & 1 and (bmask >> y) & 1 and (kmask >> z) & 1:
            return Verdict(False, _triple_witness(gr, x, y, z), note)
    return Verdict(True, None, note)


# ---------------------------------------------------------------------------
# ideal-wise predicates


def graded_ideal_lattice(gr: GradedRing, cap: int = DEFAULT_IDEAL_CAP) -> list[IdealSubset]:
    key = f"lattice:{cap}"
    lattice = gr._cache.get(key)
    if lattice is None:
        lattice = enumerate_graded_ideals(gr, TWO_SIDED, cap)
        gr._cache[key] = lattice
    return lattice


def _product_of_masks(gr: GradedRing, a: int, b: int) -> int:
    """Ideal product of two graded ideals, by bit-packed member sets."""
    cache = gr._cache.setdefault("ideal_products", {})
    got = cache.get((a, b))
    if got is not None:
        return got
    ia = indices_from_mask(a & gr.hom_mask, gr.order)
    ib = indices_from_mask(b & gr.hom_mask, gr.order)
    prods = np.unique(gr.ring.mul[np.ix_(ia, ib)])
    span = np.zeros(gr.order, dtype=bool)
    span[0] = True
    add = gr.ring.add
    for x in prods:
        if not span[x]:
            out = span.copy()
            idx = np.nonzero(span)[0]
            jx = int(x)
            while not span[jx]:
                out[add[jx, idx]] = True
                jx = int(add[jx, x])
            span = out
    got = int(mask_from_bools(span))
    cache[(a, b)] = got
    return got


def _ideal_witness(gr: GradedRing, label_masks: dict[str, int]) -> dict:
    out = {}
    for label, mask in label_masks.items():
        sub = IdealSubset(mask, TWO_SIDED, graded=True)
        gens = minimal_homogeneous_generators(gr, sub)
        out[label] = {
            "mask": mask,
            "size": sub.size,
            "generators": gens,
            "generator_names": [gr.name(x) for x in gens],
        }
    return out


def is_graded_prime(gr: GradedRing, P: IdealSubset | int,
                    cap: int = DEFAULT_IDEAL_CAP,
                    lattice: list[IdealSubset] | None = None) -> Verdict:
    """I*J inside P forces I or J inside P, over graded two-sided ideals."""
    P = require_graded_ideal(gr, P)
    if lattice is None:
        lattice = graded_ideal_lattice(gr, cap)
    pm = P.mask
    for I in lattice:
        if is_subset(I.mask, pm):
            continue
        for J in lattice:
            if is_subset(J.mask, pm):
                continue
            ij = _product_of_masks(gr, I.mask, J.mask)
            if is_subset(ij, pm):
                return Verdict(False, _ideal_witness(
                    gr, {"I": I.mask, "J": J.mask, "product": ij}))
    return Verdict(True)


def is_graded_weakly_prime(gr: GradedRing, P: IdealSubset | int,
                           cap: int = DEFAULT_IDEAL_CAP,
                           lattice: list[IdealSubset] | None = None) -> Verdict:
    """Nonzero I*J inside P forces I or J inside P."""
    P = require_graded_ideal(gr, P)
    if lattice is None:
        lattice = graded_ideal_lattice(gr, cap)
    pm = P.mask
    for I in lattice:
        if is_subset(I.mask, pm):
            continue
        for J in lattice:
            if is_subset(J.mask, pm):
                continue
            ij = _product_of_masks(gr, I.mask, J.mask)
            if ij != 1 and is_subset(ij, pm):
                return Verdict(False, _ideal_witness(
                    gr, {"I": I.mask, "J": J.mask, "product": ij}))
    return Verdict(True)


def is_graded_strongly_weakly_2_absorbing(
        gr: GradedRing, P: IdealSubset | int,
        cap: int = DEFAULT_IDEAL_CAP,
        lattice: list[IdealSubset] | None = None) -> Verdict:
    """Nonzero A*B*C inside P forces a pairwise ideal product inside P."""
    P = require_graded_ideal(gr, P)
    if lattice is None:
        lattice = graded_ideal_lattice(gr, cap)
    pm = P.mask
    masks = [I.mask for I in lattice]
    for a in masks:
        for b in masks:
            ab = _product_of_masks(gr, a, b)
            ab_in = is_subset(ab, pm)
            for c in masks:
                abc = _product_of_masks(gr, ab, c)
                if abc == 1 or not is_subset(abc, pm):
                    continue
                if ab_in:
                    continue
                if is_subset(_product_of_masks(gr, a, c), pm):
                    continue
                if is_subset(_product_of_masks(gr, b, c), pm):
                    continue
                return Verdict(False, _ideal_witness(
                    gr, {"A": a, "B": b, "C": c, "product": abc}))
    return Verdict(True)


# ---------------------------------------------------------------------------
# raw evaluators (independent route, no homogeneity reduction, no caching)


def sandwich_values(gr: GradedRing, x: int, y: int, z: int) -> np.ndarray:
    """Sorted distinct values of x*r*y*s*z over all r, s in the ring."""
    mul = gr.ring.mul
    everyone = np.arange(gr.order)
    left = np.unique(mul[mul[x, everyone], y])
    return np.unique(mul[mul[left[:, None], everyone], z])


def g_sandwich_values(gr: GradedRing, g: int, x: int, y: int, z: int) -> np.ndarray:
    """Sorted distinct values of x*r*y*s*z with r, s from the identity component."""
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    left = np.unique(mul[mul[x, Re], y])
    return np.unique(mul[mul[left[:, None], Re], z])


def triple_product(gr: GradedRing, x: int, y: int, z: int) -> int:
    mul = gr.ring.mul
    return int(mul[mul[x, y], z])


def _raw_span(gr: GradedRing, seeds: np.ndarray) -> np.ndarray:
    """Additive closure by repeated pairwise sums until stable."""
    flags = np.zeros(gr.order, dtype=bool)
    flags[0] = True
    flags[seeds] = True
    add = gr.ring.add
    while True:
        idx = np.nonzero(flags)[0]
        sums = np.unique(add[np.ix_(idx, idx)])
        if flags[sums].all():
            return flags
        flags[sums] = True


def raw_product_mask(gr: GradedRing, a: int, b: int) -> int:
    """Ideal product recomputed from all members (no homogeneous shortcut)."""
    ia = indices_from_mask(a, gr.order)
    ib = indices_from_mask(b, gr.order)
    prods = np.unique(gr.ring.mul[np.ix_(ia, ib)])
    return int(mask_from_bools(_raw_span(gr, prods)))


def verify_witness(gr: GradedRing, P: IdealSubset | int, kind: str,
                   witness: dict, g: int | None = None) -> bool:
    """Recheck a reported violation against the raw definitions."""
    pmask = P.mask if isinstance(P, IdealSubset) else int(P)

    def in_p(v: int) -> bool:
        return (pmask >> v) & 1 == 1

    if kind in ("graded_2_absorbing", "graded_weakly_2_absorbing",
                "graded_completely_weakly_2_absorbing",
                "g_weakly_2_absorbing", "g_plain_2_absorbing",
                "g_triple_zero"):
        x, y, z = witness["x"], witness["y"], witness["z"]
        mul = gr.ring.mul
        pairs_out = (not in_p(int(mul[x, y])) and not in_p(int(mul[y, z]))
                     and not in_p(int(mul[x, z])))
        if not pairs_out:
            return False
        if kind == "graded_2_absorbing":
            vals = sandwich_values(gr, x, y, z)
            return all(in_p(int(v)) for v in vals)
        if kind == "graded_weakly_2_absorbing":
            vals = sandwich_values(gr, x, y, z)
            return all(in_p(int(v)) for v in vals) and set(vals.tolist()) != {0}
        if kind == "graded_completely_weakly_2_absorbing":
            t = triple_product(gr, x, y, z)
            return t != 0 and in_p(t)
        comp = gr.component_mask(g)
        if not all((comp >> v) & 1 for v in (x, y, z)):
            return False
        vals = g_sandwich_values(gr, g, x, y, z)
        if kind == "g_weakly_2_absorbing":
            return all(in_p(int(v)) for v in vals) and set(vals.tolist()) != {0}
        if kind == "g_plain_2_absorbing":
            return all(in_p(int(v)) for v in vals)
        return set(vals.tolist()) == {0}

    if kind in ("graded_prime", "graded_weakly_prime"):
        im, jm = witness["I"]["mask"], witness["J"]["mask"]
        ij = raw_product_mask(gr, im, jm)
        if not is_subset(ij, pmask):
            return False
        if kind == "graded_weakly_prime" and ij == 1:
            return False
        return not is_subset(im, pmask) and not is_subset(jm, pmask)

    if kind == "graded_strongly_weakly_2_absorbing":
        am, bm, cm = (witness[k]["mask"] for k in ("A", "B", "C"))
        ab = raw_product_mask(gr, am, bm)
        abc = raw_product_mask(gr, ab, cm)
        if abc == 1 or not is_subset(abc, pmask):
            return False
        return (not is_subset(ab, pmask)
                and not is_subset(raw_product_mask(gr, am, cm), pmask)
                and not is_subset(raw_product_mask(gr, bm, cm), pmask))

    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# orchestration


def classify_ideal(gr: GradedRing, P: IdealSubset | int,
                   degrees: list[int] | None = None,
                   ideal_cap: int = DEFAULT_IDEAL_CAP) -> ClassificationReport:
    """Run every predicate on one graded ideal and collect verdicts,
    witnesses, skips, and per-predicate timings."""
    P = require_graded_ideal(gr, P, proper=False)
    proper = P.mask != _full_mask(gr.order)
    gens = minimal_homogeneous_generators(gr, P)
    report = ClassificationReport(
        ideal_mask=P.mask, ideal_size=P.size, proper=proper,
        generators=gens, generator_names=[gr.name(x) for x in gens])
    all_keys = IDEAL_PREDICATES + ELEMENT_PREDICATES
    if not proper:
        for key in all_keys:
            report.skips[key] = "requires a proper ideal"

    def run(key: str, fn, *args) -> None:
        t0 = time.perf_counter()
        try:
            verdict = fn(gr, P, *args)
        except EnumerationCapError as exc:
            report.skips[key] = str(exc)
        else:
            report.verdicts[key] = verdict.value
            if verdict.witness is not None:
                report.witnesses[key] = verdict.witness
        report.timings[key] = time.perf_counter() - t0

    if proper:
        run("graded_prime", is_graded_prime, ideal_cap)
        run("graded_weakly_prime", is_graded_weakly_prime, ideal_cap)
        run("graded_2_absorbing", is_graded_2_absorbing)
        run("graded_weakly_2_absorbing", is_graded_weakly_2_absorbing)
        run("graded_completely_weakly_2_absorbing",
            is_graded_completely_weakly_2_absorbing)
        run("graded_strongly_weakly_2_absorbing",
            is_graded_strongly_weakly_2_absorbing, ideal_cap)

    if degrees is None:
        chosen = [g for g in range(gr.group.order)
                  if P.mask & gr.component_mask(g) != gr.component_mask(g)]
    else:
        chosen = list(degrees)
    for g in chosen:
        t0 = time.perf_counter()
        entry: dict = {}
        comp = gr.component_mask(g)
        if P.mask & comp == comp:
            entry["skip"] = "component covered by the ideal (requires P_g != R_g)"
        else:
            for mode in ("weakly", "plain"):
                verdict = is_g_weakly_2_absorbing(gr, P, g, mode)
                entry[mode] = verdict.value
                if verdict.witness is not None:
                    entry[f"{mode}_witness"] = verdict.witness
            census = find_g_triple_zeros(gr, P, g)
            entry["triple_zeros"] = census.count
            if census.triples:
                entry["first_triple_zero"] = _triple_witness(gr, *census.triples[0])
        report.g_variants[g] = entry
        report.timings[f"g_variants[{g}]"] = time.perf_counter() - t0
    return report
