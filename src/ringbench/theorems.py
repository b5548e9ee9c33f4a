"""Executable structural properties of graded ideals, checked over a corpus.

Each property P1..P19 quantifies over everything its statement allows on one
ring (elements, degrees, ideal triples, quotients, bimodules), counts the
instances whose hypotheses fire, and records a re-checkable witness for any
violation. run_all_properties aggregates the outcomes over a corpus of small
graded rings, optionally across worker processes; results depend only on the
corpus, never on scheduling.

search_question1 hunts for a weakly 2-absorbing ideal that is not 2-absorbing
yet fails the triple-product conclusion for graded ideals A, B, K with
0 != ABK inside P; every hit is re-verified through the raw product route
before it is reported.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import classify
from .bitsets import bools_from_mask, indices_from_mask, is_subset, mask_from_bools, popcount
from .classify import (
    DEFAULT_IDEAL_CAP,
    find_g_triple_zeros,
    graded_ideal_lattice,
    is_g_weakly_2_absorbing,
    is_graded_2_absorbing,
    is_graded_strongly_weakly_2_absorbing,
    is_graded_weakly_2_absorbing,
    is_graded_weakly_prime,
    raw_product_mask,
)
from .constructions import (
    GradedBimodule,
    embed_ideal_in_idealization,
    hom_image,
    hom_kernel,
    hom_preimage,
    make_graded_hom,
    make_idealization,
    make_quotient,
    product_projections,
    quotient_bimodule,
    regular_bimodule,
)
from .grading import GradedRing, Grading, attach_grading, product_slots
from .ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    check_closure,
    enumerate_graded_ideals,
    minimal_homogeneous_generators,
)
from .rings import DEFAULT_RING_CAP

PROPERTY_IDS = tuple(f"P{i}" for i in range(1, 20))

PROPERTY_SUMMARIES = {
    "P1": "weakly prime ideals split nonzero products of graded one-sided ideal pairs",
    "P2": "a nonzero homogeneous sandwich inside a weakly prime ideal surrenders a factor",
    "P3": "weakly prime implies weakly 2-absorbing",
    "P4": "intersections of two distinct weakly prime ideals are weakly 2-absorbing",
    "P5": "the left-ideal triple condition forces weakly 2-absorbing",
    "P6": "weakly 2-absorbing passes to quotients by contained graded ideals",
    "P7": "weakly 2-absorbing lifts back from a quotient when the kernel has it too",
    "P8": "kernels of graded ring maps are graded two-sided ideals",
    "P9": "surjective graded maps transport weakly 2-absorbing along images and preimages",
    "P10": "degree-local pairs spread over left-ideal slices when no triple-zero interferes",
    "P11": "triple-zero-free degree slices of ideal triples obey the pairwise conclusions",
    "P12": "each degree-g triple-zero annihilates the matching slices of the ideal",
    "P13": "a nonzero cube of the degree-g slice makes weakly and plain agree",
    "P14": "an ideal extends to a 2-absorbing ideal of the idealization exactly when it is one",
    "P15": "weakly 2-absorbing descends from the idealization to the base ring",
    "P16": "degree-local weakly 2-absorbing crosses the idealization via module annihilation",
    "P17": "the strongly-weakly condition reduces to triples whose first ideal contains P",
    "P18": "all ideals strongly weakly 2-absorbing matches the triple-product collapse law",
    "P19": "under the collapse law every graded ideal has cube equal to square or to zero",
}

_MAX_WITNESSES = 5


@dataclass
class PropertyOutcome:
    """Result of one property on one ring."""

    property_id: str
    ring: str
    instances: int = 0
    violations: list[dict] = field(default_factory=list)
    skipped: str | None = None

    def to_dict(self) -> dict:
        return {
            "property": self.property_id,
            "ring": self.ring,
            "instances": self.instances,
            "violations": list(self.violations),
            "skipped": self.skipped,
        }

    def hit(self, n: int = 1) -> None:
        self.instances += n

    def violate(self, **detail) -> None:
        if len(self.violations) < _MAX_WITNESSES:
            self.violations.append({"ring": self.ring, **detail})


def _ideal_info(gr: GradedRing, mask: int) -> dict:
    sub = IdealSubset(mask, TWO_SIDED, graded=True)
    gens = minimal_homogeneous_generators(gr, sub)
    return {
        "mask": int(mask),
        "size": popcount(mask),
        "generators": gens,
        "generator_names": [gr.name(x) for x in gens],
    }


def _elem(gr: GradedRing, x: int) -> dict:
    return {"index": int(x), "name": gr.name(int(x))}


class RingContext:
    """Per-ring shared state for the property checks: ideal lattices, verdict
    memos, quotient and idealization constructions, all built on demand."""

    def __init__(self, gr: GradedRing, label: str,
                 ideal_cap: int = DEFAULT_IDEAL_CAP,
                 ring_cap: int = DEFAULT_RING_CAP):
        self.gr = gr
        self.label = label
        self.ideal_cap = ideal_cap
        self.ring_cap = ring_cap
        self._memo: dict = {}

    @property
    def unital(self) -> bool:
        return self.gr.ring.unity is not None

    @property
    def full_mask(self) -> int:
        return (1 << self.gr.order) - 1

    def subset(self, mask: int) -> IdealSubset:
        return IdealSubset(mask, TWO_SIDED, graded=True)

    def lattice(self) -> list[int]:
        got = self._memo.get("lattice")
        if got is None:
            got = [i.mask for i in graded_ideal_lattice(self.gr, self.ideal_cap)]
            self._memo["lattice"] = got
        return got

    def proper_ideals(self) -> list[int]:
        return [m for m in self.lattice() if m != self.full_mask]

    def one_sided(self, sidedness: str) -> list[int]:
        key = ("one_sided", sidedness)
        got = self._memo.get(key)
        if got is None:
            if self.gr.ring.is_commutative():
                got = self.lattice()
            else:
                got = [i.mask for i in
                       enumerate_graded_ideals(self.gr, sidedness, self.ideal_cap)]
            self._memo[key] = got
        return got

    def pb(self, mask: int) -> np.ndarray:
        key = ("pb", mask)
        got = self._memo.get(key)
        if got is None:
            got = bools_from_mask(mask, self.gr.order)
            self._memo[key] = got
        return got

    def hom(self, mask: int) -> np.ndarray:
        key = ("hom", mask)
        got = self._memo.get(key)
        if got is None:
            got = indices_from_mask(mask & self.gr.hom_mask, self.gr.order)
            self._memo[key] = got
        return got

    def product(self, a: int, b: int) -> int:
        return classify._product_of_masks(self.gr, a, b)

    def _verdict(self, name: str, fn, *args) -> bool:
        key = (name, *args)
        got = self._memo.get(key)
        if got is None:
            got = fn(self.gr, *args).value
            self._memo[key] = got
        return got

    def weakly_prime(self, p: int) -> bool:
        key = ("wprime", p)
        got = self._memo.get(key)
        if got is None:
            got = is_graded_weakly_prime(self.gr, self.subset(p),
                                         self.ideal_cap).value
            self._memo[key] = got
        return got

    def two_absorbing(self, p: int) -> bool:
        return self._verdict("2abs", is_graded_2_absorbing, self.subset(p))

    def weakly_2_absorbing(self, p: int) -> bool:
        return self._verdict("w2abs", is_graded_weakly_2_absorbing, self.subset(p))

    def strongly_weakly(self, p: int) -> bool:
        key = ("sw2abs", p)
        got = self._memo.get(key)
        if got is None:
            got = is_graded_strongly_weakly_2_absorbing(
                self.gr, self.subset(p), self.ideal_cap).value
            self._memo[key] = got
        return got

    def g_weakly(self, p: int, g: int) -> bool:
        key = ("gweak", p, g)
        got = self._memo.get(key)
        if got is None:
            got = is_g_weakly_2_absorbing(self.gr, self.subset(p), g, "weakly").value
            self._memo[key] = got
        return got

    def g_plain(self, p: int, g: int) -> bool:
        key = ("gplain", p, g)
        got = self._memo.get(key)
        if got is None:
            got = is_g_weakly_2_absorbing(self.gr, self.subset(p), g, "plain").value
            self._memo[key] = got
        return got

    def census(self, p: int, g: int):
        key = ("census", p, g)
        got = self._memo.get(key)
        if got is None:
            got = find_g_triple_zeros(self.gr, self.subset(p), g)
            self._memo[key] = got
        return got

    def valid_degrees(self, p: int) -> list[int]:
        return [g for g in range(self.gr.group.order)
                if p & self.gr.component_mask(g) != self.gr.component_mask(g)]

    def quotient(self, kmask: int):
        key = ("quot", kmask)
        got = self._memo.get(key)
        if got is None:
            got = make_quotient(self.gr, self.subset(kmask))
            self._memo[key] = got
        return got

    def bimodules(self) -> list[tuple[str, GradedBimodule]]:
        """Regular bimodule plus every quotient bimodule by a proper nonzero
        graded ideal, keeping only those whose idealization fits the cap."""
        got = self._memo.get("bimodules")
        if got is not None:
            return got
        n = self.gr.order
        candidates: list[tuple[str, GradedBimodule]] = [
            ("regular", regular_bimodule(self.gr))]
        for kmask in self.lattice():
            if kmask == 1 or kmask == self.full_mask:
                continue
            info = _ideal_info(self.gr, kmask)
            label = "quotient([" + ", ".join(info["generator_names"]) + "])"
            candidates.append((label, quotient_bimodule(self.gr, kmask)))
        got = [(lbl, M) for lbl, M in candidates if n * M.order <= self.ring_cap]
        self._memo["bimodules"] = got
        return got

    def idealization(self, mlabel: str, M: GradedBimodule) -> GradedRing:
        key = ("idealization", mlabel)
        got = self._memo.get(key)
        if got is None:
            got = make_idealization(self.gr, M, self.ring_cap)
            self._memo[key] = got
        return got


# ---------------------------------------------------------------------------
# property checks


def _check_p1(ctx: RingContext) -> PropertyOutcome:
    """Weakly prime P: one-sided graded ideals I, J with 0 != IJ inside P
    force I inside P or J inside P (right pairs and left pairs)."""
    out = PropertyOutcome("P1", ctx.label)
    gr = ctx.gr
    primes = [p for p in ctx.proper_ideals() if ctx.weakly_prime(p)]
    if not primes:
        return out
    for sidedness in (RIGHT, LEFT):
        ideals = ctx.one_sided(sidedness)
        for a in ideals:
            ha = ctx.hom(a)
            for b in ideals:
                prods = np.unique(gr.ring.mul[np.ix_(ha, ctx.hom(b))])
                if not (prods != 0).any():
                    continue
                for p in primes:
                    if not ctx.pb(p)[prods].all():
                        continue
                    out.hit()
                    if not (is_subset(a, p) or is_subset(b, p)):
                        out.violate(
                            sidedness=sidedness, P=_ideal_info(gr, p),
                            I=_ideal_info(gr, a), J=_ideal_info(gr, b))
    return out


def _check_p2(ctx: RingContext) -> PropertyOutcome:
    """Weakly prime P: homogeneous x, y, z with 0 != x*R*y*R*z inside P force
    one of x, y, z into P."""
    out = PropertyOutcome("P2", ctx.label)
    gr = ctx.gr
    primes = [p for p in ctx.proper_ideals() if ctx.weakly_prime(p)]
    if not primes:
        return out
    hk = classify._hom_kernel(gr)
    H = hk["H"]
    for p in primes:
        ik = classify._ideal_kernel(gr, p)
        hyp = ik["subseteq"] & ~hk["iszero"]
        in_p = ik["Pb"][H]
        concl = in_p[:, None, None] | in_p[None, :, None] | in_p[None, None, :]
        out.hit(int(hyp.sum()))
        viol = hyp & ~concl
        if viol.any():
            i, j, k = np.argwhere(viol)[0]
            out.violate(P=_ideal_info(gr, p),
                        x=_elem(gr, H[i]), y=_elem(gr, H[j]), z=_elem(gr, H[k]))
    return out


def _check_p3(ctx: RingContext) -> PropertyOutcome:
    """Weakly prime implies weakly 2-absorbing."""
    out = PropertyOutcome("P3", ctx.label)
    for p in ctx.proper_ideals():
        if not ctx.weakly_prime(p):
            continue
        out.hit()
        if not ctx.weakly_2_absorbing(p):
            out.violate(P=_ideal_info(ctx.gr, p))
    return out


def _check_p4(ctx: RingContext) -> PropertyOutcome:
    """The intersection of two distinct weakly prime ideals is weakly
    2-absorbing."""
    out = PropertyOutcome("P4", ctx.label)
    primes = [p for p in ctx.proper_ideals() if ctx.weakly_prime(p)]
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            out.hit()
            inter = p & q
            if not ctx.weakly_2_absorbing(inter):
                out.violate(P=_ideal_info(ctx.gr, p), K=_ideal_info(ctx.gr, q),
                            intersection=_ideal_info(ctx.gr, inter))
    return out


def _check_p5(ctx: RingContext) -> PropertyOutcome:
    """If every triple A, B, C of graded left ideals with 0 != ABC inside P
    has a pairwise product inside P, then P is weakly 2-absorbing. Needs
    unity."""
    out = PropertyOutcome("P5", ctx.label)
    if not ctx.unital:
        out.skipped = "requires unity"
        return out
    gr = ctx.gr
    lefts = ctx.one_sided(LEFT)
    # span(AB) is graded, so its homogeneous members generate it additively;
    # per-triple value bitmasks make the per-P subset tests integer operations
    triple_vals: dict[tuple[int, int, int], int] = {}
    for a in lefts:
        for b in lefts:
            hab = ctx.hom(ctx.product(a, b))
            for c in lefts:
                vals = np.unique(gr.ring.mul[np.ix_(hab, ctx.hom(c))])
                flags = np.zeros(gr.order, dtype=bool)
                flags[vals] = True
                triple_vals[(a, b, c)] = int(mask_from_bools(flags))
    for p in ctx.proper_ideals():
        holds = True
        for (a, b, c), vals_mask in triple_vals.items():
            if vals_mask == 1 or not is_subset(vals_mask, p):
                continue
            if (is_subset(ctx.product(a, c), p)
                    or is_subset(ctx.product(b, c), p)
                    or is_subset(ctx.product(a, b), p)):
                continue
            holds = False
            break
        if not holds:
            continue
        out.hit()
        if not ctx.weakly_2_absorbing(p):
            out.violate(P=_ideal_info(gr, p))
    return out


def _check_p6(ctx: RingContext) -> PropertyOutcome:
    """P weakly 2-absorbing and K a graded ideal inside P: P/K is weakly
    2-absorbing in R/K."""
    out = PropertyOutcome("P6", ctx.label)
    gr = ctx.gr
    w2 = [p for p in ctx.proper_ideals() if ctx.weakly_2_absorbing(p)]
    for k in ctx.lattice():
        carriers = [p for p in w2 if is_subset(k, p)]
        if not carriers:
            continue
        q = ctx.quotient(k)
        for p in carriers:
            out.hit()
            pq = q.projection.image_mask(p)
            if not is_graded_weakly_2_absorbing(q.graded_ring, ctx.subset(pq)).value:
                out.violate(P=_ideal_info(gr, p), K=_ideal_info(gr, k),
                            quotient_ideal_mask=int(pq))
    return out


def _check_p7(ctx: RingContext) -> PropertyOutcome:
    """K inside P, both graded, K weakly 2-absorbing and P/K weakly
    2-absorbing in R/K: then P is weakly 2-absorbing."""
    out = PropertyOutcome("P7", ctx.label)
    gr = ctx.gr
    for k in ctx.proper_ideals():
        if not ctx.weakly_2_absorbing(k):
            continue
        q = ctx.quotient(k)
        for p in ctx.proper_ideals():
            if not is_subset(k, p):
                continue
            pq = q.projection.image_mask(p)
            if not is_graded_weakly_2_absorbing(q.graded_ring, ctx.subset(pq)).value:
                continue
            out.hit()
            if not ctx.weakly_2_absorbing(p):
                out.violate(P=_ideal_info(gr, p), K=_ideal_info(gr, k))
    return out


def _factor_graded_rings(gr: GradedRing) -> tuple[GradedRing, GradedRing]:
    """Recover graded factors of a product ring from the product grading."""
    f1, f2 = gr.ring.params["factors"]
    n2 = f2.order
    comps1, comps2 = [], []
    for g in range(gr.group.order):
        idx = gr.component_indices(g)
        flags1 = np.zeros(f1.order, dtype=bool)
        flags1[np.unique(idx // n2)] = True
        flags2 = np.zeros(n2, dtype=bool)
        flags2[np.unique(idx % n2)] = True
        comps1.append(int(mask_from_bools(flags1)))
        comps2.append(int(mask_from_bools(flags2)))
    gr1 = attach_grading(f1, Grading(gr.group, comps1))
    gr2 = attach_grading(f2, Grading(gr.group, comps2))
    return gr1, gr2


def _check_p8(ctx: RingContext) -> PropertyOutcome:
    """Kernels of graded ring maps are graded two-sided ideals; a quotient
    projection's kernel is exactly the ideal it quotients by."""
    out = PropertyOutcome("P8", ctx.label)
    gr = ctx.gr
    homs: list[tuple[str, object, int | None]] = [
        ("identity", make_graded_hom(gr, gr, np.arange(gr.order)), 1)]
    for k in ctx.lattice():
        homs.append((f"projection mod ideal of size {popcount(k)}",
                     ctx.quotient(k).projection, k))
    if gr.ring.kind == "product":
        gr1, gr2 = _factor_graded_rings(gr)
        p1, p2 = product_projections(gr, gr1, gr2)
        homs.append(("first projection", p1, None))
        homs.append(("second projection", p2, None))
    for name, f, expected in homs:
        out.hit()
        ker = hom_kernel(f)
        ok, witness = check_closure(f.source, ker.mask, TWO_SIDED)
        if not ok or ker.graded is not True:
            out.violate(map=name, kernel_mask=int(ker.mask),
                        closure_failure=str(witness), graded=bool(ker.graded))
        elif expected is not None and ker.mask != expected:
            out.violate(map=name, kernel_mask=int(ker.mask),
                        expected_mask=int(expected))
    return out


def _check_p9(ctx: RingContext) -> PropertyOutcome:
    """Surjective graded f: images of weakly 2-absorbing ideals containing the
    kernel are weakly 2-absorbing; preimages of weakly 2-absorbing ideals are
    weakly 2-absorbing when the kernel is too. Both transports stay graded."""
    out = PropertyOutcome("P9", ctx.label)
    gr = ctx.gr
    w2 = [p for p in ctx.proper_ideals() if ctx.weakly_2_absorbing(p)]
    for k in ctx.proper_ideals():
        q = ctx.quotient(k)
        f, T = q.projection, q.graded_ring
        for p in w2:
            if not is_subset(k, p):
                continue
            out.hit()
            fp = hom_image(f, ctx.subset(p))
            ok, _ = check_closure(T, fp.mask, TWO_SIDED)
            if not (ok and fp.graded is True
                    and is_graded_weakly_2_absorbing(T, fp).value):
                out.violate(direction="image", P=_ideal_info(gr, p),
                            K=_ideal_info(gr, k), image_mask=int(fp.mask))
        if not ctx.weakly_2_absorbing(k):
            continue
        t_full = (1 << T.order) - 1
        for i in enumerate_graded_ideals(T, TWO_SIDED, ctx.ideal_cap):
            if i.mask == t_full:
                continue
            if not is_graded_weakly_2_absorbing(T, i).value:
                continue
            out.hit()
            pre = hom_preimage(f, i)
            ok, _ = check_closure(gr, pre.mask, TWO_SIDED)
            if not (ok and pre.graded is True
                    and is_graded_weakly_2_absorbing(gr, pre).value):
                out.violate(direction="preimage", K=_ideal_info(gr, k),
                            target_ideal_mask=int(i.mask),
                            preimage_mask=int(pre.mask))
    return out


def _check_p10(ctx: RingContext) -> PropertyOutcome:
    """P g-weakly 2-absorbing, x, y in R_g, K a graded left ideal with
    x*R_e*y*K_g inside P, no (x, y, z) a g-triple-zero for z in K_g, and
    xy outside P: then x*K_g or y*K_g lands inside P."""
    out = PropertyOutcome("P10", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    lefts = ctx.one_sided(LEFT)
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        Rg = gr.component_indices(g)
        m = len(Rg)
        posRg = np.full(gr.order, -1, dtype=np.int64)
        posRg[Rg] = np.arange(m)
        g2 = gr.group.mul(g, g)
        C2 = gr.component_indices(g2)
        pos2 = np.full(gr.order, -1, dtype=np.int64)
        pos2[C2] = np.arange(len(C2))
        # XRY[i, r, j] = Rg[i] * Re[r] * Rg[j], always inside the g*g component
        xry = mul[mul[np.ix_(Rg, Re)][:, :, None], Rg[None, None, :]]
        xry = product_slots(gr, pos2, xry, (Rg, Re, Rg), f"component {g2}")
        for p in ctx.lattice():
            if p & comp == comp or not ctx.g_weakly(p, g):
                continue
            Pb = ctx.pb(p)
            pp = Pb[mul[np.ix_(Rg, Rg)]]
            census = ctx.census(p, g)
            for k in lefts:
                kg = indices_from_mask(k & comp, gr.order)
                ok_c2 = Pb[mul[np.ix_(C2, kg)]].all(axis=1)
                sandwich_in = ok_c2[xry].all(axis=1)
                tz = np.zeros((m, m), dtype=bool)
                for (x, y, z) in census.triples:
                    if (k >> z) & 1:
                        tz[posRg[x], posRg[y]] = True
                xk_in = Pb[mul[np.ix_(Rg, kg)]].all(axis=1)
                hyp = sandwich_in & ~tz & ~pp
                out.hit(int(hyp.sum()))
                viol = hyp & ~(xk_in[:, None] | xk_in[None, :])
                if viol.any():
                    i, j = np.argwhere(viol)[0]
                    out.violate(degree=int(g), P=_ideal_info(gr, p),
                                K=_ideal_info(gr, k),
                                x=_elem(gr, Rg[i]), y=_elem(gr, Rg[j]))
    return out


def _check_p11(ctx: RingContext) -> PropertyOutcome:
    """Graded ideals A, B, K whose degree-g slices multiply into P without a
    g-triple-zero of P among them: setwise nonzero products force a pairwise
    slice product into P, and even without the nonzero hypothesis every
    element triple has a pairwise product in P."""
    out = PropertyOutcome("P11", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    lattice = ctx.lattice()
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        for p in lattice:
            if p & comp == comp or not ctx.g_weakly(p, g):
                continue
            Pb = ctx.pb(p)
            census = ctx.census(p, g)
            for a in lattice:
                ag = indices_from_mask(a & comp, gr.order)
                for b in lattice:
                    bg = indices_from_mask(b & comp, gr.order)
                    ab_vals = mul[np.ix_(ag, bg)]
                    pab = Pb[ab_vals]
                    for k in lattice:
                        kg = indices_from_mask(k & comp, gr.order)
                        t = mul[ab_vals.ravel()[:, None], kg]
                        if not Pb[t].all():
                            continue
                        free = not any(
                            (a >> x) & 1 and (b >> y) & 1 and (k >> z) & 1
                            for (x, y, z) in census.triples)
                        if not free:
                            continue
                        pak = Pb[mul[np.ix_(ag, kg)]]
                        pbk = Pb[mul[np.ix_(bg, kg)]]
                        # pointwise conclusion, no nonzero hypothesis needed
                        out.hit()
                        pointwise = (pab[:, :, None] | pak[:, None, :]
                                     | pbk[None, :, :])
                        if not pointwise.all():
                            i, j, l = np.argwhere(~pointwise)[0]
                            out.violate(degree=int(g), form="pointwise",
                                        P=_ideal_info(gr, p), A=_ideal_info(gr, a),
                                        B=_ideal_info(gr, b), K=_ideal_info(gr, k),
                                        x=_elem(gr, ag[i]), y=_elem(gr, bg[j]),
                                        z=_elem(gr, kg[l]))
                        if not (t != 0).any():
                            continue
                        out.hit()
                        if not (pak.all() or pbk.all() or pab.all()):
                            out.violate(degree=int(g), form="setwise",
                                        P=_ideal_info(gr, p), A=_ideal_info(gr, a),
                                        B=_ideal_info(gr, b), K=_ideal_info(gr, k))
    return out


def _check_p12(ctx: RingContext) -> PropertyOutcome:
    """Each g-triple-zero (x, y, z) of a g-weakly 2-absorbing P annihilates
    the matching slices: x*R_e*y*P_g, P_g*y*R_e*z, x*P_g*z, P_g*P_g*z,
    x*P_g*P_g, and P_g*y*P_g are all zero."""
    out = PropertyOutcome("P12", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        for p in ctx.lattice():
            if p & comp == comp or not ctx.g_weakly(p, g):
                continue
            pg = indices_from_mask(p & comp, gr.order)
            pp = mul[np.ix_(pg, pg)].ravel()
            for (x, y, z) in ctx.census(p, g).triples:
                out.hit()
                xry = mul[mul[x, Re], y]
                pyr = mul[np.ix_(mul[pg, y], Re)].ravel()
                sets = {
                    "x*Re*y*Pg": mul[np.ix_(xry, pg)],
                    "Pg*y*Re*z": mul[pyr, z],
                    "x*Pg*z": mul[mul[x, pg], z],
                    "Pg*Pg*z": mul[pp, z],
                    "x*Pg*Pg": mul[x, pp],
                    "Pg*y*Pg": mul[np.ix_(mul[pg, y], pg)],
                }
                failed = sorted(nm for nm, vals in sets.items()
                                if (np.asarray(vals) != 0).any())
                if failed:
                    out.violate(degree=int(g), P=_ideal_info(gr, p),
                                x=_elem(gr, x), y=_elem(gr, y), z=_elem(gr, z),
                                nonzero_sets=failed)
    return out


def _check_p13(ctx: RingContext) -> PropertyOutcome:
    """When the setwise cube of P_g is nonzero, g-weakly and plain g-variants
    agree; when P is g-weakly but not plain, the cube is zero and a
    g-triple-zero exists."""
    out = PropertyOutcome("P13", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        for p in ctx.lattice():
            if p & comp == comp:
                continue
            pg = indices_from_mask(p & comp, gr.order)
            cube = mul[mul[np.ix_(pg, pg)].ravel()[:, None], pg]
            cube_nonzero = bool((cube != 0).any())
            weakly = ctx.g_weakly(p, g)
            plain = ctx.g_plain(p, g)
            if cube_nonzero:
                out.hit()
                if weakly != plain:
                    out.violate(degree=int(g), P=_ideal_info(gr, p),
                                form="nonzero cube", weakly=weakly, plain=plain)
            if weakly and not plain:
                out.hit()
                if cube_nonzero:
                    out.violate(degree=int(g), P=_ideal_info(gr, p),
                                form="cube not annihilated")
                elif ctx.census(p, g).count == 0:
                    out.violate(degree=int(g), P=_ideal_info(gr, p),
                                form="no triple-zero found")
    return out


def _check_p14(ctx: RingContext) -> PropertyOutcome:
    """P extends to a graded 2-absorbing ideal of the idealization exactly
    when P is graded 2-absorbing. Needs unity."""
    out = PropertyOutcome("P14", ctx.label)
    if not ctx.unital:
        out.skipped = "requires unity"
        return out
    mods = ctx.bimodules()
    if not mods:
        out.skipped = "cap exceeded for every candidate bimodule"
        return out
    for mlabel, M in mods:
        X = ctx.idealization(mlabel, M)
        for p in ctx.proper_ideals():
            out.hit()
            pxm = embed_ideal_in_idealization(X, ctx.subset(p))
            lhs = is_graded_2_absorbing(X, pxm).value
            rhs = ctx.two_absorbing(p)
            if lhs != rhs:
                out.violate(module=mlabel, P=_ideal_info(ctx.gr, p),
                            idealization_side=lhs, base_side=rhs)
    return out


def _check_p15(ctx: RingContext) -> PropertyOutcome:
    """If the extension of P to the idealization is weakly 2-absorbing, so is
    P itself. Needs unity."""
    out = PropertyOutcome("P15", ctx.label)
    if not ctx.unital:
        out.skipped = "requires unity"
        return out
    mods = ctx.bimodules()
    if not mods:
        out.skipped = "cap exceeded for every candidate bimodule"
        return out
    for mlabel, M in mods:
        X = ctx.idealization(mlabel, M)
        for p in ctx.proper_ideals():
            pxm = embed_ideal_in_idealization(X, ctx.subset(p))
            if not is_graded_weakly_2_absorbing(X, pxm).value:
                continue
            out.hit()
            if not ctx.weakly_2_absorbing(p):
                out.violate(module=mlabel, P=_ideal_info(ctx.gr, p))
    return out


def _check_p16(ctx: RingContext) -> PropertyOutcome:
    """The extension of P is g-weakly 2-absorbing in the idealization exactly
    when P is g-weakly 2-absorbing and every g-triple-zero (x, y, z) of P
    annihilates the module slices x*Re*y*Re*Mg, Mg*Re*y*Re*z, x*Mg*z. Needs
    unity."""
    out = PropertyOutcome("P16", ctx.label)
    if not ctx.unital:
        out.skipped = "requires unity"
        return out
    mods = ctx.bimodules()
    if not mods:
        out.skipped = "cap exceeded for every candidate bimodule"
        return out
    gr = ctx.gr
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    for mlabel, M in mods:
        X = ctx.idealization(mlabel, M)
        for p in ctx.lattice():
            for g in ctx.valid_degrees(p):
                out.hit()
                pxm = embed_ideal_in_idealization(X, ctx.subset(p))
                lhs = is_g_weakly_2_absorbing(X, pxm, g, "weakly").value
                base = ctx.g_weakly(p, g)
                annihilated = True
                detail = None
                if base:
                    mg = indices_from_mask(M.components[g], M.order)
                    for (x, y, z) in ctx.census(p, g).triples:
                        xryr = mul[np.ix_(mul[mul[x, Re], y], Re)].ravel()
                        mry = M.right[M.right[np.ix_(mg, Re)].ravel(), y]
                        mryr = M.right[np.ix_(mry, Re)].ravel()
                        sets = {
                            "x*Re*y*Re*Mg": M.left[np.ix_(xryr, mg)],
                            "Mg*Re*y*Re*z": M.right[mryr, z],
                            "x*Mg*z": M.right[M.left[x, mg], z],
                        }
                        bad = sorted(nm for nm, vals in sets.items()
                                     if (np.asarray(vals) != 0).any())
                        if bad:
                            annihilated = False
                            detail = {"x": _elem(gr, x), "y": _elem(gr, y),
                                      "z": _elem(gr, z), "nonzero_sets": bad}
                            break
                rhs = base and annihilated
                if lhs != rhs:
                    out.violate(module=mlabel, degree=int(g),
                                P=_ideal_info(gr, p), idealization_side=lhs,
                                base_g_weakly=base, annihilated=annihilated,
                                triple=detail)
    return out


def _check_p17(ctx: RingContext) -> PropertyOutcome:
    """P is strongly weakly 2-absorbing exactly when the triple condition
    holds for triples whose first ideal contains P."""
    out = PropertyOutcome("P17", ctx.label)
    gr = ctx.gr
    lattice = ctx.lattice()
    for p in ctx.proper_ideals():
        out.hit()
        lhs = ctx.strongly_weakly(p)
        rhs = True
        witness = None
        for a in lattice:
            if not is_subset(p, a):
                continue
            for b in lattice:
                ab = ctx.product(a, b)
                ab_in = is_subset(ab, p)
                for c in lattice:
                    abc = ctx.product(ab, c)
                    if abc == 1 or not is_subset(abc, p):
                        continue
                    if ab_in or is_subset(ctx.product(a, c), p) \
                            or is_subset(ctx.product(b, c), p):
                        continue
                    rhs = False
                    witness = {"A": _ideal_info(gr, a), "B": _ideal_info(gr, b),
                               "C": _ideal_info(gr, c)}
                    break
                if not rhs:
                    break
            if not rhs:
                break
        if lhs != rhs:
            out.violate(P=_ideal_info(gr, p), strongly_weakly=lhs,
                        restricted_triples=rhs, witness=witness)
    return out


def _collapse_law_holds(ctx: RingContext) -> tuple[bool, dict | None]:
    """Every graded ideal triple satisfies IJ == IJK, IK == IJK, JK == IJK,
    or IJK == 0 (as ideals)."""
    lattice = ctx.lattice()
    for i in lattice:
        for j in lattice:
            ij = ctx.product(i, j)
            for k in lattice:
                ijk = ctx.product(ij, k)
                if ijk == 1 or ij == ijk:
                    continue
                if ctx.product(i, k) == ijk or ctx.product(j, k) == ijk:
                    continue
                return False, {"I": _ideal_info(ctx.gr, i),
                               "J": _ideal_info(ctx.gr, j),
                               "K": _ideal_info(ctx.gr, k)}
    return True, None


def _check_p18(ctx: RingContext) -> PropertyOutcome:
    """Every proper graded ideal is strongly weakly 2-absorbing exactly when
    the triple-product collapse law holds."""
    out = PropertyOutcome("P18", ctx.label)
    out.hit()
    lhs = all(ctx.strongly_weakly(p) for p in ctx.proper_ideals())
    rhs, witness = _collapse_law_holds(ctx)
    if lhs != rhs:
        out.violate(all_strongly_weakly=lhs, collapse_law=rhs, witness=witness)
    return out


def _check_p19(ctx: RingContext) -> PropertyOutcome:
    """In rings where every proper graded ideal is strongly weakly
    2-absorbing, each graded ideal has cube equal to its square or to zero."""
    out = PropertyOutcome("P19", ctx.label)
    if not all(ctx.strongly_weakly(p) for p in ctx.proper_ideals()):
        return out
    for i in ctx.lattice():
        out.hit()
        sq = ctx.product(i, i)
        cube = ctx.product(sq, i)
        if cube != sq and cube != 1:
            out.violate(I=_ideal_info(ctx.gr, i), square_mask=int(sq),
                        cube_mask=int(cube))
    return out


_CHECKS = {
    "P1": _check_p1, "P2": _check_p2, "P3": _check_p3, "P4": _check_p4,
    "P5": _check_p5, "P6": _check_p6, "P7": _check_p7, "P8": _check_p8,
    "P9": _check_p9, "P10": _check_p10, "P11": _check_p11, "P12": _check_p12,
    "P13": _check_p13, "P14": _check_p14, "P15": _check_p15, "P16": _check_p16,
    "P17": _check_p17, "P18": _check_p18, "P19": _check_p19,
}


# ---------------------------------------------------------------------------
# corpus


@dataclass(frozen=True)
class CorpusMember:
    """One graded ring of the corpus, rebuildable from its one-line spec so
    worker processes can reconstruct it from a picklable description."""

    label: str
    spec_text: str

    def build(self, ring_cap: int = DEFAULT_RING_CAP) -> GradedRing:
        from .specs import build_document, parse_document
        return build_document(parse_document(self.spec_text),
                              ring_cap=ring_cap).graded_ring


_BASE_LABELS = (
    "zn(2)", "zn(3)", "zn(4)", "zn(6)", "zn(8)", "zn(9)", "zn(16)",
    "gaussian(2)", "gaussian(3)", "gaussian(4)", "gaussian(8)",
    "matrix(zn(2), 2)", "matrix(zn(4), 2)", "matrix(zn(8), 2)",
    "product(gaussian(2), gaussian(4))",
)

_IDEALIZATION_LABELS = (
    "idealization(gaussian(2), regular)",
    "idealization(zn(4), regular)",
    "idealization(zn(4), quotient([2]))",
)


def default_corpus(ring_cap: int = DEFAULT_RING_CAP,
                   ideal_cap: int = DEFAULT_IDEAL_CAP) -> list[CorpusMember]:
    """Base rings, every quotient of a base ring by a proper graded ideal,
    and a few idealizations. Labels double as build expressions."""
    members = [CorpusMember(lbl, f"ring: {lbl}") for lbl in _BASE_LABELS]
    quotients = []
    for base in members:
        gr = base.build(ring_cap)
        full = (1 << gr.order) - 1
        for K in enumerate_graded_ideals(gr, TWO_SIDED, ideal_cap):
            if K.mask == full:
                continue
            gens = minimal_homogeneous_generators(gr, K)
            lits = ", ".join(gr.name(x) for x in gens)
            lbl = f"quotient({base.label}, [{lits}])"
            quotients.append(CorpusMember(lbl, f"ring: {lbl}"))
    members.extend(quotients)
    members.extend(CorpusMember(lbl, f"ring: {lbl}")
                   for lbl in _IDEALIZATION_LABELS)
    return members


def directory_corpus(path: str) -> list[CorpusMember]:
    """Corpus read from a directory of spec files, sorted by file name."""
    import os

    files = sorted(f for f in os.listdir(path)
                   if not f.startswith(".")
                   and os.path.isfile(os.path.join(path, f)))
    if not files:
        raise ValueError(f"no spec files in {path!r}")
    members = []
    for fname in files:
        with open(os.path.join(path, fname), encoding="utf-8") as fh:
            members.append(CorpusMember(os.path.splitext(fname)[0], fh.read()))
    return members


# ---------------------------------------------------------------------------
# runners


def run_property(gr: GradedRing, property_id: str, label: str = "ring",
                 ideal_cap: int = DEFAULT_IDEAL_CAP,
                 ring_cap: int = DEFAULT_RING_CAP,
                 ctx: RingContext | None = None) -> PropertyOutcome:
    """One property on one ring; enumeration overruns become skips."""
    check = _CHECKS.get(property_id)
    if check is None:
        raise ValueError(f"unknown property {property_id!r}; "
                         f"expected one of {', '.join(PROPERTY_IDS)}")
    if ctx is None:
        ctx = RingContext(gr, label, ideal_cap, ring_cap)
    try:
        return check(ctx)
    except EnumerationCapError as exc:
        return PropertyOutcome(property_id, ctx.label, skipped=str(exc))


def evaluate_ring(gr: GradedRing, label: str,
                  properties: list[str] | None = None,
                  ideal_cap: int = DEFAULT_IDEAL_CAP,
                  ring_cap: int = DEFAULT_RING_CAP) -> list[PropertyOutcome]:
    ids = list(properties) if properties else list(PROPERTY_IDS)
    ctx = RingContext(gr, label, ideal_cap, ring_cap)
    return [run_property(gr, pid, label, ideal_cap, ring_cap, ctx)
            for pid in ids]


def _member_task(args: tuple) -> tuple[str, list[dict]]:
    label, spec_text, pids, ideal_cap, ring_cap = args
    gr = CorpusMember(label, spec_text).build(ring_cap)
    outs = evaluate_ring(gr, label, pids, ideal_cap, ring_cap)
    return label, [o.to_dict() for o in outs]


def _map_over_corpus(task, args_list: list[tuple], workers: int) -> list:
    # the pool starts all its processes at once, so never more than tasks
    workers = min(workers, len(args_list))
    if workers <= 1:
        return [task(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, args_list))


def run_all_properties(corpus: list[CorpusMember] | None = None,
                       properties: list[str] | None = None,
                       workers: int = 1,
                       ideal_cap: int = DEFAULT_IDEAL_CAP,
                       ring_cap: int = DEFAULT_RING_CAP) -> dict:
    """Evaluate properties over the corpus and aggregate per property.

    The report is a plain JSON-ready dict and is byte-identical for any
    worker count: members are merged in corpus order, not completion order.
    """
    ids = list(properties) if properties else list(PROPERTY_IDS)
    unknown = [p for p in ids if p not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown properties: {', '.join(unknown)}")
    members = default_corpus(ring_cap, ideal_cap) if corpus is None else corpus
    args = [(m.label, m.spec_text, ids, ideal_cap, ring_cap) for m in members]
    by_label = dict(_map_over_corpus(_member_task, args, workers))
    rows = []
    total_violations = 0
    for pos, pid in enumerate(ids):
        instances = 0
        violations: list[dict] = []
        skips: list[dict] = []
        for m in members:
            o = by_label[m.label][pos]
            if o["skipped"] is not None:
                skips.append({"ring": m.label, "reason": o["skipped"]})
                continue
            instances += o["instances"]
            violations.extend(o["violations"])
        total_violations += len(violations)
        rows.append({
            "id": pid,
            "description": PROPERTY_SUMMARIES[pid],
            "instances_checked": instances,
            "violations": violations,
            "skips": skips,
        })
    return {
        "corpus": [m.label for m in members],
        "properties": rows,
        "violations_total": total_violations,
    }


# ---------------------------------------------------------------------------
# counterexample search


def _search_member_task(args: tuple) -> tuple[str, dict]:
    label, spec_text, ideal_cap, ring_cap = args
    gr = CorpusMember(label, spec_text).build(ring_cap)
    return label, search_ring(gr, label, ideal_cap)


def search_ring(gr: GradedRing, label: str,
                ideal_cap: int = DEFAULT_IDEAL_CAP) -> dict:
    """Scan one ring: for every weakly-2-absorbing-but-not-2-absorbing proper
    graded ideal P, test all graded ideal triples A, B, K with 0 != ABK
    inside P for the pairwise conclusion; verify any failure through the raw
    product route before reporting it."""
    ctx = RingContext(gr, label, ideal_cap)
    try:
        lattice = ctx.lattice()
    except EnumerationCapError as exc:
        return {"skipped": str(exc), "eligible_ideals": [],
                "counters": {"triples_scanned": 0, "triples_nonzero": 0,
                             "triples_hypothesis": 0},
                "counterexamples": [], "discarded": 0}
    eligible = [p for p in ctx.proper_ideals()
                if ctx.weakly_2_absorbing(p) and not ctx.two_absorbing(p)]
    scanned = nonzero = hypothesis = discarded = 0
    counterexamples: list[dict] = []
    for p in eligible:
        for a in lattice:
            for b in lattice:
                ab = ctx.product(a, b)
                for k in lattice:
                    scanned += 1
                    abk = ctx.product(ab, k)
                    if abk == 1:
                        continue
                    nonzero += 1
                    if not is_subset(abk, p):
                        continue
                    hypothesis += 1
                    if (is_subset(ab, p) or is_subset(ctx.product(a, k), p)
                            or is_subset(ctx.product(b, k), p)):
                        continue
                    raw_ab = raw_product_mask(gr, a, b)
                    raw_abk = raw_product_mask(gr, raw_ab, k)
                    confirmed = (
                        raw_abk != 1 and is_subset(raw_abk, p)
                        and not is_subset(raw_ab, p)
                        and not is_subset(raw_product_mask(gr, a, k), p)
                        and not is_subset(raw_product_mask(gr, b, k), p))
                    if confirmed:
                        counterexamples.append({
                            "ring": label, "P": _ideal_info(gr, p),
                            "A": _ideal_info(gr, a), "B": _ideal_info(gr, b),
                            "K": _ideal_info(gr, k),
                            "product_mask": int(abk)})
                    else:
                        discarded += 1
    return {
        "eligible_ideals": [_ideal_info(gr, p) for p in eligible],
        "counters": {"triples_scanned": scanned, "triples_nonzero": nonzero,
                     "triples_hypothesis": hypothesis},
        "counterexamples": counterexamples,
        "discarded": discarded,
    }


def search_question1(corpus: list[CorpusMember] | None = None,
                     workers: int = 1,
                     ideal_cap: int = DEFAULT_IDEAL_CAP,
                     ring_cap: int = DEFAULT_RING_CAP) -> dict:
    """Run the counterexample hunt over the corpus and merge the results.

    Either counterexamples (each re-verified through the raw product route)
    or an exhaustion certificate with the number of examined tuples."""
    members = default_corpus(ring_cap, ideal_cap) if corpus is None else corpus
    args = [(m.label, m.spec_text, ideal_cap, ring_cap) for m in members]
    by_label = dict(_map_over_corpus(_search_member_task, args, workers))
    counters = {"triples_scanned": 0, "triples_nonzero": 0,
                "triples_hypothesis": 0}
    eligible: list[dict] = []
    counterexamples: list[dict] = []
    skipped: list[dict] = []
    discarded = 0
    for m in members:
        r = by_label[m.label]
        if r.get("skipped"):
            skipped.append({"ring": m.label, "reason": r["skipped"]})
            continue
        for key in counters:
            counters[key] += r["counters"][key]
        eligible.extend({"ring": m.label, **info} for info in r["eligible_ideals"])
        counterexamples.extend(r["counterexamples"])
        discarded += r["discarded"]
    return {
        "corpus": [m.label for m in members],
        "eligible_ideals": eligible,
        "counters": counters,
        "counterexamples": counterexamples,
        "discarded_candidates": discarded,
        "exhausted": not skipped,
        "skips": skipped,
    }


# ---------------------------------------------------------------------------
# triple-zero census


def triple_zero_census(gr: GradedRing, ideals: list[int] | None = None,
                       degrees: list[int] | None = None,
                       ideal_cap: int = DEFAULT_IDEAL_CAP) -> list[dict]:
    """Rows of g-triple-zeros per (ideal, degree). Defaults: every proper
    graded two-sided ideal, every degree whose component the ideal misses."""
    ctx = RingContext(gr, "ring", ideal_cap)
    masks = ctx.proper_ideals() if ideals is None else list(ideals)
    rows = []
    for p in masks:
        chosen = ctx.valid_degrees(p) if degrees is None else list(degrees)
        for g in chosen:
            comp = gr.component_mask(g)
            if p & comp == comp:
                rows.append({"ideal": _ideal_info(gr, p), "degree": int(g),
                             "skip": "component covered by the ideal"})
                continue
            census = ctx.census(p, g)
            rows.append({
                "ideal": _ideal_info(gr, p),
                "degree": int(g),
                "count": census.count,
                "g_weakly_2_absorbing": census.p_is_g_weakly_2_absorbing,
                "triples": [[int(x), int(y), int(z)]
                            for (x, y, z) in census.triples],
                "triple_names": [[gr.name(x), gr.name(y), gr.name(z)]
                                 for (x, y, z) in census.triples],
            })
    return rows
