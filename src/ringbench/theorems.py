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

import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import classify
from .bitsets import bools_from_mask, indices_from_mask, is_subset, mask_from_bools, popcount
from .classify import DEFAULT_IDEAL_CAP, find_g_triple_zeros, ideal_info, verify_witness
from .constructions import (
    _idealization,
    GradedBimodule,
    GradedRingHom,
    embed_ideal_in_idealization,
    hom_image,
    hom_kernel,
    hom_preimage,
    make_quotient,
    product_projections,
    quotient_bimodule,
    regular_bimodule,
)
from .grading import GradedRing, Grading, attach_grading
from .groups import first_offender
from .ideals import (
    LEFT,
    RIGHT,
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    check_closure,
    graded_ideal_masks,
)
from .rings import DEFAULT_RING_CAP
from .specs import (
    build_document,
    parse_document,
    shared_subexpressions,
    start_build_memo,
    stop_build_memo,
)

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

PROPERTY_IDS = tuple(PROPERTY_SUMMARIES)

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


def _elem(gr: GradedRing, x: int) -> dict:
    return {"index": int(x), "name": gr.name(int(x))}


class RingContext:
    """Per-ring shared state for the property checks: ideal lattices, verdict
    memos, quotient constructions and the idealizations' verdict vectors,
    all built on demand."""

    def __init__(self, gr: GradedRing, label: str,
                 ideal_cap: int = DEFAULT_IDEAL_CAP,
                 ring_cap: int = DEFAULT_RING_CAP):
        self.gr = gr
        self.label = label
        self.ideal_cap = ideal_cap
        self.ring_cap = ring_cap
        # not gr._cache: a ("quot", k) map's source is gr, a cycle only gc frees
        self._memos: dict = {}

    def _memo(self, key, fn):
        if key not in self._memos:
            self._memos[key] = fn()
        return self._memos[key]

    @property
    def unital(self) -> bool:
        return self.gr.ring.unity is not None

    def subset(self, mask: int) -> IdealSubset:
        return IdealSubset(mask, TWO_SIDED, graded=True)

    def _sidedness(self, sidedness: str) -> str:
        """One-sided ideals of a commutative ring are its two-sided ones."""
        if sidedness == TWO_SIDED or self._memo("commutative", self.gr.ring.is_commutative):
            return TWO_SIDED
        return sidedness

    def lattice(self) -> tuple[int, ...]:
        return graded_ideal_masks(self.gr, TWO_SIDED, self.ideal_cap)

    def proper_ideals(self) -> tuple[int, ...]:
        """lattice() but R, its largest mask and so its last: positions agree."""
        return self.lattice()[:-1]

    def at(self, mask: int) -> int:
        """The position of a graded ideal in lattice()."""
        return self._memo("positions", lambda: {m: i for i, m in enumerate(self.lattice())})[mask]

    def one_sided(self, sidedness: str) -> tuple[int, ...]:
        return graded_ideal_masks(self.gr, self._sidedness(sidedness), self.ideal_cap)

    def table(self, sidedness: str = TWO_SIDED) -> classify.LatticeTable:
        return classify.lattice_table(self.gr, self._sidedness(sidedness),
                                      self.ideal_cap)

    def pb(self, mask: int) -> np.ndarray:
        return self._memo(("pb", mask), lambda: bools_from_mask(mask, self.gr.order))

    def verdicts(self, kind: str, g: int | None = None) -> np.ndarray:
        """[i]: lattice()[i] has the kind's property, by
        classify.lattice_verdicts at degree g; False at R and, at a degree
        g, at every P with P_g = R_g, where it is undefined."""
        return self._memo(("verdicts", kind, g), lambda: classify.lattice_verdicts(
            self.gr, g, self.lattice(), kind, self.ideal_cap))

    def census(self, p: int, g: int):
        return self._memo(("census", p, g),
                          lambda: find_g_triple_zeros(self.gr, self.subset(p), g))

    def slices(self) -> list[tuple]:
        """The (g, P) with P_g != R_g and P g-weakly 2-absorbing, which
        P10-P12 quantify over, by degree, then in lattice order, as
        (g, p, X, Pb, outside, triples): X = R_g, Pb the members of P,
        outside[i, j] that X[i]*X[j] is not in P, and P's census of
        g-triple-zeros as positions in X."""
        def build():
            gr, out = self.gr, []
            for g in range(gr.group.order):
                X = gr.component_indices(g)
                pos = np.zeros(gr.order, dtype=np.uint16)   # census entries lie in X
                pos[X] = np.arange(len(X))
                for p in compress(self.lattice(), self.verdicts("weakly", g)):
                    # outside from the kernel's LRU entry, which the census's listing reads next
                    out.append((g, p, X, self.pb(p), classify._kernel(gr, g, p)[2],
                                pos[self.census(p, g).triples]))
            return out
        return self._memo("slices", build)

    def members(self, sidedness: str, g: int) -> np.ndarray:
        """[a, i]: graded ideal a of the sidedness holds R_g[i]."""
        masks = self.one_sided(sidedness)
        return self._memo(("members", self._sidedness(sidedness), g), lambda: np.unpackbits(
            classify._words(masks, self.gr.order).view(np.uint8), axis=1,
            bitorder="little")[:, self.gr.component_indices(g)].astype(bool))

    def valid_degrees(self, p: int) -> list[int]:
        return [g for g in range(self.gr.group.order)
                if p & self.gr.component_mask(g) != self.gr.component_mask(g)]

    def quotient(self, kmask: int):
        return self._memo(("quot", kmask),
                          lambda: make_quotient(self.gr, self.subset(kmask)))

    def over_quotient(self, kmask: int) -> "RingContext":
        """The context of R/K, so that P6, P7 and P9 share its verdicts."""
        return self._memo(("qctx", kmask), lambda: RingContext(
            self.quotient(kmask).graded_ring, f"{self.label}/{kmask:#x}",
            self.ideal_cap, self.ring_cap))

    def idealizations(self) -> list[tuple[str, GradedBimodule, dict]]:
        """(label, M, vectors) for the regular bimodule and every quotient
        bimodule by a proper nonzero graded ideal whose idealization fits
        the cap. vectors[kind, g][i] is R(+)M's verdict at P(+)M, P =
        lattice()[i]: ("plain", None), ("weakly", None) and ("weakly", g) at
        every degree g. Each R(+)M is dropped before the next is built."""
        def vectors(M: GradedBimodule) -> dict:
            xgr = _idealization(self.gr, M, self.ring_cap)
            # one embedding per P, which records P(+)M in R(+)M's ideal_check
            # memo, so no closure check runs on R(+)M; its lattice is never read
            masks = [embed_ideal_in_idealization(xgr, p).mask for p in self.lattice()]
            keys = [("plain", None), ("weakly", None)]
            keys += [("weakly", g) for g in range(self.gr.group.order)]
            return {(kind, g): classify.lattice_verdicts(xgr, g, masks, kind, self.ideal_cap)
                    for kind, g in keys}

        def build():
            n, mods = self.gr.order, []
            if n * n <= self.ring_cap:
                mods.append(("regular", regular_bimodule(self.gr)))
            for kmask in self.proper_ideals():
                # |R/K| = n / |K|: the cap is decided before any table is built
                if kmask == 1 or n * (n // popcount(kmask)) > self.ring_cap:
                    continue
                info = ideal_info(self.gr, kmask)
                label = "quotient([" + ", ".join(info["generator_names"]) + "])"
                mods.append((label, quotient_bimodule(self.quotient(kmask))))
            return [(label, M, vectors(M)) for label, M in mods]
        return self._memo("idealizations", build)


# ---------------------------------------------------------------------------
# property checks


def _check_p1(ctx: RingContext, out: PropertyOutcome) -> None:
    """Weakly prime P: one-sided graded ideals I, J with 0 != IJ inside P
    force I inside P or J inside P (right pairs and left pairs)."""
    gr = ctx.gr
    primes = list(compress(ctx.lattice(), ctx.verdicts("weakly_prime")))
    if not primes:
        return
    for sidedness in (RIGHT, LEFT):
        t = ctx.table(sidedness)
        found = []
        for p in primes:
            inP = t.inside(p)
            hyp = (t.prod != t.zero) & inP[t.prod]
            out.hit(int(hyp.sum()))
            found += [(a, b, p) for a, b in np.argwhere(hyp & ~inP[:, None] & ~inP[None, :])]
        for a, b, p in sorted(found)[:_MAX_WITNESSES]:
            out.violate(sidedness=sidedness, P=ideal_info(gr, p),
                        I=ideal_info(gr, t.masks[a]), J=ideal_info(gr, t.masks[b]))


def _check_p2(ctx: RingContext, out: PropertyOutcome) -> None:
    """Weakly prime P: homogeneous x, y, z with 0 != x*R*y*R*z inside P force
    one of x, y, z into P."""
    gr = ctx.gr
    for p in compress(ctx.lattice(), ctx.verdicts("weakly_prime")):
        tk, inside, _ = classify._kernel(gr, None, p)
        hyp = inside & ~tk["zero"]         # rows: a nonzero sandwich inside P
        out.hit(int(hyp.sum(axis=1)[tk["inv"]].sum()))
        # x, y, z all outside P: every pair of them counts as outside
        notin = ~ctx.pb(p)[tk["X"]]
        outside = notin[:, None] & notin[None, :]
        twins = classify._refine(classify._kernel_twins(gr, tk), outside)
        hit = classify._scan(hyp, tk["inv"], outside, twins, True).first()
        if hit is not None:
            x, y, z = tk["X"][list(hit)]
            out.violate(P=ideal_info(gr, p),
                        x=_elem(gr, x), y=_elem(gr, y), z=_elem(gr, z))


def _check_p3(ctx: RingContext, out: PropertyOutcome) -> None:
    """Weakly prime implies weakly 2-absorbing."""
    w2 = ctx.verdicts("weakly")
    for i in np.flatnonzero(ctx.verdicts("weakly_prime")):
        out.hit()
        if not w2[i]:
            out.violate(P=ideal_info(ctx.gr, ctx.lattice()[i]))


def _check_p4(ctx: RingContext, out: PropertyOutcome) -> None:
    """The intersection of two distinct weakly prime ideals is weakly
    2-absorbing."""
    primes = list(compress(ctx.lattice(), ctx.verdicts("weakly_prime")))
    w2 = ctx.verdicts("weakly")
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            out.hit()
            inter = p & q
            if not w2[ctx.at(inter)]:
                out.violate(P=ideal_info(ctx.gr, p), K=ideal_info(ctx.gr, q),
                            intersection=ideal_info(ctx.gr, inter))


def _check_p5(ctx: RingContext, out: PropertyOutcome) -> None:
    """If every triple A, B, C of graded left ideals with 0 != ABC inside P
    has a pairwise product inside P, then P is weakly 2-absorbing. Needs
    unity."""
    if not ctx.unital:
        out.skipped = "requires unity"
        return
    # (AB)C != 0 inside P with AB, AC and BC outside P, over graded left ideals
    t = ctx.table(LEFT)
    w2 = ctx.verdicts("weakly")
    for i, p in enumerate(ctx.proper_ideals()):
        if classify._first_ideal_triple(t, t.inside(p)) is not None:
            continue
        out.hit()
        if not w2[i]:
            out.violate(P=ideal_info(ctx.gr, p))


def _check_p6(ctx: RingContext, out: PropertyOutcome) -> None:
    """P weakly 2-absorbing and K a graded ideal inside P: P/K is weakly
    2-absorbing in R/K."""
    gr = ctx.gr
    w2 = list(compress(ctx.lattice(), ctx.verdicts("weakly")))
    for k in ctx.lattice():
        carriers = [p for p in w2 if is_subset(k, p)]
        if not carriers:
            continue
        q, qc = ctx.quotient(k), ctx.over_quotient(k)
        for p in carriers:
            out.hit()
            pq = q.projection.image_mask(p)
            if not qc.verdicts("weakly")[qc.at(pq)]:
                out.violate(P=ideal_info(gr, p), K=ideal_info(gr, k),
                            quotient_ideal_mask=int(pq))


def _check_p7(ctx: RingContext, out: PropertyOutcome) -> None:
    """K inside P, both graded, K weakly 2-absorbing and P/K weakly
    2-absorbing in R/K: then P is weakly 2-absorbing."""
    gr, w2 = ctx.gr, ctx.verdicts("weakly")
    for k in compress(ctx.lattice(), w2):
        q, qc = ctx.quotient(k), ctx.over_quotient(k)
        for i, p in enumerate(ctx.proper_ideals()):
            if not is_subset(k, p):
                continue
            if not qc.verdicts("weakly")[qc.at(q.projection.image_mask(p))]:
                continue
            out.hit()
            if not w2[i]:
                out.violate(P=ideal_info(gr, p), K=ideal_info(gr, k))


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


def _check_p8(ctx: RingContext, out: PropertyOutcome) -> None:
    """Kernels of graded ring maps are graded two-sided ideals; a quotient
    projection's kernel is exactly the ideal it quotients by."""
    gr = ctx.gr
    homs: list[tuple[str, object, int | None]] = [
        ("identity", GradedRingHom(gr, gr, np.arange(gr.order)), 1)]
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


def _check_p9(ctx: RingContext, out: PropertyOutcome) -> None:
    """Surjective graded f: images of weakly 2-absorbing ideals containing the
    kernel are weakly 2-absorbing; preimages of weakly 2-absorbing ideals are
    weakly 2-absorbing when the kernel is too. Both transports stay graded."""
    gr, w2 = ctx.gr, ctx.verdicts("weakly")
    for j, k in enumerate(ctx.proper_ideals()):
        f, qc = ctx.quotient(k).projection, ctx.over_quotient(k)
        for p in compress(ctx.lattice(), w2):
            if not is_subset(k, p):
                continue
            out.hit()
            fp = hom_image(f, ctx.subset(p))
            ok, _ = check_closure(qc.gr, fp.mask, TWO_SIDED)
            if not (ok and fp.graded is True and qc.verdicts("weakly")[qc.at(fp.mask)]):
                out.violate(direction="image", P=ideal_info(gr, p),
                            K=ideal_info(gr, k), image_mask=int(fp.mask))
        if not w2[j]:
            continue
        for i in compress(qc.lattice(), qc.verdicts("weakly")):
            out.hit()
            pre = hom_preimage(f, i)
            ok, _ = check_closure(gr, pre.mask, TWO_SIDED)
            if not (ok and pre.graded is True and w2[ctx.at(pre.mask)]):
                out.violate(direction="preimage", K=ideal_info(gr, k),
                            target_ideal_mask=int(i), preimage_mask=int(pre.mask))


def _meets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[..., i, k]: a[..., i, j] and b[k, j] for some j, by a float32 matrix
    product (exact: fewer than 2**24 terms)."""
    return (a.astype(np.float32) @ np.swapaxes(b, -1, -2).astype(np.float32)) > 0


def _census_pairs(triples: np.ndarray, m: int,
                  inK: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, hit): the distinct (i, j) of a census of positions in R_g (m
    of them), and hit[k, d] that the d-th pair's triples hold an l with
    inK[k, l]. The census is sorted, so each pair's triples are one run."""
    if not len(triples):
        return triples[:, 0], triples[:, 1], np.zeros((len(inK), 0), dtype=bool)
    first = np.flatnonzero(np.diff(triples[:, 0].astype(np.intp) * m + triples[:, 1],
                                   prepend=-1))
    step = max(1, classify._BLOCK // len(triples))
    return triples[first, 0], triples[first, 1], np.vstack([
        np.logical_or.reduceat(inK[k:k + step, triples[:, 2]], first, axis=1)
        for k in range(0, len(inK), step)])


def _check_p10(ctx: RingContext, out: PropertyOutcome) -> None:
    """P g-weakly 2-absorbing, x, y in R_g, K a graded left ideal with
    x*R_e*y*K_g inside P, no (x, y, z) a g-triple-zero for z in K_g, and
    xy outside P: then x*K_g or y*K_g lands inside P. A slice takes every K
    at once: v*K_g leaves P when K holds some z of R_g with v*z outside."""
    gr = ctx.gr
    lefts = ctx.one_sided(LEFT)
    for g, p, X, Pb, outside, triples in ctx.slices():
        xry = classify.sandwich_kernel(gr, g, gr.group.identity, g)
        inK = ctx.members(LEFT, g)
        # [r, k]: the value set r of x*Re*y, times K_g, lies inside P
        rows_in = classify._none_in(xry["U"], _meets(~Pb[gr.ring.mul[np.ix_(xry["T"], X)]], inK))
        xk_out = _meets(inK, outside)           # [k, i]: X[i]*K_g leaves P
        pi, pj, hit = _census_pairs(triples, len(X), inK)
        step = max(1, classify._BLOCK // outside.size)
        for k0 in range(0, len(lefts), step):
            ks = slice(k0, k0 + step)
            hyp = np.moveaxis(rows_in[:, ks][xry["inv"]], 2, 0) & outside
            hyp[:, pi, pj] &= ~hit[ks]    # (x, y) of a triple-zero (x, y, z), z in K_g
            out.hit(int(np.count_nonzero(hyp)))
            viol = hyp & xk_out[ks, :, None] & xk_out[ks, None, :]
            for k in np.flatnonzero(viol.any(axis=(1, 2)))[:_MAX_WITNESSES - len(out.violations)]:
                i, j = first_offender(viol[k])
                out.violate(degree=int(g), P=ideal_info(gr, p), K=ideal_info(gr, lefts[k0 + k]),
                            x=_elem(gr, X[i]), y=_elem(gr, X[j]))


def _p11_cubes(gr: GradedRing, X: np.ndarray, Pb: np.ndarray, outside: np.ndarray,
               triples: np.ndarray, cls: np.ndarray, u: int) -> dict[str, np.ndarray]:
    """[cx, cy, cz]: some x, y, z of R_g in these classes with (xy)z outside
    P ("out"), (xy)z nonzero ("nz"), xy, xz and yz all outside P ("pw"), or
    (x, y, z) in the census ("tz"). Element cubes are taken in blocks of x."""
    mul, o = gr.ring.mul, outside
    xy = mul[np.ix_(X, X)]
    cubes = {nm: np.zeros((u, u, u), dtype=bool) for nm in ("out", "nz", "pw", "tz")}
    cubes["tz"][tuple(cls[triples].T)] = True
    step = max(1, classify._BLOCK // (8 * o.size))
    for x0 in range(0, len(o), step):
        xs = slice(x0, x0 + step)
        t = mul[xy[xs][:, :, None], X]
        for nm, blk in (("out", ~Pb[t]), ("nz", t != 0),
                        ("pw", o[xs, :, None] & o[xs, None, :] & o[None])):
            x, y, z = np.nonzero(blk)
            cubes[nm][cls[x0 + x], cls[y], cls[z]] = True
    return cubes


def _exists(inc: np.ndarray, cube: np.ndarray, rows: slice) -> np.ndarray:
    """[a, b, k] for a in rows: some (u, v, w) with cube[u, v, w] and inc[a, u],
    inc[b, v], inc[k, w]; one contraction along each axis."""
    u = len(cube)
    t = _meets(inc[rows], cube.reshape(u, -1).T).reshape(-1, u, u)
    return _meets(_meets(inc, t.swapaxes(1, 2)), inc)


def _check_p11(ctx: RingContext, out: PropertyOutcome) -> None:
    """Graded ideals A, B, K whose degree-g slices multiply into P without a
    g-triple-zero of P among them: setwise nonzero products force a pairwise
    slice product into P, and even without the nonzero hypothesis every
    element triple has a pairwise product in P.

    x lies in A exactly when the principal ideal (x) does, so the elements
    of one principal ideal form a class, and each "some triple in
    A_g x B_g x K_g" is a class cube contracted with inc[a, c], A holds c."""
    gr, masks = ctx.gr, ctx.lattice()
    for g, p, X, Pb, o, triples in ctx.slices():
        held = ctx.members(TWO_SIDED, g)
        inc, cls = np.unique(held.T, axis=0, return_inverse=True)
        cubes = _p11_cubes(gr, X, Pb, o, triples, cls.reshape(-1), len(inc))
        n2 = _meets(_meets(held, o.T), held)        # [a, b]: A_g*B_g leaves P
        step = max(1, classify._BLOCK // (4 * len(masks) * max(len(masks), len(inc))))
        for a0 in range(0, len(masks), step):
            e = {nm: _exists(inc.T, cube, slice(a0, a0 + step)) for nm, cube in cubes.items()}
            hyp = ~e["out"] & ~e["tz"]
            setwise = hyp & e["nz"]
            out.hit(int(np.count_nonzero(hyp)) + int(np.count_nonzero(setwise)))
            setwise &= n2[a0:a0 + step, :, None] & n2[a0:a0 + step, None, :] & n2[None]
            # at each (a, b, k) in C order, the pointwise form before the setwise
            found = np.sort(np.concatenate([2 * np.flatnonzero(hyp & e["pw"]),
                                            2 * np.flatnonzero(setwise) + 1]))
            for f in found[:_MAX_WITNESSES - len(out.violations)]:
                a, b, k = np.unravel_index(f // 2, hyp.shape)
                abk = (a0 + a, b, k)
                v = {"degree": int(g), "form": ("pointwise", "setwise")[f % 2],
                     "P": ideal_info(gr, p)}
                v.update((nm, ideal_info(gr, masks[q])) for nm, q in zip("ABK", abk))
                if f % 2 == 0:
                    ia, ib, ik = (np.flatnonzero(held[q]) for q in abk)
                    hit = first_offender(o[np.ix_(ia, ib)][:, :, None]
                                         & o[np.ix_(ia, ik)][:, None, :] & o[np.ix_(ib, ik)][None])
                    v.update((nm, _elem(gr, X[at[i]]))
                             for nm, at, i in zip("xyz", (ia, ib, ik), hit))
                out.violate(**v)


# P12's six sets, in the sorted order reported, with the census columns
# (x, y, z) = (0, 1, 2) that each one reads
_P12_SETS = {"Pg*Pg*z": (2,), "Pg*y*Pg": (1,), "Pg*y*Re*z": (1, 2),
             "x*Pg*Pg": (0,), "x*Pg*z": (0, 2), "x*Re*y*Pg": (0, 1)}


def _p12_tables(gr: GradedRing, g: int, X: np.ndarray, Pb: np.ndarray) -> dict[str, np.ndarray]:
    """Each set of P12 as a nonzero flag over the census columns it reads.
    A product of two elements of R_g lies in C2 = R_{g^2}, indexed by v."""
    mul, e, m = gr.ring.mul, gr.group.identity, len(X)
    pg = X[Pb[X]]
    xry = classify.sandwich_kernel(gr, g, e, g)                      # x*Re*y
    vrz = classify.sandwich_kernel(gr, gr.group.mul(g, g), e, g)     # v*Re*z
    C2 = xry["T"]
    pos = np.full(gr.order, -1, dtype=np.intp)
    pos[C2] = np.arange(len(C2))
    vq = (mul[np.ix_(C2, pg)] != 0).any(axis=1)          # v*Pg != 0
    qy = pos[mul[np.ix_(pg, X)]]
    in_qy = np.zeros((m, len(C2)), dtype=bool)           # [j, v]: v in Pg*X[j]
    in_qy[np.arange(m)[None, :], qy] = True
    in_xq = np.zeros((m, len(C2)), dtype=bool)           # [i, v]: v in X[i]*Pg
    in_xq[np.arange(m)[:, None], pos[mul[np.ix_(X, pg)]]] = True
    pp = np.unique(mul[np.ix_(pg, pg)])
    return {"Pg*Pg*z": (mul[np.ix_(pp, X)] != 0).any(axis=0),
            "Pg*y*Pg": vq[qy].any(axis=0),
            "Pg*y*Re*z": _meets(in_qy, ~vrz["zero"][vrz["inv"]].T),
            "x*Pg*Pg": (mul[np.ix_(X, pp)] != 0).any(axis=1),
            "x*Pg*z": _meets(in_xq, (mul[np.ix_(C2, X)] != 0).T),
            "x*Re*y*Pg": (xry["U"] & vq).any(axis=1)[xry["inv"]]}


def _check_p12(ctx: RingContext, out: PropertyOutcome) -> None:
    """Each g-triple-zero (x, y, z) of a g-weakly 2-absorbing P annihilates
    the matching slices: x*R_e*y*P_g, P_g*y*R_e*z, x*P_g*z, P_g*P_g*z,
    x*P_g*P_g, and P_g*y*P_g are all zero. Each set depends on at most two
    of x, y, z, so the census is read off six tables per slice."""
    gr = ctx.gr
    for g, p, X, Pb, _, triples in ctx.slices():
        if not len(triples):
            continue
        out.hit(len(triples))
        tables = _p12_tables(gr, g, X, Pb)
        nonzero = np.stack([tables[nm][tuple(triples[:, list(cols)].T)]
                            for nm, cols in _P12_SETS.items()], axis=1)
        for r in np.flatnonzero(nonzero.any(axis=1))[:_MAX_WITNESSES - len(out.violations)]:
            x, y, z = X[triples[r]]
            out.violate(degree=int(g), P=ideal_info(gr, p),
                        x=_elem(gr, x), y=_elem(gr, y), z=_elem(gr, z),
                        nonzero_sets=[nm for nm, f in zip(_P12_SETS, nonzero[r]) if f])


def _check_p13(ctx: RingContext, out: PropertyOutcome) -> None:
    """When the setwise cube of P_g is nonzero, g-weakly and plain g-variants
    agree; when P is g-weakly but not plain, the cube is zero and a
    g-triple-zero exists."""
    gr = ctx.gr
    mul = gr.ring.mul
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        gw, gp = ctx.verdicts("weakly", g).tolist(), ctx.verdicts("plain", g).tolist()
        for p, weakly, plain in zip(ctx.lattice(), gw, gp):
            if p & comp == comp:
                continue
            pg = indices_from_mask(p & comp, gr.order)
            # P_g*P_g*P_g != 0 iff v*c != 0 for a value v of P_g*P_g and c in P_g
            cube_nonzero = bool((mul[np.ix_(np.unique(mul[np.ix_(pg, pg)]), pg)] != 0).any())
            if cube_nonzero:
                out.hit()
                if weakly != plain:
                    out.violate(degree=int(g), P=ideal_info(gr, p),
                                form="nonzero cube", weakly=weakly, plain=plain)
            if weakly and not plain:
                out.hit()
                if cube_nonzero:
                    out.violate(degree=int(g), P=ideal_info(gr, p),
                                form="cube not annihilated")
                elif ctx.census(p, g).count == 0:
                    out.violate(degree=int(g), P=ideal_info(gr, p),
                                form="no triple-zero found")


def _idealizations(ctx: RingContext, out: PropertyOutcome) -> list:
    """ctx.idealizations(); none, with the skip noted on out, without unity
    or when the cap excludes every M."""
    if not ctx.unital:
        out.skipped = "requires unity"
        return []
    found = ctx.idealizations()
    if not found:
        out.skipped = "cap exceeded for every candidate bimodule"
    return found


def _check_p14(ctx: RingContext, out: PropertyOutcome) -> None:
    """P extends to a graded 2-absorbing ideal of the idealization exactly
    when P is graded 2-absorbing. Needs unity."""
    base = ctx.verdicts("plain").tolist()
    for mlabel, _, vectors in _idealizations(ctx, out):
        for p, lhs, rhs in zip(ctx.proper_ideals(), vectors["plain", None].tolist(), base):
            out.hit()
            if lhs != rhs:
                out.violate(module=mlabel, P=ideal_info(ctx.gr, p),
                            idealization_side=lhs, base_side=rhs)


def _check_p15(ctx: RingContext, out: PropertyOutcome) -> None:
    """If the extension of P to the idealization is weakly 2-absorbing, so is
    P itself. Needs unity."""
    w2 = ctx.verdicts("weakly")
    for mlabel, _, vectors in _idealizations(ctx, out):
        for i in np.flatnonzero(vectors["weakly", None]):
            out.hit()
            if not w2[i]:
                out.violate(module=mlabel, P=ideal_info(ctx.gr, ctx.lattice()[i]))


# P16's three module sets, in the sorted order reported, with the census
# columns (x, y, z) = (0, 1, 2) that each one reads
_P16_SETS = {"Mg*Re*y*Re*z": (1, 2), "x*Mg*z": (0, 2), "x*Re*y*Re*Mg": (0, 1)}


def _p16_tables(gr: GradedRing, M: GradedBimodule, g: int) -> dict[str, np.ndarray]:
    """Each module set of P16 as a nonzero flag over the two census columns
    it reads, indexed by positions in X = R_g. A product of two elements of
    R_g lies in C2 = R_{g^2}; a set W*z is nonzero when some w of W has
    w*z != 0, which _meets reads off presence rows of W."""
    mul, e = gr.ring.mul, gr.group.identity
    X, Re = gr.component_indices(g), gr.component_indices(e)
    mg = indices_from_mask(M.components[g], M.order)
    rows = np.arange(len(X))[:, None]
    wz = (M.right[:, X] != 0).T                          # [k, w]: w*X[k] != 0
    ar = np.zeros(M.order, dtype=bool)                   # Mg*Re
    ar[M.right[np.ix_(mg, Re)]] = True
    ary = np.zeros((len(X), M.order), dtype=bool)        # [j, u]: u in Mg*Re*X[j]
    ary[rows, M.right[np.flatnonzero(ar)][:, X].T] = True
    ure = np.zeros((M.order, M.order), dtype=bool)       # [w, u]: w in u*Re
    ure[M.right[:, Re], np.arange(M.order)[:, None]] = True
    xm = np.zeros((len(X), M.order), dtype=bool)         # [i, w]: w in X[i]*Mg
    xm[rows, M.left[np.ix_(X, mg)]] = True
    xry = classify.sandwich_kernel(gr, g, e, g)          # x*Re*y, values in C2
    v_out = (M.left[:, mg] != 0).any(axis=1)[mul[np.ix_(xry["T"], Re)]].any(axis=1)
    return {"Mg*Re*y*Re*z": _meets(_meets(ary, ure), wz),
            "x*Mg*z": _meets(xm, wz),
            "x*Re*y*Re*Mg": (xry["U"] & v_out).any(axis=1)[xry["inv"]]}


def _p16_first(tables: dict[str, np.ndarray], at: np.ndarray) -> tuple[int, list[str]] | None:
    """(row, names): the first census row, as positions in R_g, with a
    nonzero set, and the sorted names of its nonzero sets; None if none."""
    nonzero = np.stack([tables[nm][at[:, a], at[:, b]]
                        for nm, (a, b) in _P16_SETS.items()], axis=1)
    hits = np.flatnonzero(nonzero.any(axis=1))
    if not len(hits):
        return None
    return int(hits[0]), [nm for nm, f in zip(_P16_SETS, nonzero[hits[0]]) if f]


def _check_p16(ctx: RingContext, out: PropertyOutcome) -> None:
    """The extension of P is g-weakly 2-absorbing in the idealization exactly
    when P is g-weakly 2-absorbing and every g-triple-zero (x, y, z) of P
    annihilates the module slices x*Re*y*Re*Mg, Mg*Re*y*Re*z, x*Mg*z. Needs
    unity. Each set depends on two of x, y, z, so a census is read off
    three tables per (M, g), built once a census is nonempty."""
    gr = ctx.gr
    for mlabel, M, vectors in _idealizations(ctx, out):
        tables = {}
        for i, p in enumerate(ctx.lattice()):
            for g in ctx.valid_degrees(p):
                out.hit()
                lhs = bool(vectors["weakly", g][i])
                base = bool(ctx.verdicts("weakly", g)[i])
                detail = None
                triples = ctx.census(p, g).triples if base else ()
                if len(triples):
                    if g not in tables:
                        tables[g] = _p16_tables(gr, M, g)
                    # census entries lie in R_g, whose indices are sorted
                    at = np.searchsorted(gr.component_indices(g), triples)
                    if first := _p16_first(tables[g], at):
                        x, y, z = triples[first[0]]
                        detail = {"x": _elem(gr, x), "y": _elem(gr, y),
                                  "z": _elem(gr, z), "nonzero_sets": first[1]}
                annihilated = detail is None
                rhs = base and annihilated
                if lhs != rhs:
                    out.violate(module=mlabel, degree=int(g),
                                P=ideal_info(gr, p), idealization_side=lhs,
                                base_g_weakly=base, annihilated=annihilated,
                                triple=detail)


def _check_p17(ctx: RingContext, out: PropertyOutcome) -> None:
    """P is strongly weakly 2-absorbing exactly when the triple condition
    holds for triples whose first ideal contains P."""
    gr = ctx.gr
    t = ctx.table()
    for p, lhs in zip(ctx.proper_ideals(), ctx.verdicts("strongly_weakly").tolist()):
        out.hit()
        hit = classify._first_ideal_triple(t, t.inside(p),
                                           np.flatnonzero(t.sub[t.index[p]]))
        rhs = hit is None
        witness = hit and {k: ideal_info(gr, t.masks[i]) for k, i in zip("ABC", hit)}
        if lhs != rhs:
            out.violate(P=ideal_info(gr, p), strongly_weakly=lhs,
                        restricted_triples=rhs, witness=witness)


def _collapse_witness(t: classify.LatticeTable) -> tuple[int, int, int] | None:
    """First (i, j, k) with IJK != 0 and unequal to IJ, IK and JK, from words
    over k: kept[q] packs QK != 0 and QK != Q, differs[x, q] XK != QK."""
    prod, L = t.prod, len(t.masks)
    kept = classify._pack((prod != t.zero) & (prod != np.arange(L)[:, None]))
    step = max(1, classify._BLOCK // (L * L))
    differs = np.concatenate([classify._pack(prod[x:x + step, None, :] != prod[None, :, :])
                              for x in range(0, L, step)])
    for a, ij in classify._triple_blocks(t):
        if hit := classify._first_bit(kept[ij] & differs[a[:, None], ij]
                                      & differs[np.arange(L), ij]):
            return int(a[hit[0]]), hit[1], hit[2]
    return None


def _collapse_law_holds(ctx: RingContext) -> tuple[bool, dict | None]:
    """Every graded ideal triple satisfies IJ == IJK, IK == IJK, JK == IJK,
    or IJK == 0 (as ideals)."""
    t = ctx.table()
    hit = _collapse_witness(t)
    return hit is None, hit and {k: ideal_info(ctx.gr, t.masks[x]) for k, x in zip("IJK", hit)}


def _check_p18(ctx: RingContext, out: PropertyOutcome) -> None:
    """Every proper graded ideal is strongly weakly 2-absorbing exactly when
    the triple-product collapse law holds."""
    out.hit()
    lhs = bool(ctx.verdicts("strongly_weakly")[:-1].all())     # R, the last, is not proper
    rhs, witness = _collapse_law_holds(ctx)
    if lhs != rhs:
        out.violate(all_strongly_weakly=lhs, collapse_law=rhs, witness=witness)


def _check_p19(ctx: RingContext, out: PropertyOutcome) -> None:
    """In rings where every proper graded ideal is strongly weakly
    2-absorbing, each graded ideal has cube equal to its square or to zero."""
    if not ctx.verdicts("strongly_weakly")[:-1].all():     # R, the last, is not proper
        return
    t = ctx.table()
    ii = np.arange(len(t.masks))
    sq = t.prod[ii, ii]
    cube = t.prod[sq, ii]
    out.hit(len(ii))
    for i in np.flatnonzero((cube != sq) & (cube != t.zero)):
        out.violate(I=ideal_info(ctx.gr, t.masks[i]), square_mask=t.masks[sq[i]],
                    cube_mask=t.masks[cube[i]])


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
        return build_document(parse_document(self.spec_text),
                              ring_cap=ring_cap).graded_ring


# base label -> minimal generators of each proper graded two-sided ideal, in
# enumeration order ("" for {0}); tests/test_theorems.py rebuilds it
_BASE_IDEALS = {
    "zn(2)": ("",), "zn(3)": ("",), "zn(4)": ("", "2"), "zn(6)": ("", "3", "2"),
    "zn(8)": ("", "4", "2"), "zn(9)": ("", "3"), "zn(16)": ("", "8", "4", "2"),
    "gaussian(2)": ("",), "gaussian(3)": ("",), "gaussian(4)": ("", "2"),
    "gaussian(8)": ("", "4", "2"),
    "matrix(zn(2), 2)": ("",), "matrix(zn(4), 2)": ("", "[[0,0],[0,2]]"),
    "matrix(zn(8), 2)": ("", "[[0,0],[0,4]]", "[[0,0],[0,2]]"),
    "product(gaussian(2), gaussian(4))": ("", "(0, 2)", "(0, 1)", "(1, 0)", "(1, 2)"),
}

_IDEALIZATION_LABELS = (
    "idealization(gaussian(2), regular)",
    "idealization(zn(4), regular)",
    "idealization(zn(4), quotient([2]))",
)


def default_corpus() -> list[CorpusMember]:
    """Base rings, every quotient of a base ring by a proper graded ideal,
    and a few idealizations, listed without building any of them. Labels
    double as build expressions."""
    labels = [*_BASE_IDEALS,
              *(f"quotient({base}, [{gens}])"
                for base, row in _BASE_IDEALS.items() for gens in row),
              *_IDEALIZATION_LABELS]
    return [CorpusMember(lbl, f"ring: {lbl}") for lbl in labels]


def directory_corpus(path: str) -> list[CorpusMember]:
    """Corpus read from a directory of spec files, sorted by file name. A
    member is labelled by its file's stem, or by the whole file name where
    two files share a stem."""
    files = sorted(f for f in os.listdir(path)
                   if not f.startswith(".")
                   and os.path.isfile(os.path.join(path, f)))
    if not files:
        raise ValueError(f"no spec files in {path!r}")
    stems = Counter(os.path.splitext(f)[0] for f in files)
    members = []
    for fname in files:
        stem = os.path.splitext(fname)[0]
        with open(os.path.join(path, fname), encoding="utf-8") as fh:
            members.append(CorpusMember(stem if stems[stem] == 1 else fname, fh.read()))
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
    out = PropertyOutcome(property_id, ctx.label)
    try:
        check(ctx, out)
    except EnumerationCapError as exc:
        # a fresh outcome: the check may have filled out before the overrun
        return PropertyOutcome(property_id, ctx.label, skipped=str(exc))
    return out


def evaluate_ring(gr: GradedRing, label: str,
                  properties: list[str] | None = None,
                  ideal_cap: int = DEFAULT_IDEAL_CAP,
                  ring_cap: int = DEFAULT_RING_CAP) -> list[PropertyOutcome]:
    ids = list(properties) if properties else list(PROPERTY_IDS)
    ctx = RingContext(gr, label, ideal_cap, ring_cap)
    return [run_property(gr, pid, label, ideal_cap, ring_cap, ctx)
            for pid in ids]


def _member_task(args: tuple) -> list[dict]:
    m, pids, ideal_cap, ring_cap = args
    outs = evaluate_ring(m.build(ring_cap), m.label, pids, ideal_cap, ring_cap)
    return [o.to_dict() for o in outs]


def _map_over_corpus(task, args_list: list[tuple], workers: int,
                     shared: frozenset = frozenset()) -> list:
    """task over args_list in order, with the build memo on for the shared
    subexpression keys: in this process for the call, and in each pool
    worker from its start."""
    # the pool starts all its processes at once, so never more than tasks
    workers = min(workers, len(args_list))
    start_build_memo(shared)
    try:
        if workers <= 1:
            return [task(a) for a in args_list]
        # imported here: only a run with a pool pays for concurrent.futures
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=start_build_memo,
                                 initargs=(shared,)) as pool:
            return list(pool.map(task, args_list))
    finally:
        stop_build_memo()


def _shared(members: list[CorpusMember], ring_cap: int) -> frozenset:
    return shared_subexpressions([m.spec_text for m in members], ring_cap)


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
    members = default_corpus() if corpus is None else corpus
    args = [(m, ids, ideal_cap, ring_cap) for m in members]
    results = _map_over_corpus(_member_task, args, workers, _shared(members, ring_cap))
    rows = []
    total_violations = 0
    for pos, pid in enumerate(ids):
        instances = 0
        violations: list[dict] = []
        skips: list[dict] = []
        for m, outs in zip(members, results):
            o = outs[pos]
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


def _search_member_task(args: tuple) -> dict:
    m, ideal_cap, ring_cap = args
    return search_ring(m.build(ring_cap), m.label, ideal_cap)


def search_ring(gr: GradedRing, label: str,
                ideal_cap: int = DEFAULT_IDEAL_CAP) -> dict:
    """Scan one ring: for every weakly-2-absorbing-but-not-2-absorbing proper
    graded ideal P, test all graded ideal triples A, B, K with 0 != ABK
    inside P for the pairwise conclusion; verify any failure through the raw
    product route before reporting it."""
    ctx = RingContext(gr, label, ideal_cap)
    try:
        t = ctx.table()
    except EnumerationCapError as exc:
        return {"skipped": str(exc), "eligible_ideals": [],
                "counters": {"triples_scanned": 0, "triples_nonzero": 0,
                             "triples_hypothesis": 0},
                "counterexamples": [], "discarded": 0}
    eligible = list(compress(ctx.lattice(), ctx.verdicts("weakly") & ~ctx.verdicts("plain")))
    scanned = nonzero = hypothesis = discarded = 0
    counterexamples: list[dict] = []
    nz = classify._pack(t.prod != t.zero)      # [q]: words over k, QK != 0
    per_p = sum(int(np.bitwise_count(nz[ab]).sum()) for _, ab in classify._triple_blocks(t))
    for p in eligible:
        words = classify._triple_words(t, t.inside(p))
        scanned += len(t.masks) ** 3
        nonzero += per_p
        for rows, ab in classify._triple_blocks(t):
            hypothesis += int(np.bitwise_count(words[0][ab]).sum())
            for i, jb, jk in classify._bits(classify._violations(words, rows, ab)):
                a, b, k = t.masks[rows[i]], t.masks[jb], t.masks[jk]
                if verify_witness(gr, p, "graded_strongly_weakly_2_absorbing",
                                  {"A": {"mask": a}, "B": {"mask": b}, "C": {"mask": k}}):
                    counterexamples.append({
                        "ring": label, "P": ideal_info(gr, p),
                        "A": ideal_info(gr, a), "B": ideal_info(gr, b),
                        "K": ideal_info(gr, k),
                        "product_mask": t.masks[t.prod[ab[i, jb], jk]]})
                else:
                    discarded += 1
    return {
        "eligible_ideals": [ideal_info(gr, p) for p in eligible],
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
    members = default_corpus() if corpus is None else corpus
    args = [(m, ideal_cap, ring_cap) for m in members]
    results = _map_over_corpus(_search_member_task, args, workers, _shared(members, ring_cap))
    counters = {"triples_scanned": 0, "triples_nonzero": 0,
                "triples_hypothesis": 0}
    eligible: list[dict] = []
    counterexamples: list[dict] = []
    skipped: list[dict] = []
    discarded = 0
    for m, r in zip(members, results):
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
                rows.append({"ideal": ideal_info(gr, p), "degree": int(g),
                             "skip": "component covered by the ideal"})
                continue
            census = ctx.census(p, g)
            triples = census.triples.tolist()
            rows.append({
                "ideal": ideal_info(gr, p),
                "degree": int(g),
                "count": census.count,
                "g_weakly_2_absorbing": census.p_is_g_weakly_2_absorbing,
                "triples": triples,
                "triple_names": [[gr.name(x) for x in row] for row in triples],
            })
    return rows
