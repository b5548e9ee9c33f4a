"""The degree-slice properties P10-P12 as loops over ideal triples and census
rows: the definitions the table expressions in ringbench.theorems replace,
kept as their differential oracle.

Each oracle reads the same RingContext memos (lattices, g-weakly verdict
vectors, censuses) as the fast path, so a monkeypatched verdict or census
reaches both routes alike.
"""

from __future__ import annotations

import numpy as np

from ringbench import classify
from ringbench.bitsets import indices_from_mask
from ringbench.classify import GTripleZeroCensus, ideal_info
from ringbench.ideals import LEFT
from ringbench.theorems import PropertyOutcome, RingContext, _elem, run_property


def loop_p10(ctx) -> PropertyOutcome:
    out = PropertyOutcome("P10", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    lefts = ctx.one_sided(LEFT)
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        Rg = gr.component_indices(g)
        posRg = np.full(gr.order, -1, dtype=np.int64)
        posRg[Rg] = np.arange(len(Rg))
        # the value sets Rg[i] * Re * Rg[j], inside the g*g component C2
        xry = classify.sandwich_kernel(gr, g, gr.group.identity, g)
        C2 = xry["T"]
        for p, gw in zip(ctx.lattice(), ctx.verdicts("weakly", g)):
            if p & comp == comp or not gw:
                continue
            Pb = ctx.pb(p)
            pp = Pb[mul[np.ix_(Rg, Rg)]]
            tz = ctx.census(p, g).triples
            for k in lefts:
                kg = indices_from_mask(k & comp, gr.order)
                ok_c2 = Pb[mul[np.ix_(C2, kg)]].all(axis=1)
                sandwich_in = classify._none_in(xry["U"], ~ok_c2)[xry["inv"]]
                xk_in = Pb[mul[np.ix_(Rg, kg)]].all(axis=1)
                hyp = sandwich_in & ~pp
                if len(tz):     # drop (x, y) of a triple-zero (x, y, z), z in K_g
                    zk = tz[ctx.pb(k)[tz[:, 2]]]
                    hyp[posRg[zk[:, 0]], posRg[zk[:, 1]]] = False
                out.hit(int(hyp.sum()))
                viol = hyp & ~(xk_in[:, None] | xk_in[None, :])
                if viol.any():
                    i, j = np.argwhere(viol)[0]
                    out.violate(degree=int(g), P=ideal_info(gr, p),
                                K=ideal_info(gr, k),
                                x=_elem(gr, Rg[i]), y=_elem(gr, Rg[j]))
    return out


def loop_p11(ctx) -> PropertyOutcome:
    out = PropertyOutcome("P11", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    lattice = ctx.lattice()
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        for p, gw in zip(lattice, ctx.verdicts("weakly", g)):
            if p & comp == comp or not gw:
                continue
            Pb = ctx.pb(p)
            tz = ctx.census(p, g).triples
            for a in lattice:
                ag = indices_from_mask(a & comp, gr.order)
                for b in lattice:
                    bg = indices_from_mask(b & comp, gr.order)
                    ab_vals = mul[np.ix_(ag, bg)]
                    pab = Pb[ab_vals]
                    ab_tz = len(tz) and ctx.pb(a)[tz[:, 0]] & ctx.pb(b)[tz[:, 1]]
                    for k in lattice:
                        kg = indices_from_mask(k & comp, gr.order)
                        t = mul[ab_vals.ravel()[:, None], kg]
                        if not Pb[t].all():
                            continue
                        if len(tz) and (ab_tz & ctx.pb(k)[tz[:, 2]]).any():
                            continue    # a g-triple-zero of P lies in A x B x K
                        pak = Pb[mul[np.ix_(ag, kg)]]
                        pbk = Pb[mul[np.ix_(bg, kg)]]
                        # pointwise conclusion, no nonzero hypothesis needed
                        out.hit()
                        pointwise = (pab[:, :, None] | pak[:, None, :]
                                     | pbk[None, :, :])
                        if not pointwise.all():
                            i, j, l = np.argwhere(~pointwise)[0]
                            out.violate(degree=int(g), form="pointwise",
                                        P=ideal_info(gr, p), A=ideal_info(gr, a),
                                        B=ideal_info(gr, b), K=ideal_info(gr, k),
                                        x=_elem(gr, ag[i]), y=_elem(gr, bg[j]),
                                        z=_elem(gr, kg[l]))
                        if not (t != 0).any():
                            continue
                        out.hit()
                        if not (pak.all() or pbk.all() or pab.all()):
                            out.violate(degree=int(g), form="setwise",
                                        P=ideal_info(gr, p), A=ideal_info(gr, a),
                                        B=ideal_info(gr, b), K=ideal_info(gr, k))
    return out


def loop_p12(ctx) -> PropertyOutcome:
    out = PropertyOutcome("P12", ctx.label)
    gr = ctx.gr
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    for g in range(gr.group.order):
        comp = gr.component_mask(g)
        for p, gw in zip(ctx.lattice(), ctx.verdicts("weakly", g)):
            if p & comp == comp or not gw:
                continue
            pg = indices_from_mask(p & comp, gr.order)
            pp = mul[np.ix_(pg, pg)].ravel()
            for (x, y, z) in ctx.census(p, g).triples.tolist():
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
                    out.violate(degree=int(g), P=ideal_info(gr, p),
                                x=_elem(gr, x), y=_elem(gr, y), z=_elem(gr, z),
                                nonzero_sets=failed)
    return out


LOOPS = {"P10": loop_p10, "P11": loop_p11, "P12": loop_p12}


def differences(gr, label: str = "ring") -> dict[str, tuple[dict, dict]]:
    """{property: (fast, loop)} for each of P10-P12 whose table expression
    and loop give different outcomes on gr; empty when all three agree."""
    ctx = RingContext(gr, label)
    found = {}
    for pid, loop in LOOPS.items():
        fast, slow = run_property(gr, pid, label, ctx=ctx).to_dict(), loop(ctx).to_dict()
        if fast != slow:
            found[pid] = (fast, slow)
    return found


def widen_census(monkeypatch, extra: int = 24) -> None:
    """Make every census also hold about extra triples of R_g, spread evenly
    over R_g^3 and mostly not triple-zeros, in lexicographic order as a
    census keeps them, so that P12's sets fire and P10 and P11 drop more."""
    census = RingContext.census

    def widened(self, p: int, g: int) -> GTripleZeroCensus:
        def build():
            real = census(self, p, g)
            X = self.gr.component_indices(g)
            m = len(X)
            flat = np.arange(0, m ** 3, max(1, m ** 3 // extra))
            spread = X[np.stack(np.unravel_index(flat, (m, m, m)), axis=1)]
            rows = np.unique(np.concatenate([real.triples, spread.astype(np.uint16)]), axis=0)
            return GTripleZeroCensus(g, rows, real.p_is_g_weakly_2_absorbing)
        return self._memo(("widened census", p, g), build)

    monkeypatch.setattr(RingContext, "census", widened)


def force_g_weakly(monkeypatch) -> None:
    """Take every ideal P as g-weakly 2-absorbing at every degree g with
    P_g != R_g, which makes the hypotheses of P10 and P11 fire."""
    verdicts = RingContext.verdicts

    def forced(self, kind: str, g: int | None = None) -> np.ndarray:
        if kind != "weakly" or g is None:
            return verdicts(self, kind, g)
        comp = self.gr.component_mask(g)
        return np.array([p & comp != comp for p in self.lattice()])

    monkeypatch.setattr(RingContext, "verdicts", forced)
