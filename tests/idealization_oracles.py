"""The idealization side of P14-P16 by the routes the fast code replaced,
kept as its differential oracle: R(+)M's tables by broadcast digit sums,
P(+)M embedded afresh at every use, and P16's module sets evaluated triple
by triple from the census rows.

The loops read the same RingContext lattices, bimodules and censuses as
the fast path, but build each R(+)M themselves, embed P into it afresh and
ask each verdict of the public classify.is_* predicates, one ideal at a
time, so that they stay independent of the verdict vectors.
"""

from __future__ import annotations

import numpy as np

from ringbench.bitsets import indices_from_mask
from ringbench.classify import (
    ideal_info,
    is_g_weakly_2_absorbing,
    is_graded_2_absorbing,
    is_graded_weakly_2_absorbing,
)
from ringbench.constructions import _idealization, embed_ideal_in_idealization
from ringbench.rings import _digit_sum
from ringbench.theorems import PropertyOutcome, _elem, _idealizations, run_property


def broadcast_pair_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The pair table as the sum of (n1, 1, n1, 1) and (1, n2, 1, n2)
    broadcast digit terms."""
    n1, n2 = len(t1), len(t2)
    return _digit_sum([(t1.astype(np.uint16) * np.uint16(n2))[:, None, :, None],
                       t2.astype(np.uint16)[None, :, None, :]]).reshape(n1 * n2, n1 * n2)


def broadcast_idealization_mul(gr, M) -> np.ndarray:
    """The idealization's mul table: the module part gathered one r1 at a
    time, then r1 r2 added as the high digit in one pass over the whole
    (n, m, n, m) table."""
    n, m = gr.order, M.order
    out = np.empty((n, m, n, m), dtype=np.uint16)
    right = M.right.astype(np.intp)
    for r in range(n):
        sums = np.take(M.add.T, M.left[r], axis=1)
        np.take(sums, right, axis=0, out=out[r])
    out += (gr.ring.mul.astype(np.uint16) * np.uint16(m))[:, None, :, None]
    return out.reshape(n * m, n * m)


def loop_p16_first(gr, M, g: int, triples: np.ndarray):
    """((x, y, z), sorted nonzero set names) for the first census row whose
    module slices are not all zero, or None."""
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    mg = indices_from_mask(M.components[g], M.order)
    for (x, y, z) in triples.tolist():
        xryr = mul[np.ix_(mul[mul[x, Re], y], Re)].ravel()
        mry = M.right[M.right[np.ix_(mg, Re)].ravel(), y]
        mryr = M.right[np.ix_(mry, Re)].ravel()
        sets = {
            "x*Re*y*Re*Mg": M.left[np.ix_(xryr, mg)],
            "Mg*Re*y*Re*z": M.right[mryr, z],
            "x*Mg*z": M.right[M.left[x, mg], z],
        }
        bad = sorted(nm for nm, vals in sets.items() if (np.asarray(vals) != 0).any())
        if bad:
            return (x, y, z), bad
    return None


def loop_p14(ctx) -> PropertyOutcome:
    out = PropertyOutcome("P14", ctx.label)
    for mlabel, M, _ in _idealizations(ctx, out):
        xgr = _idealization(ctx.gr, M)
        for p in ctx.proper_ideals():
            out.hit()
            lhs = is_graded_2_absorbing(xgr, embed_ideal_in_idealization(xgr, p)).value
            rhs = is_graded_2_absorbing(ctx.gr, p).value
            if lhs != rhs:
                out.violate(module=mlabel, P=ideal_info(ctx.gr, p),
                            idealization_side=lhs, base_side=rhs)
    return out


def loop_p15(ctx) -> PropertyOutcome:
    out = PropertyOutcome("P15", ctx.label)
    for mlabel, M, _ in _idealizations(ctx, out):
        xgr = _idealization(ctx.gr, M)
        for p in ctx.proper_ideals():
            pxm = embed_ideal_in_idealization(xgr, p)
            if not is_graded_weakly_2_absorbing(xgr, pxm).value:
                continue
            out.hit()
            if not is_graded_weakly_2_absorbing(ctx.gr, p).value:
                out.violate(module=mlabel, P=ideal_info(ctx.gr, p))
    return out


def loop_p16(ctx) -> PropertyOutcome:
    out = PropertyOutcome("P16", ctx.label)
    gr = ctx.gr
    for mlabel, M, _ in _idealizations(ctx, out):
        xgr = _idealization(ctx.gr, M)
        for p in ctx.lattice():
            pxm = embed_ideal_in_idealization(xgr, p).mask
            for g in ctx.valid_degrees(p):
                out.hit()
                lhs = is_g_weakly_2_absorbing(xgr, pxm, g).value
                base = is_g_weakly_2_absorbing(ctx.gr, p, g).value
                first = loop_p16_first(gr, M, g, ctx.census(p, g).triples) if base else None
                detail = None
                if first:
                    (x, y, z), bad = first
                    detail = {"x": _elem(gr, x), "y": _elem(gr, y),
                              "z": _elem(gr, z), "nonzero_sets": bad}
                annihilated = detail is None
                rhs = base and annihilated
                if lhs != rhs:
                    out.violate(module=mlabel, degree=int(g),
                                P=ideal_info(gr, p), idealization_side=lhs,
                                base_g_weakly=base, annihilated=annihilated,
                                triple=detail)
    return out


LOOPS = {"P14": loop_p14, "P15": loop_p15, "P16": loop_p16}


def differences(ctx) -> dict[str, tuple[dict, dict]]:
    """{property: (fast, loop)} for each of P14-P16 whose outcomes differ
    between the fast path and the loop on ctx's ring; empty when all agree."""
    found = {}
    for pid, loop in LOOPS.items():
        fast = run_property(ctx.gr, pid, ctx.label, ctx=ctx).to_dict()
        slow = loop(ctx).to_dict()
        if fast != slow:
            found[pid] = (fast, slow)
    return found
