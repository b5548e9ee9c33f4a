"""Shared test helpers: spec-built rings and a raw, definition-level route to
the sandwich kernels the classifier computes with its cached fast path."""

from __future__ import annotations

import numpy as np

from ringbench import classify
from ringbench.bitsets import bools_from_mask
from ringbench.specs import build_document, parse_document


def build_ring(text: str):
    return build_document(parse_document(text)).graded_ring


def raw_sandwich_kernels(gr, pmask: int) -> dict:
    """Recompute the classifier's triple kernels straight from the definitions.

    For homogeneous x, y, z (indexed by position in hom_indices order):
      subseteq[i,k,m]  x*R*y*R*z lands inside P, sandwiching over EVERY ring
                       element, not just homogeneous ones
      iszero[i,k,m]    the same sandwich is identically zero
      pair_any[i,k,m]  xy, yz, or xz lands in P
      xyz[i,k,m]       the plain triple product
    """
    n = gr.order
    mul = gr.ring.mul
    H = gr.hom_indices()
    Pb = bools_from_mask(pmask, n)
    # out[a, r, z] = a*r*z for all ring elements
    out = mul[mul]
    in_p2 = Pb[out].all(axis=1)        # a*R*z inside P
    zero2 = (out == 0).all(axis=1)     # a*R*z identically zero
    mid = out[np.ix_(H, np.arange(n), H)]
    subseteq = in_p2[:, H][mid].all(axis=1)
    iszero = zero2[:, H][mid].all(axis=1)
    pp = Pb[mul[np.ix_(H, H)]]
    pair_any = pp[:, :, None] | pp[None, :, :] | pp[:, None, :]
    xyz = mul[mul[np.ix_(H, H)][:, :, None], H[None, None, :]]
    return {"H": H, "Pb": Pb, "subseteq": subseteq, "iszero": iszero,
            "pair_any": pair_any, "xyz": xyz}


def kernel_arrays(gr, pmask: int, g: int | None = None) -> dict:
    """The classifier's fast kernel spelled out in raw_sandwich_kernels'
    layout, over x, y, z in X: hom_indices() for g None, else R_g with
    multipliers from R_e."""
    tk, inside, outside = classify._kernel(gr, g, pmask)
    pp = ~outside
    return {"X": tk["X"], "subseteq": inside[tk["inv"]], "iszero": tk["zero"][tk["inv"]],
            "pair_any": pp[:, :, None] | pp[None, :, :] | pp[:, None, :]}


def raw_g_sandwich_kernels(gr, g: int, pmask: int) -> dict:
    """raw_sandwich_kernels for the degree-local sandwich.

    For x, y, z in R_g (indexed by position in component_indices(g) order),
    with both multipliers running over ALL of R_e:
      subseteq[i,k,m]  x*R_e*y*R_e*z lands inside P
      iszero[i,k,m]    the same sandwich is identically zero
      pair_any[i,k,m]  xy, yz, or xz lands in P
    """
    mul = gr.ring.mul
    Rg = gr.component_indices(g)
    Re = gr.component_indices(gr.group.identity)
    Pb = bools_from_mask(pmask, gr.order)
    # out[a, r, z] = a*r*z for every ring element a, z and r in R_e
    out = mul[mul[:, Re]]
    in_p2 = Pb[out].all(axis=1)        # a*R_e*z inside P
    zero2 = (out == 0).all(axis=1)     # a*R_e*z identically zero
    mid = out[np.ix_(Rg, np.arange(len(Re)), Rg)]
    subseteq = in_p2[:, Rg][mid].all(axis=1)
    iszero = zero2[:, Rg][mid].all(axis=1)
    pp = Pb[mul[np.ix_(Rg, Rg)]]
    pair_any = pp[:, :, None] | pp[None, :, :] | pp[:, None, :]
    return {"Rg": Rg, "subseteq": subseteq, "iszero": iszero, "pair_any": pair_any}


def counted_sandwich_kernels(gr, pmasks):
    """raw_sandwich_kernels' subseteq, iszero and pair_any for several ideals of a ring
    too large for its (h, n, h, h) temporary, yielded per mask.

    present[(x, y), a] marks a in x*R*y (every ring element as multiplier),
    so x*R*y*R*z lands inside a set exactly when no marked a has a*R*z
    outside it: one (h^2, n) x (n, h) product per ideal.
    """
    n = gr.order
    mul = gr.ring.mul
    H = gr.hom_indices()
    h = len(H)
    out = mul[mul]                     # out[a, r, z] = a*r*z
    xry = out[np.ix_(H, np.arange(n), H)].transpose(0, 2, 1).reshape(h * h, n)
    present = np.zeros((h * h, n), dtype=np.float32)
    present[np.arange(h * h)[:, None], xry] = 1

    def inside(ok):                    # ok[a, m]: a*R*H[m] inside the set
        return (present @ (~ok[:, H]).astype(np.float32) == 0).reshape(h, h, h)

    iszero = inside((out == 0).all(axis=1))
    for pmask in pmasks:
        Pb = bools_from_mask(pmask, n)
        pp = Pb[mul[np.ix_(H, H)]]
        yield pmask, {"subseteq": inside(Pb[out].all(axis=1)), "iszero": iszero,
                      "pair_any": pp[:, :, None] | pp[None, :, :] | pp[:, None, :]}


def raw_triple_verdicts(gr, pmask: int) -> dict:
    """Plain/weakly/completely-weakly verdicts recomputed from the raw route."""
    k = raw_sandwich_kernels(gr, pmask)
    plain = not (k["subseteq"] & ~k["pair_any"]).any()
    weakly = not (k["subseteq"] & ~k["iszero"] & ~k["pair_any"]).any()
    cw = not (k["Pb"][k["xyz"]] & (k["xyz"] != 0) & ~k["pair_any"]).any()
    return {"graded_2_absorbing": plain,
            "graded_weakly_2_absorbing": weakly,
            "graded_completely_weakly_2_absorbing": cw}
