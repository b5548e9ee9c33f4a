"""Shared test helpers: spec-built rings, a strategy of graded cases, and a
raw, definition-level route to the sandwich kernels the classifier computes
with its cached fast path. Every hypothesis test runs under one derandomized,
deadline-free profile, so a tier-1 run is reproducible."""

from __future__ import annotations

import itertools
import signal
from contextlib import contextmanager

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from ringbench import classify, ideals
from ringbench.bitsets import bools_from_mask
from ringbench.ideals import (
    LEFT,
    RIGHT,
    SUBGROUP_ONLY,
    TWO_SIDED,
    additive_span,
    check_closure,
    generate_ideal,
    ideal_product,
    ideal_sum,
)
from ringbench.specs import build_document, parse_document

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@contextmanager
def ends_within(seconds: int):
    """Fail, rather than hang, when the body runs longer than seconds."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def build_ring(text: str):
    return build_document(parse_document(text)).graded_ring


def _table_spec(moduli, mul) -> str:
    """A table-ring spec on tuples mod moduli (first coordinate fastest),
    added coordinatewise, multiplied by mul."""
    elements = [t[::-1] for t in itertools.product(*(range(m) for m in moduli[::-1]))]
    idx = {e: i for i, e in enumerate(elements)}

    def table(op):
        return [[idx[op(x, y)] for y in elements] for x in elements]

    add = table(lambda x, y: tuple((u + v) % m for u, v, m in zip(x, y, moduli)))
    return f"ring: table({add}, {table(mul)})".replace(" ", "")


# [[a, b], [0, 0]] over F_2: a left unity only; 5 left, 3 right, 3 two-sided ideals
ROW_MATRICES_F2 = _table_spec((2, 2), lambda x, y: (x[0] * y[0], x[0] * y[1]))
# [[a, b], [0, d]] over F_2: unital, non-commutative, I*J != J*I for two-sided ideals
UPPER_TRIANGULAR_F2 = _table_spec(
    (2, 2, 2), lambda x, y: (x[0] * y[0], (x[0] * y[1] + x[1] * y[2]) % 2, x[2] * y[2]))
# [[a, b], [0, d]] with a, b mod 2 and d mod 4: 8 two-sided, 12 left and 11 right
# ideals, and a strongly weakly violation with (A*B)*C != (A*C)*B
TRIANGULAR_Z2_Z4 = _table_spec(
    (2, 2, 4), lambda x, y: (x[0] * y[0], (x[0] * y[1] + x[1] * y[2]) % 2,
                             x[2] * y[2] % 4))


SMALL_RINGS = [
    "ring: zn(8)",
    "ring: zn(12)",
    "ring: gaussian(3)",
    "ring: gaussian(4)",
    "ring: matrix(zn(2), 2)",
    "ring: product(zn(2), zn(4))",
    "ring: idealization(zn(4), regular)",
]


_LEAVES = [f"zn({n})" for n in range(2, 9)] + ["gaussian(2)"]


@st.composite
def graded_cases(draw):
    """A spec-built ring of order <= 64, optionally a quotient by a drawn
    homogeneous non-unit, a graded ideal (proper when there is one) and a
    degree (one the ideal leaves uncovered when there is one)."""
    expr = draw(st.one_of(
        st.integers(2, 64).map(lambda n: f"zn({n})"),
        st.integers(2, 8).map(lambda n: f"gaussian({n})"),
        st.just("matrix(zn(2), 2)"),
        st.tuples(st.sampled_from(_LEAVES), st.sampled_from(_LEAVES))
          .map(lambda ab: f"product({ab[0]}, {ab[1]})")))
    gr = build_ring("ring: " + expr)
    full = (1 << gr.order) - 1
    nonunits = [x for x in gr.hom_indices().tolist()
                if x and generate_ideal(gr, [x]).mask != full]
    if nonunits and draw(st.booleans()):
        x = draw(st.sampled_from(nonunits))
        expr = f"quotient({expr}, [{gr.name(x)}])"
        gr = build_ring("ring: " + expr)
        full = (1 << gr.order) - 1
    lattice = ideals.enumerate_graded_ideals(gr)
    sub = draw(st.sampled_from([s for s in lattice if s.mask != full] or lattice))
    degrees = [g for g in range(gr.group.order)
               if sub.mask & gr.component_mask(g) != gr.component_mask(g)]
    return expr, gr, sub, draw(st.sampled_from(degrees or [0]))


SIDEDNESSES = (TWO_SIDED, LEFT, RIGHT, SUBGROUP_ONLY)


def assert_closure_matches_scan(gr, mask, *context):
    """check_closure's (ok, witness) is the ordered scan's, for every
    sidedness."""
    for sidedness in SIDEDNESSES:
        assert check_closure(gr, mask, sidedness) == \
            ideals._first_closure_failure(gr, mask, sidedness), (*context, mask, sidedness)


def raw_closure(gr, seeds, left: bool, right: bool) -> int:
    """Mask of the smallest set holding 0 and the seeds that is closed under
    pairwise sums (until stable, as classify._raw_span) and then under
    products with every ring element per the flags, repeated to a fixpoint."""
    add, mul = gr.ring.add, gr.ring.mul
    everyone = np.arange(gr.order)
    flags = np.zeros(gr.order, dtype=bool)
    flags[[0, *seeds]] = True
    while True:
        idx = np.flatnonzero(flags)
        new = add[np.ix_(idx, idx)].ravel()
        if flags[new].all():
            new = np.concatenate([
                mul[np.ix_(everyone, idx)].ravel() if left else idx,
                mul[np.ix_(idx, everyone)].ravel() if right else idx])
            if flags[new].all():
                return sum(1 << int(x) for x in idx)
        flags[new] = True


def assert_spans_match_raw_fixpoint(gr, xs, ys, *context):
    """additive_span of xs, and generate_ideal, ideal_product and ideal_sum
    of the ideals xs and ys generate under every sidedness, equal
    raw_closure."""
    assert additive_span(gr, xs) == raw_closure(gr, xs, False, False), (*context, xs)
    for sidedness in SIDEDNESSES:
        left, right = ideals._flags(sidedness)
        a, b = generate_ideal(gr, xs, sidedness), generate_ideal(gr, ys, sidedness)
        assert a.mask == raw_closure(gr, xs, left, right), (*context, xs, sidedness)
        prods = gr.ring.mul[np.ix_(a.indices(gr.order), b.indices(gr.order))]
        product, total = ideal_product(gr, a, b), ideal_sum(gr, a, b)
        assert (product.mask, product.sidedness) == \
            (raw_closure(gr, np.unique(prods), False, False), sidedness), (*context, xs, ys)
        assert (total.mask, total.sidedness) == \
            (raw_closure(gr, [*xs, *ys], left, right), sidedness), (*context, xs, ys)


def _all_over_middle(ok: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """[i, k, m]: ok[mid[i, r, k], m] for every r, one i at a time, so the
    peak is one (r, k, m) slice rather than the whole (i, r, k, m) array."""
    return np.stack([ok[mid_i].all(axis=0) for mid_i in mid])


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
    subseteq = _all_over_middle(in_p2[:, H], mid)
    iszero = _all_over_middle(zero2[:, H], mid)
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
    subseteq = _all_over_middle(in_p2[:, Rg], mid)
    iszero = _all_over_middle(zero2[:, Rg], mid)
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


def raw_ideal_verdicts(gr, pmask: int) -> dict:
    """(value, witness masks) for graded prime, graded weakly prime and graded
    strongly weakly 2-absorbing, by the definitions' loops over the graded
    ideal lattice in mask order, every ideal product recomputed from all
    members by raw_product_mask. The witness is the first violation met."""
    masks = [s.mask for s in ideals.enumerate_graded_ideals(gr)]
    products: dict = {}

    def prod(a: int, b: int) -> int:
        if (a, b) not in products:
            products[a, b] = classify.raw_product_mask(gr, a, b)
        return products[a, b]

    def inside(m: int) -> bool:
        return m & ~pmask == 0

    def first(violations):
        return next(((False, w) for w in violations), (True, None))

    out = {}
    for kind, weakly in (("graded_prime", False), ("graded_weakly_prime", True)):
        out[kind] = first({"I": i, "J": j, "product": prod(i, j)}
                          for i in masks for j in masks
                          if not inside(i) and not inside(j) and inside(prod(i, j))
                          and not (weakly and prod(i, j) == 1))
    out["graded_strongly_weakly_2_absorbing"] = first(
        {"A": a, "B": b, "C": c, "product": prod(prod(a, b), c)}
        for a in masks for b in masks for c in masks
        if prod(prod(a, b), c) != 1 and inside(prod(prod(a, b), c))
        and not inside(prod(a, b)) and not inside(prod(a, c))
        and not inside(prod(b, c)))
    return out


def loop_search(gr, eligible: list[int]) -> tuple[dict, list[tuple]]:
    """search_ring's counters and counterexamples (P, A, B, K, ABK masks) by
    the definition's loops, every product from raw_product_mask."""
    masks = [s.mask for s in ideals.enumerate_graded_ideals(gr)]
    products: dict = {}

    def prod(a, b):
        if (a, b) not in products:
            products[a, b] = classify.raw_product_mask(gr, a, b)
        return products[a, b]

    counters = {"triples_scanned": 0, "triples_nonzero": 0, "triples_hypothesis": 0}
    found = []
    for p in eligible:
        for a in masks:
            for b in masks:
                for k in masks:
                    counters["triples_scanned"] += 1
                    abk = prod(prod(a, b), k)
                    if abk == 1:
                        continue
                    counters["triples_nonzero"] += 1
                    if abk & ~p:
                        continue
                    counters["triples_hypothesis"] += 1
                    if all(m & ~p for m in (prod(a, b), prod(a, k), prod(b, k))):
                        found.append((p, a, b, k, abk))
    return counters, found
