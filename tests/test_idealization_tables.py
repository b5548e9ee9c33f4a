"""The idealization side of P14-P16 against the routes it replaced
(tests/idealization_oracles.py): R(+)M's tables and names, the one
embedding of P into each R(+)M, P16's per-(M, g) tables, and that one
R(+)M at a time is alive while its verdict vectors are filled."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import TRIANGULAR_Z2_Z4, build_ring, graded_cases
from idealization_oracles import (
    broadcast_idealization_mul,
    broadcast_pair_table,
    differences,
    loop_p16_first,
)
from ringbench import constructions, rings, theorems
from ringbench.bitsets import indices_from_mask
from ringbench.constructions import (
    embed_ideal_in_idealization,
    idealization_subset,
    make_quotient,
    quotient_bimodule,
    regular_bimodule,
)
from ringbench.ideals import enumerate_graded_ideals
from ringbench.theorems import RingContext, default_corpus, evaluate_ring, run_property

# 2Z_8 = {0, 2, 4, 6}: Z_4 with x*y = 2xy, which has no unity
NON_UNITAL = ("ring: table([[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], "
              "[[0,0,0,0],[0,2,0,2],[0,0,0,0],[0,2,0,2]])")


def _modules(gr) -> list:
    """The regular bimodule and the quotient bimodule by every proper
    nonzero graded ideal, whatever their idealization's order."""
    full = (1 << gr.order) - 1
    return [regular_bimodule(gr)] + [
        quotient_bimodule(make_quotient(gr, K)) for K in enumerate_graded_ideals(gr)
        if K.mask not in (1, full)]


def _same_table(got: np.ndarray, expected: np.ndarray, *context) -> None:
    assert got.dtype == expected.dtype == np.uint16, context
    assert got.flags.c_contiguous, context
    assert got.tobytes() == expected.tobytes(), context


def check_idealization_tables(gr, M, *context) -> None:
    """R(+)M's add and mul tables and names, built in the package, equal the
    broadcast oracle's tables and the per-element names."""
    _same_table(rings._pair_table(gr.ring.add, M.add),
                broadcast_pair_table(gr.ring.add, M.add), *context, "pair add")
    _same_table(constructions._idealization_mul(gr, M),
                broadcast_idealization_mul(gr, M), *context, "mul")
    X = constructions._idealization(gr, M).ring
    _same_table(X.add, broadcast_pair_table(gr.ring.add, M.add), *context, "add")
    assert X.element_names == [f"({gr.ring.name(r)}, {M.name(v)})"
                               for r in range(gr.order) for v in range(M.order)], context


def check_product_tables(r1, r2, *context) -> None:
    for op in ("add", "mul"):
        t1, t2 = getattr(r1, op), getattr(r2, op)
        _same_table(rings._pair_table(t1, t2), broadcast_pair_table(t1, t2), *context, op)


EXPLICIT_CASES = (
    ("gaussian(8)", "regular"),                          # (64, 64)
    ("matrix(zn(4), 2)", "quotient([[[0,0],[0,2]]])"),   # (256, 16)
)


def check_explicit_tables() -> None:
    """The pinned cases, zn(3), a non-unital table base and a product
    base, with each of their bimodules, and the pair tables of products
    whose factors differ in order and in tables."""
    for label, mlabel in EXPLICIT_CASES:
        ctx = RingContext(build_ring(f"ring: {label}"), label)
        (M,) = [M for ml, M, _ in ctx.idealizations() if ml == mlabel]
        check_idealization_tables(ctx.gr, M, label, mlabel)
    for spec in ("ring: zn(3)", NON_UNITAL, "ring: product(zn(2), zn(3))"):
        gr = build_ring(spec)
        for M in _modules(gr):
            check_idealization_tables(gr, M, spec, M.label)
    for a, b in (("zn(3)", "zn(4)"), ("gaussian(2)", "zn(2)"), ("matrix(zn(2), 2)", "zn(3)")):
        check_product_tables(build_ring(f"ring: {a}").ring, build_ring(f"ring: {b}").ring, a, b)
    check_product_tables(build_ring(NON_UNITAL).ring, build_ring("ring: zn(5)").ring, "2Z_8")


def test_idealization_tables_match_broadcast_oracle():
    check_explicit_tables()


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(graded_cases())
def test_drawn_idealization_tables_match_broadcast_oracle(case):
    expr, gr, _, _ = case
    for M in _modules(gr):
        if gr.order * M.order <= 1024:
            check_idealization_tables(gr, M, expr, M.label)
    check_product_tables(gr.ring, build_ring("ring: zn(3)").ring, expr)


def shift_idealization_subset(pmask: int, module_mask: int, n: int, m: int) -> int:
    """The subset of R x M by shifts of Python ints, one per member of P."""
    mask = 0
    for p in indices_from_mask(pmask, n):
        mask |= module_mask << (int(p) * m)
    return mask


def check_extensions(ctx) -> None:
    """ctx.idealizations() embeds each P of the lattice once into each
    R(+)M, in lattice order, and P(+)M's bits are the shift oracle's."""
    embedded = []

    def embed(xgr, p):
        emb = embed_ideal_in_idealization(xgr, p)
        embedded.append((xgr.ring.module, p, emb.mask))
        return emb

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "embed_ideal_in_idealization", embed)
        found = ctx.idealizations()
    assert [(id(M), p) for M, p, _ in embedded] == \
        [(id(M), p) for _, M, _ in found for p in ctx.lattice()], ctx.label
    for M, p, mask in embedded:
        assert mask == shift_idealization_subset(p, (1 << M.order) - 1,
                                                 ctx.gr.order, M.order), (ctx.label, M.label, p)


EXTENSION_RINGS = ("zn(4)", "zn(16)", "gaussian(8)", "product(gaussian(2), gaussian(4))")


def test_extensions_are_embedded_once_per_idealization():
    for label in EXTENSION_RINGS:
        check_extensions(RingContext(build_ring(f"ring: {label}"), label))
    for p in (0b1, 0b1001001001, (1 << 12) - 1):
        for module_mask in (0b1, 0b101, 0b1111):
            assert idealization_subset(p, module_mask, 12, 4) == \
                shift_idealization_subset(p, module_mask, 12, 4)


def test_p14_to_p16_match_their_loops():
    """Whole outcomes of P14-P16 by the fast path and the loops, which embed
    afresh and walk census rows, on rings with several bimodules each."""
    for label in EXTENSION_RINGS + ("matrix(zn(2), 2)",):
        assert differences(RingContext(build_ring(f"ring: {label}"), label)) == {}, label


def _fast_first(gr, M, g, triples, tables=None):
    """theorems' (first triple, nonzero set names) of a census, or None."""
    tables = theorems._p16_tables(gr, M, g) if tables is None else tables
    first = theorems._p16_first(tables, np.searchsorted(gr.component_indices(g), triples))
    return first and (tuple(int(v) for v in triples[first[0]]), first[1])


def _loop_first(gr, M, g, triples):
    first = loop_p16_first(gr, M, g, triples)
    return first and (tuple(first[0]), first[1])


def check_p16_census(ctx, modules) -> int:
    """(first triple, nonzero_sets) of every census of P and g with P_g !=
    R_g, whatever P's verdict, by tables and by the loop; returns how many
    slices have a nonzero set."""
    found = 0
    for M in modules:
        for p in ctx.lattice():
            for g in ctx.valid_degrees(p):
                triples = ctx.census(p, g).triples
                if len(triples):
                    got = _fast_first(ctx.gr, M, g, triples)
                    assert got == _loop_first(ctx.gr, M, g, triples), (ctx.label, M.label, p, g)
                    found += got is not None
    return found


def check_p16_rows(gr, modules, per_degree: int = 40) -> None:
    """The sets of about per_degree triples of R_g spread over R_g^3, most
    of them no triple-zero, row by row, so every flag of each table is
    compared, not only the first row that has one."""
    for M in modules:
        for g in range(gr.group.order):
            X = gr.component_indices(g)
            m = len(X)
            flat = np.arange(0, m ** 3, max(1, m ** 3 // per_degree))
            rows = X[np.stack(np.unravel_index(flat, (m, m, m)), axis=1)].astype(np.uint16)
            tables = theorems._p16_tables(gr, M, g)
            for r in range(len(rows)):
                got = _fast_first(gr, M, g, rows[r:r + 1], tables)
                assert got == _loop_first(gr, M, g, rows[r:r + 1]), (M.label, g, rows[r])


def test_p16_tables_match_the_loop_on_the_default_corpus():
    """Every slice of each unital default-corpus member with each of its
    idealizations' bimodules; 41 of the 402 have a nonzero set."""
    found = 0
    for member in default_corpus():
        gr = member.build()
        if gr.ring.unity is not None:
            ctx = RingContext(gr, member.label)
            found += check_p16_census(ctx, [M for _, M, _ in ctx.idealizations()])
    assert found == 41


# non-commutative but for zn(8), so x*Mg*z and Mg*Re*y*Re*z differ
P16_ROW_RINGS = ("ring: matrix(zn(2), 2)", "ring: matrix(zn(3), 2)", "ring: zn(8)",
                 TRIANGULAR_Z2_Z4)


def check_p16_row_rings() -> None:
    for spec in P16_ROW_RINGS:
        gr = build_ring(spec)
        check_p16_rows(gr, _modules(gr))


def test_p16_tables_match_the_loop_row_by_row():
    check_p16_row_rings()


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(graded_cases())
def test_drawn_p16_tables_match_the_loop(case):
    expr, gr, _, _ = case
    modules = _modules(gr)
    check_p16_census(RingContext(gr, expr), modules)
    check_p16_rows(gr, modules, per_degree=12)


def alive_at_each_build(label: str) -> tuple[list[int], int]:
    """P14-P16 on a fresh context of label's ring: how many R(+)M are alive,
    the new one included, as each is built, and how many once all three
    have run. Cyclic garbage is not collected meanwhile, so an R(+)M counts
    as dropped only when its last reference is."""
    refs, alive = [], []
    init = constructions.IdealizationRing.__init__

    def tracked(self, *args):
        alive.append(1 + sum(r() is not None for r in refs))
        refs.append(weakref.ref(self))
        init(self, *args)

    ctx = RingContext(build_ring(f"ring: {label}"), label)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions.IdealizationRing, "__init__", tracked)
            for pid in ("P14", "P15", "P16"):
                assert run_property(ctx.gr, pid, label, ctx=ctx).skipped is None, pid
    finally:
        if gc_was_enabled:
            gc.enable()
    return alive, sum(r() is not None for r in refs)


def test_one_idealization_alive_at_a_time():
    """Each R(+)M is dropped before the next is built, and none outlives
    the run: only verdict vectors and bimodules stay in the memo."""
    for label, count in (("zn(8)", 3), ("product(zn(4), product(zn(2), zn(4)))", 17)):
        alive, after = alive_at_each_build(label)
        assert alive == [1] * count, label
        assert after == 0, label


def test_p14_to_p16_agree_whichever_runs_first():
    """Whichever of P14-P16 runs first on a fresh context fills every
    idealization vector; each order gives evaluate_ring's outcomes."""
    pids = ["P14", "P15", "P16"]
    for label in ("zn(8)", "matrix(zn(2), 2)", "product(gaussian(2), zn(2))"):
        gr = build_ring(f"ring: {label}")
        expected = [o.to_dict() for o in evaluate_ring(gr, label, pids)]
        for first in pids:
            ctx = RingContext(gr, label)
            got = {pid: run_property(gr, pid, label, ctx=ctx).to_dict()
                   for pid in [first] + [p for p in pids if p != first]}
            assert [got[pid] for pid in pids] == expected, (label, first)
