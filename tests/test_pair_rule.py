"""R(+)M on its pair rule against the dense route: products on index sets
against its materialized mul table, its decomposition against the one
folded from its add table, and every ideal check recorded when P is
embedded against check_closure on R(+)M's tables."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings

from conftest import TRIANGULAR_Z2_Z4, build_ring, graded_cases
from ringbench import constructions
from ringbench.grading import GradedRing, Grading, _decomposition_table
from ringbench.groups import make_cyclic
from ringbench.ideals import (
    TWO_SIDED,
    additive_span,
    check_closure,
    graded_defect,
    graded_ideal_masks,
    ideal_check,
)
from ringbench.theorems import RingContext, default_corpus, run_property
from test_idealization_tables import _modules

_ROWS = 512      # rows of R(+)M compared at a time


def check_products(xgr, *context) -> None:
    """products(rows, cols) equals mul[np.ix_(rows, cols)] on every entry,
    read a block of rows at a time, and on unsorted uint16 index sets."""
    ring, n = xgr.ring, xgr.order
    everyone = np.arange(n)
    for r0 in range(0, n, _ROWS):
        rows = everyone[r0:r0 + _ROWS]
        got = ring.products(rows, everyone)
        assert got.dtype == np.uint16, context
        assert np.array_equal(got, ring.mul[rows]), (*context, r0)
    H = xgr.hom_indices()[::-1].astype(np.uint16)
    X = xgr.component_indices(xgr.group.identity)
    assert np.array_equal(ring.products(H, X), ring.mul[np.ix_(H, X)]), context


def check_decomposition(xgr, *context) -> None:
    folded = _decomposition_table(xgr.ring.add, xgr.grading.components, xgr.ring.name)
    assert xgr.decomp.dtype == folded.dtype, context
    assert np.array_equal(xgr.decomp, folded), context
    # any grading but R_g x M_g is folded from R(+)M's add table
    trivial = GradedRing(xgr.ring, Grading(make_cyclic(1), [(1 << xgr.order) - 1]))
    assert np.array_equal(trivial.decomp, np.arange(xgr.order)[:, None]), context


def _subsets(gr, limit: int = 12) -> list[int]:
    """R's graded ideals, and the additive spans of its first elements, which
    are often not ideals (the reals of a gaussian ring) or not graded."""
    spans = [additive_span(gr, [x]) for x in range(min(gr.order, limit))]
    return list(dict.fromkeys(graded_ideal_masks(gr) + tuple(spans)))


def check_recorded(xgr, pmasks, *context) -> int:
    """Embed each P into R(+)M, then ideal_check on P(+)M, whether recorded
    by the embedding or not, equals check_closure's (ok, witness) and, when
    ok, the graded defect, on R(+)M's tables; returns how many were
    recorded."""
    recorded = 0
    for p in pmasks:
        mask = constructions.embed_ideal_in_idealization(xgr, p).mask
        recorded += ("ideal_check", mask) in xgr._cache
        ok, witness = check_closure(xgr, mask, TWO_SIDED)
        expected = (ok, witness, graded_defect(xgr, mask) if ok else None)
        assert ideal_check(xgr, mask) == expected, (*context, p)
    return recorded


def check_idealization(gr, M, pmasks, *context) -> int:
    xgr = constructions._idealization(gr, M)
    assert not {"add", "mul"} & set(vars(xgr.ring)), context    # built only when read
    recorded = check_recorded(xgr, pmasks, *context)
    check_decomposition(xgr, *context)
    check_products(xgr, *context)
    return recorded


def check_default_corpus() -> int:
    """Every idealization of every default-corpus member; returns how many
    P(+)M were recorded."""
    recorded = 0
    for member in default_corpus():
        gr = member.build()
        pmasks = _subsets(gr)
        for mlabel, M, _ in RingContext(gr, member.label).idealizations():
            recorded += check_idealization(gr, M, pmasks, member.label, mlabel)
    return recorded


def test_pair_rule_matches_dense_route_on_the_default_corpus():
    assert check_default_corpus() > 0


def check_ring(gr, label) -> None:
    """Each idealization of gr of order at most 1024, by the regular
    bimodule and every quotient bimodule."""
    pmasks = _subsets(gr, limit=6)
    for M in _modules(gr):
        if gr.order * M.order <= 1024:
            check_idealization(gr, M, pmasks, label, M.label)


# non-commutative rings, where r1 v2 and v2 r1 differ, and gaussian(4),
# whose span of 1 (the reals) is no ideal
EXPLICIT_RINGS = ("ring: matrix(zn(2), 2)", TRIANGULAR_Z2_Z4, "ring: gaussian(4)")


def check_explicit_rings() -> None:
    for spec in EXPLICIT_RINGS:
        check_ring(build_ring(spec), spec)


def test_pair_rule_matches_dense_route_on_explicit_rings():
    check_explicit_rings()


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(graded_cases())
def test_drawn_pair_rule_matches_dense_route(case):
    expr, gr, _, _ = case
    check_ring(gr, expr)


def test_p14_to_p16_leave_the_idealization_tables_unbuilt():
    """Each P(+)M is recorded when embedded, and the kernels read R(+)M's
    products from its pair rule, so neither dense table is built."""
    label = "product(gaussian(2), gaussian(4))"
    ctx = RingContext(build_ring(f"ring: {label}"), label)
    for pid in ("P14", "P15", "P16"):
        out = run_property(ctx.gr, pid, label, ctx=ctx)
        assert out.skipped is None and out.instances > 0, pid
    found = ctx.idealizations()
    assert len(found) == 5
    for mlabel, _, xc in found:
        assert not {"add", "mul"} & set(vars(xc.gr.ring)), mlabel
