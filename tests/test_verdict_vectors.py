"""The verdict vectors that the property checks read, one bool per graded
ideal, against the public single-ideal predicates and the raw route.

Each defined entry of every (kind, degree) vector must equal the matching
classify.is_* predicate's value and the verdict recomputed from the raw
kernels (raw_triple_verdicts, raw_g_sandwich_kernels, raw_ideal_verdicts);
each entry where the predicate is undefined (at R, or at P with P_g = R_g)
must be False. The idealization vectors, aligned with the base lattice
through P(+)M, are checked the same way, and must never enumerate R(+)M's
own lattice.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from conftest import (
    ROW_MATRICES_F2,
    build_ring,
    graded_cases,
    raw_g_sandwich_kernels,
    raw_ideal_verdicts,
    raw_triple_verdicts,
)
from ringbench.classify import (
    find_g_triple_zeros,
    is_g_weakly_2_absorbing,
    is_graded_2_absorbing,
    is_graded_strongly_weakly_2_absorbing,
    is_graded_weakly_2_absorbing,
    is_graded_weakly_prime,
)
from ringbench.theorems import RingContext, evaluate_ring

ELEMENT_KINDS = ("plain", "weakly")
IDEAL_KINDS = ("weakly_prime", "strongly_weakly")

_PUBLIC = {"plain": is_graded_2_absorbing, "weakly": is_graded_weakly_2_absorbing,
           "weakly_prime": is_graded_weakly_prime,
           "strongly_weakly": is_graded_strongly_weakly_2_absorbing}
_RAW = {"plain": "graded_2_absorbing", "weakly": "graded_weakly_2_absorbing",
        "weakly_prime": "graded_weakly_prime",
        "strongly_weakly": "graded_strongly_weakly_2_absorbing"}


def _public(gr, p: int, kind: str, g: int | None) -> bool:
    if g is None:
        return _PUBLIC[kind](gr, p).value
    return is_g_weakly_2_absorbing(gr, p, g, kind).value


def _raw(gr, p: int, kind: str, g: int | None) -> bool:
    if kind in IDEAL_KINDS:
        return raw_ideal_verdicts(gr, p)[_RAW[kind]][0]
    if g is None:
        return raw_triple_verdicts(gr, p)[_RAW[kind]]
    k = raw_g_sandwich_kernels(gr, g, p)
    hyp = k["subseteq"] & ~k["pair_any"]
    if kind == "weakly":
        hyp &= ~k["iszero"]
    return not hyp.any()


def check_vectors(gr, masks, vector, kinds, label: str) -> int:
    """vector(kind, g) against the public predicates and the raw route at
    masks, for each kind at g None and, for the element kinds, at every
    degree; returns the number of defined entries checked."""
    full, checked = (1 << gr.order) - 1, 0
    for kind in kinds:
        degrees = [None] + (list(range(gr.group.order)) if kind in ELEMENT_KINDS else [])
        for g in degrees:
            vec = vector(kind, g)
            assert vec.dtype == bool and vec.shape == (len(masks),), (label, kind, g)
            comp = full if g is None else gr.component_mask(g)
            for p, got in zip(masks, vec.tolist()):
                where = (label, kind, g, p)
                if p & comp == comp:
                    assert got is False, where
                    continue
                assert got == _public(gr, p, kind, g) == _raw(gr, p, kind, g), where
                checked += 1
    return checked


def check_context(ctx) -> int:
    checked = check_vectors(ctx.gr, ctx.lattice(), ctx.verdicts,
                            ELEMENT_KINDS + IDEAL_KINDS, ctx.label)
    check_censuses(ctx)
    return checked


def check_censuses(ctx) -> None:
    """Each census's g-weakly bit, which find_g_triple_zeros decides with no
    witness, equals P's entry in verdicts("weakly", g)."""
    for p in ctx.lattice():
        for g in ctx.valid_degrees(p):
            assert find_g_triple_zeros(ctx.gr, p, g).p_is_g_weakly_2_absorbing \
                == ctx.verdicts("weakly", g)[ctx.at(p)], (ctx.label, p, g)


def check_extensions(ctx) -> int:
    """Each idealization's vectors at P(+)M, for P in the base lattice."""
    checked = 0
    for mlabel, _, xc in ctx.idealizations():
        masks = [xc.extension(p) for p in ctx.lattice()]
        checked += check_vectors(xc.gr, masks, lambda kind, g: ctx.extended(xc, kind, g),
                                 ELEMENT_KINDS, f"{ctx.label} by {mlabel}")
    return checked


# matrix(zn(2), 2) and the product: two degrees whose g-weakly vectors differ;
# ROW_MATRICES_F2 is non-commutative and has no two-sided unity
VECTOR_RINGS = ("ring: matrix(zn(2), 2)", "ring: product(gaussian(2), zn(2))",
                ROW_MATRICES_F2)


def check_vector_rings() -> None:
    for text in VECTOR_RINGS:
        assert check_context(RingContext(build_ring(text), text)) > 0, text
    assert check_extensions(RingContext(build_ring("ring: zn(4)"), "zn(4)")) > 0


def test_vectors_match_predicates_and_raw_route():
    check_vector_rings()


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.filter_too_much])
@given(graded_cases().filter(lambda case: case[1].order <= 16))
def test_drawn_vectors_match_predicates_and_raw_route(case):
    expr, gr, _, _ = case
    check_context(RingContext(gr, expr))


def test_idealization_vectors_leave_its_lattice_alone():
    """With the ideal cap at the base lattice's size, P14-P16 run without a
    skip: R(+)M's larger lattice (13, 12 and 9 ideals over zn(8)) is never
    enumerated. Instance counts are those of the per-ideal route."""
    for text, counts in (("ring: zn(8)", [9, 8, 9]),
                         ("ring: product(zn(2), zn(2))", [9, 9, 9])):
        gr = build_ring(text)
        cap = len(RingContext(gr, text).lattice())
        outs = evaluate_ring(gr, text, ["P14", "P15", "P16"], ideal_cap=cap)
        assert [o.skipped for o in outs] == [None] * 3, text
        assert [o.instances for o in outs] == counts, text
