"""Validators against fixed expectations: golden (failure, witness) pairs on
corrupted tables, a byte-level `validate --report`, and a brute-force
bimodule oracle written from the definitions."""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import SMALL_RINGS, build_ring, ends_within
from hypothesis import given, settings
from hypothesis import strategies as st
from ringbench import cli, constructions, grading, ideals, specs
from ringbench.constructions import (
    BimoduleError,
    GradedBimodule,
    GradedRingHom,
    HomError,
    make_graded_hom,
    make_idealization,
    make_quotient,
    quotient_bimodule,
    regular_bimodule,
    validate_bimodule,
    validate_graded_hom,
)
from ringbench.grading import (
    GradedRing,
    Grading,
    GradingError,
    attach_grading,
    make_gaussian_grading,
    validate_grading,
)
from ringbench.groups import FiniteGroup, make_cyclic, make_product_group, validate_group
from ringbench.ideals import IdealSubset, enumerate_graded_ideals, generate_ideal
from ringbench.rings import (
    DEFAULT_RING_CAP,
    FiniteRing,
    find_unity,
    make_gaussian,
    make_matrix_ring,
    make_product_ring,
    make_table_ring,
    make_zn,
    validate_ring,
)
from ringbench.specs import ParseError, build_document, parse_document
from ringbench.theorems import RingContext, run_property

# ---------------------------------------------------------------------------
# golden (failure, witness) pairs; each case generator yields inputs in a
# fixed order and the lists below are what the validators reported on them


def corrupted_rings():
    """The seeded zn(8) corruptions of test_validator_matches_brute_force_on_
    corrupted_tables, seeded matrix(zn(2), 2) ones, and one case per other
    failure."""
    rng = np.random.default_rng(7)
    base = make_zn(8)
    for _ in range(25):
        add = base.add.copy()
        mul = base.mul.copy()
        which = rng.integers(0, 2)
        x, y = rng.integers(0, 8, size=2)
        delta = int(rng.integers(1, 8))
        if which == 0:
            add[x, y] = (add[x, y] + delta) % 8
        else:
            mul[x, y] = (mul[x, y] + delta) % 8
        try:
            yield make_table_ring(add, mul)
        except ValueError:
            continue
    rng = np.random.default_rng(11)
    base = make_matrix_ring(make_zn(2), 2)
    for _ in range(15):
        tabs = [base.add.copy(), base.mul.copy()]
        which = int(rng.integers(0, 2))
        x, y = rng.integers(0, 16, size=2)
        tabs[which][x, y] = (tabs[which][x, y] + int(rng.integers(1, 16))) % 16
        try:
            yield make_table_ring(*tabs)
        except ValueError:
            continue
    yield from crafted_rings()


def crafted_rings():
    """One table ring or wrapper per remaining failure of validate_ring."""
    z4 = make_zn(4)
    # F_2^2 with index a + 2b; bilinear, not associative: e1e1 = e1,
    # e1e2 = e2, e2e2 = e1, e2e1 = 0
    ids = np.arange(4)
    a, b = ids % 2, ids // 2
    c1 = (a[:, None] * a[None, :] + b[:, None] * b[None, :]) % 2
    c2 = (a[:, None] * b[None, :]) % 2
    yield make_table_ring(a[:, None] ^ a[None, :] | (b[:, None] ^ b[None, :]) << 1,
                          c1 + 2 * c2)
    # x * y = y for x != 0: additive in y only
    yield make_table_ring(ids[:, None] ^ ids[None, :],
                          np.where(ids[:, None] != 0, ids[None, :], 0))
    yield make_table_ring(z4.add, z4.mul, neg=[0, 1, 2, 3])
    yield FiniteRing(4, z4.add, z4.neg, z4.mul, unity=2)
    yield FiniteRing(4, z4.add[:3], z4.neg, z4.mul)
    add = z4.add.astype(np.int64)
    add[1, 2] = 9
    yield FiniteRing(4, add, z4.neg, z4.mul)


def corrupted_gradings():
    """Every single-bit flip of the components of the zn(4) and gaussian(2)
    gradings, then one case per other failure."""
    zn4 = make_zn(4)
    g2 = make_gaussian(2)
    for ring, grading in ((zn4, Grading(make_cyclic(2), [0b1111, 0b0001])),
                          (g2, make_gaussian_grading(g2))):
        for g in range(grading.group.order):
            for bit in range(ring.order):
                comps = list(grading.components)
                comps[g] ^= 1 << bit
                yield ring, Grading(grading.group, comps)
    yield zn4, Grading(make_cyclic(3), [0b1111, 1])
    yield zn4, Grading(make_cyclic(2), [0b1111, 1 | 1 << 4])
    yield g2, Grading(make_cyclic(2), [0b101, 0b011])     # degrees swapped
    i_as_unity = FiniteRing(4, g2.add, g2.neg, g2.mul, unity=2, kind="gaussian",
                            params=g2.params)
    yield i_as_unity, make_gaussian_grading(g2)


def broken_groups():
    """Seeded single-entry corruptions of op and every one-step corruption of
    inverse, for Z_4, Z_5 and Z_2 x Z_2, then malformed tables."""
    rng = np.random.default_rng(3)
    klein = make_product_group(make_cyclic(2), make_cyclic(2))
    for base in (make_cyclic(4), make_cyclic(5), klein):
        n = base.order
        for _ in range(8):
            op = base.op.copy()
            a, b = rng.integers(0, n, size=2)
            op[a, b] = (int(op[a, b]) + int(rng.integers(1, n))) % n
            yield FiniteGroup(n, op, base.inverse.copy())
        for x in range(n):
            inv = base.inverse.copy()
            inv[x] = (int(inv[x]) + 1) % n
            yield FiniteGroup(n, base.op.copy(), inv)
    c4 = make_cyclic(4)
    yield FiniteGroup(4, c4.op[:3], c4.inverse)
    op = c4.op.astype(np.int64)
    op[2, 1] = 7
    yield FiniteGroup(4, op, c4.inverse)
    yield FiniteGroup(4, c4.op, c4.inverse[:3])
    yield FiniteGroup(4, c4.op, c4.inverse, identity=1)


def broken_maps():
    """One-entry corruptions of zn(8) -> zn(4) and gaussian(4) -> gaussian(2),
    then malformed maps, a non-multiplicative map and bad group maps."""
    z8 = attach_grading(make_zn(8), Grading(make_cyclic(2), [0xFF, 1]))
    z4 = attach_grading(make_zn(4), Grading(make_cyclic(2), [0xF, 1]))
    base = np.arange(8) % 4
    for x in range(8):
        m = base.copy()
        m[x] = (m[x] + 1) % 4
        yield GradedRingHom(z8, z4, m)
    yield GradedRingHom(z8, z4, base[:7])
    m = base.copy()
    m[3] = 9
    yield GradedRingHom(z8, z4, m)
    yield GradedRingHom(z4, z4, np.arange(4) * 2 % 4)
    g4r, g2r = make_gaussian(4), make_gaussian(2)
    g4 = attach_grading(g4r, make_gaussian_grading(g4r))
    g2 = attach_grading(g2r, make_gaussian_grading(g2r))
    ids = np.arange(16)
    proj = (ids // 4 % 2) * 2 + ids % 4 % 2
    for x in range(16):
        m = proj.copy()
        m[x] = (m[x] + 1) % 4
        yield GradedRingHom(g4, g2, m)
    yield GradedRingHom(g4, g2, proj)
    for gm in ([1, 0], [0, 5], [0]):
        yield GradedRingHom(g4, g2, proj, np.asarray(gm))


RING_GOLDEN = [
    ('left distributivity fails', (5, 1, 4)),
    ('left distributivity fails', (6, 1, 5)),
    ('addition is not associative', (1, 1, 2)),
    ('left distributivity fails', (0, 1, 2)),
    ('zero is not a right additive identity', (6, 0)),
    ('left distributivity fails', (2, 1, 1)),
    ('left distributivity fails', (2, 1, 6)),
    ('left distributivity fails', (7, 1, 5)),
    ('left distributivity fails', (4, 1, 1)),
    ('addition is not commutative', (1, 6)),
    ('left distributivity fails', (4, 1, 0)),
    ('zero is not a left additive identity', (0, 1)),
    ('left distributivity fails', (3, 1, 5)),
    ('left distributivity fails', (5, 1, 2)),
    ('addition is not associative', (1, 2, 3)),
    ('left distributivity fails', (0, 1, 0)),
    ('left distributivity fails', (5, 1, 6)),
    ('left distributivity fails', (2, 1, 2)),
    ('left distributivity fails', (6, 1, 4)),
    ('left distributivity fails', (2, 1, 6)),
    ('addition is not commutative', (4, 7)),
    ('left distributivity fails', (5, 1, 0)),
    ('zero is not a left additive identity', (0, 1)),
    ('left distributivity fails', (4, 1, 3)),
    ('addition is not commutative', (2, 12)),
    ('left distributivity fails', (9, 1, 10)),
    ('addition is not commutative', (2, 6)),
    ('left distributivity fails', (1, 1, 8)),
    ('left distributivity fails', (15, 1, 14)),
    ('left distributivity fails', (5, 1, 2)),
    ('addition is not commutative', (10, 15)),
    ('left distributivity fails', (2, 1, 4)),
    ('addition is not commutative', (7, 10)),
    ('left distributivity fails', (13, 1, 12)),
    ('left distributivity fails', (15, 1, 2)),
    ('addition is not commutative', (8, 13)),
    ('left distributivity fails', (5, 1, 14)),
    ('left distributivity fails', (3, 1, 8)),
    ('left distributivity fails', (13, 1, 14)),
    ('multiplication is not associative', (2, 1, 2)),
    ('right distributivity fails', (1, 2, 1)),
    ('neg is not an additive inverse', (1, 1)),
    ('declared unity is not a two-sided identity', (2,)),
    ('table shape', ((3, 4), (4, 4), (4,))),
    ('add entry out of range', (1, 2)),
]

GRADING_GOLDEN = [
    ('component misses zero', (0,)),
    ('component not additively closed', (0, 2, 3)),
    ('component not additively closed', (0, 1, 1)),
    ('component not additively closed', (0, 1, 2)),
    ('component misses zero', (1,)),
    ('component not additively closed', (1, 1, 1)),
    ('components do not sum directly: element 0 has two decompositions', None),
    ('component not additively closed', (1, 3, 3)),
    ('component misses zero', (0,)),
    ('components do not span the ring: element 1 unreachable', None),
    ('component not additively closed', (0, 1, 2)),
    ('component not additively closed', (0, 1, 3)),
    ('component misses zero', (1,)),
    ('component not additively closed', (1, 1, 2)),
    ('components do not span the ring: element i unreachable', None),
    ('component not additively closed', (1, 2, 3)),
    ('component count does not match group order', (2, 3)),
    ('component exceeds carrier', (1,)),
    ('component product escapes its target', (0, 0, 2, 2)),
    ('unity outside the identity component', (2,)),
]

GROUP_GOLDEN = [
    ('identity', (3, 0)),
    ('identity', (0, 0)),
    ('associativity', (1, 2, 2)),
    ('identity', (0, 1)),
    ('associativity', (1, 1, 1)),
    ('identity', (0, 2)),
    ('identity', (0, 0)),
    ('inverse', (1, 3)),
    ('inverse', (0, 1)),
    ('inverse', (1, 0)),
    ('inverse', (2, 3)),
    ('inverse', (3, 2)),
    ('associativity', (1, 1, 2)),
    ('identity', (2, 0)),
    ('associativity', (1, 2, 4)),
    ('associativity', (1, 1, 2)),
    ('associativity', (1, 2, 3)),
    ('inverse', (1, 4)),
    ('identity', (0, 4)),
    ('identity', (1, 0)),
    ('inverse', (0, 1)),
    ('inverse', (1, 0)),
    ('inverse', (2, 4)),
    ('inverse', (3, 3)),
    ('inverse', (4, 2)),
    ('identity', (0, 3)),
    ('identity', (2, 0)),
    ('identity', (0, 3)),
    ('identity', (0, 1)),
    ('associativity', (1, 2, 1)),
    ('identity', (0, 2)),
    ('associativity', (1, 2, 3)),
    ('identity', (0, 2)),
    ('inverse', (0, 1)),
    ('inverse', (1, 2)),
    ('inverse', (2, 3)),
    ('inverse', (3, 0)),
    ('op table shape', ((3, 4), (4, 4))),
    ('op entry out of range', (2, 1)),
    ('inverse table shape', ((3,), (4,))),
    ('identity must be index 0', (1,)),
]

HOM_GOLDEN = [
    ('zero not preserved', (1,)),
    ('not additive', (1, 1)),
    ('not additive', (1, 1)),
    ('not additive', (1, 2)),
    ('not additive', (1, 3)),
    ('not additive', (1, 4)),
    ('not additive', (1, 5)),
    ('not additive', (1, 6)),
    ('mapping shape', ((7,),)),
    ('mapping range', (0, 9)),
    ('not multiplicative', (1, 1)),
    ('zero not preserved', (1,)),
    ('not additive', (1, 2)),
    ('not additive', (1, 1)),
    ('not additive', (1, 2)),
    ('not additive', (1, 4)),
    ('not additive', (1, 4)),
    ('not additive', (1, 5)),
    ('not additive', (1, 6)),
    ('not additive', (1, 8)),
    ('not additive', (1, 8)),
    ('not additive', (1, 9)),
    ('not additive', (1, 10)),
    ('not additive', (1, 12)),
    ('not additive', (1, 12)),
    ('not additive', (1, 13)),
    ('not additive', (1, 14)),
    (None, None),
    ('degree not preserved', (0, 1)),
    ('group map range', (1, 5)),
    ('group map shape', ((1,),)),
]


def outcomes(validator, cases):
    return [(v.failure, v.witness) for v in map(validator, cases)]


def test_validate_ring_golden():
    assert outcomes(validate_ring, corrupted_rings()) == RING_GOLDEN


def whole_table_unity(ring: FiniteRing) -> int | None:
    """find_unity's former search over whole (n, n) tables: the first u
    whose row and column of mul are both the identity map."""
    idx = np.arange(ring.order)
    both = (ring.mul == idx[None, :]).all(axis=1) & (ring.mul == idx[:, None]).all(axis=0)
    return int(both.argmax()) if both.any() else None


def test_find_unity_matches_the_whole_table_search():
    """The row-blocked search finds the same first two-sided identity, on
    the golden corrupted rings, SMALL_RINGS, and matrix(zn(8), 2), whose
    unity 513 lies past the first block, with and without its column
    broken."""
    m8 = make_matrix_ring(make_zn(8), 2)
    mul = m8.mul.copy()
    mul[3, 513] = 0
    rings = [*corrupted_rings(), *(build_ring(text).ring for text in SMALL_RINGS), m8,
             FiniteRing(m8.order, m8.add, m8.neg, mul)]
    for ring in rings:
        assert find_unity(ring) == whole_table_unity(ring), ring
    assert (find_unity(m8), find_unity(rings[-1])) == (513, None)


def test_validate_grading_golden():
    assert outcomes(lambda c: validate_grading(*c), corrupted_gradings()) == GRADING_GOLDEN


def test_validate_group_golden():
    assert outcomes(validate_group, broken_groups()) == GROUP_GOLDEN


def test_validate_graded_hom_golden():
    assert outcomes(validate_graded_hom, broken_maps()) == HOM_GOLDEN


# ---------------------------------------------------------------------------
# the table-ring boundary: build_document runs validate_ring on table(...)


def _table_text(add, mul) -> str:
    return f"ring: table({np.asarray(add).tolist()}, {np.asarray(mul).tolist()})"


def test_build_rejects_golden_table_rings():
    """Each golden corrupted ring that a table spec can state (the spec
    derives neg and the unity) fails to build with its golden failure."""
    stated = 0
    for ring, (failure, witness) in zip(corrupted_rings(), RING_GOLDEN, strict=True):
        try:
            restated = make_table_ring(ring.add, ring.mul)
        except ValueError:
            continue
        if restated.unity != ring.unity or not np.array_equal(restated.neg, ring.neg):
            continue
        with pytest.raises(ParseError, match=re.escape(f"not a ring: {failure} at {witness}")):
            build_document(parse_document(_table_text(ring.add, ring.mul)))
        stated += 1
    assert stated == 41


_TABLE_BASES = (make_zn(8), make_matrix_ring(make_zn(2), 2), make_gaussian(2))


@st.composite
def corrupted_tables(draw):
    """The add or mul table of a valid ring with one entry shifted."""
    base = draw(st.sampled_from(_TABLE_BASES))
    n = base.order
    tables = [base.add.astype(np.int64), base.mul.astype(np.int64)]
    table = tables[draw(st.integers(0, 1))]
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    table[x, y] = (table[x, y] + draw(st.integers(1, n - 1))) % n
    return tables


@settings(max_examples=100)
@given(corrupted_tables())
def test_build_rejects_corrupted_table_rings(tables):
    """build_document fails on a corrupted table ring with make_table_ring's
    error or validate_ring's failure, and fails the same way on a second
    build of the same spec inside a corpus run: the memo keeps no rejection."""
    text = _table_text(*tables)
    try:
        v = validate_ring(make_table_ring(*tables))
    except ValueError as exc:
        error, expected = ValueError, str(exc)
    else:
        if v.ok:
            build_document(parse_document(text))
            return
        error, expected = ParseError, f"not a ring: {v.failure} at {v.witness}"
    with pytest.raises(error, match=re.escape(expected)):
        build_document(parse_document(text))
    specs.start_build_memo(specs.shared_subexpressions([text, text], DEFAULT_RING_CAP))
    try:
        for _ in range(2):
            with pytest.raises(error, match=re.escape(expected)):
                build_document(parse_document(text))
        assert specs._memo == {}
    finally:
        specs.stop_build_memo()


BAD_TABLE_RING = ("ring: table([[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], "
                  "[[0,0,0,0],[0,1,2,3],[0,2,0,1],[0,3,2,1]])\n")

BAD_TABLE_REPORT = """{
  "command": "validate",
  "exit": 1,
  "grading": {
    "component_sizes": [
      4,
      1
    ],
    "group_order": 2,
    "homogeneous_count": 4
  },
  "ideals": [],
  "ring": {
    "commutative": false,
    "kind": "table",
    "order": 4,
    "source": "ring: table([[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], [[0,0,0,0],[0,1,2,3],[0,2,0,1],[0,3,2,1]])\\n",
    "unital": true,
    "unity": {
      "index": 1,
      "name": "1"
    }
  },
  "schema": "ringbench-report/1",
  "valid": false,
  "witnesses": [
    {
      "failure": "left distributivity fails",
      "part": "ring",
      "witness": [
        2,
        1,
        2
      ]
    }
  ]
}
"""


def test_validate_report_bytes_on_invalid_table_ring(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(BAD_TABLE_RING)
    report = tmp_path / "report.json"
    assert cli.main(["validate", str(spec), "--report", str(report)]) == 1
    assert report.read_bytes() == BAD_TABLE_REPORT.encode()
    out = capsys.readouterr().out
    assert "INVALID ring: left distributivity fails (witness [2, 1, 2])" in out


BAD_TABLE_QUOTIENT_REPORTS = {
    "[]": (1, """{
  "command": "validate",
  "exit": 1,
  "grading": {
    "component_sizes": [
      4,
      1
    ],
    "group_order": 2,
    "homogeneous_count": 4
  },
  "ideals": [],
  "ring": {
    "commutative": false,
    "kind": "quotient",
    "order": 4,
    "source": "ring: quotient(table([[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], [[0,0,0,0],[0,1,2,3],[0,2,0,1],[0,3,2,1]]), [])\\n",
    "unital": true,
    "unity": {
      "index": 1,
      "name": "1"
    }
  },
  "schema": "ringbench-report/1",
  "valid": false,
  "witnesses": [
    {
      "failure": "left distributivity fails",
      "part": "ring",
      "witness": [
        2,
        1,
        2
      ]
    }
  ]
}
"""),
    "[2]": (0, """{
  "command": "validate",
  "exit": 0,
  "grading": {
    "component_sizes": [
      1,
      1
    ],
    "group_order": 2,
    "homogeneous_count": 1
  },
  "ideals": [],
  "ring": {
    "commutative": true,
    "kind": "quotient",
    "order": 1,
    "source": "ring: quotient(table([[0,1,2,3],[1,2,3,0],[2,3,0,1],[3,0,1,2]], [[0,0,0,0],[0,1,2,3],[0,2,0,1],[0,3,2,1]]), [2])\\n",
    "unital": true,
    "unity": {
      "index": 0,
      "name": "0"
    }
  },
  "schema": "ringbench-report/1",
  "valid": true,
  "witnesses": []
}
"""),
}


@pytest.mark.parametrize("gens", sorted(BAD_TABLE_QUOTIENT_REPORTS))
def test_validate_report_bytes_on_quotients_of_invalid_table_ring(gens, tmp_path):
    """make_quotient trusts its base ring, so a quotient of an unvalidated
    table ring is judged only by `validate` itself: by {0} it keeps the base's
    broken law and witness, by (2) it collapses to a valid ring of order 1."""
    spec = tmp_path / "bad_quotient.spec"
    spec.write_text(BAD_TABLE_RING.replace("ring: ", "ring: quotient(", 1)
                    .replace("\n", f", {gens})\n"))
    report = tmp_path / "report.json"
    code, golden = BAD_TABLE_QUOTIENT_REPORTS[gens]
    assert cli.main(["validate", str(spec), "--report", str(report)]) == code
    assert report.read_bytes() == golden.encode()


def _z8_table_with(x: int, y: int, value: int) -> str:
    """zn(8)'s tables as a table(...) literal, with mul[x, y] set to value."""
    add = [[(a + b) % 8 for b in range(8)] for a in range(8)]
    mul = [[a * b % 8 for b in range(8)] for a in range(8)]
    mul[x][y] = value
    return f"table({add}, {mul})".replace(" ", "")


def test_closure_decision_assumes_a_ring():
    """check_closure's generator decision is exact only on a ring. With
    mul[1, 0] = 1 on Z_4, {0, 2} absorbs products against its generator 2
    but not against 0, so the decision calls it closed and the ordered scan
    does not. make_table_ring does not record its tables as a ring, so the
    public check_closure, ideal_check and make_quotient judge {0, 2} by the
    scan alone. (A spec cannot state this ring: its trivial grading needs
    R_e R_g inside R_g = {0}, so x * 0 = 0.)"""
    mul = np.zeros((4, 4), dtype=np.int64)
    mul[1, 0] = 1
    ring = make_table_ring([[(a + b) % 4 for b in range(4)] for a in range(4)], mul)
    gr = GradedRing(ring, grading.make_trivial_grading(ring, make_cyclic(2)))
    assert ideals._closure_holds(gr, 0b101, True, True)
    assert ideals._first_closure_failure(gr, 0b101, "two-sided") == (False, ("left", 1, 0))
    assert ideals.check_closure(gr, 0b101) == (False, ("left", 1, 0))
    assert ideals.ideal_check(gr, 0b101) == (False, ("left", 1, 0), None)
    with pytest.raises(constructions.ConstructionError,
                       match=re.escape("failed ('left', 1, 0)")):
        make_quotient(gr, 0b101)


def test_rings_record_whether_their_tables_form_a_ring():
    """zn and gaussian rings are recorded as rings, and so is a spec's
    table(...) ring once validate_ring has passed. A make_table_ring ring is
    not, nor is a matrix, product, quotient or idealization ring built on
    it, nor the unchecked build that `validate` makes; the same
    constructions over recorded rings are recorded."""
    z4 = make_zn(4)
    assert z4.laws_checked and make_gaussian(2).laws_checked

    def derived(ring):
        gr = GradedRing(ring, grading.make_trivial_grading(ring, make_cyclic(2)))
        return [make_matrix_ring(ring, 2), make_product_ring(ring, z4),
                make_product_ring(z4, ring),
                make_quotient(gr, generate_ideal(gr, [2])).graded_ring.ring,
                make_idealization(gr, regular_bimodule(gr)).ring]

    raw = make_table_ring(z4.add, z4.mul)
    assert not raw.laws_checked
    assert [r.laws_checked for r in derived(raw)] == [False] * 5
    assert [r.laws_checked for r in derived(z4)] == [True] * 5

    table = _z8_table_with(1, 4, 4)         # zn(8)'s own tables
    for text in (f"ring: {table}", f"ring: quotient({table}, [2])",
                 f"ring: idealization({table}, regular)"):
        assert build_ring(text).ring.laws_checked, text
        unchecked = build_document(parse_document(text), check_tables=False)
        assert not unchecked.graded_ring.ring.laws_checked, text
    assert build_document(parse_document("ring: matrix(zn(2), 2)"),
                          check_tables=False).graded_ring.ring.laws_checked


# 1 + 0 = 1 but 0 + 1 = 2: 0 is no left identity, and 1 never enters the
# span that doubling grows from {0} (it stops at {0, 2})
NO_LEFT_ZERO = "table([[0,2,1],[1,0,0],[2,0,0]],[[0,0,0],[0,0,0],[0,0,0]])"
# 1 + 1 = 2 and 2 + 1 = 1: the multiples of 1 cycle outside the span {0},
# which the coset walk that closures used to grow by never noticed
CYCLING_MULTIPLES = "table([[0,1,2],[1,2,0],[2,1,0]],[[0,0,0],[0,0,0],[0,0,0]])"
# 2 + 0 = 1: a closure adjoining 2 keeps it although its span need not
NO_RIGHT_ZERO = "table([[0,1,2],[2,0,1],[1,0,1]],[[0,0,0],[0,1,2],[0,1,2]])"


def test_closure_check_ends_on_tables_without_a_zero(tmp_path, capsys):
    """The closure decision gives up when a generator stays outside its own
    span, so check_closure ends with the ordered scan's answer; `validate`
    ends on a quotient of such tables and reports their ideals, and on
    ideals generated where multiples cycle outside the span or where
    x + 0 != x."""
    with ends_within(30):
        gr = build_document(parse_document(f"ring: {NO_LEFT_ZERO}"),
                            check_tables=False).graded_ring
        assert not ideals._closure_holds(gr, 0b111, True, True)
        for mask in (0b011, 0b101, 0b111):
            assert ideals.check_closure(gr, mask) == \
                ideals._first_closure_failure(gr, mask, "two-sided"), mask
        spec = tmp_path / "no_left_zero.spec"
        spec.write_text(f"ring: quotient({NO_LEFT_ZERO}, [1, 2])\n")
        assert cli.main(["validate", str(spec)]) == 0
        assert capsys.readouterr().out.startswith("ring: order=1 kind=quotient")
        out = {}
        for table, gen in ((NO_LEFT_ZERO, 1), (CYCLING_MULTIPLES, 1), (NO_RIGHT_ZERO, 2)):
            spec.write_text(f"ring: {table}\nideal I: gens [{gen}]\n")
            assert cli.main(["validate", str(spec)]) == 1, table
            out[table] = capsys.readouterr().out
    assert "INVALID ring: zero is not a left additive identity (witness [0, 1])" \
        in out[NO_LEFT_ZERO]
    assert "INVALID ideal I: not a two-sided ideal (witness ('add', 0, 1))" \
        in out[NO_LEFT_ZERO]
    assert "ideal I: size=3 gens=[1]" in out[CYCLING_MULTIPLES]
    assert "INVALID ring: addition is not commutative (witness [1, 2])" \
        in out[CYCLING_MULTIPLES]
    assert "INVALID ring: zero is not a right additive identity (witness [1, 0])" \
        in out[NO_RIGHT_ZERO]


def test_validate_judges_ideals_of_broken_tables_by_the_scan(tmp_path, capsys):
    """Z_8 with mul[1, 4] = 5: the ideal generated by 2 is {0, 2, 4, 6},
    whose generator 2 absorbs while 1 * 4 escapes. `validate` reports the
    scan's witness for the ideal, and a quotient by it fails to build."""
    table = _z8_table_with(1, 4, 5)
    spec = tmp_path / "broken.spec"
    spec.write_text(f"ring: {table}\nideal I: gens [2]\n")
    report = tmp_path / "report.json"
    assert cli.main(["validate", str(spec), "--report", str(report)]) == 1
    assert "INVALID ideal I: not a two-sided ideal (witness ('left', 1, 4))" \
        in capsys.readouterr().out
    witnesses = json.loads(report.read_text())["witnesses"]
    assert {"part": "ideal I", "failure": "not a two-sided ideal",
            "witness": ["left", 1, 4]} in witnesses
    spec.write_text(f"ring: quotient({table}, [2])\n")
    assert cli.main(["validate", str(spec)]) == 2
    assert "not a two-sided ideal: failed ('left', 1, 4)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the trust boundary: constructors do not re-validate, entry points do


def test_constructors_skip_revalidation_entry_points_keep_it(monkeypatch):
    """make_quotient, quotient_bimodule, the idealizations of regular and
    quotient bimodules (as RingContext and the spec path build them) and P8's
    identity map build from a valid graded ring and a checked ideal or
    bimodule, so they call none of validate_graded_hom, validate_grading and
    validate_bimodule; the public make_graded_hom, attach_grading and
    make_idealization still reject every bad input."""
    gr = build_ring("ring: matrix(zn(2), 2)")
    maps, gradings = list(broken_maps()), list(corrupted_gradings())
    rng = np.random.default_rng(5)
    bimodules = [(g, M) for _, g, M in _bimodules()]
    bimodules += [(g, _corrupted(M, field, rng)) for g, M in bimodules
                  for field in ("add", "left", "right", "components")]
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(constructions, "validate_bimodule")
    # the spec path attaches the gradings of its leaves, so count those after
    for module in ("regular", "quotient([])", "quotient([[[1,0],[0,0]]])"):
        build_ring(f"ring: idealization(matrix(zn(2), 2), {module})")
    count(constructions, "validate_graded_hom")
    count(grading, "validate_grading")
    ctx = RingContext(gr, "matrix(zn(2), 2)")
    ctx.idealizations()
    for sub in enumerate_graded_ideals(gr):
        constructions._idealization(gr, quotient_bimodule(make_quotient(gr, sub)))
    assert run_property(gr, "P8").violations == []
    assert calls == Counter()

    for f, (failure, _) in zip(maps, HOM_GOLDEN, strict=True):
        if failure is None:
            make_graded_hom(f.source, f.target, f.mapping, f.group_map)
            continue
        with pytest.raises(HomError, match=re.escape(failure)):
            make_graded_hom(f.source, f.target, f.mapping, f.group_map)
    for (ring, g), (failure, _) in zip(gradings, GRADING_GOLDEN, strict=True):
        with pytest.raises(GradingError, match=re.escape(failure)):
            attach_grading(ring, g)
    for g, M in bimodules:
        if brute_bimodule_ok(g, M):
            make_idealization(g, M)
            continue
        with pytest.raises(BimoduleError, match="bimodule invalid"):
            make_idealization(g, M)
    assert calls == Counter(validate_graded_hom=len(HOM_GOLDEN),
                            validate_grading=len(GRADING_GOLDEN),
                            validate_bimodule=len(bimodules))


# ---------------------------------------------------------------------------
# bimodules against a brute-force oracle


def brute_bimodule_ok(gr, M: GradedBimodule) -> bool:
    """Every graded-bimodule law, evaluated element by element."""
    n, m = gr.order, M.order
    radd, rmul = gr.ring.add.tolist(), gr.ring.mul.tolist()
    add, neg = M.add.tolist(), M.neg.tolist()
    left, right = M.left.tolist(), M.right.tolist()
    R, E = range(n), range(m)
    # (M, +) is an abelian group with identity 0
    if any(add[0][x] != x or add[x][0] != x or add[x][neg[x]] != 0 for x in E):
        return False
    if any(add[x][y] != add[y][x] for x, y in itertools.product(E, E)):
        return False
    if any(add[add[x][y]][z] != add[x][add[y][z]] for x, y, z in itertools.product(E, E, E)):
        return False
    # both actions are biadditive and associative, and they commute
    for r, s, x in itertools.product(R, R, E):
        if (left[radd[r][s]][x] != add[left[r][x]][left[s][x]]
                or right[x][radd[r][s]] != add[right[x][r]][right[x][s]]
                or left[rmul[r][s]][x] != left[r][left[s][x]]
                or right[x][rmul[r][s]] != right[right[x][r]][s]
                or right[left[r][x]][s] != left[r][right[x][s]]):
            return False
    for r, x, y in itertools.product(R, E, E):
        if (left[r][add[x][y]] != add[left[r][x]][left[r][y]]
                or right[add[x][y]][r] != add[right[x][r]][right[y][r]]):
            return False
    # M = (+)_g M_g, each M_g a subgroup, and R_g M_h, M_h R_g inside M_gh, M_hg
    group = gr.group
    if len(M.components) != group.order:
        return False
    parts = [[x for x in E if M.components[g] >> x & 1] for g in range(group.order)]
    if any(M.components[g] >> m for g in range(group.order)):
        return False
    for part in parts:
        if 0 not in part or any(add[x][neg[y]] not in part for x in part for y in part):
            return False
    sums = []
    for choice in itertools.product(*parts):
        total = 0
        for x in choice:
            total = add[total][x]
        sums.append(total)
    if sorted(sums) != list(E):
        return False
    for g, h in itertools.product(range(group.order), repeat=2):
        rg = gr.component_indices(g).tolist()
        if any(left[r][x] not in parts[group.mul(g, h)]
               or right[x][r] not in parts[group.mul(h, g)] for r in rg for x in parts[h]):
            return False
    if M.unital:
        u = gr.ring.unity
        if u is None or any(left[u][x] != x or right[x][u] != x for x in E):
            return False
    return True


def _bimodules():
    for spec, kgens in (("zn(8)", [4]), ("gaussian(2)", []), ("matrix(zn(2), 2)", [])):
        gr = build_ring(f"ring: {spec}")
        K = generate_ideal(gr, kgens) if kgens else IdealSubset(1)
        yield spec, gr, regular_bimodule(gr)
        yield spec, gr, quotient_bimodule(make_quotient(gr, K))


def _corrupted(M: GradedBimodule, field: str, rng) -> GradedBimodule:
    """M with one entry of add, left or right, or one component bit, changed."""
    if field == "components":
        comps = list(M.components)
        comps[int(rng.integers(0, len(comps)))] ^= 1 << int(rng.integers(0, M.order))
        return replace(M, components=comps)
    table = getattr(M, field).copy()
    at = tuple(int(rng.integers(0, d)) for d in table.shape)
    table[at] = (int(table[at]) + int(rng.integers(1, M.order))) % M.order
    return replace(M, **{field: table})


def test_validate_bimodule_matches_brute_force():
    rng = np.random.default_rng(5)
    for spec, gr, M in _bimodules():
        assert validate_bimodule(gr, M).ok and brute_bimodule_ok(gr, M), spec
        for field in ("add", "left", "right", "components"):
            for _ in range(8):
                bad = _corrupted(M, field, rng)
                v = validate_bimodule(gr, bad)
                assert v.ok == brute_bimodule_ok(gr, bad), (spec, M.label, field)
                assert v.ok or v.failure
        # permuted degrees: a shift of the grading stays graded, others leak
        for comps in itertools.permutations(M.components):
            bad = replace(M, components=list(comps))
            assert validate_bimodule(gr, bad).ok == brute_bimodule_ok(gr, bad), (spec, comps)
        stray = replace(M, components=[*M.components[:-1], M.components[-1] | 1 << M.order])
        assert not brute_bimodule_ok(gr, stray)
        assert validate_bimodule(gr, stray).failure == "component exceeds carrier"


def test_validate_bimodule_graded_actions():
    """Z_2[i] = {0, 1+i} (+) {0, i} is a direct sum of subgroups, but
    i(1+i) = 1+i leaves degree 1 for both actions."""
    gr = build_ring("ring: gaussian(2)")
    leaky = replace(regular_bimodule(gr), components=[0b1001, 0b0101])
    assert not brute_bimodule_ok(gr, leaky)
    v = validate_bimodule(gr, leaky)
    assert (v.failure, v.witness) == ("left action leaks a component", (1, 0, 2, 3))
    assert make_gaussian_grading(gr.ring).components == [0b0011, 0b0101]
