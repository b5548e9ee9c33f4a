"""Ring constructors, table validation, and the reduced-check cross-oracle."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import TRIANGULAR_Z2_Z4, UPPER_TRIANGULAR_F2, build_ring
from ring_oracles import additive_generators, first_ring_failure
from ringbench.constructions import regular_bimodule, validate_bimodule
from ringbench.grading import GradedRing, make_trivial_grading
from ringbench.groups import greedy_generators, grow_span, make_cyclic
from ringbench.rings import (
    _TILE,
    FiniteRing,
    RingTooLargeError,
    find_unity,
    make_gaussian,
    make_matrix_ring,
    make_product_ring,
    make_table_ring,
    make_zn,
    validate_ring,
)
from ringbench.theorems import default_corpus


def brute_ring_ok(ring: FiniteRing) -> bool:
    """Direct evaluation of every ring axiom over all element triples."""
    n = ring.order
    add = ring.add.astype(np.int64)
    mul = ring.mul.astype(np.int64)
    neg = ring.neg.astype(np.int64)
    ids = np.arange(n)
    if (add[0] != ids).any() or (add[:, 0] != ids).any():
        return False
    if (add != add.T).any():
        return False
    if (add[neg, ids] != 0).any():
        return False
    if (add[add] != add[:, add]).any():
        return False
    if (mul[mul] != mul[:, mul]).any():
        return False
    if (mul[:, add] != add[mul[:, :, None], mul[:, None, :]]).any():
        return False
    if (mul[add] != add[mul[:, None, :], mul[None, :, :]]).any():
        return False
    return True


def test_zn_tables():
    r = make_zn(6)
    assert r.order == 6
    assert r.add[4, 5] == 3
    assert r.mul[4, 5] == 2
    assert r.neg[2] == 4
    assert r.unity == 1
    assert r.name(3) == "3"
    assert r.is_commutative()


def test_zn_one_element():
    r = make_zn(1)
    assert r.order == 1
    assert validate_ring(r).ok


def test_gaussian_layout():
    r = make_gaussian(4)
    # a+bi sits at b*4 + a
    one, i = 1, 4
    assert r.unity == one
    assert r.mul[i, i] == 3            # i*i = -1 = 3
    assert r.mul[2 + 4, 2] == 8        # (2+i)*2 = 4+2i = 2i mod 4 -> index 2*4
    assert r.name(6) == "2+i"
    assert r.name(8) == "2i"
    assert r.name(4) == "i"
    assert r.name(3) == "3"
    assert r.is_commutative()


def test_matrix_ring_digits():
    r = make_matrix_ring(make_zn(2), 2)
    assert r.order == 16
    # [[a,b],[c,d]] at index a*8 + b*4 + c*2 + d
    e01 = 0b0100
    e10 = 0b0010
    assert r.mul[e01, e10] == 0b1000   # E01*E10 = E00
    assert r.mul[e10, e01] == 0b0001   # E10*E01 = E11
    assert r.unity == 0b1001
    assert r.name(0b0110) == "[[0,1],[1,0]]"
    assert not r.is_commutative()


def test_product_ring_index():
    r = make_product_ring(make_zn(2), make_zn(3))
    assert r.order == 6
    # (1, 2) * (1, 2) = (1, 1) -> 1*3 + 1
    assert r.mul[1 * 3 + 2, 1 * 3 + 2] == 4
    assert r.unity == 1 * 3 + 1
    assert r.name(5) == "(1, 2)"


def test_cap_enforced():
    with pytest.raises(RingTooLargeError):
        make_matrix_ring(make_zn(9), 2, cap=4096)
    with pytest.raises(RingTooLargeError):
        make_zn(100, cap=64)


def test_find_unity_none_for_nonunital():
    # 2Z_4: {0, 2} under mod-4 arithmetic has no unity
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 0]]
    r = make_table_ring(add, mul)
    assert r.unity is None
    assert find_unity(r) is None


def test_table_ring_rejects_malformed():
    with pytest.raises(ValueError):
        make_table_ring([[0, 1]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        make_table_ring([[0, 1], [1, 0]], [[0, 9], [0, 0]])
    with pytest.raises(ValueError):
        make_table_ring([[1, 1], [1, 1]], [[0, 0], [0, 0]])  # no additive inverse


def test_validator_matches_brute_force_on_valid_rings():
    rings = [make_zn(6), make_zn(8), make_gaussian(3),
             make_matrix_ring(make_zn(2), 2),
             make_product_ring(make_zn(2), make_zn(2))]
    for r in rings:
        check = validate_ring(r)
        assert check.ok == brute_ring_ok(r), r.kind
        assert check.ok


def test_validator_matches_brute_force_on_corrupted_tables():
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
            r = make_table_ring(add, mul)
        except ValueError:
            continue
        assert validate_ring(r).ok == brute_ring_ok(r), (which, x, y, delta)


def test_validator_reports_witness():
    mul = make_zn(4).mul.copy()
    mul[2, 3] = 1   # breaks distributivity/associativity somewhere
    r = make_table_ring(make_zn(4).add.copy(), mul)
    check = validate_ring(r)
    assert not check.ok
    assert check.failure
    assert check.witness is not None


def cyclic_sum(add: np.ndarray, gens: list[int]) -> np.ndarray:
    """Members of <g_1> + ... + <g_k>, one coset union per generator: the
    subgroup the generators span, in a valid abelian group."""
    span = np.zeros(add.shape[0], dtype=bool)
    span[0] = True
    for g in gens:
        multiples, x = [0], g
        while x != 0:
            multiples.append(x)
            x = int(add[x, g])
        span[add[np.flatnonzero(span)[:, None], multiples]] = True
    return span


def distinct_corpus_rings() -> list[FiniteRing]:
    seen: dict[bytes, FiniteRing] = {}
    for member in default_corpus():
        ring = member.build().ring
        key = hashlib.sha256(ring.add.tobytes() + ring.mul.tobytes()).digest()
        seen.setdefault(key, ring)
    return list(seen.values())


def test_additive_generators_cover():
    rings = [make_zn(8), make_gaussian(2), make_matrix_ring(make_zn(2), 2),
             *distinct_corpus_rings()]
    for r in rings:
        gens = greedy_generators(r.add)
        assert cyclic_sum(r.add, gens).all(), (r.kind, r.order)
        assert additive_generators(r.add) == gens, (r.kind, r.order)


DIFFERENTIAL_RINGS = [make_zn(8), make_gaussian(2), make_matrix_ring(make_zn(2), 2),
                      build_ring(UPPER_TRIANGULAR_F2).ring, build_ring(TRIANGULAR_Z2_Z4).ring]


@st.composite
def single_entry_corruptions(draw) -> FiniteRing:
    """One add or mul entry of a valid ring moved by a nonzero amount; neg
    and the declared unity are the valid ring's."""
    base = draw(st.sampled_from(DIFFERENTIAL_RINGS))
    n = base.order
    tables = {"add": base.add.copy(), "mul": base.mul.copy()}
    tab = tables[draw(st.sampled_from(sorted(tables)))]
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    tab[x, y] = (int(tab[x, y]) + draw(st.integers(1, n - 1))) % n
    return FiniteRing(n, tables["add"], base.neg.copy(), tables["mul"], unity=base.unity)


def assert_matches_scan(ring: FiniteRing) -> None:
    """validate_ring returns the ordered scan's result, and its verdict is
    the brute-force one (with the declared unity checked too)."""
    got, scan = validate_ring(ring), first_ring_failure(ring)
    assert (got.ok, got.failure, got.witness) == (scan.ok, scan.failure, scan.witness)
    unity_ok = ring.unity is None or find_unity(ring) == ring.unity
    assert got.ok == (brute_ring_ok(ring) and unity_ok)


@settings(max_examples=400)
@given(single_entry_corruptions())
def test_validate_ring_matches_ordered_scan(ring):
    assert_matches_scan(ring)


@st.composite
def one_sided_tables(draw) -> FiniteRing:
    """A random bilinear product on a small abelian group, kept as is, or
    with one additive map added to the columns x -> x*y of one coset
    y0 + <1> (right distributivity still holds), or the transpose of that
    (left distributivity holds). So the verdict turns on the laws that no
    single-entry corruption reaches first: a one-sided distributive law,
    also at generators other than 1, associativity and the declared unity."""
    moduli = draw(st.sampled_from([(2,), (4,), (2, 2), (2, 4), (4, 2), (2, 2, 2), (4, 4, 4)]))
    n, k = math.prod(moduli), len(moduli)
    digits = np.array(np.unravel_index(np.arange(n), moduli[::-1])).T[:, ::-1]

    def torsion(m: int) -> np.ndarray:
        """Digits of a random element t with m*t = 0."""
        return np.array([draw(st.integers(0, q - 1)) * (q // math.gcd(m, q))
                         for q in moduli])

    prod = sum(np.multiply.outer(digits[:, i], digits[:, j])[:, :, None]
               * torsion(math.gcd(moduli[i], moduli[j]))
               for i in range(k) for j in range(k))
    side = draw(st.sampled_from(["both", "right", "left"]))
    if side != "both":
        delta = sum(digits[:, i, None] * torsion(moduli[i]) for i in range(k))
        y0 = draw(st.integers(1, n - 1))
        coset = (digits[:, 1:] == digits[y0, 1:]).all(axis=1)
        prod[:, coset] += delta[:, None]
        if side == "left":
            prod = prod.transpose(1, 0, 2)
    weights = np.cumprod((1, *moduli[:-1]))
    add = ((digits[:, None] + digits[None, :]) % moduli) @ weights
    ring = FiniteRing(n, add.astype(np.uint16), ((-digits) % moduli @ weights).astype(np.uint16),
                      (prod % moduli @ weights).astype(np.uint16))
    ring.unity = draw(st.sampled_from([None, find_unity(ring), *range(n)]))
    return ring


@settings(max_examples=300)
@given(one_sided_tables())
def test_validate_ring_on_one_sided_tables(ring):
    assert_matches_scan(ring)


# orders above the decision's tile width _TILE, and no multiple of it
TILE_EDGE_RINGS = [make_zn(100), make_gaussian(9),
                   make_product_ring(make_matrix_ring(make_zn(2), 2), make_zn(5))]


def tile_edge_corruptions():
    """Each TILE_EDGE_RINGS ring with one add entry, then one mul entry,
    moved in the first tile, a middle tile and the last, partial one: the
    entry [x, y] at the last column y of the tile, in row x = n - 2, which is
    neither an additive generator nor the unity."""
    for base in TILE_EDGE_RINGS:
        n = base.order
        assert n > _TILE and n % _TILE
        x = n - 2
        assert x not in greedy_generators(base.add) and x != base.unity
        for name in ("add", "mul"):
            for y in (_TILE - 1, (n // _TILE // 2) * _TILE + _TILE - 1, n - 1):
                tables = {"add": base.add.copy(), "mul": base.mul.copy()}
                tables[name][x, y] = (int(tables[name][x, y]) + 1) % n
                yield FiniteRing(n, tables["add"], base.neg, tables["mul"], unity=base.unity)


def test_validate_ring_at_tile_edges():
    for ring in tile_edge_corruptions():
        assert_matches_scan(ring)
        assert not validate_ring(ring).ok


def last_rounds(add: np.ndarray):
    """For each generator of greedy_generators(add), the last round of its
    walk as recorded by grow_span: (step, members it adds, doubling 2 step)."""
    span = np.zeros(add.shape[0], dtype=bool)
    span[0] = True
    for g in greedy_generators(add):
        walk: list = []
        span = grow_span(add, span, g, walk)
        step, xs, _ = walk[-1]
        yield step, [int(x) for x in xs[:-1]], int(xs[-1])


# walks of one and several generators, rounds of one member and of many;
# matrix(zn(3), 2) has a non-commutative mul over several column tiles
WALK_RINGS = [*DIFFERENTIAL_RINGS, *TILE_EDGE_RINGS, make_matrix_ring(make_zn(3), 2)]


def walk_corruptions():
    """Each WALK_RINGS ring with one entry moved, for each generator: in the
    add and mul rows of the last member its walk's last round adds, at the
    first and the last column; at add[step, step], the last doubling
    itself; and in the add and mul rows of its result 2 step, which the
    walk holds already, so that only the doubling edge reads the row."""
    for base in WALK_RINGS:
        n = base.order
        for step, added, doubled in last_rounds(base.add):
            places = [("add", added[-1], 0), ("add", added[-1], n - 1),
                      ("mul", added[-1], 0), ("mul", added[-1], n - 1),
                      ("add", step, step), ("add", doubled, n - 1), ("mul", doubled, n - 1)]
            for name, x, y in places:
                tables = {"add": base.add.copy(), "mul": base.mul.copy()}
                tables[name][x, y] = (int(tables[name][x, y]) + 1) % n
                yield FiniteRing(n, tables["add"], base.neg, tables["mul"], unity=base.unity)


def test_validate_ring_on_walk_corruptions():
    for ring in walk_corruptions():
        assert_matches_scan(ring)


def late_tile_corruptions():
    """The column n - 1, in the last tile, of each ring of orders above
    2 _TILE, commutative or not, changed to x -> xc + t for every row x
    other than 0, the additive generators and the unity: no additive map
    (x, y and x + y outside those rows give xc + yc + 2t against
    (x + y)c + t), and invisible to the checks on generator rows, so only
    the right distributivity pass over that tile sees it."""
    for base in (*TILE_EDGE_RINGS, make_matrix_ring(make_zn(3), 2), make_zn(300)):
        n, c = base.order, base.order - 1
        kept = [0, *greedy_generators(base.add), base.unity]
        assert n > 2 * _TILE and c not in kept
        for t in (1, n // 2):
            mul = base.mul.copy()
            rows = np.setdiff1d(np.arange(n), kept)
            mul[rows, c] = base.add[mul[rows, c], t]
            yield FiniteRing(n, base.add, base.neg, mul, unity=base.unity)


def test_validate_ring_on_late_tile_breaks():
    """A right distributivity break confined to the last column tile."""
    rings = list(late_tile_corruptions())
    assert any(not r.is_commutative() for r in rings)
    for ring in rings:
        assert_matches_scan(ring)
        assert not validate_ring(ring).ok


def doubling_only_break() -> FiniteRing:
    """Z_4 = <u> with labels 0, 2u, u, 3u and x*c = rho(x)*c, where rho is 0
    on 0 and 2u and u on u and 3u. rho respects every tree edge of the
    walk (generators 2u, then u) but not the doubling u + u = 2u."""
    value = np.array([0, 2, 1, 3])              # label -> element of Z_4
    label = np.argsort(value)
    rho = np.array([0, 0, 1, 1])
    add = label[(value[:, None] + value[None, :]) % 4]
    mul = label[(rho[:, None] * value[None, :]) % 4]
    return make_table_ring(add, mul)


def test_right_distributivity_broken_only_on_a_doubling_edge():
    ring = doubling_only_break()
    assert greedy_generators(ring.add) == [1, 2]
    assert_matches_scan(ring)
    check = validate_ring(ring)
    assert (check.failure, check.witness) == ("right distributivity fails", (2, 2, 2))


def move_symmetric_pair(base: FiniteRing, x: int, y: int, shift: int) -> FiniteRing:
    """base with add[x, y] and add[y, x] both moved by shift."""
    add = base.add.copy()
    add[x, y] = add[y, x] = (int(add[x, y]) + shift) % base.order
    return FiniteRing(base.order, add, base.neg, base.mul, unity=base.unity)


SYMMETRIC_PAIR_RINGS = [*DIFFERENTIAL_RINGS, *TILE_EDGE_RINGS, make_zn(300)]


@st.composite
def symmetric_pair_corruptions(draw) -> FiniteRing:
    """A nonzero entry add[x, y] = add[y, x] (x, y != 0) of a valid ring
    moved, with its mirror: identities, commutativity and inverses still
    hold, so only associativity fails, at a generator that the scan's
    frontier closure and greedy_generators both pick. Orders span one
    tile, several _TILE tiles, and more than one _ROWS tile (zn(300))."""
    base = draw(st.sampled_from(SYMMETRIC_PAIR_RINGS))
    n = base.order
    x, y = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    assume(base.add[x, y] != 0)
    return move_symmetric_pair(base, x, y, draw(st.integers(1, n - 1)))


@settings(max_examples=300)
@given(symmetric_pair_corruptions())
# generator 9 = i fails in the first tile, generator 1 only in the second
@example(move_symmetric_pair(TILE_EDGE_RINGS[1], 36, 36, 1))
def test_associativity_witness_matches_ordered_scan(ring):
    """validate_ring, and validate_bimodule on the regular bimodule of the
    broken tables, report the ordered scan's associativity witness."""
    got, scan = validate_ring(ring), first_ring_failure(ring)
    assert (got.failure, got.witness) == (scan.failure, scan.witness)
    assert got.failure == "addition is not associative"
    gr = GradedRing(ring, make_trivial_grading(ring, make_cyclic(1)))
    module = validate_bimodule(gr, regular_bimodule(gr))
    assert (module.failure, module.witness) == (f"additive group: {scan.failure}", scan.witness)


def test_commutativity_witness_is_least_over_the_row_tile():
    """On zn(300), add[10, 20] and add[5, 200] moved: the offenders of the
    first 128-row tile lie in column blocks 0 and 1, and the first in C
    order, (5, 200), is in the later block."""
    base = make_zn(300)
    add = base.add.copy()
    for x, y in ((10, 20), (5, 200)):
        add[x, y] = (int(add[x, y]) + 1) % base.order
    ring = FiniteRing(base.order, add, base.neg, base.mul, unity=base.unity)
    check, scan = validate_ring(ring), first_ring_failure(ring)
    assert (check.failure, check.witness) == ("addition is not commutative", (5, 200))
    assert (scan.failure, scan.witness) == (check.failure, check.witness)


def test_neg_out_of_range_is_reported():
    """A neg entry outside 0..n-1 is a range failure of a ring and of a
    bimodule, not an index error or a wrapped-around read."""
    z4 = make_zn(4)
    gr = GradedRing(z4, make_trivial_grading(z4, make_cyclic(1)))
    for neg, at in (([0, 3, 2, 4], 3), ([0, -1, 2, 1], 1)):
        check = validate_ring(FiniteRing(4, z4.add, np.array(neg), z4.mul))
        assert (check.failure, check.witness) == ("neg entry out of range", (at,))
        module = validate_bimodule(gr, dataclasses.replace(regular_bimodule(gr), neg=np.array(neg)))
        assert (module.failure, module.witness) == ("neg entry out of range", (at,))


def test_validate_ring_non_abelian_addition():
    """Zero multiplication on S_3 satisfies every law but commutativity of +."""
    perms = list(itertools.permutations(range(3)))
    add = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    ring = make_table_ring(add, np.zeros((6, 6), dtype=np.int64))
    assert_matches_scan(ring)
    assert validate_ring(ring).failure == "addition is not commutative"


def test_validate_ring_right_identity_fails_alone():
    """For x != 0, x + v is x when v = x and 0 otherwise; multiplication is
    zero. 0 is a left identity, x + neg(x) = x + 0 = 0, the translations
    commute and every edge of the walk (generators 1, then 2) holds, but
    1 + 0 = 0: only the right identity check rejects the table."""
    ring = make_table_ring([[0, 1, 2], [0, 1, 0], [0, 0, 2]], np.zeros((3, 3), dtype=np.int64))
    assert greedy_generators(ring.add) == [1, 2]
    assert_matches_scan(ring)
    check = validate_ring(ring)
    assert (check.failure, check.witness) == ("zero is not a right additive identity", (1, 0))


def test_left_distributivity_witness_at_non_generator():
    """Rows 4 = (2, 0) and 5 = (2, 1) of Z_4 x Z_2 gain the same non-additive
    map, so (g + b)c = gc + bc still holds for g = 1 and left distributivity
    first fails at a = 4, which is no additive generator. Right
    distributivity cannot hold everywhere here: then the a with
    a(g + c) = ag + ac for all c form a subgroup, whose least non-member is
    always a greedy generator."""
    base = make_product_ring(make_zn(4), make_zn(2))
    add, mul = base.add.copy(), base.mul.copy()
    for a in (4, 5):
        mul[a, 3] = add[mul[a, 3], 1]
    r = make_table_ring(add, mul)
    assert greedy_generators(r.add) == [1, 2]
    assert all(mul[add[1, b], c] == add[mul[1, c], mul[b, c]]
               for b in range(8) for c in range(8))
    check = validate_ring(r)
    assert (check.failure, check.witness) == ("left distributivity fails", (4, 1, 2))
    assert not brute_ring_ok(r)


def test_left_distributivity_beyond_first_generator():
    """On Z_2 x Z_4 (index d0 + 2 d1), x*y = (d1(x) mod 2, 0) when d1(y) = 2
    and 0 otherwise is associative and right distributive, and
    a(1 + c) = a1 + ac holds for every a and c. Left distributivity fails
    only at the second generator, a = g = 2, so checking the first
    generator alone, as a or as g, would pass this table."""
    d1 = np.arange(8) // 2
    mul = np.where((d1[None, :] == 2) & (d1[:, None] % 2 == 1), 1, 0)
    r = make_table_ring(make_product_ring(make_zn(4), make_zn(2)).add, mul)
    assert greedy_generators(r.add) == [1, 2]
    assert_matches_scan(r)
    check = validate_ring(r)
    assert (check.failure, check.witness) == ("left distributivity fails", (2, 2, 2))


def test_validate_ring_memory_bound():
    """The decision gathers over blocks of rows, so no (n, n) intp index
    array is built: peak traced memory stays under 3 n^2 bytes."""
    r = make_zn(2048)
    tracemalloc.start()
    try:
        assert validate_ring(r).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * r.order ** 2, peak / r.order ** 2


def absorbing_addition(n: int) -> np.ndarray:
    """0 a two-sided identity, x + x = 0 and x + y = x for distinct nonzero
    x, y: every nonzero element is a greedy generator of its own."""
    idx = np.arange(n)
    add = np.repeat(idx[:, None], n, axis=1)
    add[0] = idx
    add[idx, idx] = 0
    return add


def max_addition(n: int) -> np.ndarray:
    """x + x = 0 and x + y = max(x, y) otherwise: commutative, with identity
    and inverses, and again every nonzero element a greedy generator."""
    idx = np.arange(n)
    add = np.maximum(idx[:, None], idx[None, :])
    add[idx, idx] = 0
    return add


def chained_addition(n: int) -> np.ndarray:
    """0 a right identity only. With m = n/2 - 1, each g <= m has 0 + g = g
    and g + g = m + 1, and m + 1, ..., n - 1 form a doubling chain that no
    sum with an earlier member reaches, so every g's walk runs the whole
    chain: about n^2 / 4 rounds."""
    m, idx = n // 2 - 1, np.arange(n)
    gens, chain = idx[1:m + 1], idx[m + 1:]
    add = np.zeros((n, n), dtype=np.int64)
    add[:, 0] = idx
    add[0, gens] = gens
    add[gens, gens] = m + 1
    add[chain[:-1], chain[:-1]] = chain[1:]
    return add


@pytest.mark.parametrize("addition, expected", [
    (absorbing_addition, ("addition is not commutative", (1, 2))),
    (max_addition, ("addition is not associative", (1, 2, 2))),
    (chained_addition, ("zero is not a left additive identity", (0, 128))),
])
def test_validate_ring_on_walks_no_group_takes(addition, expected):
    """Additions no group has, at n = 256: validate_ring reports the
    ordered scan's failure within a traced peak of 6 n^2 bytes, most of it
    the walk of 255 one-member generators. Comparing the absorbing table's
    generators pairwise would take 33 MB, the max table's associativity
    scan would cast 255 rows of add to intp, and recording the chained
    table's walk would take 16,000 rounds. The left identity check stops
    the last walk early, and a group has at most log2 n generators, which
    bounds the other two."""
    n = 256
    r = make_table_ring(addition(n), np.zeros((n, n), dtype=np.int64))
    tracemalloc.start()
    try:
        check = validate_ring(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scan = first_ring_failure(r)
    assert (check.failure, check.witness) == (scan.failure, scan.witness) == expected
    assert peak <= 6 * n ** 2, peak / n ** 2


def test_matrix_zn8_memory_bounds():
    """make_matrix_ring holds at most 4.25 n^2 traced bytes, its two uint16
    tables and small row tables, and validate_ring on the result at most
    0.5 n^2: its tiles are (32, n) and (n, 32)."""
    base = make_zn(8)
    tracemalloc.start()
    try:
        r = make_matrix_ring(base, 2)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert validate_ring(r).ok
        checked = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n2 = r.order ** 2
    assert built <= 4.25 * n2, built / n2
    assert checked <= 0.5 * n2, checked / n2


def test_ordered_scan_memory_bound():
    """The ordered scan, like the decision, works over blocks of rows, and
    the additive group check over tiles: with one mul entry of
    matrix(zn(8), 2) moved, its unity declared as 2, one add entry moved or
    one symmetric pair of add entries moved, validate_ring reports the
    scan's witness within a traced peak of n^2 bytes, the size of one
    (n, n) bool array."""
    base = make_matrix_ring(make_zn(8), 2)
    mul, add = base.mul.copy(), base.add.copy()
    mul[5, 7] = (int(mul[5, 7]) + 1) % base.order
    add[5, 7] = (int(add[5, 7]) + 1) % base.order
    cases = [
        (FiniteRing(base.order, base.add, base.neg, mul, unity=base.unity),
         ("left distributivity fails", (5, 1, 6))),
        (FiniteRing(base.order, base.add, base.neg, base.mul, unity=2),
         ("declared unity is not a two-sided identity", (2,))),
        (FiniteRing(base.order, add, base.neg, base.mul, unity=base.unity),
         ("addition is not commutative", (5, 7))),
        (move_symmetric_pair(base, 5, 7, 1),
         ("addition is not associative", (1, 4, 7))),
    ]
    for r, expected in cases:
        tracemalloc.start()
        try:
            check = validate_ring(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (check.failure, check.witness) == expected
        assert peak <= r.order ** 2, (expected, peak / r.order ** 2)


def matrix_oracle(base: FiniteRing, k: int) -> tuple[np.ndarray, np.ndarray]:
    """add/mul of M_k(base) from the definitions: entrywise sums and row-by-
    column sums of products, through the base ring's own tables."""
    m = base.order
    badd, bmul = base.add.tolist(), base.mul.tolist()
    n = m ** (k * k)

    def entries(x):
        digits = []
        for _ in range(k * k):
            x, d = divmod(x, m)
            digits.append(d)
        return digits[::-1]

    def encode(digits):
        return reduce(lambda acc, d: acc * m + d, digits, 0)

    mats = [entries(x) for x in range(n)]
    add = [[encode([badd[a][b] for a, b in zip(X, Y)]) for Y in mats] for X in mats]
    # entry (r, c) of XY only depends on row r of X and column c of Y
    dot = {}

    def row_col(row, col):
        key = (row, col)
        if key not in dot:
            dot[key] = reduce(lambda acc, t: badd[acc][t],
                              (bmul[a][b] for a, b in zip(row, col)))
        return dot[key]

    mul = []
    for X in mats:
        rows = [tuple(X[r * k:(r + 1) * k]) for r in range(k)]
        line = []
        for Y in mats:
            cols = [tuple(Y[c::k]) for c in range(k)]
            line.append(encode([row_col(row, col) for row in rows for col in cols]))
        mul.append(line)
    return np.array(add), np.array(mul)


def product_oracle(r1: FiniteRing, r2: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """add/mul of R1 x R2 from the definitions: componentwise on (u, v) pairs."""
    n2 = r2.order
    pairs = [divmod(x, n2) for x in range(r1.order * n2)]
    tables = []
    for t1, t2 in ((r1.add, r2.add), (r1.mul, r2.mul)):
        tables.append(np.array([[int(t1[a, c]) * n2 + int(t2[b, d]) for c, d in pairs]
                                for a, b in pairs]))
    return tables[0], tables[1]


def row_vectors() -> FiniteRing:
    """Matrices [[a,b],[0,0]] over Z_2 at index 2a + b: non-commutative and
    non-unital, since (a,b)(c,d) = (ac, ad)."""
    pairs = [divmod(x, 2) for x in range(4)]
    add = [[x ^ y for y in range(4)] for x in range(4)]
    mul = [[(a * c) * 2 + a * d for c, d in pairs] for a, b in pairs]
    return make_table_ring(add, mul)


@pytest.mark.parametrize("base, k", [
    (make_zn(4), 2), (make_zn(3), 2), (make_gaussian(2), 2), (make_zn(2), 3),
    (row_vectors(), 2), (make_gaussian(3), 1)],
    ids=["zn4-k2", "zn3-k2", "gaussian2-k2", "zn2-k3", "rowvec-k2", "gaussian3-k1"])
def test_matrix_ring_tables_match_definitions(base, k):
    r = make_matrix_ring(base, k)
    add, mul = matrix_oracle(base, k)
    for tab, want in ((r.add, add), (r.mul, mul)):
        assert tab.dtype == np.uint16 and tab.flags["C_CONTIGUOUS"]
        assert np.array_equal(tab, want)


@pytest.mark.parametrize("r1, r2", [
    (make_zn(4), make_gaussian(2)),
    (make_matrix_ring(make_zn(2), 2), make_zn(3)),
    (make_zn(3), make_matrix_ring(make_zn(2), 2))],
    ids=["zn4-gaussian2", "matrix-zn3", "zn3-matrix"])
def test_product_ring_tables_match_definitions(r1, r2):
    r = make_product_ring(r1, r2)
    add, mul = product_oracle(r1, r2)
    for tab, want in ((r.add, add), (r.mul, mul)):
        assert tab.dtype == np.uint16 and tab.flags["C_CONTIGUOUS"]
        assert np.array_equal(tab, want)


def test_matrix_zn8_table_digests():
    # bytes of M_2(Z_8) as built by the int64 gather construction
    r = make_matrix_ring(make_zn(8), 2)
    assert r.add.dtype == np.uint16 and r.mul.dtype == np.uint16
    assert hashlib.sha256(r.add.tobytes()).hexdigest() == (
        "fcc16b5d3e72beee64f7e4c7878b9374b734164e928d4c4b33e9bcfbb6dd2183")
    assert hashlib.sha256(r.mul.tobytes()).hexdigest() == (
        "69022b3243c6fe5c50a36f8d251000a328d27751e747b9812786f89460b72aa2")


@pytest.mark.parametrize("m, k, neg, names", [
    (8, 2, "5329cf6659587fec59ab04b847227c07486e1ce3ed93651650fc80f443b1451d",
     "ad78a7ea9e9e6c78f2e3a37dfaceee5aa0d325b4aa747ddce3dcc2b0c56007f8"),
    (2, 3, "407715b8ded48be4426df98401cecd0e7ad61b9ad742649eb844de452d1c5f91",
     "d279d38c055478a277afef5630005046842b370d5a97f79385f1bc3288e50c38")],
    ids=["zn8-k2", "zn2-k3"])
def test_matrix_neg_and_name_digests(m, k, neg, names):
    # neg bytes and newline-joined element names of M_k(Z_m)
    r = make_matrix_ring(make_zn(m), k)
    assert r.neg.dtype == np.uint16
    assert hashlib.sha256(r.neg.tobytes()).hexdigest() == neg
    assert hashlib.sha256("\n".join(r.element_names).encode()).hexdigest() == names


def test_cap_cannot_exceed_uint16_indices():
    with pytest.raises(RingTooLargeError, match="carrier cap 65536"):
        make_product_ring(make_zn(256), make_zn(257), cap=1 << 20)
