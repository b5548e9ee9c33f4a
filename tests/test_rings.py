"""Ring constructors, table validation, and the reduced-check cross-oracle."""

from __future__ import annotations

import hashlib
from functools import reduce

import numpy as np
import pytest

from ringbench.rings import (
    FiniteRing,
    RingTooLargeError,
    additive_generators,
    find_unity,
    make_gaussian,
    make_matrix_ring,
    make_product_ring,
    make_table_ring,
    make_zn,
    validate_ring,
)


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


def test_additive_generators_cover():
    for r in (make_zn(8), make_gaussian(2), make_matrix_ring(make_zn(2), 2)):
        span = {0}
        frontier = list(additive_generators(r))
        while frontier:
            x = frontier.pop()
            if x in span:
                continue
            span.add(x)
            new = {int(r.add[x, s]) for s in span}
            frontier.extend(v for v in new if v not in span)
        assert span == set(range(r.order))


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
    (row_vectors(), 2)],
    ids=["zn4-k2", "zn3-k2", "gaussian2-k2", "zn2-k3", "rowvec-k2"])
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


def test_cap_cannot_exceed_uint16_indices():
    with pytest.raises(RingTooLargeError, match="carrier cap 65536"):
        make_product_ring(make_zn(256), make_zn(257), cap=1 << 20)
