"""Finite rings materialized as dense operation tables.

Rings are not assumed commutative or unital. Elements are dense indices
0..order-1, zero is always index 0, and tables are numpy uint16 arrays
(no carrier may exceed the 65536 indices that dtype can hold).

Validation is exact at every size without the O(n^3) triple scan: once the
additive structure and both distributive laws hold, the associator
(ab)c - a(bc) is additive in each argument, so it vanishes everywhere as
soon as it vanishes on an additive generating set. The same inductive
argument reduces additive associativity and distributivity themselves to
checks against the generators, which costs O(g * n^2) total: on a verified
abelian group every element is a sum of the generators that
`groups.greedy_generators` picks, and a law whose set of solutions is
closed under + holds once it holds on them. Left distributivity is checked
only for a and g both generators, with c over all of R: once right
distributivity holds, the elements a whose left multiplication is additive
are closed under +, and so, for a fixed a, are the g with
a(g + c) = ag + ac for all c. Results are `groups.Validation`.

The additive group is checked, and its witness found, in one place,
`check_additive_group`, which bimodules share. Only the multiplicative laws
are split in two: a check that only decides (`_mul_laws_hold`) runs first,
and only when it finds a law broken does the ordered scan
(`_first_mul_failure`) run, which alone chooses the reported failure and
witness. No check builds an (n, n) temporary. The two g * n^2 laws read
tiles that stay in cache while every generator uses them: (g + u) + v
reads u in tiles of _TILE rows of add, cast to intp once, and (g + b)c
reads c in tiles of _TILE columns of mul, whose sides gather from the
_TILE rows add[gc], never from the whole n^2 add table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .groups import Validation, first_offender, greedy_generators, range_check

DEFAULT_RING_CAP = 4096
_MAX_ORDER = 1 << 16     # element indices are stored as uint16
_ROWS = 128              # rows per block (and tile side) of the n^2-sized checks
_TILE = 32               # rows or columns per tile of the g * n^2 laws


class RingTooLargeError(ValueError):
    """Requested construction exceeds the carrier cap."""


@dataclass
class FiniteRing:
    order: int
    add: np.ndarray          # (order, order)
    neg: np.ndarray          # (order,)
    mul: np.ndarray          # (order, order)
    unity: int | None = None
    element_names: list[str] = field(default_factory=list)
    kind: str = "table"
    params: dict = field(default_factory=dict)
    laws_checked: bool = False   # tables known to satisfy the ring laws

    def __post_init__(self):
        if not self.element_names:
            self.element_names = [str(i) for i in range(self.order)]

    @property
    def zero(self) -> int:
        return 0

    def name(self, i: int) -> str:
        return self.element_names[i]

    def is_commutative(self) -> bool:
        return bool((self.mul == self.mul.T).all())

    def __repr__(self):  # tables are noise in test output
        return f"FiniteRing(kind={self.kind!r}, order={self.order})"


def _check_cap(order: int, cap: int, what: str):
    limit = min(cap, _MAX_ORDER)
    if order > limit:
        raise RingTooLargeError(f"{what} has order {order}, exceeding the carrier cap {limit}")


def make_zn(n: int, cap: int = DEFAULT_RING_CAP) -> FiniteRing:
    """Z_n with the usual modular arithmetic."""
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    _check_cap(n, cap, f"Z_{n}")
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    neg = (-idx) % n
    return FiniteRing(n, add.astype(np.uint16), neg.astype(np.uint16),
                      mul.astype(np.uint16), unity=1 % n,
                      kind="zn", params={"n": n}, laws_checked=True)


def _gaussian_name(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    im = "i" if b == 1 else f"{b}i"
    return im if a == 0 else f"{a}+{im}"


def make_gaussian(n: int, cap: int = DEFAULT_RING_CAP) -> FiniteRing:
    """Z_n[i]: pairs a+bi with i^2 = -1, componentwise addition.

    Element a+bi sits at index b*n + a, so 0..n-1 are the reals and the
    pure imaginaries fall on multiples of n; unity is index 1.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    order = n * n
    _check_cap(order, cap, f"Z_{n}[i]")
    ids = np.arange(order, dtype=np.int64)
    a, b = ids % n, ids // n
    ax, ay = a[:, None], a[None, :]
    bx, by = b[:, None], b[None, :]
    add = ((bx + by) % n) * n + (ax + ay) % n
    mul = ((ax * by + bx * ay) % n) * n + (ax * ay - bx * by) % n
    neg = ((-b) % n) * n + (-a) % n
    names = [_gaussian_name(int(x), int(y)) for x, y in zip(a, b)]
    return FiniteRing(order, add.astype(np.uint16), neg.astype(np.uint16),
                      mul.astype(np.uint16), unity=1 % order,
                      element_names=names, kind="gaussian", params={"n": n},
                      laws_checked=True)


def _encode_digits(digits: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for d in range(digits.shape[-1]):
        out = out * m + digits[..., d]
    return out


def _digit_table(radices: tuple[int, ...], terms) -> np.ndarray:
    """(order, order) uint16 table over a mixed-radix digit encoding.

    Elements have digits in `radices`, most significant first. terms[d] is
    (xs, ys, small): output digit d is small[x-digits xs, y-digits ys], with
    xs and ys ascending. Each weighted small table is broadcast into a view
    with one axis per x-digit and one per y-digit, so nothing of size
    order^2 is indexed or held in a wider dtype. Partial sums stay at most
    order - 1, which fits uint16.
    """
    ndig = len(radices)
    order = math.prod(radices)
    out = np.zeros(tuple(radices) * 2, dtype=np.uint16)
    weight = order
    for d, (xs, ys, small) in enumerate(terms):
        weight //= radices[d]
        shape = [1] * (2 * ndig)
        for a in (*xs, *(ndig + y for y in ys)):
            shape[a] = radices[a % ndig]
        out += (small.astype(np.uint16) * np.uint16(weight)).reshape(shape)
    return out.reshape(order, order)


def make_matrix_ring(base: FiniteRing, k: int, cap: int = DEFAULT_RING_CAP) -> FiniteRing:
    """k x k matrices over a finite base ring, row-major digit encoding.

    A row of k entries is a number v below w = m^k, and the rows of x are
    its digits x_r in radix w. Row r of xy is x_r y and of x + y is x_r + y_r,
    so digit r of each table is read off a (w, n) table with y innermost.
    """
    if k <= 0:
        raise ValueError(f"matrix size must be positive, got {k}")
    m = base.order
    order = m ** (k * k)
    _check_cap(order, cap, f"M_{k}(base of order {m})")
    ids = np.arange(order, dtype=np.int64)
    digits = np.zeros((order, k * k), dtype=np.int64)
    rest = ids.copy()
    for d in range(k * k - 1, -1, -1):
        digits[:, d] = rest % m
        rest //= m

    w = m ** k
    vec = digits[:w, -k:]                   # the entries of row value v
    if k == 1:                              # the (w, n) tables would be (n, n)
        add, mul = base.add.astype(np.uint16), base.mul.astype(np.uint16)
    else:
        vy = 0                              # v y: entry c is sum_j v_j y_jc
        for c in range(k):
            dot = base.mul[vec[:, :1], digits[:, c]]
            for j in range(1, k):
                dot = base.add[dot, base.mul[vec[:, j:j + 1], digits[:, j * k + c]]]
            vy = vy * m + dot
        row_add = _encode_digits(base.add[vec[:, None], vec[None, :]], m).astype(np.uint16)
        add, mul = (np.zeros((w,) * k + (order,), dtype=np.uint16) for _ in range(2))
        for r in range(k):
            shape, weight = [1] * k + [order], w ** (k - 1 - r)
            shape[r] = w
            add += (row_add[:, ids // weight % w] * weight).reshape(shape)
            mul += (vy * weight).reshape(shape)
        add, mul = add.reshape(order, order), mul.reshape(order, order)

    neg = _encode_digits(base.neg[digits], m)
    unity = None
    if base.unity is not None:
        eye = np.zeros(k * k, dtype=np.int64)
        eye[:: k + 1] = base.unity
        unity = int(_encode_digits(eye, m))
    row_names = ["[" + ",".join(base.name(int(d)) for d in v) + "]" for v in vec]
    names = ["[" + ",".join(rows) + "]" for rows in itertools.product(row_names, repeat=k)]
    return FiniteRing(order, add, neg.astype(np.uint16), mul,
                      unity=unity, element_names=names,
                      kind="matrix", params={"base": base, "k": k, "digits": digits},
                      laws_checked=base.laws_checked)


def make_product_ring(r1: FiniteRing, r2: FiniteRing, cap: int = DEFAULT_RING_CAP) -> FiniteRing:
    """Direct product; pair (x, y) sits at index x*|R2| + y."""
    n1, n2 = r1.order, r2.order
    order = n1 * n2
    _check_cap(order, cap, "product ring")
    u, v = np.divmod(np.arange(order, dtype=np.int64), n2)
    add = _digit_table((n1, n2), [((0,), (0,), r1.add), ((1,), (1,), r2.add)])
    mul = _digit_table((n1, n2), [((0,), (0,), r1.mul), ((1,), (1,), r2.mul)])
    neg = r1.neg[u].astype(np.int64) * n2 + r2.neg[v]
    unity = None
    if r1.unity is not None and r2.unity is not None:
        unity = r1.unity * n2 + r2.unity
    names = [f"({r1.name(int(a))}, {r2.name(int(b))})" for a, b in zip(u, v)]
    return FiniteRing(order, add, neg.astype(np.uint16), mul,
                      unity=unity, element_names=names,
                      kind="product", params={"factors": (r1, r2)},
                      laws_checked=r1.laws_checked and r2.laws_checked)


def find_unity(ring: FiniteRing) -> int | None:
    """The first two-sided multiplicative identity, or None; candidates are
    searched _ROWS at a time, so no (n, n) temporary is built."""
    mul, idx = ring.mul, np.arange(ring.order)
    at = _first_offender_in_rows(ring.order, lambda rows: (
        (mul[rows] == idx).all(axis=1) & (mul[:, rows] == idx[:, None]).all(axis=0)))
    return None if at is None else at[0]


def make_table_ring(add, mul, neg=None, element_names=None,
                    cap: int = DEFAULT_RING_CAP) -> FiniteRing:
    """Wrap user-supplied tables. Axioms are checked by validate_ring, not here,
    but malformed tables (non-square, ragged, entries out of range) are rejected.
    The ring is not recorded as satisfying the ring laws (laws_checked)."""
    add = np.asarray(add, dtype=np.int64)
    mul = np.asarray(mul, dtype=np.int64)
    if add.ndim != 2 or add.shape[0] != add.shape[1]:
        raise ValueError(f"add table must be square, got shape {add.shape}")
    n = add.shape[0]
    if n == 0:
        raise ValueError("empty carrier")
    _check_cap(n, cap, "table ring")
    if mul.shape != (n, n):
        raise ValueError(f"mul table shape {mul.shape} does not match carrier size {n}")
    if not (v := range_check(n, add=add, mul=mul)):
        raise ValueError(f"{v.failure} at {v.witness}")
    if neg is None:
        zero = add == 0
        if at := first_offender(~zero.any(axis=1)):
            raise ValueError(f"no additive inverse candidate for element {at[0]}")
        neg = zero.argmax(axis=1)       # the first y with x + y == 0
    else:
        neg = np.asarray(neg, dtype=np.int64)
        if neg.shape != (n,) or neg.min() < 0 or neg.max() >= n:
            raise ValueError("neg table malformed")
    ring = FiniteRing(n, add.astype(np.uint16), neg.astype(np.uint16),
                      mul.astype(np.uint16),
                      element_names=list(element_names) if element_names else [],
                      kind="table")
    ring.unity = find_unity(ring)
    return ring


def _first_offender_in_rows(n: int, bad_rows) -> tuple[int, ...] | None:
    """first_offender of an (n, ...) boolean array built _ROWS rows at a
    time: bad_rows(rows) returns the block for the slice rows. Blocks are
    scanned in row order, so the first hit is the first in C order."""
    for r in range(0, n, _ROWS):
        if at := first_offender(bad_rows(slice(r, r + _ROWS))):
            return (at[0] + r, *at[1:])
    return None


def _tiles(n: int, width: int) -> list[slice]:
    """Slices of `width` indices covering 0..n-1, the last one maybe partial."""
    return [slice(s, s + width) for s in range(0, n, width)]


def _least_commutativity_offender(add: np.ndarray) -> tuple[int, int] | None:
    """The first (x, y) in C order with x + y != y + x, read over _ROWS-square
    tile pairs (i, j) with j >= i. (x, y) and (y, x) offend together, so the
    first offender has x <= y: it lies in the first row tile i that holds
    any, and is the least of that tile's per-block first offenders."""
    tiles = _tiles(add.shape[0], _ROWS)
    for k, i in enumerate(tiles):
        hits = [(at[0] + i.start, at[1] + j.start) for j in tiles[k:]
                if (at := first_offender(add[i, j] != add[j, i].T))]
        if hits:
            return min(hits)
    return None


def _first_associativity_offender(add: np.ndarray, gens: list[int]) -> tuple[int, int, int] | None:
    """The first (g, u, v) with (g + u) + v != g + (u + v), g in generator
    order, then (u, v) in C order. Every generator reads each tile of rows
    u in turn; once generator k fails in a tile, later tiles check only the
    generators before k."""
    g_plus = add[gens].astype(np.intp)          # row k: gens[k] + (.)
    found, live = None, len(gens)
    for rows in _tiles(add.shape[0], _TILE):
        tile = add[rows].astype(np.intp)        # u + v for u in rows
        for k in range(live):
            if at := first_offender(add[g_plus[k, rows]] != add[gens[k]].take(tile)):
                found, live = (gens[k], at[0] + rows.start, at[1]), k
                break
    return found


def check_additive_group(add: np.ndarray, neg: np.ndarray) -> Validation:
    """(add, neg) is an abelian group with identity 0, or the first failed
    law and its witness; the caller has checked shapes and ranges.
    Associativity is checked against `groups.greedy_generators` (each enters
    its own span, as 0 + g = g): the x with (x + u) + v = x + (u + v) for
    all u, v, the left nucleus N, are closed under +.

    The witness is the ordered scan's that takes generators from a frontier
    closure under +, each the least element outside the closure of those
    before it. Once identity, commutativity and inverses hold, N is an
    abelian group: for g in N, (g + x) + (-g) = x makes x -> g + x
    injective, so g + ((-g + u) + v) = u + v = g + (-g + (u + v)) puts -g
    in N. The generators before the first that fails associativity lie in
    N, where the closure and `grow_span`'s doubling give the same span, so
    both pick the same generators up to the first failing one.
    """
    n = add.shape[0]
    idx = np.arange(n)
    if at := first_offender(add[0, :] != idx):
        return Validation(False, "zero is not a left additive identity", (0, *at))
    if at := first_offender(add[:, 0] != idx):
        return Validation(False, "zero is not a right additive identity", (*at, 0))
    if at := _least_commutativity_offender(add):
        return Validation(False, "addition is not commutative", at)
    if at := first_offender(add[idx, neg] != 0):
        return Validation(False, "neg is not an additive inverse", (*at, int(neg[at])))
    if at := _first_associativity_offender(add, greedy_generators(add)):
        return Validation(False, "addition is not associative", at)
    return Validation(True)


def _associator_sides(mul: np.ndarray, garr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ab)c and a(bc) for a, b, c over the generators garr, indexed [a, b, c]."""
    ab = mul[garr[:, None], garr[None, :]]
    return mul[ab[:, :, None], garr[None, None, :]], mul[garr[:, None, None], ab[None, :, :]]


def _mul_laws_hold(ring: FiniteRing, gens: list[int]) -> bool:
    """Whether the multiplicative laws hold on tables whose addition is an
    abelian group with generators gens: (g + b)c = gc + bc for all b, c,
    a(g + c) = ag + ac for generators a and all c, the associator on
    generator triples and the unity (see the module docstring)."""
    n = ring.order
    add, mul = ring.add, ring.mul
    g_plus = add[gens].astype(np.intp)          # row i: g_i + (.)
    for cols in _tiles(n, _TILE):
        tile = np.ascontiguousarray(mul[:, cols])           # bc for c in cols
        at = tile + np.arange(0, tile.shape[1] * n, n)      # [b, j] -> j n + bc_j
        for g, gp in zip(gens, g_plus):
            if not np.array_equal(tile.take(gp, axis=0), add[mul[g, cols]].take(at)):
                return False

    garr = np.asarray(gens, dtype=np.intp)
    for a in gens:
        if not np.array_equal(mul[a][add[garr]], add[mul[a, garr]][:, mul[a]]):
            return False
    if not np.array_equal(*_associator_sides(mul, garr)):
        return False

    u, idx = ring.unity, np.arange(n)
    return u is None or (0 <= u < n and (mul[u] == idx).all() and (mul[:, u] == idx).all())


def _first_mul_failure(ring: FiniteRing, gens: list[int]) -> Validation:
    """The ordered scan of what `_mul_laws_hold` decides: the first violated
    law, in a fixed order, with its lexicographically first witness."""
    n = ring.order
    add, mul = ring.add, ring.mul
    # a(g + c) == ag + ac and (g + b)c == gc + bc for generators g,
    # over blocks of rows a and b
    for g in gens:
        if at := _first_offender_in_rows(
                n, lambda rows: mul[rows][:, add[g]] != add[mul[rows, g][:, None], mul[rows]]):
            a, c = at
            return Validation(False, "left distributivity fails", (a, g, c))
        if at := _first_offender_in_rows(
                n, lambda rows: mul[add[g, rows], :] != add[mul[g][None, :], mul[rows]]):
            return Validation(False, "right distributivity fails", (g, *at))

    # associator is additive in each slot once distributivity holds,
    # so generator triples decide it
    garr = np.asarray(gens, dtype=np.int64)
    lhs, rhs = _associator_sides(mul, garr)
    if at := first_offender(lhs != rhs):
        return Validation(False, "multiplication is not associative",
                          tuple(int(garr[i]) for i in at))

    if ring.unity is not None and find_unity(ring) != ring.unity:
        return Validation(False, "declared unity is not a two-sided identity",
                          (ring.unity,))
    return Validation(True)


def validate_ring(ring: FiniteRing) -> Validation:
    """Exact axiom check; reports the first violated axiom with a witness:
    shapes and ranges, then the additive group by `check_additive_group`,
    then the multiplicative laws, decided first and scanned for their
    witness only on a failure. See the module docstring for why checking
    the laws against additive generators is equivalent to the triple scan.
    """
    n, add, neg, mul = ring.order, ring.add, ring.neg, ring.mul
    if add.shape != (n, n) or mul.shape != (n, n) or neg.shape != (n,):
        return Validation(False, "table shape", (add.shape, mul.shape, neg.shape))
    if not (v := range_check(n, add=add, mul=mul, neg=neg)):
        return v
    if not (v := check_additive_group(add, neg)):
        return v
    gens = greedy_generators(add)
    if _mul_laws_hold(ring, gens):
        return Validation(True)
    return _first_mul_failure(ring, gens)
