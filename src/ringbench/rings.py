"""Finite rings materialized as dense operation tables.

Rings are not assumed commutative or unital. Elements are dense indices
0..order-1, zero is always index 0, and tables are numpy uint16 arrays
(no carrier may exceed the 65536 indices that dtype can hold).

Validation is exact at every size without the O(n^3) triple scan: once the
additive structure and both distributive laws hold, the associator
(ab)c - a(bc) is additive in each argument, so it vanishes everywhere as
soon as it vanishes on an additive generating set. The same inductive
argument reduces additive associativity and distributivity themselves to
checks against the generators, which costs O(g * n^2) total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_RING_CAP = 4096
_MAX_ORDER = 1 << 16     # element indices are stored as uint16


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


@dataclass
class RingValidation:
    ok: bool
    failure: str | None = None
    witness: tuple | None = None
    unity: int | None = None
    commutative: bool | None = None

    def __bool__(self) -> bool:
        return self.ok


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
                      kind="zn", params={"n": n})


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
                      element_names=names, kind="gaussian", params={"n": n})


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
    """k x k matrices over a finite base ring, row-major digit encoding."""
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

    # dot[a_0..a_{k-1}, b_0..b_{k-1}] = sum_j a_j * b_j in the base ring
    grid = np.ogrid[(slice(0, m),) * (2 * k)]
    dot = base.mul[grid[0], grid[k]]
    for j in range(1, k):
        dot = base.add[dot, base.mul[grid[j], grid[k + j]]]
    radices = (m,) * (k * k)
    add = _digit_table(radices, [((d,), (d,), base.add) for d in range(k * k)])
    mul = _digit_table(radices, [
        ([r * k + j for j in range(k)], [j * k + c for j in range(k)], dot)
        for r in range(k) for c in range(k)])

    neg = _encode_digits(base.neg[digits], m)
    unity = None
    if base.unity is not None:
        eye = np.zeros(k * k, dtype=np.int64)
        eye[:: k + 1] = base.unity
        unity = int(_encode_digits(eye, m))
    names = []
    for row in digits:
        rows = ",".join(
            "[" + ",".join(base.name(int(row[r * k + c])) for c in range(k)) + "]"
            for r in range(k))
        names.append(f"[{rows}]")
    return FiniteRing(order, add, neg.astype(np.uint16), mul,
                      unity=unity, element_names=names,
                      kind="matrix", params={"base": base, "k": k, "digits": digits})


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
                      kind="product", params={"factors": (r1, r2)})


def find_unity(ring: FiniteRing) -> int | None:
    """Exhaustive search for a two-sided multiplicative identity."""
    idx = np.arange(ring.order)
    rows = (ring.mul == idx[None, :]).all(axis=1)
    cols = (ring.mul == idx[:, None]).all(axis=0)
    hits = np.nonzero(rows & cols)[0]
    return int(hits[0]) if hits.size else None


def make_table_ring(add, mul, neg=None, element_names=None,
                    cap: int = DEFAULT_RING_CAP) -> FiniteRing:
    """Wrap user-supplied tables. Axioms are checked by validate_ring, not here,
    but malformed tables (non-square, ragged, entries out of range) are rejected."""
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
    for tab, label in ((add, "add"), (mul, "mul")):
        if tab.min() < 0 or tab.max() >= n:
            bad = np.argwhere((tab < 0) | (tab >= n))[0]
            raise ValueError(f"{label} entry out of range at {tuple(int(v) for v in bad)}")
    if neg is None:
        neg = np.full(n, -1, dtype=np.int64)
        for x in range(n):
            hits = np.nonzero(add[x] == 0)[0]
            if hits.size == 0:
                raise ValueError(f"no additive inverse candidate for element {x}")
            neg[x] = hits[0]
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


def additive_generators(ring: FiniteRing) -> list[int]:
    """Greedy additive generating set: repeatedly adjoin the smallest element
    outside the current additive closure. Small (log-sized) for the rings here."""
    n = ring.order
    add = ring.add
    span = np.zeros(n, dtype=bool)
    span[0] = True
    gens: list[int] = []
    while not span.all():
        g = int(np.nonzero(~span)[0][0])
        gens.append(g)
        frontier = [g]
        span[g] = True
        while frontier:
            cur = np.asarray(frontier, dtype=np.int64)
            members = np.nonzero(span)[0]
            new = np.unique(np.concatenate([
                add[cur[:, None], members[None, :]].ravel(),
                add[members[:, None], cur[None, :]].ravel()]))
            fresh = new[~span[new]]
            span[fresh] = True
            frontier = fresh.tolist()
    return gens


def validate_ring(ring: FiniteRing) -> RingValidation:
    """Exact axiom check; reports the first violated axiom with a witness.

    See the module docstring for why checking associativity and
    distributivity against an additive generating set is equivalent to the
    full triple scan.
    """
    n = ring.order
    add, neg, mul = ring.add, ring.neg, ring.mul
    idx = np.arange(n)

    if add.shape != (n, n) or mul.shape != (n, n) or neg.shape != (n,):
        return RingValidation(False, "table shape",
                              (add.shape, mul.shape, neg.shape))
    for tab, label in ((add, "add"), (mul, "mul")):
        if tab.min() < 0 or tab.max() >= n:
            bad = np.argwhere((tab < 0) | (tab >= n))[0]
            return RingValidation(False, f"{label} entry out of range",
                                  tuple(int(v) for v in bad))

    bad = np.nonzero(add[0, :] != idx)[0]
    if bad.size:
        return RingValidation(False, "zero is not a left additive identity", (0, int(bad[0])))
    bad = np.nonzero(add[:, 0] != idx)[0]
    if bad.size:
        return RingValidation(False, "zero is not a right additive identity", (int(bad[0]), 0))

    diff = add != add.T
    if diff.any():
        a, b = (int(v) for v in np.argwhere(diff)[0])
        return RingValidation(False, "addition is not commutative", (a, b))

    bad = np.nonzero(add[idx, neg] != 0)[0]
    if bad.size:
        x = int(bad[0])
        return RingValidation(False, "neg is not an additive inverse", (x, int(neg[x])))

    gens = additive_generators(ring)

    # (g + u) + v == g + (u + v) for generators g; extends to all elements
    for g in gens:
        lhs = add[add[g, :], :]
        rhs = add[g, add]
        diff = lhs != rhs
        if diff.any():
            u, v = (int(w) for w in np.argwhere(diff)[0])
            return RingValidation(False, "addition is not associative", (g, u, v))

    # a(g + c) == ag + ac and (g + b)c == gc + bc for generators g
    for g in gens:
        lhs = mul[:, add[g, :]]
        rhs = add[mul[:, g][:, None], mul]
        diff = lhs != rhs
        if diff.any():
            a, c = (int(w) for w in np.argwhere(diff)[0])
            return RingValidation(False, "left distributivity fails", (a, g, c))
        lhs = mul[add[g, :], :]
        rhs = add[mul[g, :][None, :], mul]
        diff = lhs != rhs
        if diff.any():
            b, c = (int(w) for w in np.argwhere(diff)[0])
            return RingValidation(False, "right distributivity fails", (g, b, c))

    # associator is additive in each slot once distributivity holds,
    # so generator triples decide it
    garr = np.asarray(gens, dtype=np.int64)
    if garr.size:
        lhs = mul[mul[garr[:, None], garr[None, :]][:, :, None], garr[None, None, :]]
        rhs = mul[garr[:, None, None], mul[garr[:, None], garr[None, :]][None, :, :]]
        diff = lhs != rhs
        if diff.any():
            i, j, k = (int(w) for w in np.argwhere(diff)[0])
            return RingValidation(False, "multiplication is not associative",
                                  (int(garr[i]), int(garr[j]), int(garr[k])))

    unity = find_unity(ring)
    if ring.unity is not None and unity != ring.unity:
        return RingValidation(False, "declared unity is not a two-sided identity",
                              (ring.unity,))
    return RingValidation(True, unity=unity, commutative=ring.is_commutative())
