"""Finite groups given by explicit operation tables, and the validation core.

Elements are dense indices 0..order-1 and the identity is always index 0.
Grading groups stay small, so validation is plain exhaustive search.

Every validator in the package (groups, rings, gradings, graded maps and
bimodules) returns a `Validation` and names its first offender through
`first_offender`: the lexicographically first failing index tuple of a
boolean array, which is what makes reported witnesses deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FiniteGroup:
    order: int
    op: np.ndarray          # (order, order) -> element index
    inverse: np.ndarray     # (order,) -> element index
    identity: int = 0
    element_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.element_names:
            self.element_names = [str(i) for i in range(self.order)]

    def mul(self, a: int, b: int) -> int:
        return int(self.op[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def name(self, a: int) -> str:
        return self.element_names[a]


@dataclass(frozen=True)
class Validation:
    """Outcome of a structure check: ok, or the first failed law and a witness."""

    ok: bool
    failure: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def first_offender(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True entry of `bad` in C order, or None."""
    if not bad.any():
        return None
    return tuple(int(v) for v in np.unravel_index(int(bad.argmax()), bad.shape))


def range_check(n: int, **tables: np.ndarray) -> Validation:
    """Every entry of every named table is an element index below n.

    Only a table whose extremes fall outside is scanned for its offender."""
    for label, tab in tables.items():
        if tab.size and (tab.min() < 0 or tab.max() >= n):
            return Validation(False, f"{label} entry out of range",
                              first_offender((tab < 0) | (tab >= n)))
    return Validation(True)


def grow_span(add: np.ndarray, span: np.ndarray, g: int, edges: list | None = None) -> np.ndarray:
    """The bool mask span ∪ (span + g) ∪ (span + 2g) ∪ ..., grown by doubling.

    Each round adds one translate, A ∪ (A + 2^t g), read as add[a, 2^t g],
    and the growth stops as soon as the step 2^t g already lies in A. With
    A = span + {0, ..., 2^t - 1} g and span a subgroup S of a group, this
    stop is exact: 2^t g = s + jg with s in S and 0 <= j < 2^t puts kg in S
    for k = 2^t - j, 1 <= k <= 2^t, so S + <g> = S + {0, ..., k - 1} g lies
    in A already. A subgroup and its element g thus give the subgroup they
    generate in about log2 of its order rounds. At most n rounds run,
    whatever the table. Every member added is a sum taken in `add` of a
    member of span and multiples of g, and the result always holds span;
    pass add.T to translate on the left, g + a. Returns a new mask.

    A list `edges` records the walk: each round appends (step, xs, ys),
    whose pairs read x = y + step. They are each member x it adds, with
    one y of the span, and last its doubling, x = 2 step, y = step.
    """
    out = span.copy()
    step = int(g)
    for _ in range(add.shape[0]):
        if out[step]:
            break
        reached = add[:, step][out]                 # y + step for each y in out
        if edges is not None:
            source = np.full(len(out), -1)
            source[reached] = np.flatnonzero(out)   # one y with y + step = x, per x
            xs = np.flatnonzero((source >= 0) & ~out)
            edges.append((step, np.append(xs, add[step, step]), np.append(source[xs], step)))
        out[reached] = True
        step = int(add[step, step])
    return out


def greedy_generators(add: np.ndarray, within: np.ndarray | None = None,
                      edges: list | None = None) -> list[int] | None:
    """Generators of the subgroup spanned by the bool mask `within` (every
    element when None): each the first member outside the span of those
    before it, the span grown by `grow_span`.

    None when the span leaves `within` (0 included), so `within` is no
    subgroup, or when a generator does not enter its own span, which on a
    group 0 + g = g rules out. Otherwise `within` is the span of the
    generators. Every round adds its generator, so at most n rounds run,
    whatever the table. `edges` records every walk, as in `grow_span`.
    """
    span = np.zeros(add.shape[0], dtype=bool)
    span[0] = True
    if within is None:
        within = np.ones_like(span)
    elif not within[0]:
        return None
    gens: list[int] = []
    while (outside := within & ~span).any():
        g = int(outside.argmax())
        span = grow_span(add, span, g, edges)
        if not span[g] or (span & ~within).any():
            return None
        gens.append(g)
    return gens


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n under addition, identity 0."""
    if n <= 0:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    idx = np.arange(n, dtype=np.int64)
    op = (idx[:, None] + idx[None, :]) % n
    inverse = (-idx) % n
    return FiniteGroup(n, op.astype(np.uint16), inverse.astype(np.uint16))


def make_product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; pair (a, b) sits at index a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    n = n1 * n2
    a = np.arange(n, dtype=np.int64)
    a1, a2 = a // n2, a % n2
    op = (g1.op[a1[:, None], a1[None, :]].astype(np.int64) * n2
          + g2.op[a2[:, None], a2[None, :]])
    inverse = g1.inverse[a1].astype(np.int64) * n2 + g2.inverse[a2]
    names = [f"({g1.name(int(i))}, {g2.name(int(j))})" for i, j in zip(a1, a2)]
    return FiniteGroup(n, op.astype(np.uint16), inverse.astype(np.uint16),
                       element_names=names)


def validate_group(group: FiniteGroup) -> Validation:
    """Check the group axioms on the tables; report the first violation found.

    Checks run in a fixed order (table shape, identity, inverses,
    associativity) and the witness is the lexicographically first offender.
    """
    n = group.order
    op, inverse = group.op, group.inverse
    idx = np.arange(n)
    if op.shape != (n, n):
        return Validation(False, "op table shape", (op.shape, (n, n)))
    if not (v := range_check(n, op=op)):
        return v
    if inverse.shape != (n,):
        return Validation(False, "inverse table shape", (inverse.shape, (n,)))
    e = group.identity
    if e != 0:
        return Validation(False, "identity must be index 0", (e,))
    if at := first_offender(op[e, :] != idx):
        return Validation(False, "identity", (e, *at))
    if at := first_offender(op[:, e] != idx):
        return Validation(False, "identity", (*at, e))
    if at := first_offender(op[idx, inverse] != e):
        return Validation(False, "inverse", (*at, int(inverse[at])))
    if at := first_offender(op[inverse, idx] != e):
        return Validation(False, "inverse", (int(inverse[at]), *at))
    # (a b) c == a (b c), exhaustive; grading groups are tiny
    for a in range(n):
        if at := first_offender(op[op[a, :], :] != op[a, op]):
            return Validation(False, "associativity", (a, *at))
    return Validation(True)
