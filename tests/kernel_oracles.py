"""The sandwich kernel and its twin classes as first written, kept as the
oracle of `classify._sandwich_kernel` and `classify._kernel_twins`.

`dict_sandwich_kernel` finds the distinct sets x*S with one np.unique per x
and the distinct value rows through byte-keyed dicts; `inv_twins` sorts the
(h, h) inv and its transpose. Both number classes by first occurrence, so
their U, inv, zero and twin signatures must equal the fast path's bit for
bit. Neither memoizes anything on the ring. `product_slots`, which named
the first stray product for the kernel, is kept with them.
"""

from __future__ import annotations

import numpy as np

from ringbench import classify
from ringbench.grading import GradedRing, GradingError
from ringbench.groups import first_offender


def product_slots(gr: GradedRing, pos: np.ndarray, products: np.ndarray,
                  factors: tuple[np.ndarray, ...], target: str) -> np.ndarray:
    """pos[products], where pos is -1 outside the set the products must land in.

    products[i, j, ...] is the product of factors[0][i], factors[1][j], ...;
    the first one that misses raises GradingError naming it, which happens
    only for a grading that validate_grading would have rejected.
    """
    slots = pos[products]
    if slots.min() < 0:
        at = first_offender(slots < 0)
        names = "*".join(gr.name(int(f[i])) for f, i in zip(factors, at))
        raise GradingError(f"product {names} = {gr.name(int(products[at]))} "
                           f"is not in {target}; the grading is not multiplicative")
    return slots


def dict_sandwich_kernel(gr: GradedRing, key: tuple, L: np.ndarray, S: np.ndarray,
                         R: np.ndarray, T: np.ndarray, where: str) -> dict:
    """classify._sandwich_kernel's arguments and U, inv and zero."""
    mul = gr.ring.mul
    pos = np.full(gr.order, -1, dtype=np.int32)
    pos[T] = np.arange(len(T), dtype=np.int32)
    # V(x, y) = (x * S) * y, so pairs whose x share the set x * S share rows
    left_sets: dict[bytes, int] = {}
    left_of = [left_sets.setdefault(np.unique(mul[x, S]).tobytes(), len(left_sets))
               for x in L]
    rows: dict[bytes, int] = {}
    row_of = np.empty((len(left_sets), len(R)), dtype=np.int32)
    for a, xs in enumerate(left_sets):
        slots = pos[mul[np.ix_(np.frombuffer(xs, dtype=mul.dtype), R)]]
        if slots.min() < 0:
            for x in L:     # name the first stray x*s*y
                product_slots(gr, pos, mul[mul[x, S][:, None], R][None],
                              ([x], S, R), where)
        bits = np.zeros((len(R), len(T)), dtype=bool)
        bits[np.arange(len(R))[None, :], slots] = True
        packed = np.packbits(bits, axis=1).tobytes()
        w = len(packed) // len(R)
        row_of[a] = [rows.setdefault(packed[j:j + w], len(rows))
                     for j in range(0, len(packed), w)]
    U = np.unpackbits(np.frombuffer(b"".join(rows), dtype=np.uint8)
                      .reshape(len(rows), -1), axis=1, count=len(T)).astype(bool)
    return {"key": key, "T": T, "R": R, "U": U, "inv": row_of[left_of],
            "zero": ~U[:, T != 0].any(axis=1)}


def inv_twins(inv: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """classify._kernel_twins from the classes of equal rows and of equal
    columns of inv itself, under the same classify._saves rule."""
    h = len(inv)
    if not classify._saves(h, 0):
        return None
    rows, cols = classify._partition(inv), classify._partition(inv.T)
    return (rows.of, cols.of) if classify._saves(h, len(rows.sizes) * len(cols.sizes)) else None
