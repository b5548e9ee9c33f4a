"""Bit-packed subsets of a finite carrier (Python ints), with numpy bridges."""

from __future__ import annotations

import numpy as np


def mask_from_bools(flags: np.ndarray) -> int:
    packed = np.packbits(flags.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def bools_from_mask(mask: int, n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


def indices_from_mask(mask: int, n: int) -> np.ndarray:
    return np.nonzero(bools_from_mask(mask, n))[0]


def popcount(mask: int) -> int:
    return mask.bit_count()


def contains(mask: int, i: int) -> bool:
    return (mask >> i) & 1 == 1


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0
