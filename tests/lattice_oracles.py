"""The ideal-triple scans over (L, L, L) lattice positions, as the
classifier and the theorem checks ran them before they read the third ideal
as 64-bit words: the oracle that the word scans (`classify._triple_blocks`,
`classify._violations`) are compared against."""

from __future__ import annotations

import numpy as np

from ringbench.classify import _BLOCK, LatticeTable
from ringbench.groups import first_offender


def ideal_triples(t: LatticeTable, rows: np.ndarray | None = None):
    """(a, abc) over blocks of first indices a (from rows, default all):
    abc[i, b, c] is the position of (A*B)*C for A = a[i]."""
    rows = np.arange(len(t.masks)) if rows is None else rows
    step = max(1, _BLOCK // t.prod.nbytes)
    for i0 in range(0, len(rows), step):
        a = rows[i0:i0 + step]
        yield a, t.prod[t.prod[a]]


def ideal_triple_violations(t: LatticeTable, inP: np.ndarray, out: np.ndarray,
                            a: np.ndarray, abc: np.ndarray) -> np.ndarray:
    """[i, b, c] over one block of ideal_triples: 0 != A*B*C inside P with
    AB, AC and BC all outside P (out = ~inP[t.prod])."""
    viol = inP[abc]
    viol &= abc != t.zero
    viol &= out[a][:, :, None]
    viol &= out[a][:, None, :]
    viol &= out[None, :, :]
    return viol


def first_ideal_triple(t: LatticeTable, inP: np.ndarray,
                       rows: np.ndarray | None = None) -> tuple[int, int, int] | None:
    """First (a, b, c), lexicographically and with a from rows, where
    0 != A*B*C lies inside P and none of AB, AC, BC does."""
    out = ~inP[t.prod]
    for a, abc in ideal_triples(t, rows):
        hit = first_offender(ideal_triple_violations(t, inP, out, a, abc))
        if hit is not None:
            return int(a[hit[0]]), int(hit[1]), int(hit[2])
    return None


def search_scan(t: LatticeTable, inP: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
    """search_ring's three counters at one P, and every violating (a, b, c)
    in C order as a (count, 3) array."""
    out = ~inP[t.prod]
    scanned = nonzero = hypothesis = 0
    found = []
    for rows, abk in ideal_triples(t):
        scanned += abk.size
        hyp = abk != t.zero
        nonzero += int(np.count_nonzero(hyp))
        hyp &= inP[abk]
        hypothesis += int(np.count_nonzero(hyp))
        hits = np.argwhere(ideal_triple_violations(t, inP, out, rows, abk))
        hits[:, 0] = rows[hits[:, 0]]
        found.append(hits)
    return (scanned, nonzero, hypothesis), np.concatenate(found)


def collapse_law_witness(t: LatticeTable) -> tuple[int, int, int] | None:
    """First (i, j, k) with IJK != 0 and IJK differing from IJ, IK and JK."""
    for a, ijk in ideal_triples(t):
        ij, ik = t.prod[a][:, :, None], t.prod[a][:, None, :]
        hit = first_offender((ijk != t.zero) & (ij != ijk) & (ik != ijk)
                             & (t.prod[None, :, :] != ijk))
        if hit is not None:
            return int(a[hit[0]]), int(hit[1]), int(hit[2])
    return None
