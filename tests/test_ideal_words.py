"""The ideal-triple scans over words of the third ideal (`classify._violations`
through `_first_ideal_triple`, `theorems.search_ring`'s counters and
`theorems._collapse_witness`) against the (L, L, L) position scans they
replaced (`lattice_oracles`): first triples with and without a row
restriction, full violation lists in C order, search counters and the
collapse law, at every lattice mask P of every sidedness, not only at
proper ideals."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings

import lattice_oracles
from conftest import SIDEDNESSES, TRIANGULAR_Z2_Z4, build_ring, graded_cases
from ringbench import classify, theorems
from ringbench.ideals import EnumerationCapError

Z2_5 = "product(zn(2), product(zn(2), product(zn(2), product(zn(2), zn(2)))))"
# order 128 and L = 96: two words over the third ideal, the second one partial
WORD_EDGE_RING = f"ring: product(zn(4), {Z2_5})"
EXPLICIT_RINGS = (TRIANGULAR_Z2_Z4, "ring: matrix(zn(3), 2)", "ring: matrix(zn(4), 2)",
                  WORD_EDGE_RING)
# lattices above this size (matrix(zn(4), 2)'s 225 graded subgroups) are
# left out: the position oracle's search scan grows as L^4 over every P
MAX_LATTICE = 128


def word_scan(t, inP):
    """search_ring's counters at one P, read off the words as it reads them,
    and the violations unpacked in C order."""
    words = classify._triple_words(t, inP)
    nz = classify._pack(t.prod != t.zero)
    nonzero = hypothesis = 0
    found = []
    for a, ab in classify._triple_blocks(t):
        nonzero += int(np.bitwise_count(nz[ab]).sum())
        hypothesis += int(np.bitwise_count(words[0][ab]).sum())
        hits = classify._bits(classify._violations(words, a, ab))
        hits[:, 0] = a[hits[:, 0]]
        found.append(hits)
    return (len(t.masks) ** 3, nonzero, hypothesis), np.concatenate(found)


def check_table(t, *context) -> tuple[int, int]:
    """Compare at every mask of t. Returns the number of violations, and of
    those whose third ideal lies past the first word."""
    assert theorems._collapse_witness(t) == lattice_oracles.collapse_law_witness(t), context
    violated = late = 0
    for m in t.masks:
        inP = t.inside(m)
        at = t.index[m]
        for rows in (None, np.flatnonzero(t.sub[:, at]), np.flatnonzero(t.sub[at])):
            assert (classify._first_ideal_triple(t, inP, rows)
                    == lattice_oracles.first_ideal_triple(t, inP, rows)), (*context, m)
        counters, found = word_scan(t, inP)
        want_counters, want = lattice_oracles.search_scan(t, inP)
        assert counters == want_counters, (*context, m)
        assert np.array_equal(found, want), (*context, m)
        violated += len(want)
        late += int((want[:, 2] >= 64).sum())
    return violated, late


def tables(gr):
    """(sidedness, table) for each sidedness whose lattice differs from
    those before it (on a commutative ring the one-sided lattices are the
    two-sided one)."""
    seen = set()
    for sidedness in SIDEDNESSES:
        try:
            t = classify.lattice_table(gr, sidedness, MAX_LATTICE)
        except EnumerationCapError:
            continue
        if t.masks not in seen:
            seen.add(t.masks)
            yield sidedness, t


def test_word_scans_match_position_scans():
    counts = np.array([check_table(t, spec, sidedness) for spec in EXPLICIT_RINGS
                       for sidedness, t in tables(build_ring(spec))])
    # violations whose third ideal lies in the partial second word, too
    assert (counts.sum(axis=0) > 0).all()


def test_word_scans_at_block_edges(monkeypatch):
    """Blocks of five first indices, five (L, words) tables of 8-byte words,
    at the word edge ring: 96 = 19 * 5 + 1, so the last block holds one."""
    t = classify.lattice_table(build_ring(WORD_EDGE_RING))
    monkeypatch.setattr(classify, "_BLOCK", 40 * len(t.masks) * -(-len(t.masks) // 64))
    check_table(t, WORD_EDGE_RING)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(case=graded_cases())
def test_drawn_word_scans_match_position_scans(case):
    expr, gr, _, _ = case
    for sidedness, t in tables(gr):
        check_table(t, expr, sidedness)
