"""Mutation pins. Each test swaps a fast path for a known-wrong variant and
asserts that its differential test catches the change; a pin that stops
failing its mutant means that test has lost its teeth."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import TRIANGULAR_Z2_Z4, build_ring, loop_search
from ringbench import classify, theorems
from slice_oracles import differences, widen_census

CENSUS_PAIRS = theorems._census_pairs
LATTICE_TABLE = classify._lattice_table
P11_CUBES = theorems._p11_cubes
P12_TABLES = theorems._p12_tables


def test_unmutated_fast_paths_agree():
    assert differences(build_ring("ring: zn(8)")) == {}


def test_p11_without_its_census_cube_is_caught(monkeypatch):
    """P11 that never drops an (A, B, K) holding a g-triple-zero."""
    def cubes(*args):
        out = P11_CUBES(*args)
        return {**out, "tz": np.zeros_like(out["tz"])}

    monkeypatch.setattr(theorems, "_p11_cubes", cubes)
    assert set(differences(build_ring("ring: zn(8)"))) == {"P11"}


def test_p10_without_the_k_slice_is_caught(monkeypatch):
    """P10 that drops (x, y) for a triple-zero (x, y, z) whether or not z
    lies in K_g."""
    monkeypatch.setattr(theorems, "_census_pairs", lambda triples, m, inK:
                        CENSUS_PAIRS(triples, m, np.ones_like(inK)))
    assert set(differences(build_ring("ring: zn(8)"))) == {"P10"}


@pytest.mark.parametrize("dropped", list(theorems._P12_SETS))
def test_p12_without_one_table_is_caught(dropped, monkeypatch):
    """P12 that reads one of its six sets as always zero; the widened census
    makes every set fire on this ring."""
    def tables(*args):
        out = P12_TABLES(*args)
        return {**out, dropped: np.zeros_like(out[dropped])}

    widen_census(monkeypatch)
    monkeypatch.setattr(theorems, "_p12_tables", tables)
    assert set(differences(build_ring(TRIANGULAR_Z2_Z4))) == {"P12"}


def test_search_with_transposed_ideal_products_is_caught(monkeypatch):
    """lattice_table reading I*J as J*I. With every proper ideal eligible on
    a ring where I*J != J*I, search_ring's raw re-check through
    verify_witness discards a candidate, and the loop oracle disagrees."""
    def transposed(gr, masks):
        t = LATTICE_TABLE(gr, masks)
        return dataclasses.replace(t, prod=np.ascontiguousarray(t.prod.T))

    monkeypatch.setattr(classify, "_lattice_table", transposed)
    monkeypatch.setattr(theorems.RingContext, "weakly_2_absorbing", lambda self, p: True)
    monkeypatch.setattr(theorems.RingContext, "two_absorbing", lambda self, p: False)
    gr = build_ring(TRIANGULAR_Z2_Z4)
    got = theorems.search_ring(gr, "mutant")
    assert got["discarded"] >= 1
    counters, found = loop_search(gr, [e["mask"] for e in got["eligible_ideals"]])
    assert (got["counters"], [(c["P"]["mask"], c["A"]["mask"], c["B"]["mask"], c["K"]["mask"],
                               c["product_mask"]) for c in got["counterexamples"]]) \
        != (counters, found)
