"""Mutation pins. Each test swaps a fast path for a known-wrong variant and
asserts that its differential test catches the change; a pin that stops
failing its mutant means that test has lost its teeth."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import TRIANGULAR_Z2_Z4, build_ring
from ringbench import theorems
from slice_oracles import differences, widen_census

CENSUS_PAIRS = theorems._census_pairs
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
