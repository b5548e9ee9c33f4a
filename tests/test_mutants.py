"""Mutation pins. Each test swaps a fast path for a known-wrong variant and
asserts that its differential test catches the change; a pin that stops
failing its mutant means that test has lost its teeth."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import (
    TRIANGULAR_Z2_Z4,
    assert_closure_matches_scan,
    assert_spans_match_raw_fixpoint,
    build_ring,
    loop_search,
)
from ringbench import classify, constructions, ideals, rings, theorems
from ringbench.bitsets import bools_from_mask
from ringbench.groups import first_offender, greedy_generators
from slice_oracles import differences, widen_census
import test_ideal_words
import test_idealization_tables
import test_kernel_oracle
import test_pair_rule
import test_rings
import test_twin_scan
import test_validation
import test_verdict_vectors

CENSUS_PAIRS = theorems._census_pairs
LATTICE_TABLE = classify._lattice_table
P11_CUBES = theorems._p11_cubes
P12_TABLES = theorems._p12_tables
BOX_TRIPLES = classify._Boxes.triples
PACK = classify._pack
PAIR_TABLE = rings._pair_table
P16_TABLES = theorems._p16_tables
EMBED = constructions.embed_ideal_in_idealization
VERDICTS = theorems.RingContext.verdicts
IDEALIZATIONS = theorems.RingContext.idealizations

# rings where additive spans of single elements are often not ideals
CLOSURE_RINGS = ("ring: matrix(zn(2), 2)", "ring: gaussian(4)", TRIANGULAR_Z2_Z4)


def check_closures():
    """assert_closure_matches_scan on the additive span of every element of
    each CLOSURE_RINGS ring."""
    for text in CLOSURE_RINGS:
        gr = build_ring(text)
        for x in range(gr.order):
            assert_closure_matches_scan(gr, ideals.additive_span(gr, [x]), text, x)


def check_spans():
    """assert_spans_match_raw_fixpoint on zn(128), whose span of 1 takes
    seven doublings."""
    assert_spans_match_raw_fixpoint(build_ring("ring: zn(128)"), [1], [6], "zn(128)")


def test_unmutated_fast_paths_agree():
    assert differences(build_ring("ring: zn(8)")) == {}
    check_closures()
    check_spans()


def test_closure_decision_without_absorption_is_caught(monkeypatch):
    """_closure_holds that checks only that the mask is a subgroup calls a
    span closed although it does not absorb products."""
    monkeypatch.setattr(ideals, "_closure_holds", lambda gr, mask, left, right:
                        greedy_generators(gr.ring.add, bools_from_mask(mask, gr.order))
                        is not None)
    with pytest.raises(AssertionError):
        check_closures()


def test_span_growth_capped_at_three_rounds_is_caught(monkeypatch):
    """grow_span that stops after three doublings, whether or not the step
    already lies in the span."""
    def capped(add, span, g):
        out, step = span.copy(), int(g)
        for _ in range(3):
            if out[step]:
                break
            out[add[:, step][out]] = True
            step = int(add[step, step])
        return out

    monkeypatch.setattr(ideals, "grow_span", capped)
    with pytest.raises(AssertionError):
        check_spans()


def test_decision_skipping_the_last_partial_tile_is_caught(monkeypatch):
    """Tiles that stop before the last, partial one, so the tile-edge
    corruptions there pass _group_generators, which reads the walk's edges
    in tiles, and _mul_laws_hold, which reads mul in column tiles."""
    monkeypatch.setattr(rings, "_tiles", lambda n, width:
                        [slice(s, s + width) for s in range(0, n - width + 1, width)])
    with pytest.raises(AssertionError):
        test_rings.test_validate_ring_at_tile_edges()


def test_decision_reading_only_the_first_tile_is_caught(monkeypatch):
    """Tiles cut to the first one, so the right distributivity pass never
    reads the late column tiles where late_tile_corruptions break it."""
    monkeypatch.setattr(rings, "_tiles", lambda n, width: [slice(0, width)])
    with pytest.raises(AssertionError):
        test_rings.test_validate_ring_on_late_tile_breaks()


def test_decision_without_doubling_edges_is_caught(monkeypatch):
    """A walk whose rounds drop their doubling edge, so the decision never
    sees a generator's power relation: it accepts the Z_4 table whose
    x -> xc is additive on every tree edge but not on u + u = 2u."""
    def tree_edges_only(add, within=None, edges=None):
        gens = greedy_generators(add, within, edges)
        if edges is not None:
            edges[:] = [(s, xs[:-1], ys[:-1]) for s, xs, ys in edges]
        return gens

    monkeypatch.setattr(rings, "greedy_generators", tree_edges_only)
    with pytest.raises(AssertionError):
        test_rings.test_right_distributivity_broken_only_on_a_doubling_edge()


def test_decision_without_generator_commutation_is_caught(monkeypatch):
    """A walk that reports only its first generator, so _group_generators
    compares no two translations and accepts the permutations of three
    points as addition: every edge x = y + s has x + (.) = y + (s + (.))
    in any group."""
    def first_generator_only(add, within=None, edges=None):
        gens = greedy_generators(add, within, edges)
        return gens and gens[:1]

    monkeypatch.setattr(rings, "greedy_generators", first_generator_only)
    with pytest.raises(AssertionError):
        test_rings.test_validate_ring_non_abelian_addition()


def test_associativity_witness_in_tile_order_is_caught(monkeypatch):
    """_first_associativity_offender that reports the first tile in which
    any generator fails, not the first generator that fails anywhere."""
    def tile_order(add, gens):
        g_plus = add[gens].astype(np.intp)
        for rows in rings._tiles(add.shape[0], rings._TILE):
            tile = add[rows].astype(np.intp)
            for g, gp in zip(gens, g_plus):
                if at := first_offender(add[gp[rows]] != add[g].take(tile)):
                    return g, at[0] + rows.start, at[1]
        return None

    monkeypatch.setattr(rings, "_first_associativity_offender", tile_order)
    with pytest.raises(AssertionError):
        test_rings.test_associativity_witness_matches_ordered_scan()


def test_commutativity_witness_from_the_first_block_is_caught(monkeypatch):
    """_least_commutativity_offender that reports the first offending block
    of a row tile, not the least offender over its blocks."""
    def first_block(add):
        tiles = rings._tiles(add.shape[0], rings._ROWS)
        for k, i in enumerate(tiles):
            for j in tiles[k:]:
                if at := first_offender(add[i, j] != add[j, i].T):
                    return at[0] + i.start, at[1] + j.start
        return None

    monkeypatch.setattr(rings, "_least_commutativity_offender", first_block)
    with pytest.raises(AssertionError):
        test_rings.test_commutativity_witness_is_least_over_the_row_tile()


def test_find_unity_scanning_one_row_block_is_caught(monkeypatch):
    """find_unity whose row-block search reads only the first block, which
    misses the unity 513 of matrix(zn(8), 2)."""
    monkeypatch.setattr(rings, "_first_offender_in_rows", lambda n, bad_rows:
                        first_offender(bad_rows(slice(0, rings._ROWS))))
    with pytest.raises(AssertionError):
        test_validation.test_find_unity_matches_the_whole_table_search()


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
    monkeypatch.setattr(theorems.RingContext, "verdicts", lambda self, kind, g=None:
                        np.append(np.full(len(self.proper_ideals()), kind == "weakly"), False))
    gr = build_ring(TRIANGULAR_Z2_Z4)
    got = theorems.search_ring(gr, "mutant")
    assert got["discarded"] >= 1
    counters, found = loop_search(gr, [e["mask"] for e in got["eligible_ideals"]])
    assert (got["counters"], [(c["P"]["mask"], c["A"]["mask"], c["B"]["mask"], c["K"]["mask"],
                               c["product_mask"]) for c in got["counterexamples"]]) \
        != (counters, found)


# non-commutative, so outside's row k and column k differ
TWIN_RINGS = ("ring: matrix(zn(3), 2)", test_twin_scan.COLUMN_MATRICES_Z4)


def test_unmutated_twin_scan_agrees():
    test_twin_scan.check_twin_scans(TWIN_RINGS)


def test_k_twins_without_outside_rows_are_caught(monkeypatch):
    """k classes refined by outside's columns alone, omitting its row k:
    on a non-commutative ring they join k that (k, m) tells apart."""
    def columns_only(base, outside):
        if base is None:
            return None
        return (classify._partition(base[0], np.packbits(outside, axis=1)),
                classify._partition(base[1], np.packbits(outside, axis=0).T))

    monkeypatch.setattr(classify, "_refine", columns_only)
    with pytest.raises(AssertionError):
        test_twin_scan.check_twin_scans(TWIN_RINGS)


def test_boxes_expanded_without_last_member_are_caught(monkeypatch):
    """A census whose class boxes lose the last member k of each class
    with more than one."""
    def short(self):
        out = BOX_TRIPLES(self)
        if self.twins is None:
            return out
        second = self.twins[1]
        last = [np.flatnonzero(second.of == c)[-1] for c in np.flatnonzero(second.sizes > 1)]
        return out[~np.isin(out[:, 1], last)]

    monkeypatch.setattr(classify._Boxes, "triples", short)
    with pytest.raises(AssertionError):
        test_twin_scan.check_twin_scans(TWIN_RINGS)


def test_twins_not_refined_by_outside_are_caught(monkeypatch):
    """The kernel's classes scanned as they are, as if no ideal could split
    them."""
    monkeypatch.setattr(classify, "_refine", lambda base, outside:
                        base and (classify._partition(base[0]), classify._partition(base[1])))
    with pytest.raises(AssertionError):
        test_twin_scan.check_twin_scans(TWIN_RINGS)


def test_kernel_column_twins_from_rows_are_caught(monkeypatch):
    """_kernel_twins whose column classes come from row_of's rows, pulled back
    like its row classes, not from its columns: on a non-commutative ring
    they split the elements differently, and on TRIANGULAR_Z2_Z4 no ideal's
    outside splits the joined columns again."""
    def rows_for_columns(gr, tk):
        rows = classify._partition(tk["row_of"]).of[tk["left_of"]]
        return rows, rows

    monkeypatch.setattr(classify, "_kernel_twins", rows_for_columns)
    with pytest.raises(AssertionError):
        test_kernel_oracle.check_explicit_kernels()
    with pytest.raises(AssertionError):
        test_twin_scan.check_kernel_twin_scans([TRIANGULAR_Z2_Z4])


def test_value_rows_without_last_byte_are_caught(monkeypatch):
    """Value-set rows, which _bit_rows packs over (y, class of x*S, slot),
    partitioned with their last packed byte cleared: rows that differ only
    in their last eight slots share a class, and U loses those slots."""
    bit_rows = classify._bit_rows

    def cleared(at, shape):
        rows = bit_rows(at, shape)
        if len(shape) == 3:
            rows[:, -1] = 0
        return rows

    monkeypatch.setattr(classify, "_bit_rows", cleared)
    with pytest.raises(AssertionError):
        test_kernel_oracle.check_explicit_kernels()


def check_word_edge_ring():
    """test_ideal_words' comparisons on its L = 96 ring, whose second word
    over the third ideal is partial."""
    spec = test_ideal_words.WORD_EDGE_RING
    test_ideal_words.check_table(classify.lattice_table(build_ring(spec)), spec)


def test_words_without_the_last_partial_word_are_caught(monkeypatch):
    """Words over the third ideal that stop before the last, partial word,
    so no violation whose third ideal lies past position 63 is seen."""
    monkeypatch.setattr(classify, "_pack", lambda bits: PACK(bits)[..., :bits.shape[-1] // 64])
    with pytest.raises(AssertionError):
        check_word_edge_ring()


def test_words_packed_big_endian_are_caught(monkeypatch):
    """Bits packed big-endian within each byte of a word, so the first set
    bit names the wrong third ideal."""
    def big_endian(bits):
        out = np.zeros(bits.shape[:-1] + (8 * -(-bits.shape[-1] // 64),), dtype=np.uint8)
        out[..., :-(-bits.shape[-1] // 8)] = np.packbits(bits, axis=-1, bitorder="big")
        return out.view("<u8")

    monkeypatch.setattr(classify, "_pack", big_endian)
    with pytest.raises(AssertionError):
        check_word_edge_ring()


def check_extension_rings():
    """test_idealization_tables' embedding check on rings with two or more
    bimodules of different orders."""
    for label in test_idealization_tables.EXTENSION_RINGS:
        test_idealization_tables.check_extensions(
            theorems.RingContext(build_ring(f"ring: {label}"), label))


def test_unmutated_idealization_side_agrees():
    test_idealization_tables.check_explicit_tables()
    test_idealization_tables.check_p16_row_rings()
    check_extension_rings()


def test_pair_table_with_swapped_digits_is_caught(monkeypatch):
    """_pair_table that puts t2 on the high digit and t1 on the low one:
    equal on a regular idealization, where the two tables are one, but not
    on (256, 16) or on a product of unequal factors."""
    monkeypatch.setattr(rings, "_pair_table", lambda t1, t2: PAIR_TABLE(t2, t1))
    with pytest.raises(AssertionError):
        test_idealization_tables.check_explicit_tables()


def test_p16_t2_from_x_times_mg_is_caught(monkeypatch):
    """P16's Mg*Re*y*Re*z table read as the x*Mg*z table, which equals it
    on every census slice of the default corpus but not on the spread rows
    of a non-commutative ring."""
    def tables(gr, M, g):
        out = P16_TABLES(gr, M, g)
        return {**out, "Mg*Re*y*Re*z": out["x*Mg*z"]}

    monkeypatch.setattr(theorems, "_p16_tables", tables)
    with pytest.raises(AssertionError):
        test_idealization_tables.check_p16_row_rings()


def test_idealization_g_weakly_vectors_at_degree_none_are_caught(monkeypatch):
    """Each idealization's g-weakly vector filled at degree None, so every
    degree reads R(+)M's weakly 2-absorbing vector."""
    def at_none(self):
        return [(label, M, {(kind, g): vectors[kind, None if kind == "weakly" else g]
                            for kind, g in vectors})
                for label, M, vectors in IDEALIZATIONS(self)]

    monkeypatch.setattr(theorems.RingContext, "idealizations", at_none)
    with pytest.raises(AssertionError):
        test_verdict_vectors.check_vector_rings()


def test_verdict_vector_rolled_by_one_ideal_is_caught(monkeypatch):
    """Every verdict vector shifted by one ideal along the lattice."""
    monkeypatch.setattr(theorems.RingContext, "verdicts", lambda self, kind, g=None:
                        np.roll(VERDICTS(self, kind, g), 1))
    with pytest.raises(AssertionError):
        test_verdict_vectors.check_vector_rings()


def test_verdict_memo_without_degree_is_caught(monkeypatch):
    """Verdict vectors memoized by kind alone, so that the first vector of a
    kind serves every degree; the vector rings have two degrees whose
    g-weakly vectors differ."""
    def by_kind(self, kind, g=None):
        return self._memo(("verdicts", kind), lambda: classify.lattice_verdicts(
            self.gr, g, self.lattice(), kind, self.ideal_cap))

    monkeypatch.setattr(theorems.RingContext, "verdicts", by_kind)
    with pytest.raises(AssertionError):
        test_verdict_vectors.check_vector_rings()


def test_unmutated_pair_rule_agrees():
    test_pair_rule.check_explicit_rings()


def test_pair_rule_with_swapped_module_terms_is_caught(monkeypatch):
    """R(+)M's products with r1 v2 and v1 r2 swapped for v2 r1 and r2 v1:
    equal on a commutative ring's regular bimodule, not on a matrix ring's."""
    def swapped(self, rows, cols):
        M, m = self.module, self.module.order
        r1, v1 = np.divmod(np.asarray(rows, dtype=np.intp)[:, None], m)
        r2, v2 = np.divmod(np.asarray(cols, dtype=np.intp), m)
        low = M.add[M.right[v2, r1], M.left[r2, v1]].astype(np.uint16)
        return self.graded_base.ring.mul[r1, r2] * np.uint16(m) + low

    monkeypatch.setattr(constructions.IdealizationRing, "products", swapped)
    with pytest.raises(AssertionError):
        test_pair_rule.check_explicit_rings()


def test_extension_recorded_for_a_non_ideal_is_caught(monkeypatch):
    """P(+)M recorded as a graded two-sided ideal whatever P is, so that the
    reals of gaussian(4), which are no ideal, pass as one in R(+)M."""
    def recorded(xgr, P):
        emb = EMBED(xgr, P)
        xgr.memo(("ideal_check", emb.mask), lambda: (True, None, None))
        return emb

    monkeypatch.setattr(constructions, "embed_ideal_in_idealization", recorded)
    with pytest.raises(AssertionError):
        test_pair_rule.check_explicit_rings()
