"""Property runners, corpus plumbing, and the counterexample search."""

from __future__ import annotations

import pytest

from ringbench import theorems
from ringbench.theorems import (
    PROPERTY_IDS,
    PROPERTY_SUMMARIES,
    CorpusMember,
    PropertyOutcome,
    default_corpus,
    directory_corpus,
    evaluate_ring,
    run_all_properties,
    run_property,
    search_question1,
    triple_zero_census,
)

MINI = [CorpusMember("zn(8)", "ring: zn(8)"),
        CorpusMember("gaussian(2)", "ring: gaussian(2)")]
NON_UNITAL = CorpusMember("nil2", "ring: table([[0,1],[1,0]], [[0,0],[0,0]])")


def test_property_registry():
    assert list(PROPERTY_IDS) == [f"P{i}" for i in range(1, 20)]
    for pid in PROPERTY_IDS:
        assert PROPERTY_SUMMARIES[pid]


def test_mini_corpus_zero_violations():
    report = run_all_properties(MINI)
    assert report["corpus"] == ["zn(8)", "gaussian(2)"]
    assert report["violations_total"] == 0
    assert len(report["properties"]) == 19
    by_id = {row["id"]: row for row in report["properties"]}
    for pid in ("P2", "P3", "P12", "P13"):
        assert by_id[pid]["instances_checked"] > 0, pid
    assert by_id["P12"]["instances_checked"] == 8   # the zn(8) census triples


def test_worker_merge_is_order_stable():
    assert run_all_properties(MINI, workers=2) == run_all_properties(MINI)


def test_empty_corpus_is_vacuous():
    report = run_all_properties([])
    assert report["violations_total"] == 0
    assert len(report["properties"]) == 19
    for row in report["properties"]:
        assert row["instances_checked"] == 0
        assert row["violations"] == [] and row["skips"] == []


def test_non_unital_ring_skips():
    gr = NON_UNITAL.build()
    assert gr.ring.unity is None
    outs = evaluate_ring(gr, "nil2")
    by_id = {o.property_id: o for o in outs}
    for pid in ("P5", "P14", "P15", "P16"):
        assert by_id[pid].skipped == "requires unity", pid
    for pid in ("P1", "P2", "P3", "P12", "P13", "P17", "P18", "P19"):
        assert by_id[pid].skipped is None, pid


def test_unknown_property_rejected():
    gr = MINI[0].build()
    with pytest.raises(ValueError, match="unknown property"):
        run_property(gr, "P99")
    with pytest.raises(ValueError, match="unknown properties"):
        run_all_properties(MINI, properties=["P1", "Q5"])


def test_witness_cap():
    out = PropertyOutcome("P1", "r")
    for i in range(12):
        out.violate(index=i)
    assert len(out.violations) == 5
    assert out.violations[0] == {"ring": "r", "index": 0}


def test_directory_corpus(tmp_path):
    (tmp_path / "b_ring.spec").write_text("ring: zn(4)\n")
    (tmp_path / "a_ring.spec").write_text("ring: zn(2)\n")
    (tmp_path / ".hidden").write_text("ring: zn(3)\n")
    corpus = directory_corpus(tmp_path)
    assert [m.label for m in corpus] == ["a_ring", "b_ring"]
    assert corpus[0].build().order == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no spec files"):
        directory_corpus(empty)


def test_search_mini_corpus_exhausts():
    res = search_question1(MINI)
    assert res["exhausted"] is True
    assert res["counterexamples"] == []
    assert res["skips"] == []
    assert res["discarded_candidates"] == 0
    # only zn(8)'s zero ideal is weakly 2-absorbing without being 2-absorbing,
    # and zn(8) has four graded ideals: 4^3 ordered triples scanned
    assert len(res["eligible_ideals"]) == 1
    assert res["eligible_ideals"][0]["ring"] == "zn(8)"
    assert res["eligible_ideals"][0]["mask"] == 1
    assert res["counters"]["triples_scanned"] == 64
    assert res["counters"]["triples_hypothesis"] == 0


def test_search_skip_path():
    res = search_question1([CorpusMember("zn(8)", "ring: zn(8)")], ideal_cap=2)
    assert res["exhausted"] is False
    assert res["skips"] and res["skips"][0]["ring"] == "zn(8)"
    assert res["counterexamples"] == []


def test_triple_zero_census_rows():
    gr = MINI[0].build()
    rows = triple_zero_census(gr)
    assert [(r["ideal"]["size"], r["degree"]) for r in rows] == \
        [(1, 0), (2, 0), (4, 0)]
    zero_row = rows[0]
    assert zero_row["count"] == 8
    assert zero_row["triples"][0] == [2, 2, 2]
    assert zero_row["triple_names"][0] == ["2", "2", "2"]
    assert all(r["g_weakly_2_absorbing"] for r in rows)
    assert rows[1]["count"] == 0 and rows[2]["count"] == 0

    covered = triple_zero_census(gr, ideals=[1], degrees=[1])
    assert covered == [{"ideal": covered[0]["ideal"], "degree": 1,
                        "skip": "component covered by the ideal"}]
    assert covered[0]["ideal"]["mask"] == 1


def test_default_corpus_shape():
    corpus = default_corpus()
    labels = [m.label for m in corpus]
    assert len(labels) == 52 and len(set(labels)) == 52
    assert sum(1 for x in labels if x.startswith("quotient(")) == 34
    assert sum(1 for x in labels if x.startswith("idealization(")) == 3
    base = [x for x in labels
            if not x.startswith(("quotient(", "idealization("))]
    assert len(base) == 15
    assert "zn(8)" in base and "matrix(zn(8), 2)" in base


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""
    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_larger_than_task_list(monkeypatch):
    monkeypatch.setattr(theorems, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    assert theorems._map_over_corpus(abs, [-1, -2, -3], 1000) == [1, 2, 3]
    assert theorems._map_over_corpus(abs, [-1], 1000) == [1]
    assert theorems._map_over_corpus(abs, [], 1000) == []
    assert _SerialPool.sizes == [3]
