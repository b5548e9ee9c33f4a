"""The per-run build memo and R/{0}: a corpus run builds each shared ring
subexpression once, and the quotient by the zero ideal shares its base's
tables. Both are checked against fresh builds and the coset construction."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import SMALL_RINGS, build_ring
from ringbench import constructions, specs, theorems
from ringbench.bitsets import mask_from_bools
from ringbench.constructions import make_quotient
from ringbench.rings import DEFAULT_RING_CAP
from ringbench.specs import ParseError, RingExpr
from ringbench.theorems import (
    CorpusMember,
    default_corpus,
    directory_corpus,
    run_all_properties,
    search_question1,
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus()


@pytest.fixture(scope="module")
def fresh(corpus):
    """Every default-corpus member built outside any corpus run."""
    return {m.label: m.build() for m in corpus}


def _build_task(args: tuple):
    label, spec_text = args
    return CorpusMember(label, spec_text).build()


def _built_in_run(members: list[CorpusMember]) -> list:
    shared = theorems._shared(members, DEFAULT_RING_CAP)
    return theorems._map_over_corpus(
        _build_task, [(m.label, m.spec_text) for m in members], 1, shared)


def _assert_same_ring(a, b, *context):
    for t in ("add", "neg", "mul"):
        x, y = getattr(a.ring, t), getattr(b.ring, t)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (*context, t)
    assert a.ring.element_names == b.ring.element_names, context
    assert (a.ring.kind, a.ring.unity) == (b.ring.kind, b.ring.unity), context
    assert a.grading.components == b.grading.components, context
    assert np.array_equal(a.group.op, b.group.op), context


def _coset_quotient(gr, kmask: int):
    """R/K through the coset tables, the route make_quotient takes for K != {0}."""
    reps, proj = constructions._coset_tables(gr, kmask)
    add, mul, neg = gr.ring.add, gr.ring.mul, gr.ring.neg
    comps = []
    for g in range(gr.group.order):
        flags = np.zeros(len(reps), dtype=bool)
        flags[proj[gr.component_indices(g)]] = True
        comps.append(int(mask_from_bools(flags)))
    return {"add": proj[add[np.ix_(reps, reps)]].astype(np.uint16),
            "mul": proj[mul[np.ix_(reps, reps)]].astype(np.uint16),
            "neg": proj[neg[reps]].astype(np.uint16),
            "names": [gr.name(int(r)) for r in reps],
            "unity": None if gr.ring.unity is None else int(proj[gr.ring.unity]),
            "components": comps, "projection": proj}


def _distinct_rings(rings):
    seen = set()
    for label, gr in rings:
        digest = hashlib.sha256(gr.ring.add.tobytes() + gr.ring.mul.tobytes()
                                + "\0".join(gr.ring.element_names).encode()).digest()
        if digest not in seen:
            seen.add(digest)
            yield label, gr


def test_zero_quotient_equals_coset_path(fresh):
    rings = [(text, build_ring(text)) for text in SMALL_RINGS]
    rings += list(_distinct_rings(fresh.items()))
    assert len(rings) == len(SMALL_RINGS) + 22
    for label, gr in rings:
        q = make_quotient(gr, 1)
        qr, want = q.graded_ring.ring, _coset_quotient(gr, 1)
        for t in ("add", "mul", "neg"):
            got = getattr(qr, t)
            assert got.dtype == np.uint16 and got.tobytes() == want[t].tobytes(), (label, t)
        assert qr.element_names == want["names"], label
        assert qr.unity == want["unity"], label
        assert q.graded_ring.grading.components == want["components"], label
        assert q.graded_ring.group is gr.group, label
        m = q.projection.mapping
        assert m.dtype == want["projection"].dtype and np.array_equal(m, want["projection"])
        assert (qr.kind, qr.params["base"], qr.params["ideal_mask"]) == \
            ("quotient", gr.ring, 1), label


def test_zero_quotient_tables_are_read_only():
    gr = build_ring("ring: matrix(zn(2), 2)")
    qr = make_quotient(gr, 1).graded_ring.ring
    for t in ("add", "neg", "mul"):
        assert np.shares_memory(getattr(qr, t), getattr(gr.ring, t))
        with pytest.raises(ValueError, match="read-only"):
            getattr(qr, t)[0] = 1
    assert gr.ring.add.flags.writeable


def test_members_built_in_a_run_equal_fresh_builds(corpus, fresh):
    built = dict(zip((m.label for m in corpus), _built_in_run(corpus)))
    for label, gr in built.items():
        _assert_same_ring(gr, fresh[label], label)
    # the R/{0} member reads the very tables its base member was built with
    base = "matrix(zn(8), 2)"
    assert np.shares_memory(built[f"quotient({base}, [])"].ring.mul, built[base].ring.mul)
    assert not np.shares_memory(fresh[f"quotient({base}, [])"].ring.mul, fresh[base].ring.mul)
    # each member has its own GradedRing even where the tables are shared
    assert built[base] is not built[f"quotient({base}, [])"]
    assert built["zn(4)"]._cache is not built["matrix(zn(4), 2)"]._cache


def test_serial_search_builds_each_matrix_ring_once(corpus, monkeypatch):
    calls = []
    real = specs.make_matrix_ring
    monkeypatch.setattr(specs, "make_matrix_ring",
                        lambda *a: calls.append(a[0].order) or real(*a))
    search_question1(corpus, workers=1)
    assert sorted(calls) == [2, 4, 8]


def _recording_memo(monkeypatch) -> list[dict]:
    """What the memo held each time a run turned it off."""
    seen: list[dict] = []
    real = theorems.stop_build_memo

    def stop():
        seen.append(dict(specs._memo))
        real()

    monkeypatch.setattr(theorems, "stop_build_memo", stop)
    return seen


def _memo_is_off() -> bool:
    return specs._memo == {} and specs._memo_keys == frozenset()


def test_memo_off_after_run(monkeypatch):
    seen = _recording_memo(monkeypatch)
    zn4 = [CorpusMember("zn(4)", "ring: zn(4)"),
           CorpusMember("quotient(zn(4), [2])", "ring: quotient(zn(4), [2])")]
    run_all_properties(zn4, properties=["P3"])
    assert _memo_is_off()
    # a RingExpr key equals any zn(4) node, whatever its source position
    assert [list(held) for held in seen] == [[(RingExpr("zn", (4,), 0, 0), DEFAULT_RING_CAP)]]

    bad = CorpusMember("bad", "ring: quotient(zn(4), [x])")
    with pytest.raises(ParseError, match="expected an integer literal"):
        search_question1([*zn4, bad])
    assert _memo_is_off()
    assert len(seen) == 2 and list(seen[1]) == list(seen[0])


def test_distinct_directory_corpus_memoizes_nothing(tmp_path, monkeypatch):
    for i, expr in enumerate(("zn(3)", "gaussian(2)", "matrix(zn(2), 2)",
                              "idealization(zn(4), regular)")):
        (tmp_path / f"r{i}.spec").write_text(f"ring: {expr}\n")
    members = directory_corpus(str(tmp_path))
    assert theorems._shared(members, DEFAULT_RING_CAP) == frozenset()
    seen = _recording_memo(monkeypatch)
    search_question1(members)
    assert seen == [{}] and _memo_is_off()
