"""End-to-end command-line behavior: exit codes, stdout, and JSON reports."""

from __future__ import annotations

import io
import json
import sys

import pytest

from ringbench import cli, ideals
from ringbench.ideals import generate_ideal
from ringbench.specs import build_document, parse_document


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)\n"))
    code, out, err = run_cli(["validate", "-"], capsys)
    assert code == 0 and err == ""
    assert "ring: order=8 kind=zn unital=yes commutative=yes" in out
    assert "grading: group of order 2, component sizes [8,1]" in out
    assert "valid" in out


def test_validate_report_file(tmp_path, capsys):
    spec = tmp_path / "g8.spec"
    spec.write_text("ring: gaussian(8)\nideal P: gens []\n")
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["validate", str(spec), "--report", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "ringbench-report/1"
    assert report["command"] == "validate"
    assert report["exit"] == 0
    assert report["valid"] is True
    assert report["ring"]["order"] == 64
    assert report["ring"]["unity"] == {"index": 1, "name": "1"}
    assert report["ideals"] == [{"mask": 1, "size": 1, "generators": [],
                                 "generator_names": [], "proper": True,
                                 "name": "P"}]


def test_unwritable_report_exits_2(tmp_path, capsys):
    """A report path in a missing directory fails before the run; one that
    names a directory fails at the write. Both exit 2 naming the path and
    leave neither a report nor a temporary file."""
    spec = tmp_path / "z4.spec"
    spec.write_text("ring: zn(4)\n")
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["classify", str(spec), "--report", str(missing)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write report {missing}: ")

    taken = tmp_path / "taken"
    taken.mkdir()
    code, out, err = run_cli(["classify", str(spec), "--report", str(taken)], capsys)
    assert code == 2 and "I0: size=1" in out
    assert err.startswith(f"error: cannot write report {taken}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "z4.spec"]
    assert list(taken.iterdir()) == []


def test_parse_error_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text("ring: zn(8)\ngrading: gaussian\n")
    code, out, err = run_cli(["validate", str(spec)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: line 2, column 1: grading 'gaussian'")

    code, _, err = run_cli(["validate", str(tmp_path / "missing.spec")], capsys)
    assert code == 2 and "error:" in err


def test_ideals_listing(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)\nideal P: gens [2]"))
    code, out, _ = run_cli(["ideals", "-"], capsys)
    assert code == 0
    assert "graded two-sided ideals: 4" in out
    assert "(= P)" in out
    assert "size=   8" in out


def test_classify_named_ideal(tmp_path, capsys):
    spec = tmp_path / "g8.spec"
    spec.write_text("ring: gaussian(8)\ngrading: gaussian\nideal P: gens []\n")
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["classify", str(spec), "--report", str(report_path)], capsys)
    assert code == 0
    assert "P: size=1 gens=[]" in out
    assert "degree 0: weakly=True plain=False triple_zeros=8" in out
    report = json.loads(report_path.read_text())
    cls = report["classifications"][0]
    assert cls["name"] == "P"
    assert cls["verdicts"]["graded_weakly_2_absorbing"] is True
    assert cls["verdicts"]["graded_2_absorbing"] is False
    w = [e for e in report["witnesses"]
         if e["predicate"] == "graded_2_absorbing"]
    assert w and w[0]["ideal"] == "P" and w[0]["witness"]["names"] == ["2", "2", "2"]


def test_classify_fallback_enumerates_proper_ideals(monkeypatch, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)"))
    code, out, _ = run_cli(
        ["classify", "-", "--report", str(report_path)], capsys)
    assert code == 0
    report = json.loads(report_path.read_text())
    names = [c["name"] for c in report["classifications"]]
    assert names == ["I0", "I1", "I2"]
    assert [c["ideal_size"] for c in report["classifications"]] == [1, 2, 4]


def test_classify_enumerates_the_lattice_once(monkeypatch, capsys):
    """The fallback's enumeration and the ideal-wise predicates share one."""
    runs = []
    real = ideals._enumerate
    monkeypatch.setattr(ideals, "_enumerate",
                        lambda gr, s, cap: runs.append(s) or real(gr, s, cap))
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: gaussian(4)"))
    code, out, _ = run_cli(["classify", "-"], capsys)
    assert code == 0 and "graded_strongly_weakly_2_absorbing" in out
    assert runs == [ideals.TWO_SIDED]


def test_classify_degrees_flag(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)\nideal P: gens [4]"))
    code, out, _ = run_cli(["classify", "-", "--degrees", "0"], capsys)
    assert code == 0 and "degree 0:" in out

    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)\nideal P: gens [4]"))
    code, _, err = run_cli(["classify", "-", "--degrees", "9"], capsys)
    assert code == 2 and "outside the grading group" in err

    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)\nideal P: gens [4]"))
    code, _, err = run_cli(["classify", "-", "--degrees", "x"], capsys)
    assert code == 2 and "bad --degrees" in err


def test_census_command(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)"))
    code, out, _ = run_cli(["census", "-"], capsys)
    assert code == 0
    assert "ideal [] degree 0: g-weakly=True triple-zeros=8" in out
    assert "    (2, 2, 2)" in out

    monkeypatch.setattr(sys, "stdin", io.StringIO("ring: zn(8)\nideal P: gens [4]"))
    code, out, _ = run_cli(["census", "-"], capsys)
    assert code == 0
    assert "ideal [4] degree 0: g-weakly=True triple-zeros=0" in out


def _write_mini_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "zn8.spec").write_text("ring: zn(8)\n")
    (corpus / "gauss2.spec").write_text("ring: gaussian(2)\n")
    return corpus


def test_theorems_cli_reports_are_worker_independent(tmp_path, capsys):
    corpus = _write_mini_corpus(tmp_path)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, out, _ = run_cli(
        ["theorems", "--corpus", str(corpus), "--report", str(r1)], capsys)
    code2, _, _ = run_cli(
        ["theorems", "--corpus", str(corpus), "--workers", "2",
         "--report", str(r2)], capsys)
    assert code1 == 0 and code2 == 0
    assert "19 properties, 0 violations" in out
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["corpus"] == ["gauss2", "zn8"]
    assert report["violations_total"] == 0


def test_report_generator_names_reparse(monkeypatch, capsys, tmp_path):
    text = "ring: quotient(gaussian(8), [4])"
    report_path = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, _, _ = run_cli(["ideals", "-", "--report", str(report_path)], capsys)
    assert code == 0
    built = build_document(parse_document(text))
    report = json.loads(report_path.read_text())
    assert len(report["ideals"]) == 3   # {0}, (2), and the whole ring
    for entry in report["ideals"]:
        gens = [built.parse_element(t) for t in entry["generator_names"]]
        assert gens == entry["generators"]
        sub = generate_ideal(built.graded_ring, gens)
        assert sub.mask == entry["mask"]


def test_search_q1_cli(tmp_path, capsys):
    corpus = _write_mini_corpus(tmp_path)
    report_path = tmp_path / "search.json"
    code, out, _ = run_cli(
        ["search-q1", "--corpus", str(corpus), "--report", str(report_path)],
        capsys)
    assert code == 0
    assert "no counterexample; exhaustion certificate over 64 candidate tuples" in out
    report = json.loads(report_path.read_text())
    assert report["search"]["exhausted"] is True
    assert report["witnesses"] == []

    code, out, _ = run_cli(
        ["search-q1", "--corpus", str(corpus), "--ideal-cap", "2"], capsys)
    assert code == 0
    assert "coverage is partial" in out


def test_theorems_violations_exit_1(monkeypatch, capsys):
    def fake_run(corpus, workers, ideal_cap, ring_cap):
        return {"corpus": ["r"], "violations_total": 1, "properties": [{
            "id": "P1", "description": "d", "instances_checked": 3,
            "violations": [{"ring": "r", "detail": "x"}], "skips": []}]}
    monkeypatch.setattr(cli, "run_all_properties", fake_run)
    code, out, _ = run_cli(["theorems"], capsys)
    assert code == 1
    assert "1 properties, 1 violations" in out


def test_search_counterexample_exit_1(monkeypatch, capsys):
    ideal = {"mask": 1, "size": 1, "generators": [], "generator_names": []}
    def fake_search(corpus, workers, ideal_cap, ring_cap):
        return {"corpus": ["r"], "eligible_ideals": [ideal],
                "counters": {"triples_scanned": 1, "triples_nonzero": 1,
                             "triples_hypothesis": 1},
                "counterexamples": [{"ring": "r", "P": ideal, "A": ideal,
                                     "B": ideal, "K": ideal, "product_mask": 1}],
                "discarded_candidates": 0, "exhausted": True, "skips": []}
    monkeypatch.setattr(cli, "search_question1", fake_search)
    code, out, _ = run_cli(["search-q1"], capsys)
    assert code == 1
    assert "counterexamples found: 1" in out


def test_workers_below_one_rejected(capsys):
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["theorems", "--workers", bad])
        assert exc.value.code == 2
        assert "argument --workers" in capsys.readouterr().err


def test_workers_clamped_to_members_and_cpus(monkeypatch, tmp_path, capsys):
    corpus = str(_write_mini_corpus(tmp_path))   # two members
    seen = []

    def fake_run(corpus, workers, ideal_cap, ring_cap):
        seen.append(workers)
        return {"corpus": ["r"], "violations_total": 0, "properties": []}

    def fake_search(corpus, workers, ideal_cap, ring_cap):
        seen.append(workers)
        return {"corpus": ["r"], "eligible_ideals": [],
                "counters": {"triples_scanned": 0, "triples_nonzero": 0,
                             "triples_hypothesis": 0},
                "counterexamples": [], "discarded_candidates": 0,
                "exhausted": True, "skips": []}
    monkeypatch.setattr(cli, "run_all_properties", fake_run)
    monkeypatch.setattr(cli, "search_question1", fake_search)
    for cpus, workers, want in ((64, "1000", 2), (64, "1", 1), (1, "1000", 1),
                                (None, "1000", 1)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        for command in ("theorems", "search-q1"):
            seen.clear()
            code, _, _ = run_cli([command, "--corpus", corpus, "--workers", workers],
                                 capsys)
            assert code == 0 and seen == [want], (command, cpus, workers)


def test_memory_error_exits_2_naming_ring_cap(monkeypatch, capsys):
    def out_of_memory(args):
        raise MemoryError
    monkeypatch.setitem(cli._HANDLERS, "validate", out_of_memory)
    code, out, err = run_cli(["validate", "-"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory") and "--ring-cap" in err


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")
    monkeypatch.setitem(cli._HANDLERS, "census", broken)
    code, out, err = run_cli(["census", "-"], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'boom'\n"
