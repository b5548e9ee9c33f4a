"""Command-line front end: validate ring specs, enumerate and classify graded
ideals, run the property suite over a corpus, hunt for counterexamples, and
tabulate triple-zero censuses.

Exit codes: 0 success (zero violations), 1 violations or counterexamples
found, 2 malformed input, exceeded caps, exhausted memory or an unwritable
report, 3 internal error. With --report, a JSON document (schema
ringbench-report/1) is written whole or not at all, its directory checked
before the run; identical inputs give byte-identical reports regardless of
worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bitsets import popcount
from .classify import DEFAULT_IDEAL_CAP, classify_ideal, ideal_info
from .grading import GradedRing, validate_grading
from .ideals import (
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    check_closure,
    enumerate_graded_ideals,
    graded_defect,
)
from .rings import DEFAULT_RING_CAP, validate_ring
from .specs import ParseError, build_document, parse_document
from .theorems import (
    default_corpus,
    directory_corpus,
    run_all_properties,
    search_question1,
    triple_zero_census,
)

SCHEMA = "ringbench-report/1"


# ---------------------------------------------------------------------------
# report sections


def _ring_section(gr: GradedRing, source: str | None = None) -> dict:
    r = gr.ring
    out = {
        "order": r.order,
        "kind": r.kind,
        "unital": r.unity is not None,
        "unity": None if r.unity is None else
            {"index": int(r.unity), "name": r.name(r.unity)},
        "commutative": bool(r.is_commutative()),
    }
    if source is not None:
        out["source"] = source
    return out


def _grading_section(gr: GradedRing) -> dict:
    return {
        "group_order": gr.group.order,
        "component_sizes": [popcount(gr.component_mask(g))
                            for g in range(gr.group.order)],
        "homogeneous_count": popcount(gr.hom_mask),
    }


def _ideal_entry(gr: GradedRing, sub: IdealSubset, name: str | None = None) -> dict:
    out = ideal_info(gr, sub.mask)
    out["proper"] = sub.mask != (1 << gr.order) - 1
    if name is not None:
        out["name"] = name
    return out


def _report_skeleton(command: str) -> dict:
    return {"schema": SCHEMA, "command": command}


def _spec_report(args, check_tables: bool = True):
    """(built spec, report with its ring and grading sections) for the spec
    at args.spec, a path or - for stdin."""
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    built = build_document(parse_document(text), ring_cap=args.ring_cap,
                           check_tables=check_tables)
    report = _report_skeleton(args.command)
    report["ring"] = _ring_section(built.graded_ring, source=text)
    report["grading"] = _grading_section(built.graded_ring)
    return built, report


def _parse_degrees(text: str | None, gr: GradedRing) -> list[int] | None:
    if text is None:
        return None
    try:
        degrees = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"bad --degrees list {text!r}; want e.g. 0,1") from None
    for g in degrees:
        if not 0 <= g < gr.group.order:
            raise ValueError(f"degree {g} outside the grading group "
                             f"0..{gr.group.order - 1}")
    return degrees


def _corpus_for(args) -> list:
    if args.corpus == "default":
        return default_corpus()
    return directory_corpus(args.corpus)


def _worker_count(args, corpus: list) -> int:
    """More workers than members or CPUs only adds idle processes."""
    return max(1, min(args.workers, len(corpus), os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# commands


def _cmd_validate(args) -> tuple[int, dict]:
    # table rings unchecked: validate_ring below reports their failure
    built, report = _spec_report(args, check_tables=False)
    gr = built.graded_ring
    problems: list[dict] = []
    rv = validate_ring(gr.ring)
    if not rv:
        problems.append({"part": "ring", "failure": rv.failure,
                         "witness": list(rv.witness) if rv.witness else None})
    gv = validate_grading(gr.ring, gr.grading)
    if not gv:
        problems.append({"part": "grading", "failure": gv.failure,
                         "witness": list(gv.witness) if gv.witness else None})
    for name, sub in built.ideals.items():
        ok, witness = check_closure(gr, sub, TWO_SIDED)
        if not ok:
            problems.append({"part": f"ideal {name}",
                             "failure": "not a two-sided ideal",
                             "witness": witness})
        defect = graded_defect(gr, sub.mask)
        if defect is not None:
            problems.append({"part": f"ideal {name}", "failure": "not graded",
                             "witness": {"element": defect,
                                         "name": gr.name(defect)}})
    report["ideals"] = [_ideal_entry(gr, sub, name)
                        for name, sub in built.ideals.items()]
    report["witnesses"] = problems
    report["valid"] = not problems
    r = report["ring"]
    print(f"ring: order={r['order']} kind={r['kind']} "
          f"unital={'yes' if r['unital'] else 'no'} "
          f"commutative={'yes' if r['commutative'] else 'no'}")
    sizes = ",".join(str(s) for s in report["grading"]["component_sizes"])
    print(f"grading: group of order {gr.group.order}, component sizes [{sizes}]")
    for entry in report["ideals"]:
        gens = ", ".join(entry["generator_names"])
        print(f"ideal {entry['name']}: size={entry['size']} gens=[{gens}]")
    if problems:
        for p in problems:
            print(f"INVALID {p['part']}: {p['failure']} (witness {p['witness']})")
        return 1, report
    print("valid")
    return 0, report


def _cmd_ideals(args) -> tuple[int, dict]:
    built, report = _spec_report(args)
    gr = built.graded_ring
    ideals = enumerate_graded_ideals(gr, TWO_SIDED, args.ideal_cap)
    report["ideals"] = [_ideal_entry(gr, sub) for sub in ideals]
    named = {sub.mask: name for name, sub in built.ideals.items()}
    print(f"graded two-sided ideals: {len(ideals)}")
    for entry, sub in zip(report["ideals"], ideals):
        gens = ", ".join(entry["generator_names"])
        tag = f"  (= {named[sub.mask]})" if sub.mask in named else ""
        print(f"  size={entry['size']:>4} gens=[{gens}]{tag}")
    return 0, report


def _cmd_classify(args) -> tuple[int, dict]:
    built, report = _spec_report(args)
    gr = built.graded_ring
    degrees = _parse_degrees(args.degrees, gr)
    if built.ideals:
        targets = list(built.ideals.items())
    else:
        full = (1 << gr.order) - 1
        proper = [sub for sub in
                  enumerate_graded_ideals(gr, TWO_SIDED, args.ideal_cap)
                  if sub.mask != full]
        targets = [(f"I{i}", sub) for i, sub in enumerate(proper)]
    report["ideals"] = []
    report["classifications"] = []
    report["witnesses"] = []
    for name, sub in targets:
        cls = classify_ideal(gr, sub, degrees=degrees,
                             ideal_cap=args.ideal_cap)
        d = cls.to_dict()
        d["name"] = name
        report["ideals"].append(_ideal_entry(gr, sub, name))
        report["classifications"].append(d)
        for predicate, witness in d["witnesses"].items():
            report["witnesses"].append(
                {"ideal": name, "predicate": predicate, "witness": witness})
        gens = ", ".join(d["generator_names"])
        print(f"{name}: size={d['ideal_size']} gens=[{gens}]")
        for predicate in sorted(set(d["verdicts"]) | set(d["skips"])):
            if predicate in d["verdicts"]:
                print(f"  {predicate:<42} {d['verdicts'][predicate]}")
            else:
                print(f"  {predicate:<42} skipped: {d['skips'][predicate]}")
        for gtext, entry in d["g_variants"].items():
            if "skip" in entry:
                print(f"  degree {gtext}: skipped: {entry['skip']}")
            else:
                print(f"  degree {gtext}: weakly={entry['weakly']} "
                      f"plain={entry['plain']} "
                      f"triple_zeros={entry['triple_zeros']}")
    return 0, report


def _cmd_census(args) -> tuple[int, dict]:
    built, report = _spec_report(args)
    gr = built.graded_ring
    degrees = _parse_degrees(args.degrees, gr)
    masks = [sub.mask for sub in built.ideals.values()] or None
    rows = triple_zero_census(gr, ideals=masks, degrees=degrees,
                              ideal_cap=args.ideal_cap)
    report["ideals"] = [_ideal_entry(gr, sub, name)
                        for name, sub in built.ideals.items()]
    report["census"] = rows
    for row in rows:
        gens = ", ".join(row["ideal"]["generator_names"])
        head = f"ideal [{gens}] degree {row['degree']}:"
        if "skip" in row:
            print(f"{head} skipped: {row['skip']}")
            continue
        print(f"{head} g-weakly={row['g_weakly_2_absorbing']} "
              f"triple-zeros={row['count']}")
        for names in row["triple_names"]:
            print("    (" + ", ".join(names) + ")")
    return 0, report


def _cmd_theorems(args) -> tuple[int, dict]:
    corpus = _corpus_for(args)
    results = run_all_properties(corpus, workers=_worker_count(args, corpus),
                                 ideal_cap=args.ideal_cap,
                                 ring_cap=args.ring_cap)
    report = _report_skeleton("theorems")
    report["corpus"] = results["corpus"]
    report["properties"] = results["properties"]
    report["witnesses"] = [v for row in results["properties"]
                           for v in row["violations"]]
    report["violations_total"] = results["violations_total"]
    print(f"corpus: {len(results['corpus'])} rings")
    for row in results["properties"]:
        line = (f"{row['id']:<4} instances={row['instances_checked']:<7} "
                f"violations={len(row['violations'])}")
        if row["skips"]:
            line += f" skips={len(row['skips'])}"
        print(line)
    total = results["violations_total"]
    print(f"{len(results['properties'])} properties, {total} violations")
    return (1 if total else 0), report


def _cmd_search_q1(args) -> tuple[int, dict]:
    corpus = _corpus_for(args)
    findings = search_question1(corpus, workers=_worker_count(args, corpus),
                                ideal_cap=args.ideal_cap,
                                ring_cap=args.ring_cap)
    report = _report_skeleton("search-q1")
    report["corpus"] = findings["corpus"]
    report["search"] = {k: findings[k] for k in
                        ("eligible_ideals", "counters", "discarded_candidates",
                         "exhausted", "skips")}
    report["witnesses"] = findings["counterexamples"]
    c = findings["counters"]
    print(f"corpus: {len(findings['corpus'])} rings, "
          f"{len(findings['eligible_ideals'])} eligible ideals")
    print(f"triples scanned={c['triples_scanned']} "
          f"nonzero={c['triples_nonzero']} hypothesis={c['triples_hypothesis']}")
    hits = findings["counterexamples"]
    if hits:
        print(f"counterexamples found: {len(hits)}")
        for hit in hits:
            print(f"  ring {hit['ring']}: "
                  f"P=[{', '.join(hit['P']['generator_names'])}] "
                  f"A=[{', '.join(hit['A']['generator_names'])}] "
                  f"B=[{', '.join(hit['B']['generator_names'])}] "
                  f"K=[{', '.join(hit['K']['generator_names'])}]")
        return 1, report
    if findings["exhausted"]:
        print(f"no counterexample; exhaustion certificate over "
              f"{c['triples_scanned']} candidate tuples")
    else:
        print("no counterexample, but coverage is partial:")
        for skip in findings["skips"]:
            print(f"  {skip['ring']}: {skip['reason']}")
    return 0, report


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_caps(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ideal-cap", type=int, default=DEFAULT_IDEAL_CAP,
                     help="abort ideal enumeration beyond this many ideals")
    sub.add_argument("--ring-cap", type=int, default=DEFAULT_RING_CAP,
                     help="largest ring carrier the build will accept")
    sub.add_argument("--report", metavar="PATH",
                     help="write a JSON report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringbench",
        description="workbench for graded ideals in small graded rings")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("validate", "check a spec's ring, grading, and ideals"),
                      ("ideals", "enumerate graded two-sided ideals"),
                      ("classify", "classify the spec's named ideals"),
                      ("census", "tabulate degree-local triple-zeros")):
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("spec", help="spec file path, or - for stdin")
        if name in ("classify", "census"):
            sub.add_argument("--degrees",
                             help="comma-separated degrees, e.g. 0,1")
        _add_caps(sub)

    for name, doc in (("theorems", "run the property suite over a corpus"),
                      ("search-q1", "hunt for a triple-product counterexample")):
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--corpus", default="default",
                         help="'default' or a directory of spec files")
        sub.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes for corpus members, at most "
                              "one per member and per CPU")
        _add_caps(sub)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "ideals": _cmd_ideals,
    "classify": _cmd_classify,
    "census": _cmd_census,
    "theorems": _cmd_theorems,
    "search-q1": _cmd_search_q1,
}


def _report_directory(path: str) -> str:
    """The report's directory; OSError naming path unless it is writable."""
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write report {path}: {directory} is not a writable directory")
    return directory


def _write_report(path: str, text: str) -> None:
    """Move a temporary file beside path onto it, so a failed write leaves
    neither a partial report nor the temporary file."""
    tmp = os.path.join(_report_directory(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write report {path}: {exc.strerror or exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.report:
            _report_directory(args.report)
        code, report = _HANDLERS[args.command](args)
        if args.report:
            report["exit"] = code
            _write_report(args.report, json.dumps(report, sort_keys=True, indent=2) + "\n")
    except (ParseError, ValueError, OSError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower --ring-cap to reject larger rings",
              file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
