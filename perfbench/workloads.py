"""The four benchmark workloads, run inside fresh worker processes.

Each workload has a set-up step (building its inputs, timed as set-up), a
pass (the timed public library calls the matching CLI subcommand makes) that
returns one Op per operation, and a check that compares every op's
canonical output against the committed reference and re-verifies every
reported witness through the raw route.  Checks run after the timed region.

Passes may repeat in one process: every pass works on fresh GradedRing
objects (the library's caches live on those), so each pass starts cold.

- suite:    run_all_properties, one corpus member per op, at 1 worker, over
            the default corpus without the members built on the order-4096
            ring matrix(zn(8), 2) (search and classify build that ring) and
            without the zero-ideal quotients (quotient(X, []) is X again).
- search:   search_question1 over the whole default corpus, one op, at 2
            workers; the output must equal the 1-worker reference byte for
            byte.
- classify: validate_ring, validate_grading, enumerate_graded_ideals and
            classify_ideal on every proper graded ideal of matrix(zn(8), 2)
            and zn(128).  zn(256) would make the element kernels eight times
            heavier, but a pass would then take 12 s instead of 4.5 s, and
            runs of every workload must fit a one-hour budget.
- lattice:  classify_ideal on every proper graded ideal of the six-factor
            zn(2) product (n = h = L = 64), in an order drawn from the seed,
            then search_question1 over a directory corpus holding that ring.

The lattice ring is fixed.  Products of zn(2), zn(3) and zn(4) with order
<= 128 and 48 <= L <= 64 differ up to fivefold in classification cost, and
even a relabelling of this one ring moves the ideal-wise predicates' early
exits by about 8%; the seed therefore changes only the order in which the
ideals are classified, which leaves the total work unchanged.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from dataclasses import dataclass

import hostspeed

WORKLOADS = ("suite", "search", "classify", "lattice")
# the host-speed kernel whose slowdown tracks each workload's (hostspeed.py)
PROBE_KERNEL = {"suite": "small_array", "search": "gather",
                "classify": "gather", "lattice": "interp"}

SUITE_EXCLUDED_BASE = "matrix(zn(8), 2)"
CLASSIFY_SPECS = ("ring: matrix(zn(8), 2)", "ring: zn(128)")
SEARCH_TRIPLES = 1473
LATTICE_TRIPLES = 262144
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
LATTICE_CORPUS = os.path.join(HERE, "lattice_corpus")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Op:
    key: str                 # what was run, unique within a pass
    latency_s: float
    sampled: bool            # counts towards the op latency percentiles
    output: object = None    # canonical-ready result
    error: str | None = None
    ring: object = None      # graded ring whose witnesses the check re-verifies
    window: tuple[float, float] | None = None  # time.monotonic() span of a pooled op


@dataclass
class Inputs:
    name: str
    seed: int
    data: dict


class Recorder:
    """Runs and times the ops of one pass.  With a hostspeed.Sampler
    running, an op that runs in this process leaves out the time spent in
    the sampler's probes; a pooled op, whose work runs in worker processes,
    is probed per CPU by run.py and keeps its time window for that."""

    def __init__(self, sampler: hostspeed.Sampler | None = None):
        self.ops: list[Op] = []
        self.sampler = sampler

    def timed(self, key: str, fn, *args, sampled: bool = False,
              to_output=lambda r: r, ring=None, pooled: bool = False,
              **kwargs):
        """Run one op, recording its time and output; an exception becomes a
        failed op instead of ending the pass."""
        mark = self.sampler.mark() if self.sampler else None
        probing = (self.sampler.paused() if self.sampler and pooled
                   else contextlib.nullcontext())
        window0 = time.monotonic()
        t0 = time.perf_counter()
        try:
            with probing:
                result = fn(*args, **kwargs)
        except Exception as exc:  # a raising op is counted as failed
            op = Op(key, time.perf_counter() - t0, sampled,
                    error=f"{type(exc).__name__}: {exc}")
            result = None
        else:
            op = Op(key, time.perf_counter() - t0, sampled, to_output(result),
                    ring=ring)
        if mark is not None and not pooled:
            op.latency_s -= self.sampler.handler_since(mark)
        if pooled:
            op.window = (window0, time.monotonic())
        self.ops.append(op)
        return result


# ---------------------------------------------------------------------------
# set-up


def setup(name: str, seed: int) -> Inputs:
    import ringbench as rb

    if name == "suite":
        members = [m for m in rb.default_corpus()
                   if SUITE_EXCLUDED_BASE not in m.label
                   and not m.label.endswith(", [])")]
        return Inputs(name, seed, {"members": members})
    if name == "search":
        return Inputs(name, seed, {"corpus": rb.default_corpus()})
    if name == "classify":
        rings = [(spec, rb.build_document(rb.parse_document(spec)).graded_ring)
                 for spec in CLASSIFY_SPECS]
        return Inputs(name, seed, {"rings": rings})
    if name == "lattice":
        corpus = rb.directory_corpus(LATTICE_CORPUS)
        gr = rb.build_document(rb.parse_document(corpus[0].spec_text)).graded_ring
        return Inputs(name, seed, {"corpus": corpus, "ring": gr})
    raise ValueError(f"unknown workload {name!r}")


def _fresh(rb, gr):
    """The same ring and grading in a new GradedRing, whose caches are empty."""
    return rb.GradedRing(gr.ring, gr.grading)


# ---------------------------------------------------------------------------
# timed passes


def _proper_ideals(rb, gr):
    full = (1 << gr.order) - 1
    return [s for s in rb.enumerate_graded_ideals(gr, rb.TWO_SIDED,
                                                  rb.DEFAULT_IDEAL_CAP)
            if s.mask != full]


def run_pass(inp: Inputs, workers: int, rec: Recorder) -> list[Op]:
    import ringbench as rb

    if inp.name == "suite":
        for m in inp.data["members"]:
            rec.timed(m.label, rb.run_all_properties, [m], workers=1,
                      sampled=True)
    elif inp.name == "search":
        rec.timed("search_question1", rb.search_question1,
                  inp.data["corpus"], workers=workers, sampled=True,
                  pooled=workers > 1)
    elif inp.name == "classify":
        for spec, built in inp.data["rings"]:
            gr = _fresh(rb, built)
            rec.timed(f"{spec}|validate_ring", rb.validate_ring, gr.ring,
                      to_output=lambda v: {"ok": bool(v), "failure": v.failure})
            rec.timed(f"{spec}|validate_grading", rb.validate_grading,
                      gr.ring, gr.grading,
                      to_output=lambda v: {"ok": bool(v), "failure": v.failure})
            proper = rec.timed(f"{spec}|enumerate_graded_ideals",
                               _proper_ideals, rb, gr,
                               to_output=lambda ls: [hex(s.mask) for s in ls])
            for sub in proper or []:
                rec.timed(f"{spec}|classify_ideal|{sub.mask:x}",
                          rb.classify_ideal, gr, sub, sampled=True,
                          to_output=lambda r: r.to_dict(), ring=gr)
    elif inp.name == "lattice":
        gr = _fresh(rb, inp.data["ring"])
        proper = rec.timed("enumerate_graded_ideals", _proper_ideals, rb, gr,
                           to_output=lambda ls: [hex(s.mask) for s in ls])
        proper = list(proper or [])
        if inp.seed:
            random.Random(inp.seed).shuffle(proper)
        for sub in proper:
            rec.timed(f"classify_ideal|{sub.mask:x}", rb.classify_ideal,
                      gr, sub, sampled=True, to_output=lambda r: r.to_dict(),
                      ring=gr)
        rec.timed("search_question1", rb.search_question1,
                  inp.data["corpus"], workers=1)
    return rec.ops


# ---------------------------------------------------------------------------
# canonical outputs and checks


def outputs(ops: list[Op]) -> dict[str, str]:
    """Canonical JSON of each successful op's result, keyed by op."""
    return {o.key: canonical(o.output) for o in ops if o.error is None}


def _witness_failures(gr, report: dict, where: str) -> list[str]:
    from ringbench import verify_witness

    bad = []
    P = report["ideal_mask"]
    for kind, w in report["witnesses"].items():
        if not verify_witness(gr, P, kind, w):
            bad.append(f"{where}: {kind} witness fails the raw check")
    for g, entry in report["g_variants"].items():
        for field_name, kind in (("weakly_witness", "g_weakly_2_absorbing"),
                                 ("plain_witness", "g_plain_2_absorbing"),
                                 ("first_triple_zero", "g_triple_zero")):
            if field_name in entry and not verify_witness(
                    gr, P, kind, entry[field_name], int(g)):
                bad.append(f"{where}: degree {g} {kind} witness fails the raw check")
    return bad


def load_reference(name: str) -> dict[str, str]:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return {k: canonical(v) for k, v in json.load(fh).items()}


def write_reference(name: str, outs: dict[str, str]) -> str:
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: json.loads(v) for k, v in sorted(outs.items())}, fh,
                  sort_keys=True, indent=0)
        fh.write("\n")
    return path


def check(inp: Inputs, ops: list[Op],
          reference: dict[str, str]) -> tuple[dict[str, str], list[str]]:
    """Failed ops (op key -> reason) and failures of the pass as a whole."""
    failed = {o.key: o.error for o in ops if o.error is not None}
    outs = outputs(ops)
    for key, text in outs.items():
        if reference.get(key) != text:
            failed[key] = "output differs from the reference"
    problems = []
    missing = set(reference) - set(outs)
    if missing:
        problems.append(f"{len(missing)} reference ops produced no output")

    good = {o.key: o for o in ops if o.key not in failed}
    if inp.name == "suite":
        total = sum(o.output["violations_total"] for o in good.values())
        if total:
            problems.append(f"suite found {total} violations")
    if inp.name in ("search", "lattice"):
        op = good.get("search_question1")
        want = SEARCH_TRIPLES if inp.name == "search" else LATTICE_TRIPLES
        if op is None:
            problems.append("search_question1 has no checked result")
        elif op.output["counters"]["triples_scanned"] != want:
            problems.append(f"search scanned "
                            f"{op.output['counters']['triples_scanned']} "
                            f"triples, expected {want}")
    for op in list(good.values()):
        if op.ring is not None:
            bad = _witness_failures(op.ring, op.output, op.key)
            if bad:
                failed[op.key] = "; ".join(bad)
    return failed, problems


def triples(ops: list[Op]) -> int:
    return sum(o.output["counters"]["triples_scanned"] for o in ops
               if o.key == "search_question1" and o.error is None)
