"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ringbench layers from outside the
package: each wrapper is patched into every ringbench module namespace that
holds the original, so calls made through `from .ideals import check_closure`
style imports are seen too.  Every call records a span with its parent, its
start and end, and the sizes of
its ring argument (n = ring order, h = homogeneous-element count, L = lattice
size where known).

This module is imported only by traced runs; untraced runs never load it.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from dataclasses import dataclass

# Public functions wrapped per layer.  groups and bitsets are left out on
# purpose: their functions run millions of times and a wrapper would swamp
# them.  Private helpers are left out because they are expected to change.
WRAPPED: dict[str, tuple[str, ...]] = {
    "rings": ("make_zn", "make_gaussian", "make_matrix_ring",
              "make_product_ring", "validate_ring"),
    "grading": ("attach_grading", "validate_grading"),
    "specs": ("parse_document", "build_document"),
    "ideals": ("enumerate_graded_ideals", "check_closure",
               "minimal_homogeneous_generators"),
    "constructions": ("make_quotient", "make_idealization", "make_graded_hom",
                      "validate_bimodule"),
    "classify": ("is_graded_prime", "is_graded_weakly_prime",
                 "is_graded_2_absorbing", "is_graded_weakly_2_absorbing",
                 "is_graded_completely_weakly_2_absorbing",
                 "is_graded_strongly_weakly_2_absorbing",
                 "is_g_weakly_2_absorbing", "find_g_triple_zeros",
                 "classify_ideal", "raw_product_mask"),
    "theorems": ("default_corpus", "directory_corpus", "evaluate_ring",
                 "run_property", "search_ring"),
}

# Functions whose inclusive time is reported besides their self time.
TOTAL_OF = ("specs.build_document", "constructions.make_quotient",
            "constructions.make_idealization", "classify.classify_ideal",
            "theorems.evaluate_ring", "theorems.search_ring")

PROPERTY_IDS = tuple(f"P{i}" for i in range(1, 20))
MODULES = tuple(WRAPPED)


@dataclass
class Span:
    name: str            # "<module>.<function>"
    parent: int          # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    n: int | None = None
    h: int | None = None
    L: int | None = None
    arg: str | None = None   # run_property's property id


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of it that its
    direct children cover.  Children are assumed nested inside their parent,
    as spans of a single-threaded call stack are."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child_time)]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _sizes(args, result) -> tuple[int | None, int | None, int | None]:
    """n, h, L from the first ring-like argument, read without side effects
    (no cache is filled by looking)."""
    n = h = L = None
    for a in args[:1]:
        if hasattr(a, "hom_mask") and hasattr(a, "ring"):      # GradedRing
            n = a.ring.order
            h = a.hom_mask.bit_count()
            for key, value in a._cache.items():
                if isinstance(key, str) and key.startswith("lattice:"):
                    L = len(value)
        elif hasattr(a, "order") and hasattr(a, "mul"):         # FiniteRing
            n = a.order
    if n is None and hasattr(result, "order") and hasattr(result, "mul"):
        n = result.order
    if isinstance(result, list) and result and hasattr(result[0], "mask"):
        L = len(result)
    return n, h, L


class Tracer:
    """Keeps spans in memory; install() patches the wrappers in."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.rss_rise_kb: dict[str, int] = {m: 0 for m in MODULES}
        self.rss_rise_kb["unattributed"] = 0
        self._last_rss = _maxrss_kb()
        self._patched: list[tuple[object, str, object]] = []

    def _account_rss(self) -> None:
        """Attribute growth of the high-water mark since the last span
        boundary to the module of the span that was innermost meanwhile."""
        now = _maxrss_kb()
        if now > self._last_rss:
            owner = (self.spans[self.stack[-1]].name.split(".")[0]
                     if self.stack else "unattributed")
            self.rss_rise_kb[owner] += now - self._last_rss
            self._last_rss = now

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self.stack
        is_property = qualname == "theorems.run_property"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._account_rss()
            span = Span(qualname, stack[-1] if stack else -1, 0.0)
            if is_property:
                span.arg = args[1] if len(args) > 1 else kwargs.get("property_id")
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._account_rss()
                stack.pop()
                span.n, span.h, span.L = _sizes(args, result)

        return wrapper

    def install(self) -> None:
        """Patch a wrapper for every listed function into every loaded
        ringbench module that refers to it.  A listed name that no longer
        exists is recorded in self.missing instead of failing the run."""
        importlib.import_module("ringbench")
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "ringbench"
                                        or name.startswith("ringbench."))]
        for module, names in WRAPPED.items():
            try:
                home = importlib.import_module(f"ringbench.{module}")
            except ImportError:
                home = None
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.missing.append(f"{module}.{fname}")
                    continue
                wrapper = self._wrap(f"{module}.{fname}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def table(self, window_s: float) -> dict:
        """Per-function calls, self and inclusive time, largest sizes seen,
        per-property time, per-module RSS rise, and the part of the window
        no span covers."""
        selfs = self_times(self.spans)
        rows: dict[str, dict] = {}
        for s, st in zip(self.spans, selfs):
            row = rows.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0, "n": None,
                                           "h": None, "L": None})
            row["calls"] += 1
            row["self_s"] += st
            for key in ("n", "h", "L"):
                v = getattr(s, key)
                if v is not None and (row[key] is None or v > row[key]):
                    row[key] = v
        # inclusive time counts only the outermost span of a recursive name
        for s in self.spans:
            p, nested = s.parent, False
            while p >= 0:
                if self.spans[p].name == s.name:
                    nested = True
                    break
                p = self.spans[p].parent
            if not nested:
                rows[s.name]["total_s"] += s.end - s.start
        properties = {pid: 0.0 for pid in PROPERTY_IDS}
        for s in self.spans:
            if s.name == "theorems.run_property" and s.arg in properties:
                properties[s.arg] += s.end - s.start
        covered = sum(s.end - s.start for s in self.spans if s.parent < 0)
        return {
            "functions": rows,
            "properties_s": properties,
            "rss_rise_mb": {m: kb / 1024 for m, kb in self.rss_rise_kb.items()},
            "window_s": window_s,
            "self_sum_s": sum(selfs),
            "unattributed_s": window_s - covered,
            "spans": len(self.spans),
            "member_s": member_times(self.spans),
            "missing": list(self.missing),
        }


def member_times(spans: list[Span]) -> list[float]:
    """Seconds per corpus member: a root evaluate_ring or search_ring span
    plus the root build_document span that built its ring just before it."""
    out = []
    build = 0.0
    for s in spans:
        if s.parent >= 0:
            continue
        if s.name == "specs.build_document":
            build = s.end - s.start
        elif s.name in ("theorems.evaluate_ring", "theorems.search_ring"):
            out.append(build + s.end - s.start)
            build = 0.0
        elif s.name != "specs.parse_document":
            build = 0.0
    return out
