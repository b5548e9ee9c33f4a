"""One-statement ring specs: parse and build graded rings with named ideals.

Grammar (statements separated by newlines or ';', comments start at '#'):

    ring: <expr>
    grading: trivial | gaussian | checkerboard | product | inherited
    ideal <NAME>: gens [<literal>, ...]
    option <KEY>: <value>

Ring expressions nest: zn(n), gaussian(n), matrix(<expr>, 2),
product(<expr>, <expr>), quotient(<expr>, [<literal>, ...]),
idealization(<expr>, regular | quotient([<literal>, ...])), and
table(<add rows>, <mul rows>). Element literals follow the constructor:
integers for zn and table, a / bi / a+bi for gaussian, bracketed rows
[[a,b],[c,d]] for matrix, pairs (u, v) for product and idealization;
quotient literals are base literals taken mod the ideal.

The optional grading statement must name the grading the constructor
carries anyway; it exists so documents can state their grading explicitly.

A table ring is checked with validate_ring when it is built, since every
constructor above it trusts its base ring; `ringbench validate` alone
builds without that check, to report the failure itself.

Inside one corpus run (theorems._map_over_corpus) a build memo keeps every
ring subexpression that occurs in two or more of the run's members, keyed
by the expression (whose equality reads constructor kinds, arguments and
literal texts, never source positions) and the ring cap. A repeat gets the
kept FiniteRing and Grading in a fresh GradedRing, whose caches start
empty. A build that raises is not kept, and outside a run every build is
fresh.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .constructions import (
    _idealization,
    make_quotient,
    quotient_bimodule,
    regular_bimodule,
)
from .grading import (
    GradedRing,
    attach_grading,
    decompose,
    make_checkerboard_grading,
    make_gaussian_grading,
    make_product_grading,
    make_trivial_grading,
)
from .groups import make_cyclic
from .ideals import TWO_SIDED, IdealSubset, generate_ideal
from .rings import (
    DEFAULT_RING_CAP,
    make_gaussian,
    make_matrix_ring,
    make_product_ring,
    make_table_ring,
    make_zn,
    validate_ring,
)

GRADING_NAMES = ("trivial", "gaussian", "checkerboard", "product", "inherited")

_NATURAL_GRADING = {
    "zn": "trivial",
    "table": "trivial",
    "gaussian": "gaussian",
    "matrix": "checkerboard",
    "product": "product",
    "quotient": "inherited",
    "idealization": "inherited",
}


class ParseError(ValueError):
    """Syntax, literal or table error with its 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col

    def __reduce__(self):
        # args holds the formatted text, which __init__ cannot take back
        return type(self), (self.message, self.line, self.col)


@dataclass(frozen=True)
class Literal:
    """Unparsed element literal with its source position, which equality
    and hashing ignore."""

    text: str
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class RingExpr:
    """One node of a ring constructor expression; equality and hashing
    ignore its source position."""

    kind: str
    args: tuple
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class IdealSpec:
    name: str
    generators: tuple[Literal, ...]
    line: int
    col: int


@dataclass(frozen=True)
class RingSpecDocument:
    ring: RingExpr
    grading: str | None
    ideals: tuple[IdealSpec, ...]
    options: dict[str, str]


# ---------------------------------------------------------------------------
# scanning

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?\d+")


class _Cursor:
    """Scanner over one statement; statements never span lines."""

    def __init__(self, text: str, line: int, col0: int):
        self.text = text
        self.pos = 0
        self.line = line
        self.col0 = col0

    def col(self, pos: int | None = None) -> int:
        return self.col0 + (self.pos if pos is None else pos)

    def error(self, message: str, pos: int | None = None):
        raise ParseError(message, self.line, self.col(pos))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        c = self.peek()
        if c != ch:
            found = repr(c) if c else "end of statement"
            self.error(f"expected {ch!r}, found {found}")
        self.pos += 1

    def ident(self) -> str | None:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group()

    def int_(self, what: str = "an integer") -> int:
        self.skip_ws()
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.error(f"expected {what}")
        self.pos = m.end()
        return int(m.group())

    def balanced(self, opener: str) -> tuple[str, int]:
        """Consume a balanced bracket run; return (inner text, inner offset)."""
        if self.peek() != opener:
            self.error(f"expected {opener!r}")
        start = self.pos
        depth = 0
        for i in range(start, len(self.text)):
            ch = self.text[i]
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
                if depth == 0:
                    inner = self.text[start + 1:i]
                    self.pos = i + 1
                    return inner, start + 1
                if depth < 0:
                    self.error("unbalanced brackets", i)
        self.error("unterminated bracket", start)

    def end(self) -> None:
        if not self.done():
            self.error("unexpected trailing text")

    def rest(self) -> str:
        out = self.text[self.pos:]
        self.pos = len(self.text)
        return out


def _split_top(text: str) -> list[tuple[str, int]]:
    """Split on commas outside any brackets; returns (piece, offset) pairs."""
    parts: list[tuple[str, int]] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    parts.append((text[start:], start))
    return parts


def _literal_list(cur: _Cursor) -> tuple[Literal, ...]:
    inner, off = cur.balanced("[")
    pieces = _split_top(inner)
    if len(pieces) == 1 and not pieces[0][0].strip():
        return ()
    lits = []
    for piece, rel in pieces:
        stripped = piece.strip()
        if not stripped:
            cur.error("empty element literal", off + rel)
        lead = len(piece) - len(piece.lstrip())
        lits.append(Literal(stripped, cur.line, cur.col0 + off + rel + lead))
    return tuple(lits)


# ---------------------------------------------------------------------------
# expressions


def _parse_table_rows(cur: _Cursor) -> tuple[tuple[int, ...], ...]:
    cur.skip_ws()
    inner, off = cur.balanced("[")
    try:
        rows = json.loads("[" + inner + "]")
    except json.JSONDecodeError as exc:
        cur.error(f"bad table rows: {exc.msg}", off)
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list)
                    and all(isinstance(e, int) for e in r) for r in rows)):
        cur.error("table rows must be lists of integers", off - 1)
    return tuple(tuple(r) for r in rows)


def _parse_expr(cur: _Cursor) -> RingExpr:
    cur.skip_ws()
    start = cur.pos
    name = cur.ident()
    if name is None:
        cur.error("expected a ring constructor")
    if name not in _NATURAL_GRADING:
        cur.error(f"unknown constructor {name!r}", start)
    line, col = cur.line, cur.col(start)
    cur.expect("(")
    if name in ("zn", "gaussian"):
        n = cur.int_("a modulus")
        if n <= 0:
            cur.error(f"modulus must be positive, got {n}", start)
        args: tuple = (n,)
    elif name == "matrix":
        base = _parse_expr(cur)
        cur.expect(",")
        k = cur.int_("a matrix size")
        if k != 2:
            cur.error("only 2x2 matrix rings are supported", start)
        args = (base, k)
    elif name == "product":
        e1 = _parse_expr(cur)
        cur.expect(",")
        args = (e1, _parse_expr(cur))
    elif name == "quotient":
        base = _parse_expr(cur)
        cur.expect(",")
        cur.skip_ws()
        args = (base, _literal_list(cur))
    elif name == "idealization":
        base = _parse_expr(cur)
        cur.expect(",")
        cur.skip_ws()
        mstart = cur.pos
        mod = cur.ident()
        if mod == "regular":
            args = (base, ("regular",))
        elif mod == "quotient":
            cur.expect("(")
            cur.skip_ws()
            gens = _literal_list(cur)
            cur.expect(")")
            args = (base, ("quotient", gens))
        else:
            cur.error("expected 'regular' or 'quotient([...])'", mstart)
    else:  # table
        a = _parse_table_rows(cur)
        cur.expect(",")
        args = (a, _parse_table_rows(cur))
    cur.expect(")")
    return RingExpr(name, args, line, col)


# ---------------------------------------------------------------------------
# documents


def parse_document(text: str) -> RingSpecDocument:
    """Parse a spec document; raises ParseError at the first problem."""
    ring: RingExpr | None = None
    grading: tuple[str, int, int] | None = None
    ideals: list[IdealSpec] = []
    seen: set[str] = set()
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for piece in line.split(";"):
            stripped = piece.strip()
            col = offset + (len(piece) - len(piece.lstrip())) + 1
            offset += len(piece) + 1
            if not stripped:
                continue
            cur = _Cursor(stripped, lineno, col)
            head = cur.ident()
            if head == "ring":
                cur.expect(":")
                if ring is not None:
                    cur.error("duplicate ring statement", 0)
                ring = _parse_expr(cur)
                cur.end()
            elif head == "grading":
                cur.expect(":")
                cur.skip_ws()
                gstart = cur.pos
                gname = cur.ident()
                if gname not in GRADING_NAMES:
                    cur.error("expected one of " + ", ".join(GRADING_NAMES),
                              gstart)
                if grading is not None:
                    cur.error("duplicate grading statement", 0)
                grading = (gname, lineno, col)
                cur.end()
            elif head == "ideal":
                cur.skip_ws()
                nstart = cur.pos
                iname = cur.ident()
                if iname is None:
                    cur.error("expected an ideal name", nstart)
                if iname in seen:
                    cur.error(f"duplicate ideal {iname!r}", nstart)
                cur.expect(":")
                cur.skip_ws()
                if cur.ident() != "gens":
                    cur.error("expected 'gens [...]'")
                cur.skip_ws()
                gens = _literal_list(cur)
                cur.end()
                seen.add(iname)
                ideals.append(IdealSpec(iname, gens, lineno, col))
            elif head == "option":
                cur.skip_ws()
                kstart = cur.pos
                key = cur.ident()
                if key is None:
                    cur.error("expected an option key", kstart)
                if key in options:
                    cur.error(f"duplicate option {key!r}", kstart)
                cur.expect(":")
                value = cur.rest().strip()
                if not value:
                    raise ParseError("expected an option value", lineno,
                                     col + len(stripped))
                options[key] = value
            else:
                raise ParseError(
                    "expected 'ring:', 'grading:', 'ideal <name>:', "
                    "or 'option <key>:'", lineno, col)
    if ring is None:
        raise ParseError("missing ring statement", 1, 1)
    if grading is not None and grading[0] != _NATURAL_GRADING[ring.kind]:
        raise ParseError(
            f"grading {grading[0]!r} does not fit this ring; "
            f"expected {_NATURAL_GRADING[ring.kind]!r}", grading[1], grading[2])
    return RingSpecDocument(ring, grading[0] if grading else None,
                            tuple(ideals), options)


# ---------------------------------------------------------------------------
# element literals


def _int_literal(lit: Literal) -> int:
    if not _INT_RE.fullmatch(lit.text):
        raise ParseError(f"expected an integer literal, got {lit.text!r}",
                         lit.line, lit.col)
    return int(lit.text)


def _gaussian_literal(lit: Literal, n: int) -> int:
    t = lit.text.replace(" ", "")
    if re.fullmatch(r"-?\d+", t):
        a, b = int(t), 0
    else:
        m = re.fullmatch(r"(?:(-?\d+)\+)?(-?\d*)i", t)
        if not m:
            raise ParseError(
                f"bad element literal {lit.text!r} (want a, bi, or a+bi)",
                lit.line, lit.col)
        a = int(m.group(1)) if m.group(1) else 0
        b = int(m.group(2)) if m.group(2) not in ("", "-", None) \
            else (-1 if m.group(2) == "-" else 1)
    return (b % n) * n + (a % n)


def _sub_literal(piece: str, rel: int, base_col: int, line: int) -> Literal:
    lead = len(piece) - len(piece.lstrip())
    return Literal(piece.strip(), line, base_col + rel + lead)


def _pair_literal(lit: Literal) -> tuple[Literal, Literal]:
    t = lit.text
    if not (t.startswith("(") and t.endswith(")")):
        raise ParseError(f"expected a pair literal (u, v), got {lit.text!r}",
                         lit.line, lit.col)
    parts = _split_top(t[1:-1])
    if len(parts) != 2 or not all(p.strip() for p, _ in parts):
        raise ParseError("expected exactly two pair components",
                         lit.line, lit.col)
    u, v = (_sub_literal(p, rel, lit.col + 1, lit.line) for p, rel in parts)
    return u, v


def _matrix_literal(lit: Literal, parse_entry: Callable[[Literal], int],
                    k: int, m: int) -> int:
    t = lit.text
    if not (t.startswith("[") and t.endswith("]")):
        raise ParseError(
            f"expected a bracketed matrix literal, got {lit.text!r}",
            lit.line, lit.col)
    rows = _split_top(t[1:-1])
    if len(rows) != k:
        raise ParseError(f"expected {k} matrix rows, got {len(rows)}",
                         lit.line, lit.col)
    idx = 0
    for rpiece, roff in rows:
        row = _sub_literal(rpiece, roff, lit.col + 1, lit.line)
        rt = row.text
        if not (rt.startswith("[") and rt.endswith("]")):
            raise ParseError(f"expected a bracketed row, got {rt!r}",
                             row.line, row.col)
        entries = _split_top(rt[1:-1])
        if len(entries) != k or not all(p.strip() for p, _ in entries):
            raise ParseError(f"expected {k} entries per row", row.line, row.col)
        for epiece, eoff in entries:
            entry = _sub_literal(epiece, eoff, row.col + 1, row.line)
            idx = idx * m + parse_entry(entry)
    return idx


# ---------------------------------------------------------------------------
# the per-run build memo

_memo: dict = {}                  # key -> (FiniteRing, Grading, literal parser)
_memo_keys: frozenset = frozenset()   # keys the memo may keep; empty when off


def _subexpressions(expr: RingExpr):
    yield expr
    for arg in expr.args:
        if isinstance(arg, RingExpr):
            yield from _subexpressions(arg)


def shared_subexpressions(spec_texts, ring_cap: int) -> frozenset:
    """Memo keys of the ring subexpressions that occur in two or more of the
    documents; a document that does not parse contributes none."""
    counts: Counter = Counter()
    for text in spec_texts:
        try:
            doc = parse_document(text)
        except ParseError:
            continue
        counts.update({(e, ring_cap) for e in _subexpressions(doc.ring)})
    return frozenset(key for key, c in counts.items() if c > 1)


def start_build_memo(keys: frozenset) -> None:
    """Turn the build memo on, empty, keeping only builds of the given keys."""
    global _memo_keys
    _memo.clear()
    _memo_keys = frozenset(keys)


def stop_build_memo() -> None:
    """Turn the build memo off and drop what it kept."""
    global _memo_keys
    _memo.clear()
    _memo_keys = frozenset()


# ---------------------------------------------------------------------------
# building


@dataclass(frozen=True)
class _Built:
    graded: GradedRing
    parse: Callable[[Literal], int]


def _homogeneous_element(built: _Built, lit: Literal) -> int:
    x = built.parse(lit)
    gr = built.graded
    if not gr.is_homogeneous(x):
        parts = decompose(gr, x)
        names = [gr.name(c) for _, c in sorted(parts.items())]
        joined = ", ".join(names[:-1]) + " and " + names[-1]
        raise ParseError(f"not homogeneous: components {joined}",
                         lit.line, lit.col)
    return x


def _generated_ideal(built: _Built, lits: tuple[Literal, ...]) -> IdealSubset:
    gens = [_homogeneous_element(built, lit) for lit in lits]
    return generate_ideal(built.graded, gens, TWO_SIDED)


def _build_expr(expr: RingExpr, ring_cap: int, check_tables: bool) -> _Built:
    """Build expr, through the corpus run's memo when its key is shared."""
    key = (expr, ring_cap) if _memo_keys and check_tables else None
    if key not in _memo_keys:
        return _construct(expr, ring_cap, check_tables)
    if key in _memo:
        ring, grading, parse = _memo[key]
        return _Built(GradedRing(ring, grading), parse)
    built = _construct(expr, ring_cap, check_tables)
    _memo[key] = (built.graded.ring, built.graded.grading, built.parse)
    return built


def _construct(expr: RingExpr, ring_cap: int, check_tables: bool) -> _Built:
    if expr.kind == "zn":
        n = expr.args[0]
        ring = make_zn(n, ring_cap)
        gr = attach_grading(ring, make_trivial_grading(ring, make_cyclic(2)))
        return _Built(gr, lambda lit: _int_literal(lit) % n)
    if expr.kind == "gaussian":
        n = expr.args[0]
        ring = make_gaussian(n, ring_cap)
        gr = attach_grading(ring, make_gaussian_grading(ring))
        return _Built(gr, lambda lit: _gaussian_literal(lit, n))
    if expr.kind == "table":
        add, mul = expr.args
        ring = make_table_ring([list(r) for r in add], [list(r) for r in mul],
                               cap=ring_cap)
        if check_tables and not (v := validate_ring(ring)):
            raise ParseError(f"not a ring: {v.failure} at {v.witness}",
                             expr.line, expr.col)
        ring.laws_checked = check_tables
        gr = attach_grading(ring, make_trivial_grading(ring, make_cyclic(2)))
        order = ring.order

        def parse_index(lit: Literal) -> int:
            v = _int_literal(lit)
            if not 0 <= v < order:
                raise ParseError(f"element index {v} out of range "
                                 f"0..{order - 1}", lit.line, lit.col)
            return v

        return _Built(gr, parse_index)
    if expr.kind == "matrix":
        base = _build_expr(expr.args[0], ring_cap, check_tables)
        k = expr.args[1]
        ring = make_matrix_ring(base.graded.ring, k, ring_cap)
        gr = attach_grading(ring, make_checkerboard_grading(ring))
        m = base.graded.order
        return _Built(gr, lambda lit: _matrix_literal(lit, base.parse, k, m))
    if expr.kind == "product":
        b1 = _build_expr(expr.args[0], ring_cap, check_tables)
        b2 = _build_expr(expr.args[1], ring_cap, check_tables)
        ring = make_product_ring(b1.graded.ring, b2.graded.ring, ring_cap)
        gr = attach_grading(ring, make_product_grading(b1.graded, b2.graded,
                                                       ring))
        n2 = b2.graded.order

        def parse_pair(lit: Literal) -> int:
            u, v = _pair_literal(lit)
            return b1.parse(u) * n2 + b2.parse(v)

        return _Built(gr, parse_pair)
    if expr.kind == "quotient":
        base = _build_expr(expr.args[0], ring_cap, check_tables)
        K = _generated_ideal(base, expr.args[1])
        q = make_quotient(base.graded, K)
        proj = q.projection.mapping
        return _Built(q.graded_ring, lambda lit: int(proj[base.parse(lit)]))
    if expr.kind == "idealization":
        base = _build_expr(expr.args[0], ring_cap, check_tables)
        mdesc = expr.args[1]
        if mdesc[0] == "regular":
            M = regular_bimodule(base.graded)
            mparse = base.parse
        else:
            q = make_quotient(base.graded, _generated_ideal(base, mdesc[1]))
            M = quotient_bimodule(q)
            mproj = q.projection.mapping

            def mparse(lit: Literal) -> int:
                return int(mproj[base.parse(lit)])

        X = _idealization(base.graded, M, ring_cap)
        morder = M.order

        def parse_xpair(lit: Literal) -> int:
            u, v = _pair_literal(lit)
            return base.parse(u) * morder + mparse(v)

        return _Built(X, parse_xpair)
    raise ValueError(f"unhandled constructor {expr.kind!r}")


@dataclass(frozen=True)
class BuiltSpec:
    """Constructed graded ring with its named ideals and raw options."""

    graded_ring: GradedRing
    ideals: dict[str, IdealSubset]
    options: dict[str, str]
    literal_parser: Callable[[Literal], int]

    def parse_element(self, text: str) -> int:
        """Element index for a literal in this ring's notation."""
        return self.literal_parser(Literal(text.strip(), 1, 1))


def build_document(doc: RingSpecDocument, ring_cap: int = DEFAULT_RING_CAP,
                   check_tables: bool = True) -> BuiltSpec:
    """Construct the graded ring and every named ideal of a parsed document.

    check_tables=False skips validate_ring on table rings (and the build
    memo), for a caller that validates the built ring itself: a broken
    table(...) literal then raises no ParseError, and its ring, with every
    ring built on it, is not recorded as one (`laws_checked`)."""
    built = _build_expr(doc.ring, ring_cap, check_tables)
    ideals = {spec.name: _generated_ideal(built, spec.generators)
              for spec in doc.ideals}
    return BuiltSpec(built.graded, ideals, dict(doc.options), built.parse)
