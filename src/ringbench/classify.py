"""Classification predicates for graded ideals.

Element-wise predicates reduce sandwich conditions x*R*y*R*z to homogeneous
multipliers: a general multiplier is a sum of homogeneous ones, products
distribute over those sums, and the target sets (an ideal, or {0}) are
additively closed, so the full sandwich lies in the target iff the
homogeneous-multiplier sandwich does.

As x*S*y*S*z = (x*S*y)*S*z, a triple's verdict depends only on the value
set x*S*y and on z; sandwich_kernel keeps the few distinct value sets, so an
ideal costs two small products and a bit-packed triple scan, not O(h^3).

The scan runs over twin classes of x and of y. Whether (x, y, z) hits reads
x only through its row of value sets and its products x*y', x*z landing in
P, and y only through its column of value sets and its products x'*y, y*z
landing in P. Elements that agree on all of these are twins: each triple
of theirs hits exactly when the same triple of the least twin does, so a
hit of the least twins stands for a box of triples. On zn(1024) the units'
associates make 11 classes of 1024 elements, and an ideal's scan reads
121 pairs instead of a million. Equal sets x*S, value sets and twins are
all found by _partition, one stable sort of rows as bytes: twins once per
kernel from its rows per (x*S, y), then split by P's products once per
ideal. A census's count and first triple come from the boxes; only a
census asked for in full is listed, as a (count, 3) uint16 array.

sandwich_values and g_sandwich_values evaluate the raw definitions without
these reductions and exist so results can be cross-checked through an
independent route.

Ideal-wise predicates (prime, weakly prime, strongly weakly 2-absorbing)
quantify over the graded two-sided ideal lattice. lattice_table holds it once
per ring and sidedness as positions: containment sub[i, j] and products
prod[i, j], since a product of graded ideals of one sidedness is again one.
Pairs are read as (L, L) positions, and a triple (A, B, C) as 64-bit words
over C: hit[AB] & ow[A] & ow[B] (0 != ABC inside P, AC and BC outside P) is
every C at once. Both are taken in blocks of the first index and read in C
order, so the witness is the lexicographically first violation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bitsets import bools_from_mask, indices_from_mask, is_subset, mask_from_bools
from .grading import GradedRing, GradingError
from .groups import first_offender
from .ideals import (
    TWO_SIDED,
    EnumerationCapError,
    IdealSubset,
    graded_ideal_masks,
    ideal_check,
    minimal_homogeneous_generators,
)

DEFAULT_IDEAL_CAP = 10000

ELEMENT_PREDICATES = (
    "graded_2_absorbing",
    "graded_weakly_2_absorbing",
    "graded_completely_weakly_2_absorbing",
)
IDEAL_PREDICATES = (
    "graded_prime",
    "graded_weakly_prime",
    "graded_strongly_weakly_2_absorbing",
)


class ClassificationError(ValueError):
    pass


class ImproperIdealError(ClassificationError):
    """The whole ring was passed where a proper ideal is required."""


class NotIdealError(ClassificationError):
    """Subset is not closed as a two-sided ideal."""


class NotGradedIdealError(ClassificationError):
    """Ideal is not graded; the message names the leaking member."""


class PreconditionError(ClassificationError):
    """A stated hypothesis of the predicate fails for these inputs."""


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: dict | None = None
    note: str | None = None


@dataclass
class GTripleZeroCensus:
    """The g-triple-zeros of one ideal at one degree: triples[i] holds the
    element indices (x, y, z) of the i-th, in lexicographic order, as a
    (count, 3) uint16 array."""

    degree: int
    triples: np.ndarray
    p_is_g_weakly_2_absorbing: bool

    @property
    def count(self) -> int:
        return len(self.triples)


@dataclass
class ClassificationReport:
    ideal_mask: int
    ideal_size: int
    proper: bool
    generators: list[int]
    generator_names: list[str]
    verdicts: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, dict] = field(default_factory=dict)
    skips: dict[str, str] = field(default_factory=dict)
    g_variants: dict[int, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "ideal_mask": self.ideal_mask,
            "ideal_size": self.ideal_size,
            "proper": self.proper,
            "generators": list(self.generators),
            "generator_names": list(self.generator_names),
            "verdicts": dict(self.verdicts),
            "witnesses": dict(self.witnesses),
            "skips": dict(self.skips),
            "g_variants": {str(g): v for g, v in sorted(self.g_variants.items())},
        }


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def require_graded_ideal(gr: GradedRing, P: IdealSubset | int,
                         proper: bool = True) -> IdealSubset:
    """Validate the subset is a graded two-sided ideal (and proper when asked)."""
    if not isinstance(P, IdealSubset):
        P = IdealSubset(int(P), TWO_SIDED, graded=True)
    ok, witness, defect = ideal_check(gr, P.mask)
    if not ok:
        raise NotIdealError(f"subset is not a two-sided ideal: failed {witness}")
    if defect is not None:
        raise NotGradedIdealError(
            f"ideal is not graded: member {gr.name(defect)} has a homogeneous "
            f"component outside the ideal")
    if proper and P.mask == _full_mask(gr.order):
        raise ImproperIdealError("classification requires a proper ideal")
    return P


# ---------------------------------------------------------------------------
# sandwich kernel

_BLOCK = 1 << 20     # bytes of the largest temporary in a kernel build or a scan
_TWIN_WORDS = 1 << 14    # words a twin-class scan must save to pay


class _Twins(NamedTuple):
    """A partition of positions 0..h-1, such as one scan axis, into classes
    numbered by least member: of[i] is i's class, reps[c] the least member
    of class c and sizes[c] its size."""

    of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray


def _partition(*sigs: np.ndarray) -> _Twins:
    """Positions whose rows agree in every sig (arrays of h rows) share a
    class. The rows are sorted as opaque bytes, stably, so that each run of
    equal rows starts at its least member."""
    h = len(sigs[0])
    key = np.hstack([np.ascontiguousarray(s).reshape(h, -1).view(np.uint8) for s in sigs])
    order = np.argsort(key.view(np.dtype((np.void, key.shape[1]))).ravel(), kind="stable")
    ranked = key[order]
    starts = np.ones(h, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    least = order[starts]
    reps = np.sort(least)
    of = np.empty(h, dtype=np.intp)
    of[order] = np.searchsorted(reps, least)[np.cumsum(starts) - 1]
    return _Twins(of, reps, np.bincount(of))


def _classes(blocks) -> tuple[np.ndarray, np.ndarray]:
    """(of, rows) over the rows of blocks in turn: of[i] the class of row i,
    numbered by first occurrence, and rows[c] class c's row. A block is
    partitioned below the distinct rows before it, so only those are held."""
    of, rows = [], None
    for blk in blocks:
        both = blk if rows is None else np.vstack([rows, blk])
        part = _partition(both)
        of.append(part.of[len(both) - len(blk):])
        rows = both[part.reps]
    return np.concatenate(of), rows


def sandwich_kernel(gr: GradedRing, left: int | None, mult: int | None,
                    right: int | None) -> dict:
    """Distinct value sets V(x, y) = x*S*y for x in L, y in R, s in S.

    Arguments are degrees naming components, or None for every homogeneous
    element. The values land in T: the product degree's component, or the
    homogeneous elements when an argument is None. U (u, |T|) holds the u
    distinct sets as bit rows, inv[i, k] = row_of[left_of[i], k] the row of
    (L[i], R[k]) with left_of[i] the class of L[i]*S, and zero[r] whether
    row r is {0}. Keyed by the index sets, so a trivially graded ring shares
    one kernel between None and the identity degree.
    """
    L, S, R = (gr.hom_indices() if d is None else gr.component_indices(d)
               for d in (left, mult, right))
    if None in (left, mult, right):
        T, where = gr.hom_indices(), "a homogeneous component"
    else:
        d = gr.group.mul(gr.group.mul(left, mult), right)
        T, where = gr.component_indices(d), f"component {d}"
    key = ("sandwich",) + tuple(s.tobytes() for s in (L, S, R, T))
    return gr.memo(key, lambda: _sandwich_kernel(gr, key, L, S, R, T, where))


def _sandwich_kernel(gr: GradedRing, key: tuple, L: np.ndarray, S: np.ndarray,
                     R: np.ndarray, T: np.ndarray, where: str) -> dict:
    ring, width = gr.ring, len(T) + 1
    pos = np.full(gr.order, len(T), dtype=np.int32)     # a stray product's slot
    pos[T] = np.arange(len(T), dtype=np.int32)
    # V(x, y) = (x * S) * y, so pairs whose x share the set x * S share rows
    step = max(1, _BLOCK // max(8 * len(S), gr.order))
    left_of, sets = _classes(_bit_rows((np.arange(len(xs))[:, None], ring.products(xs, S)),
                                       (len(xs), gr.order))
                             for xs in (L[i:i + step] for i in range(0, len(L), step)))
    c, v = np.nonzero(np.unpackbits(sets, axis=1, count=gr.order, bitorder="little"))
    step = max(1, _BLOCK // max(8 * len(v), len(sets) * width))
    of, rows = _classes(_bit_rows((np.arange(len(ys)), c[:, None], pos[ring.products(v, ys)]),
                                  (len(ys), len(sets), width))
                        for ys in (R[y0:y0 + step] for y0 in range(0, len(R), step)))
    of = of.reshape(len(R), len(sets)).T.ravel()     # rows came by y: renumber by (a, y)
    first = _partition(of)
    row_of, rows = first.of.reshape(len(sets), len(R)).astype(np.int32), rows[of[first.reps]]
    U = np.unpackbits(rows, axis=1, count=width, bitorder="little").astype(bool)
    if U[:, -1].any():      # name the first stray, which only a grading not validated makes
        x, mul = int(L[np.argmax(left_of == np.argmax(U[row_of, -1].any(axis=1)))]), ring.mul
        s, y = first_offender(pos[mul[mul[x, S][:, None], R]] == len(T))
        names = "*".join(gr.name(int(e)) for e in (x, S[s], R[y]))
        raise GradingError(f"product {names} = {gr.name(int(mul[mul[x, S[s]], R[y]]))} is not "
                           f"in {where}; the grading is not multiplicative")
    U = U[:, :-1]
    return {"key": key, "T": T, "R": R, "U": U, "left_of": left_of, "row_of": row_of,
            "inv": row_of if len(sets) == len(L) else row_of[left_of],
            "zero": ~U[:, T != 0].any(axis=1)}


def _bit_rows(at: tuple, shape: tuple) -> np.ndarray:
    """Bools of shape, True at the index tuple at, packed little-endian along the last axis."""
    bits = np.zeros(shape, dtype=bool)
    bits[at] = True
    return np.packbits(bits, axis=-1, bitorder="little").reshape(-1, -(-shape[-1] // 8))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Bools [..., c] as little-endian 64-bit words over c, the last word
    zero-padded: bit c % 64 of word c // 64."""
    w, nbytes = -(-bits.shape[-1] // 64), -(-bits.shape[-1] // 8)
    out = np.zeros(bits.shape[:-1] + (8 * w,), dtype=np.uint8)
    out[..., :nbytes] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def _first_bit(v: np.ndarray) -> tuple[int, int, int] | None:
    """(i, b, c) of the first set bit of v[i, b] words over c, in C order."""
    if (at := first_offender(v != 0)) is None:
        return None
    word = int(v[at])
    return at[0], at[1], 64 * at[2] + (word & -word).bit_length() - 1


def _bits(v: np.ndarray) -> np.ndarray:
    """(count, 3) array of every (i, b, c) set in v[i, b] words over c, in C
    order; only the nonzero words are unpacked."""
    at = np.argwhere(v)
    word, bit = np.nonzero(np.unpackbits(v[tuple(at.T)].view(np.uint8).reshape(-1, 8),
                                         axis=1, bitorder="little"))
    hits = at[word]
    hits[:, 2] = 64 * hits[:, 2] + bit
    return hits


def _none_in(U: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """[r, ...]: no member of row r of U lies in bad (indexed by slot)."""
    r, s = np.nonzero(U)       # every row is nonempty
    return ~np.logical_or.reduceat(bad[s], np.flatnonzero(np.diff(r, prepend=-1)), axis=0)


def _triple_kernel(gr: GradedRing, g: int | None) -> dict:
    """x*S*y*S*z = (x*S*y)*S*z over x, y, z in X, once per kernel.

    g None: X and S are the homogeneous elements. A degree g: X = R_g and
    S = R_e, and the z side sandwiches C_{g^2}*R_e*R_g. zero[r, m] says row r
    of the x side times S times X[m] vanishes, prods[a, b] = X[a]*X[b], and
    sides holds the x side's and the z side's sandwich kernels. Kept by the
    kernels' keys, so degrees with equal index sets share one, and found
    by degree.
    """
    def build():
        if g is None:
            k1 = k2 = sandwich_kernel(gr, None, None, None)
        else:
            e = gr.group.identity
            k1, k2 = sandwich_kernel(gr, g, e, g), sandwich_kernel(gr, gr.group.mul(g, g), e, g)
        key = ("triple", k1["key"], k2["key"])
        return gr.memo(key, lambda: {"key": key, "X": k1["R"], "inv": k1["inv"],
                                     "left_of": k1["left_of"], "row_of": k1["row_of"],
                                     "zero": _none_in(k1["U"], ~k2["zero"][k2["inv"]]),
                                     "prods": gr.ring.products(k1["R"], k1["R"]),
                                     "sides": (k1, k2)})
    return gr.memo(("triple kernel of", g), build)


def _kernel(gr: GradedRing, g: int | None, pmask: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """(tk, inside, outside) of _triple_kernel at one ideal P: inside[r, m]
    says row r times S times X[m] lies in P, outside[a, b] that X[a]*X[b]
    is not in P. The ideal's entry is kept in a bounded LRU, where
    _ideal_scan adds the kernel's twin classes refined at P once a scan
    reads them.
    """
    tk = _triple_kernel(gr, g)
    k1, k2 = tk["sides"]
    # the one bounded family: each entry holds (h, h) bools, 16 MB at h = 4096
    cache = gr.memo("ideal_rows", OrderedDict)
    if (tk["key"], pmask) not in cache:
        Pb = bools_from_mask(pmask, gr.order)
        good = _none_in(k2["U"], ~Pb[k2["T"]])[k2["inv"]]
        while len(cache) >= 64:
            cache.popitem(last=False)
        cache[tk["key"], pmask] = [_none_in(k1["U"], ~good), ~Pb[tk["prods"]]]
    return (tk, *cache[tk["key"], pmask][:2])


def _products(gr: GradedRing, tk: dict) -> dict:
    """Over the distinct products v of X[i]*X[k]: inv[i, k] the position of
    X[i]*X[k] among them, az[v, m] = v*X[m] and nonzero where that is not
    0, once per kernel."""
    def build():
        present = np.zeros(gr.order, dtype=bool)
        present[tk["prods"]] = True
        values = np.flatnonzero(present)
        at = np.cumsum(present, dtype=np.min_scalar_type(len(values))) - 1
        az = gr.ring.products(values, tk["X"])
        return {"inv": at[tk["prods"]], "az": az, "nonzero": az != 0}
    return gr.memo(("products", tk["key"]), build)


# ---------------------------------------------------------------------------
# twin classes


def _saves(h: int, pairs: int) -> bool:
    """Whether a scan over pairs (i, k) of twin classes, not h^2 pairs of
    positions, saves at least _TWIN_WORDS words of ceil(h / 64) a pair.

    Below that, about 0.3 ms of a position scan at about 50 words a
    microsecond, finding the classes and scanning them cost more than they
    save: on the suite they took 0.2 to 0.5 ms an ideal at h = 15 to 256."""
    return (h * h - pairs) * -(-h // 64) >= _TWIN_WORDS


def _kernel_twins(gr: GradedRing, tk: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """The classes of equal rows and of equal columns of tk["inv"], once per
    kernel, or None when the scan is to run over positions. Refining by an
    ideal's outside only splits these classes, so they bound what any
    ideal's scan can save; a kernel without twins saves nothing. They are
    row_of's, as inv = row_of[left_of] and left_of reaches all its rows."""
    row_of, left_of, h = tk["row_of"], tk["left_of"], len(tk["left_of"])

    def build():
        if not _saves(h, 0):
            return None
        r, c = _partition(row_of), _partition(row_of.T)
        return (r.of[left_of], c.of) if _saves(h, len(r.sizes) * len(c.sizes)) else None
    return gr.memo(("twins", tk["key"]), build)


def _refine(base: tuple[np.ndarray, np.ndarray] | None,
            outside: np.ndarray) -> tuple[_Twins, _Twins] | None:
    """The twins of a scan from base = (signature of each i, of each k) on
    inv: i and i' share theirs and outside's rows; k and k' share theirs
    and outside's columns and rows."""
    if base is None:
        return None
    rows = np.packbits(outside, axis=1)
    return (_partition(base[0], rows),
            _partition(base[1], np.packbits(outside, axis=0).T, rows))


@dataclass(frozen=True)
class _Boxes:
    """What a scan found, in C order: hits[j] = (a, b, m) stands for every
    triple (i, k, m) with i in class a of twins[0] and k in class b of
    twins[1]; with twins None, a = i and b = k."""

    hits: np.ndarray
    twins: tuple[_Twins, _Twins] | None

    def first(self) -> tuple[int, int, int] | None:
        """The lexicographically first triple: the least members of the
        first hit's classes, as classes are ordered by least member."""
        if not len(self.hits):
            return None
        a, b, m = (int(v) for v in self.hits[0])
        if self.twins is None:
            return a, b, m
        return int(self.twins[0].reps[a]), int(self.twins[1].reps[b]), m

    def count(self) -> int:
        if self.twins is None:
            return len(self.hits)
        first, second = self.twins
        return int((first.sizes[self.hits[:, 0]] * second.sizes[self.hits[:, 1]]).sum())

    def triples(self) -> np.ndarray:
        """Every triple, in C order, as a (count, 3) uint16 array."""
        if self.twins is None:
            return self.hits
        first, second = self.twins
        a, b, m = self.hits.T.astype(np.intp)
        # each hit as (a, k, m) for the members k of class b, sorted
        members = np.argsort(second.of, kind="stable").astype(np.uint16)
        per = second.sizes[b]
        src = np.repeat(np.arange(len(b)), per)
        k = members[np.arange(len(src)) + np.repeat(second.sizes.cumsum()[b] - per.cumsum(), per)]
        order = np.lexsort((m[src], k, a[src]))
        km = np.stack([k, m[src].astype(np.uint16)], axis=1)[order]
        bounds = np.searchsorted(a[src][order], np.arange(len(first.sizes) + 1))
        # then row i repeats the block of its class
        lens = np.diff(bounds)[first.of]
        out = np.empty((int(lens.sum()), 3), dtype=np.uint16)
        out[:, 0] = np.repeat(np.arange(len(lens), dtype=np.uint16), lens)
        at = 0
        for c, n in zip(first.of.tolist(), lens.tolist()):
            out[at:at + n, 1:] = km[bounds[c]:bounds[c] + n]
            at += n
        return out


def _scan(rows: np.ndarray, inv: np.ndarray, outside: np.ndarray,
          twins: tuple[_Twins, _Twins] | None, first: bool) -> _Boxes:
    """(a, b, m), lexicographically, with rows[inv[i, k], m] set and the
    pairs (i, k), (k, m), (i, m) all outside, for i the least member of
    class a and k of class b; only the first when asked. Twins hit alike:
    (i, k, m) reads row i of inv and outside, column k of inv and outside,
    row k of outside, and nothing else of i or k.

    Bits along m are packed into 64-bit words and a is taken in blocks.
    """
    # pairs (i, k) that are not outside read an appended empty row
    packed = _pack(np.vstack([rows, np.zeros(outside.shape[0], dtype=bool)]))
    if twins is None:
        out_i = out_k = _pack(outside)
        idx = np.where(outside, inv, np.intp(len(rows)))
    else:
        ri, rk = twins[0].reps, twins[1].reps
        out_i, out_k = _pack(outside[ri]), _pack(outside[rk])
        box = np.ix_(ri, rk)
        idx = np.where(outside[box], inv[box], np.intp(len(rows)))
    step = max(1, _BLOCK // (8 * out_k.size))
    found = [np.empty((0, 3), dtype=np.intp)]
    for a0 in range(0, len(idx), step):
        blk = packed[idx[a0:a0 + step]] & out_k[None, :, :] & out_i[a0:a0 + step, None, :]
        if not first:
            found.append(_bits(blk) + [a0, 0, 0])
        elif hit := _first_bit(blk):
            return _Boxes(np.array([[a0 + hit[0], hit[1], hit[2]]], dtype=np.uint16), twins)
    return _Boxes(np.concatenate(found).astype(np.uint16), twins)


def _ideal_scan(gr: GradedRing, tk: dict, pmask: int, rows: np.ndarray,
                first: bool) -> _Boxes:
    """_scan over tk["inv"] at an ideal that _kernel has just prepared:
    outside comes from its entry, and the kernel's twin classes refined at
    P too, which the entry gains when a scan first reads them."""
    entry = gr.memo("ideal_rows", OrderedDict)[tk["key"], pmask]
    if len(entry) == 2:
        entry.append(_refine(_kernel_twins(gr, tk), entry[1]))
    return _scan(rows, tk["inv"], entry[1], entry[2], first)


def _completely_weakly_scan(gr: GradedRing, tk: dict, pmask: int,
                            outside: np.ndarray) -> _Boxes:
    """The first triple whose product xyz is nonzero and in P, scanned over
    the distinct products v of X[i]*X[k]: rows[v, m] says v*X[m] is."""
    pr = _products(gr, tk)
    rows = bools_from_mask(pmask, gr.order)[pr["az"]] & pr["nonzero"]
    inv, twins = pr["inv"], None
    if _saves(len(inv), 0):
        # products whose rows agree are one value to the scan; where X holds
        # a unity, inv has no twins (X[i]*1 tells rows apart), but over
        # these values it may
        same = _partition(rows)
        rows, inv = rows[same.reps], same.of.astype(inv.dtype)[inv]
        twins = _refine((inv, inv.T), outside)
    return _scan(rows, inv, outside, twins, True)


def _decide(gr: GradedRing, g: int | None, pmask: int,
            kind: str) -> tuple[tuple[int, int, int] | None, int | None]:
    """(first, count) of one scan of _kernel(gr, g, P): its first triple, as
    positions of X, or None; and for the census its number of triples,
    else None. The kinds scan the rows of the x side's kernel inside P
    ("plain"), inside P and not zero ("weakly") or zero ("census"), or the
    distinct products ("cw", completely weakly)."""
    tk, inside, outside = _kernel(gr, g, pmask)
    if kind == "cw":
        return _completely_weakly_scan(gr, tk, pmask, outside).first(), None
    if kind == "census":
        rows = tk["zero"]
    else:
        rows = inside & ~tk["zero"] if kind == "weakly" else inside
    boxes = _ideal_scan(gr, tk, pmask, rows, kind != "census")
    return boxes.first(), boxes.count() if kind == "census" else None


def _triple_witness(gr: GradedRing, x: int, y: int, z: int) -> dict:
    return {
        "x": int(x), "y": int(y), "z": int(z),
        "names": [gr.name(int(x)), gr.name(int(y)), gr.name(int(z))],
    }


def _witness_at(gr: GradedRing, g: int | None, hit: tuple[int, int, int]) -> dict:
    """The triple witness of positions hit of the kernel's X."""
    return _triple_witness(gr, *_triple_kernel(gr, g)["X"][list(hit)])


def _verdict(gr: GradedRing, g: int | None, pmask: int, kind: str) -> Verdict:
    hit = _decide(gr, g, pmask, kind)[0]
    return Verdict(True) if hit is None else Verdict(False, _witness_at(gr, g, hit))


def is_graded_2_absorbing(gr: GradedRing, P: IdealSubset | int) -> Verdict:
    """x*R*y*R*z inside P forces a pairwise product into P (x, y, z homogeneous)."""
    return _verdict(gr, None, require_graded_ideal(gr, P).mask, "plain")


def is_graded_weakly_2_absorbing(gr: GradedRing, P: IdealSubset | int) -> Verdict:
    """Nonzero x*R*y*R*z inside P forces a pairwise product into P."""
    return _verdict(gr, None, require_graded_ideal(gr, P).mask, "weakly")


def is_graded_completely_weakly_2_absorbing(gr: GradedRing,
                                            P: IdealSubset | int) -> Verdict:
    """Nonzero product xyz in P forces a pairwise product into P."""
    return _verdict(gr, None, require_graded_ideal(gr, P).mask, "cw")


def _require_degree(gr: GradedRing, P: IdealSubset, g: int) -> None:
    if not 0 <= g < gr.group.order:
        raise ValueError(f"degree {g} outside group of order {gr.group.order}")
    comp = gr.component_mask(g)
    if P.mask & comp == comp:
        raise PreconditionError(
            f"component at degree {g} is covered by the ideal; "
            f"the degree-local predicates require P_g != R_g")


def is_g_weakly_2_absorbing(gr: GradedRing, P: IdealSubset | int, g: int,
                            mode: str = "weakly") -> Verdict:
    """Degree-local variant: x, y, z from R_g, multipliers from the identity
    component. mode "weakly" requires the sandwich x*R_e*y*R_e*z to be
    nonzero before it must force a pairwise product into P; mode "plain"
    drops the nonzero hypothesis."""
    P = require_graded_ideal(gr, P, proper=False)
    _require_degree(gr, P, g)
    if mode not in ("weakly", "plain"):
        raise ValueError(f"unknown mode {mode!r}")
    return _verdict(gr, g, P.mask, mode)


def _census(gr: GradedRing, pmask: int, g: int) -> tuple[dict, _Boxes]:
    """(tk, boxes) of the g-triple-zeros of P at degree g, in positions of tk["X"]."""
    tk, _, _ = _kernel(gr, g, pmask)
    return tk, _ideal_scan(gr, tk, pmask, tk["zero"], False)


def find_g_triple_zeros(gr: GradedRing, P: IdealSubset | int,
                        g: int) -> GTripleZeroCensus:
    """Triples (x, y, z) in R_g with x*R_e*y*R_e*z = 0 and no pairwise
    product in P, in lexicographic order, as the census's uint16 array;
    P's g-weakly verdict from one scan, with no witness built."""
    P = require_graded_ideal(gr, P, proper=False)
    _require_degree(gr, P, g)
    tk, boxes = _census(gr, P.mask, g)
    weakly = _decide(gr, g, P.mask, "weakly")[0] is None
    return GTripleZeroCensus(g, tk["X"].astype(np.uint16)[boxes.triples()], weakly)


# ---------------------------------------------------------------------------
# ideal-wise predicates


def _words(masks, n: int) -> np.ndarray:
    """Masks as rows of little-endian 64-bit words."""
    w = -(-n // 64)
    return np.frombuffer(b"".join(m.to_bytes(8 * w, "little") for m in masks),
                         dtype="<u8").reshape(-1, w)


def _inside(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, k]: bit row a[i] lies inside bit row b[k], in blocks of i."""
    step = max(1, _BLOCK // b.nbytes)
    return np.vstack([~(a[i:i + step, None, :] & ~b[None, :, :]).any(axis=2)
                      for i in range(0, len(a), step)])


@dataclass(frozen=True)
class LatticeTable:
    """The graded ideals of one sidedness: masks sorted, index[mask] the
    position of a mask, words the masks as bit rows, sub[i, j] ideal i lies
    inside ideal j, prod[i, j] the position of the product I*J (again a
    graded ideal of the sidedness) and zero the position of {0}."""

    masks: tuple[int, ...]
    index: dict[int, int]
    words: np.ndarray
    sub: np.ndarray
    prod: np.ndarray
    zero: int

    def inside(self, pmask: int) -> np.ndarray:
        """[i]: ideal i lies inside the set pmask."""
        return _inside(self.words, _words([pmask], self.words.shape[1] * 64))[:, 0]


def lattice_table(gr: GradedRing, sidedness: str = TWO_SIDED,
                  cap: int = DEFAULT_IDEAL_CAP) -> LatticeTable:
    """The lattice table of one sidedness, built once per ring.

    I*J is the additive span of hom(I)*hom(J) and a lattice member, so it is
    the smallest member containing those products.
    """
    masks = graded_ideal_masks(gr, sidedness, cap)
    return gr.memo(("lattice_table", sidedness), lambda: _lattice_table(gr, masks))


def _lattice_table(gr: GradedRing, masks: tuple[int, ...]) -> LatticeTable:
    n, L = gr.order, len(masks)
    words = _words(masks, n)
    sizes = np.array([m.bit_count() for m in masks])
    H = gr.hom_indices()
    homs = np.unpackbits(words.view(np.uint8), axis=1, count=n,
                         bitorder="little").astype(bool)[:, H]
    # the products hom(I)*b for b in H, in chunks of H; every ideal holds 0
    step = max(1, _BLOCK // (n + 8 * L * words.shape[1]))
    chunks = []
    for c0 in range(0, len(H), step):
        r, s = np.nonzero(homs[:, c0:c0 + step])
        if len(r):
            starts = np.flatnonzero(np.diff(r, prepend=-1))
            chunks.append((H[c0:c0 + step], r[starts], s, starts))
    prod = np.empty((L, L), dtype=np.min_scalar_type(L - 1))
    for i in range(L):
        hi = H[homs[i]]
        vals = np.zeros((L, words.shape[1]), dtype="<u8")
        for cols, rows, s, starts in chunks:
            packed = _bit_rows((np.arange(len(cols))[None, :], gr.ring.products(hi, cols)),
                               (len(cols), 64 * words.shape[1])).view("<u8")
            vals[rows] |= np.bitwise_or.reduceat(packed[s], starts, axis=0)
        prod[i] = np.where(_inside(vals, words), sizes, n + 1).argmin(axis=1)
    return LatticeTable(masks, {m: i for i, m in enumerate(masks)}, words,
                        _inside(words, words), prod, masks.index(1))


def _triple_blocks(t: LatticeTable, rows: np.ndarray | None = None):
    """(a, ab) over blocks of first indices a (from rows, default all) with
    ab = t.prod[a], sized so that a block's (len(a), L, words) table of
    words over the third ideal stays within _BLOCK."""
    L = len(t.masks)
    rows = np.arange(L) if rows is None else rows
    step = max(1, _BLOCK // (8 * L * -(-L // 64)))
    for i0 in range(0, len(rows), step):
        a = rows[i0:i0 + step]
        yield a, t.prod[a]


def _triple_words(t: LatticeTable, inP: np.ndarray) -> tuple[np.ndarray, ...]:
    """(hit, ow, out) at P: hit[q] packs 0 != Q*C inside P over c, then an
    empty row; ow[x] packs X*C outside P; out[x, y] is X*Y outside P."""
    out = ~inP[t.prod]
    return _pack(np.vstack([~out & (t.prod != t.zero), np.zeros(len(out), dtype=bool)])), \
        _pack(out), out


def _violations(words: tuple[np.ndarray, ...], a: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """[i, b] over one block of _triple_blocks: the words over c of the
    triples (a[i], b, c) with 0 != A*B*C inside P and AB, AC and BC all
    outside P. A pair (a[i], b) with AB inside P reads hit's empty row."""
    hit, ow, out = words
    return hit[np.where(out[a], ab, np.intp(len(out)))] & ow[a][:, None] & ow[None]


def _first_ideal_triple(t: LatticeTable, inP: np.ndarray,
                        rows: np.ndarray | None = None) -> tuple[int, int, int] | None:
    """First (a, b, c), lexicographically and with a from rows, where
    0 != A*B*C lies inside P and none of AB, AC, BC does; inP from t.inside."""
    words = _triple_words(t, inP)
    for a, ab in _triple_blocks(t, rows):
        if hit := _first_bit(_violations(words, a, ab)):
            return int(a[hit[0]]), hit[1], hit[2]
    return None


def ideal_info(gr: GradedRing, mask: int) -> dict:
    """A graded two-sided ideal as reported: mask, size and a small
    homogeneous generating set."""
    gens = minimal_homogeneous_generators(gr, IdealSubset(mask, TWO_SIDED, graded=True))
    return {"mask": int(mask), "size": mask.bit_count(), "generators": gens,
            "generator_names": [gr.name(x) for x in gens]}


def _prime_pair(gr: GradedRing, P: IdealSubset | int, cap: int, weakly: bool) -> Verdict:
    P = require_graded_ideal(gr, P)
    t = lattice_table(gr, TWO_SIDED, cap)
    hit = _first_prime_pair(t, t.inside(P.mask), weakly)
    if hit is None:
        return Verdict(True)
    i, j = hit
    return Verdict(False, {k: ideal_info(gr, t.masks[x])
                           for k, x in (("I", i), ("J", j), ("product", t.prod[i, j]))})


def _first_prime_pair(t: LatticeTable, inP: np.ndarray, weakly: bool) -> tuple[int, int] | None:
    """First (i, j), lexicographically, with I, J outside P and IJ inside P
    (and IJ != 0 when weakly); inP from t.inside."""
    L = len(t.masks)
    step = max(1, _BLOCK // L)
    for i0 in range(0, L, step):
        ij = t.prod[i0:i0 + step]
        viol = ~inP[i0:i0 + step, None] & ~inP[None, :] & inP[ij]
        if weakly:
            viol &= ij != t.zero
        if (hit := first_offender(viol)) is not None:
            return i0 + hit[0], hit[1]
    return None


def is_graded_prime(gr: GradedRing, P: IdealSubset | int,
                    cap: int = DEFAULT_IDEAL_CAP) -> Verdict:
    """I*J inside P forces I or J inside P, over graded two-sided ideals."""
    return _prime_pair(gr, P, cap, weakly=False)


def is_graded_weakly_prime(gr: GradedRing, P: IdealSubset | int,
                           cap: int = DEFAULT_IDEAL_CAP) -> Verdict:
    """Nonzero I*J inside P forces I or J inside P."""
    return _prime_pair(gr, P, cap, weakly=True)


def is_graded_strongly_weakly_2_absorbing(
        gr: GradedRing, P: IdealSubset | int,
        cap: int = DEFAULT_IDEAL_CAP) -> Verdict:
    """Nonzero A*B*C inside P forces a pairwise ideal product inside P."""
    P = require_graded_ideal(gr, P)
    t = lattice_table(gr, TWO_SIDED, cap)
    hit = _first_ideal_triple(t, t.inside(P.mask))
    if hit is None:
        return Verdict(True)
    a, b, c = hit
    return Verdict(False, {k: ideal_info(gr, t.masks[x]) for k, x in (
        ("A", a), ("B", b), ("C", c), ("product", t.prod[t.prod[a, b], c]))})


def lattice_verdicts(gr: GradedRing, g: int | None, masks, kind: str,
                     cap: int = DEFAULT_IDEAL_CAP) -> np.ndarray:
    """[i]: the graded two-sided ideal masks[i] has the kind's property, the
    value of its is_* predicate, with no witness built: "plain" and "weakly"
    (2-absorbing and weakly 2-absorbing, or their g-variants at a degree),
    and, at g None, "weakly_prime" and "strongly_weakly". False where the
    predicate is undefined: at the whole ring, and at P with P_g = R_g."""
    if kind in ("plain", "weakly"):
        def first(m):
            return _decide(gr, g, m, kind)[0]
    elif kind in ("weakly_prime", "strongly_weakly") and g is None:
        t = lattice_table(gr, TWO_SIDED, cap)

        def first(m):
            inP = t.inside(m)
            return _first_prime_pair(t, inP, True) if kind == "weakly_prime" \
                else _first_ideal_triple(t, inP)
    else:
        raise ValueError(f"no verdict vector of kind {kind!r} at degree {g}")
    comp = _full_mask(gr.order) if g is None else gr.component_mask(g)
    return np.array([require_graded_ideal(gr, m, proper=False).mask & comp != comp
                     and first(m) is None for m in masks], dtype=bool)


# ---------------------------------------------------------------------------
# raw evaluators (independent route, no homogeneity reduction, no caching)


def sandwich_values(gr: GradedRing, x: int, y: int, z: int) -> np.ndarray:
    """Sorted distinct values of x*r*y*s*z over all r, s in the ring."""
    mul = gr.ring.mul
    everyone = np.arange(gr.order)
    left = np.unique(mul[mul[x, everyone], y])
    return np.unique(mul[mul[left[:, None], everyone], z])


def g_sandwich_values(gr: GradedRing, g: int, x: int, y: int, z: int) -> np.ndarray:
    """Sorted distinct values of x*r*y*s*z with r, s from the identity component."""
    mul = gr.ring.mul
    Re = gr.component_indices(gr.group.identity)
    left = np.unique(mul[mul[x, Re], y])
    return np.unique(mul[mul[left[:, None], Re], z])


def triple_product(gr: GradedRing, x: int, y: int, z: int) -> int:
    mul = gr.ring.mul
    return int(mul[mul[x, y], z])


def _raw_span(gr: GradedRing, seeds: np.ndarray) -> np.ndarray:
    """Additive closure by repeated pairwise sums until stable."""
    flags = np.zeros(gr.order, dtype=bool)
    flags[0] = True
    flags[seeds] = True
    add = gr.ring.add
    while True:
        idx = np.nonzero(flags)[0]
        sums = np.unique(add[np.ix_(idx, idx)])
        if flags[sums].all():
            return flags
        flags[sums] = True


def raw_product_mask(gr: GradedRing, a: int, b: int) -> int:
    """Ideal product recomputed from all members (no homogeneous shortcut)."""
    ia = indices_from_mask(a, gr.order)
    ib = indices_from_mask(b, gr.order)
    prods = np.unique(gr.ring.mul[np.ix_(ia, ib)])
    return int(mask_from_bools(_raw_span(gr, prods)))


def verify_witness(gr: GradedRing, P: IdealSubset | int, kind: str,
                   witness: dict, g: int | None = None) -> bool:
    """Recheck a reported violation against the raw definitions."""
    pmask = P.mask if isinstance(P, IdealSubset) else int(P)

    def in_p(v: int) -> bool:
        return (pmask >> v) & 1 == 1

    if kind in ("graded_2_absorbing", "graded_weakly_2_absorbing",
                "graded_completely_weakly_2_absorbing",
                "g_weakly_2_absorbing", "g_plain_2_absorbing",
                "g_triple_zero"):
        x, y, z = witness["x"], witness["y"], witness["z"]
        mul = gr.ring.mul
        pairs_out = (not in_p(int(mul[x, y])) and not in_p(int(mul[y, z]))
                     and not in_p(int(mul[x, z])))
        if not pairs_out:
            return False
        if kind == "graded_2_absorbing":
            vals = sandwich_values(gr, x, y, z)
            return all(in_p(int(v)) for v in vals)
        if kind == "graded_weakly_2_absorbing":
            vals = sandwich_values(gr, x, y, z)
            return all(in_p(int(v)) for v in vals) and set(vals.tolist()) != {0}
        if kind == "graded_completely_weakly_2_absorbing":
            t = triple_product(gr, x, y, z)
            return t != 0 and in_p(t)
        comp = gr.component_mask(g)
        if not all((comp >> v) & 1 for v in (x, y, z)):
            return False
        vals = g_sandwich_values(gr, g, x, y, z)
        if kind == "g_weakly_2_absorbing":
            return all(in_p(int(v)) for v in vals) and set(vals.tolist()) != {0}
        if kind == "g_plain_2_absorbing":
            return all(in_p(int(v)) for v in vals)
        return set(vals.tolist()) == {0}

    if kind in ("graded_prime", "graded_weakly_prime"):
        im, jm = witness["I"]["mask"], witness["J"]["mask"]
        ij = raw_product_mask(gr, im, jm)
        if not is_subset(ij, pmask):
            return False
        if kind == "graded_weakly_prime" and ij == 1:
            return False
        return not is_subset(im, pmask) and not is_subset(jm, pmask)

    if kind == "graded_strongly_weakly_2_absorbing":
        am, bm, cm = (witness[k]["mask"] for k in ("A", "B", "C"))
        ab = raw_product_mask(gr, am, bm)
        abc = raw_product_mask(gr, ab, cm)
        if abc == 1 or not is_subset(abc, pmask):
            return False
        return (not is_subset(ab, pmask)
                and not is_subset(raw_product_mask(gr, am, cm), pmask)
                and not is_subset(raw_product_mask(gr, bm, cm), pmask))

    raise ValueError(f"unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# orchestration


def classify_ideal(gr: GradedRing, P: IdealSubset | int,
                   degrees: list[int] | None = None,
                   ideal_cap: int = DEFAULT_IDEAL_CAP) -> ClassificationReport:
    """Run every predicate on one graded ideal and collect verdicts,
    witnesses and skips; each degree reports its census's count and first
    row."""
    P = require_graded_ideal(gr, P, proper=False)
    proper = P.mask != _full_mask(gr.order)
    gens = minimal_homogeneous_generators(gr, P)
    report = ClassificationReport(
        ideal_mask=P.mask, ideal_size=P.size, proper=proper,
        generators=gens, generator_names=[gr.name(x) for x in gens])
    if not proper:
        report.skips.update(dict.fromkeys(IDEAL_PREDICATES + ELEMENT_PREDICATES,
                                          "requires a proper ideal"))

    def run(key: str, fn, *args) -> None:
        try:
            verdict = fn(gr, P, *args)
        except EnumerationCapError as exc:
            report.skips[key] = str(exc)
        else:
            report.verdicts[key] = verdict.value
            if verdict.witness is not None:
                report.witnesses[key] = verdict.witness

    if proper:
        run("graded_prime", is_graded_prime, ideal_cap)
        run("graded_weakly_prime", is_graded_weakly_prime, ideal_cap)
        run("graded_2_absorbing", is_graded_2_absorbing)
        run("graded_weakly_2_absorbing", is_graded_weakly_2_absorbing)
        run("graded_completely_weakly_2_absorbing",
            is_graded_completely_weakly_2_absorbing)
        run("graded_strongly_weakly_2_absorbing",
            is_graded_strongly_weakly_2_absorbing, ideal_cap)

    if degrees is None:
        chosen = [g for g in range(gr.group.order)
                  if P.mask & gr.component_mask(g) != gr.component_mask(g)]
    else:
        chosen = list(degrees)
    for g in chosen:
        entry: dict = {}
        comp = gr.component_mask(g)
        if P.mask & comp == comp:
            entry["skip"] = "component covered by the ideal (requires P_g != R_g)"
        else:
            for mode in ("weakly", "plain"):
                verdict = is_g_weakly_2_absorbing(gr, P, g, mode)
                entry[mode] = verdict.value
                if verdict.witness is not None:
                    entry[f"{mode}_witness"] = verdict.witness
            first, entry["triple_zeros"] = _decide(gr, g, P.mask, "census")
            if first is not None:
                entry["first_triple_zero"] = _witness_at(gr, g, first)
        report.g_variants[g] = entry
    return report
