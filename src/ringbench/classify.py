"""Classification predicates for graded ideals.

Element-wise predicates reduce sandwich conditions x*R*y*R*z to homogeneous
multipliers: a general multiplier is a sum of homogeneous ones, products
distribute over those sums, and the target sets (an ideal, or {0}) are
additively closed, so the full sandwich lies in the target iff the
homogeneous-multiplier sandwich does.

As x*S*y*S*z = (x*S*y)*S*z, a triple's verdict depends only on the value
set x*S*y and on z; sandwich_kernel keeps the few distinct value sets, so an
ideal costs two small products and a bit-packed triple scan, not O(h^3).
A triple-zero census keeps what that scan yields, a (count, 3) uint16 array
of element indices, and is never turned into Python tuples.

sandwich_values and g_sandwich_values evaluate the raw definitions without
these reductions and exist so results can be cross-checked through an
independent route.

Ideal-wise predicates (prime, weakly prime, strongly weakly 2-absorbing)
quantify over the graded two-sided ideal lattice. lattice_table holds it once
per ring and sidedness as positions: containment sub[i, j] and products
prod[i, j], since a product of graded ideals of one sidedness is again one.
Each predicate is then an array expression over (L, L) or (L, L, L) positions,
taken in blocks of the first index and read in C order, so the witness is the
lexicographically first violation, as a loop over the sorted lattice finds it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .bitsets import bools_from_mask, indices_from_mask, is_subset, mask_from_bools
from .grading import GradedRing, product_slots
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

_BLOCK = 1 << 20     # bytes of the largest temporary in a triple scan


def sandwich_kernel(gr: GradedRing, left: int | None, mult: int | None,
                    right: int | None) -> dict:
    """Distinct value sets V(x, y) = x*S*y for x in L, y in R, s in S.

    Arguments are degrees naming components, or None for every homogeneous
    element. The values land in T: the product degree's component, or the
    homogeneous elements when an argument is None. U (u, |T|) holds the u
    distinct sets as bit rows, inv[i, k] the row of (L[i], R[k]) and zero[r]
    whether row r is {0}. Keyed by the index sets, so a trivially graded
    ring shares one kernel between None and the identity degree.
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
    mul = gr.ring.mul
    pos = np.full(gr.order, -1, dtype=np.int32)
    pos[T] = np.arange(len(T), dtype=np.int32)
    # V(x, y) = (x * S) * y, so pairs whose x share the set x * S share rows
    left_sets: dict[bytes, int] = {}
    left_of = [left_sets.setdefault(np.unique(mul[x, S]).tobytes(), len(left_sets))
               for x in L]
    rows: dict[bytes, int] = {}
    row_of = np.empty((len(left_sets), len(R)), dtype=np.int32)
    for a, xs in enumerate(left_sets):
        slots = pos[mul[np.ix_(np.frombuffer(xs, dtype=mul.dtype), R)]]
        if slots.min() < 0:
            for x in L:     # name the first stray x*s*y
                product_slots(gr, pos, mul[mul[x, S][:, None], R][None],
                              ([x], S, R), where)
        bits = np.zeros((len(R), len(T)), dtype=bool)
        bits[np.arange(len(R))[None, :], slots] = True
        packed = np.packbits(bits, axis=1).tobytes()
        w = len(packed) // len(R)
        row_of[a] = [rows.setdefault(packed[j:j + w], len(rows))
                     for j in range(0, len(packed), w)]
    U = np.unpackbits(np.frombuffer(b"".join(rows), dtype=np.uint8)
                      .reshape(len(rows), -1), axis=1, count=len(T)).astype(bool)
    return {"key": key, "T": T, "R": R, "U": U, "inv": row_of[left_of],
            "zero": ~U[:, T != 0].any(axis=1)}


def _none_in(U: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """[r, ...]: no member of row r of U lies in bad (indexed by slot)."""
    r, s = np.nonzero(U)       # every row is nonempty
    return ~np.logical_or.reduceat(bad[s], np.flatnonzero(np.diff(r, prepend=-1)), axis=0)


def _kernel(gr: GradedRing, g: int | None, pmask: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """(tk, inside, outside) for x*S*y*S*z = (x*S*y)*S*z over x, y, z in X.

    g None: X and S are the homogeneous elements. A degree g: X = R_g and
    S = R_e, and the z side sandwiches C_{g^2}*R_e*R_g. tk["zero"][r, m]
    says row r times S times X[m] vanishes, inside[r, m] that it lies in P;
    outside[a, b] says X[a]*X[b] is not in P.
    """
    if g is None:
        k1 = k2 = sandwich_kernel(gr, None, None, None)
    else:
        e = gr.group.identity
        k1, k2 = sandwich_kernel(gr, g, e, g), sandwich_kernel(gr, gr.group.mul(g, g), e, g)
    key = ("triple", k1["key"], k2["key"])
    tk = gr.memo(key, lambda: {"X": k1["R"], "inv": k1["inv"],
                               "zero": _none_in(k1["U"], ~k2["zero"][k2["inv"]]),
                               "prods": gr.ring.mul[np.ix_(k1["R"], k1["R"])]})
    # the one bounded family: each entry holds (h, h) bools, 16 MB at h = 4096
    cache = gr.memo("ideal_rows", OrderedDict)
    if (key, pmask) not in cache:
        Pb = bools_from_mask(pmask, gr.order)
        good = _none_in(k2["U"], ~Pb[k2["T"]])[k2["inv"]]
        while len(cache) >= 64:
            cache.popitem(last=False)
        cache[key, pmask] = (_none_in(k1["U"], ~good), ~Pb[tk["prods"]])
    return (tk, *cache[key, pmask])


def _triples(rows: np.ndarray, inv: np.ndarray, outside: np.ndarray,
             first: bool) -> np.ndarray:
    """(i, k, m), lexicographically, with rows[inv[i, k], m] set and the
    pairs (i, k), (k, m), (i, m) all outside; only the first when asked.
    The full list is a (count, 3) uint16 array.

    Bits along m are packed into 64-bit words and i is taken in blocks.
    """
    h = outside.shape[0]
    nbytes = -(-h // 64) * 8

    def words(bits: np.ndarray) -> np.ndarray:
        out = np.zeros((len(bits), nbytes), dtype=np.uint8)
        out[:, :-(-h // 8)] = np.packbits(bits, axis=1)
        return out.view(np.uint64)

    # pairs (i, k) that are not outside read an appended empty row
    packed = words(np.vstack([rows, np.zeros(h, dtype=bool)]))
    idx = np.where(outside, inv, np.intp(len(rows)))
    out_w = words(outside)
    step = max(1, _BLOCK // (h * nbytes))
    found = []
    for i0 in range(0, h, step):
        blk = packed[idx[i0:i0 + step]] & out_w[None, :, :] & out_w[i0:i0 + step, None, :]
        live = blk.any(axis=2)
        if not live.any():
            continue
        if first:
            i, k = np.argwhere(live)[0]
            return np.array([[i0 + i, k, np.argmax(np.unpackbits(blk[i, k].view(np.uint8)))]])
        # unpack only the occupied words: (i, k, word) then the bit in the word
        at = np.argwhere(blk)
        bits = np.argwhere(np.unpackbits(blk[tuple(at.T)].view(np.uint8).reshape(-1, 8), axis=1))
        hits = at[bits[:, 0]]
        hits[:, 0] += i0
        hits[:, 2] = hits[:, 2] * 64 + bits[:, 1]
        found.append(hits.astype(np.uint16))
    return np.concatenate(found) if found else np.empty((0, 3), dtype=np.uint16)


def _first_triple(gr: GradedRing, X: np.ndarray, rows: np.ndarray,
                  inv: np.ndarray, outside: np.ndarray) -> Verdict:
    hit = _triples(rows, inv, outside, first=True)
    return Verdict(False, _triple_witness(gr, *X[hit[0]])) if len(hit) else Verdict(True)


def _triple_witness(gr: GradedRing, x: int, y: int, z: int) -> dict:
    return {
        "x": int(x), "y": int(y), "z": int(z),
        "names": [gr.name(int(x)), gr.name(int(y)), gr.name(int(z))],
    }


def is_graded_2_absorbing(gr: GradedRing, P: IdealSubset | int) -> Verdict:
    """x*R*y*R*z inside P forces a pairwise product into P (x, y, z homogeneous)."""
    tk, inside, outside = _kernel(gr, None, require_graded_ideal(gr, P).mask)
    return _first_triple(gr, tk["X"], inside, tk["inv"], outside)


def is_graded_weakly_2_absorbing(gr: GradedRing, P: IdealSubset | int) -> Verdict:
    """Nonzero x*R*y*R*z inside P forces a pairwise product into P."""
    tk, inside, outside = _kernel(gr, None, require_graded_ideal(gr, P).mask)
    return _first_triple(gr, tk["X"], inside & ~tk["zero"], tk["inv"], outside)


def is_graded_completely_weakly_2_absorbing(gr: GradedRing,
                                            P: IdealSubset | int) -> Verdict:
    """Nonzero product xyz in P forces a pairwise product into P."""
    P = require_graded_ideal(gr, P)
    tk, _, outside = _kernel(gr, None, P.mask)
    az = gr.ring.mul[:, tk["X"]]      # rows[a, m]: a*X[m] is nonzero and in P
    rows = bools_from_mask(P.mask, gr.order)[az] & (az != 0)
    return _first_triple(gr, tk["X"], rows, tk["prods"], outside)


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
    tk, inside, outside = _kernel(gr, g, P.mask)
    if mode == "weakly":
        inside = inside & ~tk["zero"]
    return _first_triple(gr, tk["X"], inside, tk["inv"], outside)


def find_g_triple_zeros(gr: GradedRing, P: IdealSubset | int,
                        g: int) -> GTripleZeroCensus:
    """Triples (x, y, z) in R_g with x*R_e*y*R_e*z = 0 and no pairwise
    product in P, in lexicographic order, as the census's uint16 array."""
    P = require_graded_ideal(gr, P, proper=False)
    _require_degree(gr, P, g)
    tk, _, outside = _kernel(gr, g, P.mask)
    hits = _triples(tk["zero"], tk["inv"], outside, first=False)
    weakly = is_g_weakly_2_absorbing(gr, P, g, "weakly")
    return GTripleZeroCensus(g, tk["X"].astype(np.uint16)[hits], weakly.value)


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
            bits = np.zeros((len(cols), 64 * words.shape[1]), dtype=bool)
            bits[np.arange(len(cols))[None, :], gr.ring.mul[np.ix_(hi, cols)]] = True
            packed = np.packbits(bits, axis=1, bitorder="little").view("<u8")
            vals[rows] |= np.bitwise_or.reduceat(packed[s], starts, axis=0)
        prod[i] = np.where(_inside(vals, words), sizes, n + 1).argmin(axis=1)
    return LatticeTable(masks, {m: i for i, m in enumerate(masks)}, words,
                        _inside(words, words), prod, masks.index(1))


def _ideal_triples(t: LatticeTable, rows: np.ndarray | None = None):
    """(a, abc) over blocks of first indices a (from rows, default all):
    abc[i, b, c] is the position of (A*B)*C for A = a[i]."""
    rows = np.arange(len(t.masks)) if rows is None else rows
    step = max(1, _BLOCK // t.prod.nbytes)
    for i0 in range(0, len(rows), step):
        a = rows[i0:i0 + step]
        yield a, t.prod[t.prod[a]]


def _first_ideal_triple(t: LatticeTable, inP: np.ndarray,
                        rows: np.ndarray | None = None) -> tuple[int, int, int] | None:
    """First (a, b, c), lexicographically and with a from rows, where
    0 != A*B*C lies inside P and none of AB, AC, BC does; inP from t.inside."""
    out = ~inP[t.prod]
    for a, abc in _ideal_triples(t, rows):
        hit = first_offender(_ideal_triple_violations(t, inP, out, a, abc))
        if hit is not None:
            return int(a[hit[0]]), int(hit[1]), int(hit[2])
    return None


def _ideal_triple_violations(t: LatticeTable, inP: np.ndarray, out: np.ndarray,
                             a: np.ndarray, abc: np.ndarray) -> np.ndarray:
    """[i, b, c] over one block of _ideal_triples: 0 != A*B*C inside P with
    AB, AC and BC all outside P (out = ~inP[t.prod])."""
    viol = inP[abc]
    viol &= abc != t.zero
    viol &= out[a][:, :, None]
    viol &= out[a][:, None, :]
    viol &= out[None, :, :]
    return viol


def ideal_info(gr: GradedRing, mask: int) -> dict:
    """A graded two-sided ideal as reported: mask, size and a small
    homogeneous generating set."""
    gens = minimal_homogeneous_generators(gr, IdealSubset(mask, TWO_SIDED, graded=True))
    return {"mask": int(mask), "size": mask.bit_count(), "generators": gens,
            "generator_names": [gr.name(x) for x in gens]}


def _prime_pair(gr: GradedRing, P: IdealSubset | int, cap: int, weakly: bool) -> Verdict:
    """First (I, J), lexicographically, with I, J outside P and IJ inside P
    (and IJ != 0 when weakly)."""
    P = require_graded_ideal(gr, P)
    t = lattice_table(gr, TWO_SIDED, cap)
    inP = t.inside(P.mask)
    L = len(t.masks)
    step = max(1, _BLOCK // L)
    for i0 in range(0, L, step):
        ij = t.prod[i0:i0 + step]
        viol = ~inP[i0:i0 + step, None] & ~inP[None, :] & inP[ij]
        if weakly:
            viol &= ij != t.zero
        hit = first_offender(viol)
        if hit is not None:
            i, j = i0 + hit[0], hit[1]
            return Verdict(False, {k: ideal_info(gr, t.masks[x])
                                   for k, x in (("I", i), ("J", j), ("product", t.prod[i, j]))})
    return Verdict(True)


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
    all_keys = IDEAL_PREDICATES + ELEMENT_PREDICATES
    if not proper:
        for key in all_keys:
            report.skips[key] = "requires a proper ideal"

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
            census = find_g_triple_zeros(gr, P, g)
            entry["triple_zeros"] = census.count
            if census.count:
                entry["first_triple_zero"] = _triple_witness(gr, *census.triples[0])
        report.g_variants[g] = entry
    return report
