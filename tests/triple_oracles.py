"""The element-triple scan over positions, one at a time, as the classifier
ran it before it scanned twin classes: the oracle that the twin-class scan
(`classify._scan`) is compared against."""

from __future__ import annotations

import numpy as np

from ringbench import classify


def position_triples(rows: np.ndarray, inv: np.ndarray, outside: np.ndarray,
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
    step = max(1, classify._BLOCK // (h * nbytes))
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
