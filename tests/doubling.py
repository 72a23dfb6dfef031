"""Hand-doubled real form of a complex SDP instance: the oracle for the
complex interior-point core.

H -> [[Re H, -Im H], [Im H, Re H]] maps Hermitian d x d matrices to real
symmetric 2d x 2d ones. It keeps PSD-ness and doubles Re Tr(A^H B), so the
doubled instance (right-hand sides doubled) has twice the optimal value.
"""

import numpy as np

from xorq import sdp


def undouble_matrix(t: np.ndarray) -> np.ndarray:
    """Average back to the complex form; values are halved by design."""
    m = t.shape[0] // 2
    z11, z12 = t[:m, :m], t[:m, m:]
    z21, z22 = t[m:, :m], t[m:, m:]
    return ((z11 + z22) + 1j * (z21 - z12)) / 2


def double_instance(inst: sdp.SdpInstance) -> sdp.SdpInstance:
    """The doubled instance: C and each row's F_q, their stored entries and
    the transposes of those off the diagonal summed per position, doubled
    entrywise, and their upper-triangle entries that are not 0 stored in
    owner order (C's, owner -1, first) and then by position."""
    m = inst.side
    r, c, v, q = inst.rows, inst.cols, inst.vals, inst.owner + 1  # C's entries at 0
    off = r != c
    i, j = np.concatenate([r, c[off]]), np.concatenate([c, r[off]])
    key, at = np.unique((np.concatenate([q, q[off]]) * m + i) * m + j, return_inverse=True)
    w = np.concatenate([np.where(off, v, v.real), v[off].conj()])
    w = np.bincount(at, w.real, key.size) + 1j * np.bincount(at, w.imag, key.size)
    q, i, j = key // (m * m) - 1, key // m % m, key % m
    rows, cols = np.concatenate([i, i, i + m, i + m]), np.concatenate([j, j + m, j, j + m])
    vals, owner = np.concatenate([w.real, -w.imag, w.imag, w.real]), np.tile(q, 4)
    keep = (rows <= cols) & (vals != 0.0)
    order = np.lexsort((cols[keep], rows[keep], owner[keep]))
    return sdp.SdpInstance(
        2 * m, *(x[keep][order] for x in (rows, cols, vals.astype(complex), owner)), 2.0 * inst.constraints,
    )
