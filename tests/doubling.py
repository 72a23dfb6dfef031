"""Hand-doubled real form of a complex SDP instance: the oracle for the
complex interior-point core.

H -> [[Re H, -Im H], [Im H, Re H]] maps Hermitian d x d matrices to real
symmetric 2d x 2d ones. It keeps PSD-ness and doubles Re Tr(A^H B), so the
doubled instance (right-hand sides doubled) has twice the optimal value.
"""

import numpy as np

from xorq import sdp


def double_matrix(h: np.ndarray) -> np.ndarray:
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def undouble_matrix(t: np.ndarray) -> np.ndarray:
    """Average back to the complex form; values are halved by design."""
    m = t.shape[0] // 2
    z11, z12 = t[:m, :m], t[:m, m:]
    z21, z22 = t[m:, :m], t[m:, m:]
    return ((z11 + z22) + 1j * (z21 - z12)) / 2


def _double_entries(entries, m):
    """Upper-triangle entries of the doubled constraint matrix, m the side."""
    full = {}
    for r, c, v in entries:
        v = complex(v)
        full[(r, c)] = full.get((r, c), 0.0) + v
        if r != c:
            full[(c, r)] = full.get((c, r), 0.0) + v.conjugate()
    out = {}
    for (i, j), w in full.items():
        for ei, ej, ew in (
            (i, j, w.real),
            (i, j + m, -w.imag),
            (i + m, j, w.imag),
            (i + m, j + m, w.real),
        ):
            if ei <= ej and ew != 0.0:
                out[(ei, ej)] = ew
    return tuple((i, j, complex(w)) for (i, j), w in sorted(out.items()))


def double_instance(inst: sdp.SdpInstance) -> sdp.SdpInstance:
    return sdp.SdpInstance(
        side=2 * inst.side,
        objective=double_matrix(inst.objective),
        constraints=tuple(
            sdp.SdpConstraint(
                entries=_double_entries(con.entries, inst.side), rhs=2.0 * con.rhs
            )
            for con in inst.constraints
        ),
    )
