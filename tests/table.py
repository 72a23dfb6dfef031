"""Hand-written SDP instances as the one table that sdp.SdpInstance takes:
the tests write a small instance's C as a dense Hermitian matrix and its rows
as [(entries, rhs), ...], each entry (r, c, v) with r <= c, and these helpers
turn them into the table, C's entries with owner -1."""

import numpy as np

from xorq import sdp


def columns(rows, first: int = 0) -> tuple:
    """rows, cols, vals and owner of the rows' entries, in row order, and
    the rhs; the rows numbered from first on."""
    entries = [(r, c, v, first + q) for q, (row, _) in enumerate(rows) for r, c, v in row]
    r, c, v, q = zip(*entries) if entries else ((), (), (), ())
    return (np.array(r, dtype=np.intp), np.array(c, dtype=np.intp), np.array(v, dtype=complex),
            np.array(q, dtype=np.intp), np.array([rhs for _, rhs in rows], dtype=float))


def objective_entries(objective) -> tuple:
    """rows, cols, vals and owner (-1) of a dense Hermitian C's nonzero
    entries on and above its diagonal, in row-major order."""
    c = np.asarray(objective, dtype=complex)
    r, col = np.nonzero(np.triu(c))
    return r, col, c[r, col], np.full(r.size, -1)


def instance(side: int, objective, rows) -> sdp.SdpInstance:
    """The instance max Re Tr(C^dagger Z), C the dense objective, over the rows."""
    table = columns(rows)
    entries = zip(objective_entries(objective), table[:4])
    return sdp.SdpInstance(side, *map(np.concatenate, entries), table[4])


def with_rows(inst: sdp.SdpInstance, rows) -> sdp.SdpInstance:
    """inst with the rows appended after its own."""
    old = (inst.rows, inst.cols, inst.vals, inst.owner, inst.constraints)
    new = columns(rows, first=len(inst.constraints))
    return sdp.SdpInstance(inst.side, *map(np.concatenate, zip(old, new)))


def with_objective(inst: sdp.SdpInstance, objective, side: int | None = None) -> sdp.SdpInstance:
    """inst with its C replaced by the dense objective, at side (inst.side
    by default)."""
    keep = inst.owner >= 0
    old = (inst.rows[keep], inst.cols[keep], inst.vals[keep], inst.owner[keep])
    entries = zip(objective_entries(objective), old)
    return sdp.SdpInstance(inst.side if side is None else side, *map(np.concatenate, entries), inst.constraints)


def dense_objective(inst: sdp.SdpInstance) -> np.ndarray:
    """C as a dense side x side Hermitian matrix, summed from the table's
    entries with owner -1: v at (r, c) and conj(v) at (c, r), only Re v on
    the diagonal."""
    obj = inst.owner < 0
    r, c, v = inst.rows[obj], inst.cols[obj], inst.vals[obj]
    off = r != c
    out = np.zeros((inst.side, inst.side), dtype=complex)
    np.add.at(out, (r, c), np.where(off, v, v.real))
    np.add.at(out, (c[off], r[off]), v[off].conj())
    return out
