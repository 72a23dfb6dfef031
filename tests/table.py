"""Hand-written SDP rows as the one table that sdp.SdpInstance takes: the
tests write a small instance's rows as [(entries, rhs), ...], each entry
(r, c, v) with r <= c, and these helpers turn them into the table."""

import numpy as np

from xorq import sdp


def columns(rows, first: int = 0) -> tuple:
    """rows, cols, vals and owner of the rows' entries, in row order, and
    the rhs; the rows numbered from first on."""
    entries = [(r, c, v, first + q) for q, (row, _) in enumerate(rows) for r, c, v in row]
    r, c, v, q = zip(*entries) if entries else ((), (), (), ())
    return (np.array(r, dtype=np.intp), np.array(c, dtype=np.intp), np.array(v, dtype=complex),
            np.array(q, dtype=np.intp), np.array([rhs for _, rhs in rows], dtype=float))


def instance(side: int, objective, rows) -> sdp.SdpInstance:
    """The instance max Re Tr(C^dagger Z), C the objective, over the rows."""
    return sdp.SdpInstance(side, objective, *columns(rows))


def with_rows(inst: sdp.SdpInstance, rows) -> sdp.SdpInstance:
    """inst with the rows appended after its own."""
    old = (inst.rows, inst.cols, inst.vals, inst.owner, inst.constraints)
    new = columns(rows, first=len(inst.constraints))
    return sdp.SdpInstance(inst.side, inst.objective, *map(np.concatenate, zip(old, new)))
