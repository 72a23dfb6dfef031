"""The Gram relaxations with their caps as inequalities: each "Q <= I" is
compiled as Q + S = I with a PSD slack block S. These multi-block instances
are the oracle for the package's single-block equality-cap programs, which
have the same optimum. The oracle keeps the imaginary-part row of every
off-diagonal functional, also for a real game matrix, so a real game's
oracle is solved over complex Hermitian blocks.
"""

import numpy as np

from xorq import sdp
from xorq.relaxations import _functional, _gram_objective


def _cap_constraints(slack: str, n: int, base: int, rows: bool) -> list:
    """Q + S = I over Hermitian entries, Q the row or column product of the
    family whose entry (i, k) is Gram index base + i*n + k."""

    def idx(i, k):
        return base + (i * n + k if rows else k * n + i)

    cons = []
    for a in range(n):
        for a2 in range(a, n):
            terms = [("gram", idx(a, k), idx(a2, k), 1.0 + 0.0j) for k in range(n)]
            terms.append((slack, a, a2, 1.0 + 0.0j))
            cons.extend(_functional(terms, 1.0 if a == a2 else 0.0, real=False))
    return cons


def beta_sdp_instance(g) -> sdp.SdpInstance:
    """diag(Z) + s_u = 1 with 2n one-dimensional slack blocks, for the
    diagonal embedding g of a classical game."""
    n = g.n
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    c[:n, n:] = np.diag(g.m).real.reshape(n, n) / 2
    c = c + c.conj().T
    cons = []
    blocks = [("gram", 2 * n)]
    for u in range(2 * n):
        label = f"slack{u}"
        blocks.append((label, 1))
        terms = [("gram", u, u, 1.0 + 0.0j), (label, 0, 0, 1.0 + 0.0j)]
        cons.extend(_functional(terms, 1.0, real=False))
    return sdp.SdpInstance(
        blocks=tuple(blocks), objective={"gram": c}, constraints=tuple(cons)
    )


def beta_nc_instance(g) -> sdp.SdpInstance:
    n = g.n
    nn = n * n
    cons = (
        _cap_constraints("xrow", n, 0, rows=True)
        + _cap_constraints("xcol", n, 0, rows=False)
        + _cap_constraints("yrow", n, nn, rows=True)
        + _cap_constraints("ycol", n, nn, rows=False)
    )
    blocks = (("gram", 2 * nn), ("xrow", n), ("xcol", n), ("yrow", n), ("ycol", n))
    return sdp.SdpInstance(
        blocks=blocks,
        objective={"gram": _gram_objective(g, 2 * nn, 0, nn)},
        constraints=tuple(cons),
    )


def beta_os_instance(g) -> sdp.SdpInstance:
    n = g.n
    nn = n * n
    wr, wc, vr, vc = 0, nn, 2 * nn, 3 * nn
    cons = []
    for ac in range(nn):
        for be in range(nn):
            cons.extend(
                _functional(
                    [
                        ("gram", wr + ac, vc + be, 1.0 + 0.0j),
                        ("gram", wc + ac, vr + be, -1.0 + 0.0j),
                    ],
                    0.0,
                    real=False,
                )
            )
    cons += _cap_constraints("xr_row", n, wr, rows=True)
    cons += _cap_constraints("yr_row", n, vr, rows=True)
    cons += _cap_constraints("xc_col", n, wc, rows=False)
    cons += _cap_constraints("yc_col", n, vc, rows=False)
    blocks = (("gram", 4 * nn), ("xr_row", n), ("yr_row", n), ("xc_col", n), ("yc_col", n))
    return sdp.SdpInstance(
        blocks=blocks,
        objective={"gram": _gram_objective(g, 4 * nn, wr, vc)},
        constraints=tuple(cons),
    )
