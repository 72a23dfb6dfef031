"""The Gram relaxations with their caps as inequalities: each "Q <= I" is
compiled as Q + S = I with a PSD slack S. Z holds the Gram indices first and
the slack indices after them; the objective and every row lie inside the
Gram block and the slack blocks on Z's diagonal, so pinching Z to those
blocks keeps the optimum, and the program is the one with a PSD block each.
These instances are the oracle for the package's equality-cap programs,
which have the same optimum. The oracle keeps the imaginary-part row of
every off-diagonal functional, also for a real game matrix, so a real
game's oracle is solved over complex Hermitian Z.
"""

import numpy as np

from xorq import sdp
from xorq.relaxations import _functional, _gram_objective


def _cap_constraints(slack: int, n: int, base: int, rows: bool) -> list:
    """Q + S = I over Hermitian entries, Q the row or column product of the
    family whose entry (i, k) is Gram index base + i*n + k, and S the slack
    block at indices slack .. slack + n - 1."""

    def idx(i, k):
        return base + (i * n + k if rows else k * n + i)

    cons = []
    for a in range(n):
        for a2 in range(a, n):
            terms = [(idx(a, k), idx(a2, k), 1.0 + 0.0j) for k in range(n)]
            terms.append((slack + a, slack + a2, 1.0 + 0.0j))
            cons.extend(_functional(terms, 1.0 if a == a2 else 0.0, real=False))
    return cons


def beta_sdp_instance(g) -> sdp.SdpInstance:
    """diag(Z) + s_u = 1 with 2n one-dimensional slack blocks, for the
    diagonal embedding g of a classical game."""
    n = g.n
    side = 4 * n  # 2n Gram indices, then 2n slack ones
    c = np.zeros((side, side), dtype=complex)
    c[:n, n:2 * n] = np.diag(g.m).real.reshape(n, n) / 2
    c = c + c.conj().T
    cons = []
    for u in range(2 * n):
        terms = [(u, u, 1.0 + 0.0j), (2 * n + u, 2 * n + u, 1.0 + 0.0j)]
        cons.extend(_functional(terms, 1.0, real=False))
    return sdp.SdpInstance(side=side, objective=c, constraints=tuple(cons))


def beta_nc_instance(g) -> sdp.SdpInstance:
    n = g.n
    nn = n * n
    gram = 2 * nn  # then the slack blocks of X's row and column caps, Y's
    cons = (
        _cap_constraints(gram, n, 0, rows=True)
        + _cap_constraints(gram + n, n, 0, rows=False)
        + _cap_constraints(gram + 2 * n, n, nn, rows=True)
        + _cap_constraints(gram + 3 * n, n, nn, rows=False)
    )
    side = gram + 4 * n
    return sdp.SdpInstance(
        side=side, objective=_gram_objective(g, side, 0, nn), constraints=tuple(cons)
    )


def beta_os_instance(g) -> sdp.SdpInstance:
    n = g.n
    nn = n * n
    wr, wc, vr, vc = 0, nn, 2 * nn, 3 * nn
    gram = 4 * nn  # then the slack blocks of the caps of X_R, Y_R, X_C, Y_C
    cons = []
    for ac in range(nn):
        for be in range(nn):
            cons.extend(
                _functional(
                    [(wr + ac, vc + be, 1.0 + 0.0j), (wc + ac, vr + be, -1.0 + 0.0j)],
                    0.0,
                    real=False,
                )
            )
    cons += _cap_constraints(gram, n, wr, rows=True)
    cons += _cap_constraints(gram + n, n, vr, rows=True)
    cons += _cap_constraints(gram + 2 * n, n, wc, rows=False)
    cons += _cap_constraints(gram + 3 * n, n, vc, rows=False)
    side = gram + 4 * n
    return sdp.SdpInstance(
        side=side, objective=_gram_objective(g, side, wr, vc), constraints=tuple(cons)
    )
