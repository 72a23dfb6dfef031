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
from xorq.relaxations import _cap, _gram_objective, _table


def _slack_cap(slack: int, n: int, base: int, rows: bool) -> tuple:
    """Q + S = I over Hermitian entries, Q the row or column product of the
    family whose entry (i, k) is Gram index base + i*n + k (relaxations._cap),
    and S the slack block at indices slack .. slack + n - 1: its entry (a,
    a2) is one more term of the functional of Q's entry (a, a2)."""
    i, j, rhs = _cap(n, base, rows)
    a, a2 = (slack + x[:, None] for x in np.triu_indices(n))
    return np.hstack([i, a]), np.hstack([j, a2]), 1.0, rhs


def beta_sdp_instance(g) -> sdp.SdpInstance:
    """diag(Z) + s_u = 1 with 2n one-dimensional slack blocks, for the
    diagonal embedding g of a classical game."""
    n = g.n
    side = 4 * n  # 2n Gram indices, then 2n slack ones
    r = np.diag(g.m).real.reshape(n, n)
    s, t = np.nonzero(r)
    u = np.arange(2 * n)
    terms = np.stack([u, 2 * n + u], axis=1)
    return sdp.SdpInstance(side, *_table((s, n + t, r[s, t] / 2), [(terms, terms, 1.0, 1.0)], real=False))


def beta_nc_instance(g) -> sdp.SdpInstance:
    n = g.n
    nn = n * n
    gram = 2 * nn  # then the slack blocks of X's row and column caps, Y's
    caps = [
        _slack_cap(gram, n, 0, rows=True),
        _slack_cap(gram + n, n, 0, rows=False),
        _slack_cap(gram + 2 * n, n, nn, rows=True),
        _slack_cap(gram + 3 * n, n, nn, rows=False),
    ]
    side = gram + 4 * n
    return sdp.SdpInstance(side, *_table(_gram_objective(g, 0, nn), caps, real=False))


def beta_os_instance(g) -> sdp.SdpInstance:
    n = g.n
    nn = n * n
    wr, wc, vr, vc = 0, nn, 2 * nn, 3 * nn
    gram = 4 * nn  # then the slack blocks of the caps of X_R, Y_R, X_C, Y_C
    ac, be = np.divmod(np.arange(nn * nn), nn)
    consistency = (np.stack([wr + ac, wc + ac], 1), np.stack([vc + be, vr + be], 1), [1.0, -1.0], 0.0)
    caps = [
        _slack_cap(gram, n, wr, rows=True),
        _slack_cap(gram + n, n, vr, rows=True),
        _slack_cap(gram + 2 * n, n, wc, rows=False),
        _slack_cap(gram + 3 * n, n, vc, rows=False),
    ]
    side = gram + 4 * n
    return sdp.SdpInstance(side, *_table(_gram_objective(g, wr, vc), [consistency] + caps, real=False))
