"""Dense views of a packed SDP solution, for small instances only: Z at the
instance's side, and the witness families of a Gram relaxation cut from
its factor, with the game's objective evaluated on two of them."""

import numpy as np

from xorq.games import GameMatrix
from xorq.sdp import SdpSolution

RANK_CUT = 1e-10


def dense_z(sol: SdpSolution, side: int) -> np.ndarray:
    """Z at the instance's side: each class's block at its members' indices,
    0 between classes."""
    out = np.zeros((side, side), dtype=np.result_type(*(z for _, z in sol.blocks)))
    for members, z in sol.blocks:
        out[members[:, :, None], members[:, None, :]] = z
    return out


def _layout(kind: str, n: int) -> dict:
    """The witness families of relaxation beta_<kind> for local side n (the
    game's n): {name: (base, conjugate)}.

    Family `name` is the Gram indices base .. base + n^2 - 1; its vectors
    are those columns of the factor W of Z = W^+ W, conjugated for the X
    families, as the (d, n, n) array X of d x n matrices whose vector
    X[:, i, k] is index base + i*n + k.
    """
    nn = n * n
    return {
        "nc": {"x": (0, True), "y": (nn, False)},
        "os": {"x_r": (0, True), "x_c": (nn, True), "y_r": (2 * nn, False), "y_c": (3 * nn, False)},
    }[kind]


def families(kind: str, n: int, sol: SdpSolution) -> dict:
    """The witness families of a solution of beta_<kind>_instance for a game
    of local side n: Z = W^+ W keeps the eigenvalues of the dense Z above
    RANK_CUT times the largest, one row of W each, and W is cut into the
    families of _layout(kind, n)."""
    layout, nn = _layout(kind, n), n * n
    z = dense_z(sol, len(layout) * nn)
    lam, vecs = np.linalg.eigh((z + z.conj().T) / 2)
    keep = np.flatnonzero(lam > RANK_CUT * max(float(lam[-1]), 1e-300))[::-1]
    w = (np.sqrt(lam[keep])[:, None] * vecs[:, keep].conj().T).astype(complex)
    witness = {}
    for name, (base, conjugate) in layout.items():
        part = w[:, base:base + nn]
        witness[name] = (np.conj(part) if conjugate else part).reshape(-1, n, n)
    return witness


def nc_objective(g: GameMatrix, x: np.ndarray, y: np.ndarray) -> float:
    """Re Tr((sum_r X_r (x) Y_r) M) = Re sum X_r[i, k] Y_r[j, l] M[(k, l), (i, j)]
    for families x, y of shape (d, n, n): one matrix product over r,
    G[(i, k), (j, l)] = sum_r X_r[i, k] Y_r[j, l], summed against M
    transposed to (i, k, j, l) from M[(k, l), (i, j)]."""
    nn = g.n * g.n
    gram = x.reshape(-1, nn).T @ y.reshape(-1, nn)
    return float(np.sum(gram * g.m.reshape((g.n,) * 4).transpose(2, 0, 3, 1).reshape(nn, nn)).real)
