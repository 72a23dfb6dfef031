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
    game's n): {name: (base, size, conjugate, side)}.

    Family `name` is the Gram indices base .. base + size - 1; its vectors
    are those columns of the factor W of Z = W^+ W, conjugated for the X
    families. With a side it is the (d, side, side) array X of d x side
    matrices whose vector X[:, i, k] is index base + i*side + k; without
    one, a matrix with one vector per row.
    """
    nn = n * n
    return {
        "sdp": {"x": (0, n, True, None), "y": (n, n, False, None)},
        "nc": {"x": (0, nn, True, n), "y": (nn, nn, False, n)},
        "os": {"x_r": (0, nn, True, n), "x_c": (nn, nn, True, n),
               "y_r": (2 * nn, nn, False, n), "y_c": (3 * nn, nn, False, n)},
    }[kind]


def families(kind: str, n: int, sol: SdpSolution) -> dict:
    """The witness families of a solution of beta_<kind>_instance for a game
    of local side n: Z = W^+ W keeps the eigenvalues of the dense Z above
    RANK_CUT times the largest, one row of W each, and W is cut into the
    families of _layout(kind, n)."""
    layout = _layout(kind, n)
    z = dense_z(sol, sum(size for _, size, _, _ in layout.values()))
    lam, vecs = np.linalg.eigh((z + z.conj().T) / 2)
    keep = np.flatnonzero(lam > RANK_CUT * max(float(lam[-1]), 1e-300))[::-1]
    w = (np.sqrt(lam[keep])[:, None] * vecs[:, keep].conj().T).astype(complex)
    witness = {}
    for name, (base, size, conjugate, side) in layout.items():
        part = np.conj(w[:, base:base + size]) if conjugate else w[:, base:base + size]
        witness[name] = part.T if side is None else part.reshape(-1, side, side)
    return witness


def nc_objective(g: GameMatrix, x: np.ndarray, y: np.ndarray) -> float:
    """Re Tr((sum_r X_r (x) Y_r) M) = Re sum X_r[i, k] Y_r[j, l] M[(k, l), (i, j)]
    for families x, y of shape (d, n, n): one matrix product over r,
    G[(i, k), (j, l)] = sum_r X_r[i, k] Y_r[j, l], summed against M
    transposed to (i, k, j, l) from M[(k, l), (i, j)]."""
    nn = g.n * g.n
    gram = x.reshape(-1, nn).T @ y.reshape(-1, nn)
    return float(np.sum(gram * g.m.reshape((g.n,) * 4).transpose(2, 0, 3, 1).reshape(nn, nn)).real)
