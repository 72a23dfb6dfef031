"""Dense Kronecker-product oracles for the strategy bias, the see-saw
effective operators and state step, and the beta_nc objective. They form
the full permuted operators, so they are only usable at small dimensions;
tests compare the package's contractions against them. Also the seeded
random strategies and the products of a vector-valued matrix that the
tests feed them. Every shared state is a dA x dB matrix, [[1]] without
entanglement, as in strategies.Strategy; the package stacks R of them as
one (R, dA, dB) array, of which the oracles here take one state at a time.
"""

import numpy as np

from constructions import partial_trace
from xorq import linalg, strategies
from xorq.errors import DimensionMismatchError


def random_strategy(kind: str, g, dims, seed: int):
    """Seeded random strategy of one class, drawn as the see-saw draws its
    restart starts: A from the stream (seed, 0) and B from (seed, 1), each
    the spectral sign of a Gaussian Hermitian matrix (for the complex class
    the Haar unitary U V^dagger of a Gaussian matrix's SVD), and for the
    entangled class a Gaussian unit state from (seed, 2)."""
    da, db = {"unentangled": (1, 1), "complex": (1, 1), "maxent": (dims, dims),
              "entangled": dims}[kind]
    hermitian = kind != "complex"
    ops = []
    for stream, d in ((0, da), (1, db)):
        rng = np.random.default_rng((seed, stream))
        z = rng.standard_normal((g.n * d,) * 2) + 1j * rng.standard_normal((g.n * d,) * 2)
        if hermitian:
            ops.append(linalg.sign_of_hermitian(linalg.hermitian_part(z)))
        else:
            u, _, v = linalg.svd(z)
            ops.append(u @ linalg.dagger(v))
    if kind == "entangled":
        rng = np.random.default_rng((seed, 2))
        psi = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
        psi = psi / np.linalg.norm(psi)
    else:
        psi = linalg.max_entangled_state(da)
    return strategies.Strategy(*ops, psi, hermitian)


def vvm_products(x) -> tuple[np.ndarray, np.ndarray]:
    """(sum_r X_r X_r^+,  sum_r X_r^+ X_r) of a vector-valued matrix X, the
    (d, n, n) array of its matrices X_r; both Hermitian PSD."""
    left = np.einsum("rik,rjk->ij", x, x.conj())
    right = np.einsum("rki,rkj->ij", x.conj(), x)
    return left, right


def bias_dense(g, s) -> float:
    """Bias of a strategy from the full permuted operator product."""
    val = complex(np.trace(np.kron(s.a, s.b) @ folded_game_matrix(g, s.psi)))
    return float(val.real) if s.hermitian else abs(val)


def folded_game_matrix(g, psi) -> np.ndarray:
    """M (x) |psi><psi| permuted to the players' (message, private) split,
    for the dA x dB state psi."""
    big = np.kron(g.m, np.outer(psi, psi.conj()))
    return linalg.permute_systems(big, (g.n, g.n, *psi.shape), (0, 2, 1, 3))


def effective_operators_dense(g, a, b, psi):
    """(K, L) with Tr(A K) = Tr(B L) = Tr((A (x) B) F) for the folded
    matrix F of the dA x dB state psi, contracted with A's or B's indices
    of F."""
    na, nb = a.shape[0], b.shape[0]
    f = folded_game_matrix(g, psi).reshape(na, nb, na, nb)
    return np.einsum("jl,klij->ki", b, f), np.einsum("ik,klij->lj", a, f)


def state_operator_dense(m, a, b, n: int, da: int, db: int) -> np.ndarray:
    """T = Tr_msg((A (x) B)(M (x) I)) built from Kronecker products."""
    x = np.kron(a, b)
    x = linalg.permute_systems(x, (n, da, n, db), (0, 2, 1, 3))
    t = x @ np.kron(m, np.eye(da * db))
    return partial_trace(t, (n * n, da * db), "first")


def odot(x, y) -> np.ndarray:
    """sum_r X_r (x) Y_r on the n^2-dimensional composite space, for two
    vector-valued matrices, (d, n, n) arrays of one vector length d."""
    if len(x) != len(y):
        raise DimensionMismatchError("vector lengths differ")
    side = x.shape[1] * y.shape[1]
    out = np.zeros((side, side), dtype=complex)
    for xr, yr in zip(x, y):
        out += np.kron(xr, yr)
    return out
