"""Dense Kronecker-product oracles for the strategy bias and the see-saw
effective operators and state step. They form the full permuted operators,
so they are only usable at small dimensions; tests compare the package's
contractions against them.
"""

import numpy as np

from xorq import linalg, strategies


def bias_dense(g, s) -> float:
    """Bias of a strategy from the full permuted operator product."""
    n, da, db = strategies._message_dim(s)
    if isinstance(s, (strategies.UnentangledStrategy, strategies.ComplexStrategy)):
        psi = np.ones(1, dtype=complex)
    elif isinstance(s, strategies.MaxEntangledStrategy):
        psi = linalg.max_entangled_state(s.d)
    else:
        psi = s.psi
    val = complex(np.trace(np.kron(s.a, s.b) @ folded_game_matrix(g, psi, da, db)))
    return abs(val) if isinstance(s, strategies.ComplexStrategy) else float(val.real)


def folded_game_matrix(g, psi, da: int, db: int) -> np.ndarray:
    """M (x) |psi><psi| permuted to the players' (message, private) split."""
    psi = linalg.as_complex(psi).reshape(-1)
    big = np.kron(g.m, np.outer(psi, psi.conj()))
    return linalg.permute_systems(big, (g.n, g.n, da, db), (0, 2, 1, 3))


def effective_operators_dense(g, a, b, psi, da: int, db: int):
    """(K, L) with Tr(A K) = Tr(B L) = Tr((A (x) B) F) for the folded
    matrix F, contracted with A's or B's indices of F."""
    na, nb = g.n * da, g.n * db
    f = folded_game_matrix(g, psi, da, db).reshape(na, nb, na, nb)
    return np.einsum("jl,klij->ki", b, f), np.einsum("ik,klij->lj", a, f)


def state_operator_dense(m, a, b, n: int, da: int, db: int) -> np.ndarray:
    """T = Tr_msg((A (x) B)(M (x) I)) built from Kronecker products."""
    x = np.kron(a, b)
    x = linalg.permute_systems(x, (n, da, n, db), (0, 2, 1, 3))
    t = x @ np.kron(m, np.eye(da * db))
    return linalg.partial_trace(t, (n * n, da * db), "first")
