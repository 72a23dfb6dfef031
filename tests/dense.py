"""Dense Kronecker-product oracles for the strategy bias and the see-saw
state step. They form the full permuted operators, so they are only usable
at small dimensions; tests compare the package's contractions against them.
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
    big = np.kron(g.m, np.outer(psi, psi.conj()))
    big = linalg.permute_systems(big, (n, n, da, db), (0, 2, 1, 3))
    val = complex(np.trace(np.kron(s.a, s.b) @ big))
    return abs(val) if isinstance(s, strategies.ComplexStrategy) else float(val.real)


def state_operator_dense(m, a, b, n: int, da: int, db: int) -> np.ndarray:
    """T = Tr_msg((A (x) B)(M (x) I)) built from Kronecker products."""
    x = np.kron(a, b)
    x = linalg.permute_systems(x, (n, da, n, db), (0, 2, 1, 3))
    t = x @ np.kron(m, np.eye(da * db))
    return linalg.partial_trace(t, (n * n, da * db), "first")
