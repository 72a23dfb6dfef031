import os

# One BLAS thread, as in CI, unless the environment sets another count. Set
# before NumPy is first imported, since OpenBLAS reads it when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from constructions import trace_norm
from xorq import games, heuristics
from xorq.linalg import hermitian_part


def random_game(n: int, seed: int) -> games.GameMatrix:
    """Random Hermitian game matrix normalized to trace norm 1."""
    rng = np.random.default_rng(seed)
    m = hermitian_part(
        rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    )
    return games.validate(m / trace_norm(m), n)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(z)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def decreasing_sign_step():
    """A see-saw step that is the exact sign step on its first call (the A
    half-step of every restart of the stack) and its negation afterwards, so
    the second half-step lowers the value."""
    sign_step = heuristics._sign_step  # the real one, even if patched later
    calls = []

    def step(k):
        calls.append(None)
        s = sign_step(k)
        return s if len(calls) == 1 else -s

    return step


@pytest.fixture
def rng():
    return np.random.default_rng(20240902)
