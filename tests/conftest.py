import numpy as np
import pytest

from xorq import games, heuristics
from xorq.linalg import hermitian_part, trace_norm


def random_game(n: int, seed: int) -> games.GameMatrix:
    """Random Hermitian game matrix normalized to trace norm 1."""
    rng = np.random.default_rng(seed)
    m = hermitian_part(
        rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    )
    return games.validate(m / trace_norm(m), n)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def decreasing_sign_step():
    """A see-saw step that is the exact sign step on its first call and its
    negation afterwards, so the second half-step lowers the value."""
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
