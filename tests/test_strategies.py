import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import random_game, random_unitary
from constructions import (
    PreconditionViolatedError,
    RankOneGame,
    lemma_rank_one_strategy,
    max_bias_upper_bound_tn,
    rank_one_matrix,
    rank_one_to_xor,
    symmetrize,
    t_rank_one,
    trace_norm,
)
from dense import bias_dense, random_strategy
from xorq import games, linalg, strategies
from xorq.strategies import Strategy
from xorq.errors import (
    BadArgsError,
    DimensionMismatchError,
    TooLargeError,
)


def test_bias_zero_operators():
    g = games.t_game(2)
    z = np.zeros((3, 3))
    assert strategies.bias(g, Strategy(z, z, np.ones((1, 1)))) == 0.0


def test_bias_dimension_mismatch():
    g = games.t_game(2)
    s = strategies.t_unentangled_strategy(3)
    with pytest.raises(DimensionMismatchError):
        strategies.bias(g, s)
    with pytest.raises(DimensionMismatchError, match="do not act on C"):
        Strategy(np.eye(5), np.eye(3), np.ones((1, 1)))  # C^5 is not C^3
    me_off = Strategy(np.eye(4), np.eye(4), np.eye(2) / math.sqrt(2))
    with pytest.raises(DimensionMismatchError):
        strategies.bias(g, me_off)  # C^2 (x) C^2 is not C^3 (x) C^2


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Strategy(np.eye(7), np.eye(7), np.eye(2) / math.sqrt(2)), DimensionMismatchError),
        (lambda: Strategy(np.eye(6), np.eye(7), np.eye(2) / math.sqrt(2)), DimensionMismatchError),
        (lambda: Strategy(np.eye(4), np.eye(6), np.eye(2) / math.sqrt(2)), DimensionMismatchError),
        (lambda: Strategy(np.eye(2), np.eye(2), np.ones((0, 0))), BadArgsError),
        (lambda: Strategy(np.eye(5), np.eye(6), np.full((2, 2), 0.5)), DimensionMismatchError),
        (lambda: Strategy(np.eye(6), np.eye(8), np.full((2, 3), 6**-0.5)), DimensionMismatchError),
        (lambda: Strategy(np.eye(4), np.eye(3), np.full((2, 1), 0.5**0.5)), DimensionMismatchError),
        (lambda: Strategy(np.eye(2), np.eye(2), np.ones((0, 1))), BadArgsError),
        (lambda: Strategy(np.eye(2), np.eye(2), np.ones(1)), DimensionMismatchError),
    ],
)
def test_strategy_sides_checked_at_construction(make, error):
    with pytest.raises(error):
        make()


def test_strategy_sides_accept_one_message_space():
    s = Strategy(np.eye(6), np.eye(9), np.full((2, 3), 6**-0.5))
    assert strategies.bias(games.t_game(2), s) == pytest.approx(
        bias_dense(games.t_game(2), s), abs=1e-12
    )


def test_t_unentangled_bias_matches_closed_form():
    for n in range(1, 7):
        s = strategies.t_unentangled_strategy(n)
        assert abs(linalg.op_norm(s.a) - 1.0) <= 1e-9
        b = strategies.bias(games.t_game(n), s)
        assert abs(b - 1.0 / math.sqrt(n)) <= 1e-12
    assert abs(strategies.bias(games.t_game(1), strategies.t_unentangled_strategy(1)) - 1.0) < 1e-12


def test_h1_complex_strategy():
    s = strategies.h1_unentangled_strategy()
    assert abs(strategies.bias(games.h_game(1), s) - 0.4) <= 1e-12
    assert linalg.op_norm(s.a) <= 1.0 + 1e-12
    # 2x2 trace arithmetic oracle: Tr(A C1) Tr(B C1) / 10 = 2/5
    c1 = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=complex)
    val = np.trace(s.a @ c1) * np.trace(s.b @ c1) / 10.0
    assert abs(val - 0.4) < 1e-12


def test_h1_me_strategy_value_and_structure():
    s = strategies.h1_me_strategy()
    assert np.linalg.norm(s.a @ s.a - np.eye(9)) <= 1e-9
    p0 = (s.a + np.eye(9)) / 2
    assert abs(np.trace(p0).real - 4.0) < 1e-9  # rank-4 outcome-0 projector
    b = strategies.bias(games.h_game(1), s)
    assert abs(b - 5.0 / 9.0) <= 1e-9


@pytest.mark.parametrize("kind", ["unentangled", "complex", "maxent", "entangled"])
@pytest.mark.parametrize("n,da,db", [(2, 1, 1), (2, 2, 3), (3, 3, 3)])
def test_bias_agrees_with_dense_reference(kind, n, da, db):
    # The unentangled classes have no private spaces; maxent shares d = dA.
    dims = {"unentangled": None, "complex": None, "maxent": da, "entangled": (da, db)}
    g = random_game(n, seed=10 * n + da + db)
    s = random_strategy(kind, g, dims[kind], seed=da * db)
    assert abs(strategies.bias(g, s) - bias_dense(g, s)) <= 1e-12


def test_unentangled_bias_equals_one_dimensional_entangled_bias():
    g = random_game(2, seed=42)
    u = random_strategy("unentangled", g, None, seed=3)
    emb = Strategy(u.a, u.b, np.array([[1j]]))  # a one-dimensional state of another phase
    assert abs(strategies.bias(g, u) - strategies.bias(g, emb)) <= 1e-10


def test_bias_bounded_by_trace_norm():
    for seed in range(25):
        g = random_game(2, seed=900 + seed)
        tn = trace_norm(g.m)
        for kind, dims in [
            ("unentangled", None),
            ("complex", None),
            ("maxent", 2),
            ("entangled", (2, 2)),
        ]:
            s = random_strategy(kind, g, dims, seed=seed)
            assert abs(strategies.bias(g, s)) <= tn + 1e-8


def test_bias_invariant_under_local_unitaries(rng):
    g = random_game(2, seed=77)
    s = random_strategy("entangled", g, (3, 3), seed=8)
    u = random_unitary(rng, 3)
    v = random_unitary(rng, 3)
    a2 = np.kron(np.eye(2), u) @ s.a @ np.kron(np.eye(2), u).conj().T
    b2 = np.kron(np.eye(2), v) @ s.b @ np.kron(np.eye(2), v).conj().T
    psi2 = u @ s.psi @ v.T  # (U (x) V) psi as a dA x dB matrix
    s2 = Strategy(a2, b2, psi2)
    assert abs(strategies.bias(g, s) - strategies.bias(g, s2)) < 1e-9


def test_embezzlement_state_d1_is_psi(rng):
    psi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi /= np.linalg.norm(psi)
    phi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phi /= np.linalg.norm(phi)
    out = strategies.embezzlement_state(2, 1, psi, phi)
    assert out.shape == (2, 2) and np.allclose(out, psi)


def test_embezzlement_normalization_orthogonal_case():
    # oracle: orthogonal psi, phi make the staircase terms orthonormal, D = d
    psi = np.array([1, 0, 0, 0], dtype=complex)
    phi = np.array([0, 0, 0, 1], dtype=complex)
    d = 3
    terms = []
    for j in range(1, d + 1):
        t = np.ones(1, dtype=complex)
        for c in range(d):
            t = np.kron(t, psi if c < j else phi)
        terms.append(t)
    unnorm = np.sum(terms, axis=0)
    assert abs(np.vdot(unnorm, unnorm).real - d) < 1e-12
    out = strategies.embezzlement_state(2, d, psi.reshape(2, 2), phi.reshape(2, 2))
    assert out.shape == (8, 8) and abs(np.linalg.norm(out) - 1.0) < 1e-12
    # rows the left halves, columns the right halves: the vector's registers
    # (L1, R1, L2, R2, L3, R3) reordered as (L1, L2, L3, R1, R2, R3)
    want = linalg.permute_systems(unnorm, (2,) * 6, (0, 2, 4, 1, 3, 5)) / math.sqrt(d)
    assert np.allclose(out.reshape(-1), want)


def test_embezzlement_guard():
    psi = np.zeros((64, 64), dtype=complex)
    psi[0, 0] = 1.0
    with pytest.raises(TooLargeError, match="dense cap"):
        strategies.embezzlement_state(64, 3, psi, psi)


@pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (3, 2)])
def test_rotation_is_the_controlled_left_shift(n, d):
    # the registers and encoding of t_entangled_strategy
    ext, copy, enc = 2 * (n + 1), n + 1, [2 * (k + 1) for k in range(n)] + [1]
    sigma = strategies._rotation(ext, copy, d, enc)
    shape = (ext,) + (copy,) * d
    assert np.array_equal(np.sort(sigma), np.arange(math.prod(shape)))
    for x in range(sigma.size):
        front, rest = divmod(x, copy**d)
        ks = [rest // copy ** (d - 1 - c) % copy for c in range(d)]
        if front not in enc:
            assert sigma[x] == x
            continue
        want = enc[ks[0]]  # (enc[k_1], k_2, ..., k_d, dec[front]) in digits
        for k in ks[1:] + [enc.index(front)]:
            want = want * copy + k
        assert sigma[x] == want, (x, front, ks)


def test_rotation_refuses_an_encoding_that_is_not_injective():
    with pytest.raises(BadArgsError, match="injective"):
        strategies._rotation(4, 2, 2, [1, 1])


def test_t_entangled_strategy_bias_formula():
    # dense-simulation oracle confirms the 1 - 1/d value
    for n, d in [(1, 2), (2, 2), (2, 3), (2, 4), (3, 2)]:
        s = strategies.t_entangled_strategy(n, d)
        b = strategies.bias(games.t_game(n), s)
        assert abs(b - (1.0 - 1.0 / d)) <= 1e-8
    # the d -> infinity limit approaches 1 monotonically
    vals = [
        strategies.bias(games.t_game(1), strategies.t_entangled_strategy(1, d))
        for d in (2, 3, 4, 5)
    ]
    assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))


def test_lemma_rank_one_trivial_instance():
    eta = np.zeros(4, dtype=complex)
    eta[0] = 1.0
    g = RankOneGame(n=2, v_dim=1, eta=eta, gamma=eta.copy())
    psi = np.array([1, 0, 0, 0], dtype=complex)
    xor = rank_one_to_xor(g)
    for d in (1, 2, 4):
        s = lemma_rank_one_strategy(g, np.eye(4), np.eye(4), psi, psi, d)
        b = strategies.bias(xor, s)
        assert b >= (1.0 - 2.0 / d) - 1e-8  # d = 1 bound is vacuous but runs


def test_lemma_rank_one_t2_cross_check():
    # optimal rank-one strategy for the T2 referee: swap message and share
    g = t_rank_one(2)
    h = 3
    swap = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            swap[i * 3 + j, j * 3 + i] = 1.0
    start = np.zeros(9, dtype=complex)  # shared Psi_me on levels 1, 2
    start[1 * 3 + 1] = start[2 * 3 + 2] = 1 / math.sqrt(2)
    end = np.zeros(9, dtype=complex)  # residual |00>
    end[0] = 1.0
    # value oracle: |Tr((U x V)(Mhat (x) |psi><phi|))| = 1
    mhat = rank_one_matrix(g)
    big = np.kron(mhat, np.outer(start, end.conj()))
    big = linalg.permute_systems(big, (3, 3, 3, 3), (0, 2, 1, 3))
    z = complex(np.trace(np.kron(swap, swap) @ big))
    assert abs(abs(z) - 1.0) < 1e-12
    xor = rank_one_to_xor(g)
    for d in (2, 3):
        s = lemma_rank_one_strategy(g, swap, swap, start, end, d)
        b = strategies.bias(xor, s)
        assert b >= (1.0 - 2.0 / d) * abs(z) - 1e-8
        # cross-check against the direct curve for the T family
        assert abs(b - (1.0 - 1.0 / d)) <= 1e-8


def test_symmetrize_preserves_bias_and_outputs_observable():
    g = games.h_game(1)
    s = random_strategy("entangled", g, (3, 3), seed=21)
    before = strategies.bias(g, s)
    out = symmetrize(g, s)
    after = strategies.bias(g, out)
    assert abs(after - before) <= 1e-8
    assert np.allclose(out.a, out.b)
    dim = out.a.shape[0]
    assert np.linalg.norm(out.a @ out.a - np.eye(dim)) <= 1e-8
    assert np.linalg.norm(out.psi - out.psi.T) <= 1e-9  # permutation-invariant state


def test_symmetrize_fixed_point_bias():
    g = games.t_game(2)
    s = strategies.t_entangled_strategy(2, 2)
    before = strategies.bias(g, s)
    out = symmetrize(g, s)
    assert abs(strategies.bias(g, out) - before) <= 1e-8


def test_symmetrize_restricts_support():
    g = games.h_game(1)
    base = random_strategy("entangled", g, (2, 2), seed=5)
    # pad the private spaces with two unused levels (zero Schmidt directions)
    e = np.eye(4, dtype=complex)[:, :2]
    a = np.kron(np.eye(3), e) @ base.a @ np.kron(np.eye(3), e).conj().T
    b = np.kron(np.eye(3), e) @ base.b @ np.kron(np.eye(3), e).conj().T
    padded = Strategy(a, b, e @ base.psi @ e.T)
    out = symmetrize(g, padded)
    # Schmidt rank <= 2, flag doubles it, dilation at most doubles again
    assert out.psi.shape[0] <= 8
    assert abs(strategies.bias(g, out) - strategies.bias(g, padded)) <= 1e-8


def test_symmetrize_changed_bias_raises_typed_error(monkeypatch):
    real = strategies.bias
    calls = []

    def drifting(g, s):
        calls.append(None)
        return real(g, s) + 0.1 * len(calls)  # the second call reads higher

    monkeypatch.setattr(strategies, "bias", drifting)
    g = games.h_game(1)
    s = random_strategy("entangled", g, (2, 2), seed=5)
    with pytest.raises(PreconditionViolatedError, match="changed the bias"):
        symmetrize(g, s)


def test_symmetrize_typed_error_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from constructions import PreconditionViolatedError, symmetrize
        from dense import random_strategy
        from xorq import games, strategies

        real = strategies.bias
        calls = []

        def drifting(g, s):
            calls.append(None)
            return real(g, s) + 0.1 * len(calls)

        strategies.bias = drifting
        g = games.h_game(1)
        s = random_strategy("entangled", g, (2, 2), seed=5)
        try:
            symmetrize(g, s)
        except PreconditionViolatedError as exc:
            print("PreconditionViolatedError", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, here])),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "changed the bias" in out.stdout


def test_max_bias_upper_bound_formula():
    # arithmetic oracle at n = 2, d = 1
    want = math.sqrt(
        1.0 - min(1.0 / (4 * math.e**2), 1.0 / (16 * math.log2(3.0) ** 2))
    )
    assert abs(max_bias_upper_bound_tn(2, 1) - want) < 1e-12
    vals = [max_bias_upper_bound_tn(2, d) for d in (1, 2, 8, 64)]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
    with pytest.raises(BadArgsError):
        max_bias_upper_bound_tn(1, 4)


def test_embezzlement_respects_dimension_bound():
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 2)]:
        s = strategies.t_entangled_strategy(n, d)
        b = strategies.bias(games.t_game(n), s)
        assert b <= max_bias_upper_bound_tn(n, s.psi.shape[0]) + 1e-9


def test_random_strategy_determinism():
    g = games.t_game(2)
    s1 = random_strategy("entangled", g, (2, 2), seed=9)
    s2 = random_strategy("entangled", g, (2, 2), seed=9)
    assert np.array_equal(s1.a, s2.a)
    assert np.array_equal(s1.psi, s2.psi)
    for kind, dims in [("unentangled", None), ("maxent", 2)]:
        s = random_strategy(kind, g, dims, seed=1)
        dim = s.a.shape[0]
        assert np.linalg.norm(s.a @ s.a - np.eye(dim)) <= 1e-9  # observable


def test_strategy_validation():
    with pytest.raises(BadArgsError):
        Strategy(2.0 * np.eye(2), np.eye(2), np.ones((1, 1)))
    with pytest.raises(BadArgsError):
        Strategy(np.eye(2), np.eye(2), np.array([[2.0 + 0j]]))
