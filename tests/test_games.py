import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from conftest import random_game
from constructions import (
    RankOneGame,
    ZeroGameError,
    rank_one_matrix,
    rank_one_to_xor,
    t_rank_one,
    to_product_state_protocol,
    trace_norm,
    xor_to_rank_one,
)
from spectral import herm_eig
from xorq import cli, errors, games, linalg
from xorq.errors import (
    DimensionMismatchError,
    FormatError,
    NotHermitianError,
    TooLargeError,
    TraceNormExceededError,
)

# Explicit 3x3 alternating maps from the size-1 antisymmetric family; the
# game matrix is (1/10) sum C_i (x) C_i.
C1 = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
C2 = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=float)
C3 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)


def test_validate_zero_game():
    g = games.validate(np.zeros((4, 4)), 2)
    assert trace_norm(g.m) == 0.0
    assert g.trace_norm == 0.0


def test_validate_rejects_large_trace_norm():
    with pytest.raises(TraceNormExceededError) as err:
        games.validate(np.eye(4) / 2, 2)
    assert abs(err.value.norm - 2.0) < 1e-12


def test_validate_rejects_bad_shape():
    with pytest.raises(DimensionMismatchError):
        games.validate(np.zeros((3, 3)), 2)


@pytest.mark.parametrize("r, error", [
    (np.zeros((2, 3)), DimensionMismatchError),
    (np.zeros(4), DimensionMismatchError),
    (np.array([[0.5, 0.25], [0.25, 1e-7]]), TraceNormExceededError),
], ids=["2x3", "flat", "norm-1+1e-7"])
def test_from_classical_refuses_bad_coefficients(r, error):
    with pytest.raises(error):
        games.from_classical(r)
    # Within TRACE_NORM_SLACK of 1 is accepted.
    assert games.from_classical(np.array([[0.5, 0.25], [0.25, 1e-9]])).n == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_game(2, 11),
        lambda: random_game(3, 12),
        *(lambda n=n: games.t_game(n) for n in (1, 2, 3, 4)),
        lambda: games.h_game(1),
        lambda: games.h_game(2),
        *(lambda n=n: games.c_game(n) for n in (2, 3, 4)),
        lambda: games.tensor_games(games.c_game(2), games.c_game(2)),
        lambda: games.tensor_games(games.c_game(3), games.c_game(3)),
    ],
    ids=["random2", "random3", "t1", "t2", "t3", "t4", "h1", "h2", "c2", "c3", "c4",
         "c2xc2", "c3xc3"],
)
def test_spectrum_trace_norm_matches_singular_values(build):
    g = build()
    want = trace_norm(g.m)
    assert abs(g.trace_norm - want) <= 1e-12 * max(1.0, want)


def _assert_decomposes(g: games.GameMatrix):
    """The eigenvalues against one dense eigvalsh of M, ascending."""
    w_dense = np.linalg.eigvalsh(g.m)
    tol = 1e-12 * max(1.0, np.linalg.norm(g.m, 2))
    w = g.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(w - w_dense)) <= tol


def _labels(m: np.ndarray) -> np.ndarray:
    """The component labels of M's pattern, as games decomposes M."""
    return linalg.component_labels(m.shape[0], *np.nonzero(m))


def _assert_components(g: games.GameMatrix) -> int:
    """linalg.component_labels against scipy's connected components of M's
    pattern: every component labelled by its smallest index. Returns the
    number of components."""
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(g.m != 0, directed=False)
    got = _labels(g.m)
    for k in range(count):
        idx = np.flatnonzero(labels == k)
        assert np.all(got[idx] == idx[0])
    return count


@pytest.mark.parametrize(
    "build",
    [*cli.PAPER_GAMES.values(), lambda: games.t_game(5), lambda: games.c_game(1)],
    ids=[*cli.PAPER_GAMES, "T5", "C1"],
)
def test_named_games_decompose_by_components(build):
    g = build()
    _assert_decomposes(g)
    assert _assert_components(g) > 1  # every named game splits


def test_tensor_game_components():
    g = games.tensor_games(games.c_game(4), games.c_game(4))
    size = np.bincount(_labels(g.m))
    assert np.count_nonzero(size) == 593
    assert set(size[size > 0].tolist()) == {1, 2}


def test_permuted_block_game_decomposes(rng):
    block = games.h_game(2)
    perm = rng.permutation(block.n ** 2)
    g = games.validate(block.m[np.ix_(perm, perm)], block.n)
    _assert_decomposes(g)
    assert _assert_components(g) > 1


def _assert_plain_eigvalsh(g: games.GameMatrix):
    """A game of one component: the same bits as np.linalg.eigvalsh(M)."""
    w = np.linalg.eigvalsh(g.m)
    assert np.array_equal(_labels(g.m), np.zeros(g.n ** 2, dtype=int))
    assert np.array_equal(g.eigenvalues, w)
    assert g.trace_norm == float(np.sum(np.abs(w)))


def test_path_pattern_is_one_component_and_plain_eigh(rng):
    # A tridiagonal pattern, scrambled: one component whose labels need
    # many propagation rounds to settle.
    n, dim = 5, 25
    path = np.diag(rng.standard_normal(dim - 1), 1)
    path = path + path.T + np.diag(rng.standard_normal(dim))
    perm = rng.permutation(dim)
    m = path[np.ix_(perm, perm)]
    g = games.validate(m / trace_norm(m), n)
    assert np.array_equal(_labels(g.m), np.zeros(dim, dtype=int))
    _assert_decomposes(g)
    _assert_plain_eigvalsh(g)


@pytest.mark.parametrize(
    "n, seed", [(1, 3), (2, 11), (3, 12), (4, 13), *((2, 100 + k) for k in range(50))]
)
def test_random_games_are_one_component(n, seed):
    g = random_game(n, seed)
    _assert_plain_eigvalsh(g)
    _assert_decomposes(g)


def test_zero_and_diagonal_games_are_singletons(rng):
    for n in (2, 3):
        zero = games.validate(np.zeros((n**2, n**2)), n)
        _assert_decomposes(zero)
        assert np.array_equal(_labels(zero.m), np.arange(n**2))
        assert np.array_equal(zero.eigenvalues, np.zeros(n**2))
        assert zero.trace_norm == 0.0
    r = rng.standard_normal((4, 4))
    for c in (games.chsh(), r / np.sum(np.abs(r))):
        g = games.from_classical(c)
        _assert_decomposes(g)
        assert np.array_equal(_labels(g.m), np.arange(c.size))
        w = g.eigenvalues
        assert np.array_equal(w, np.sort(np.diag(g.m).real))


def test_validate_rejects_nan_matrix():
    m = np.zeros((4, 4))
    m[1, 1] = np.nan
    with pytest.raises(NotHermitianError, match="non-finite"):
        games.validate(m, 2)


def test_t1_matrix_from_question_states():
    # oracle: M = (|psi0><psi0| - |psi1><psi1|)/2 with the two question states
    psi0 = np.zeros(4)
    psi0[0] = 1 / math.sqrt(2)
    psi0[3] = 1 / math.sqrt(2)
    psi1 = psi0.copy()
    psi1[3] *= -1
    want = (np.outer(psi0, psi0) - np.outer(psi1, psi1)) / 2
    got = games.t_game(1)
    assert np.allclose(got.m, want, atol=1e-12)
    assert abs(got.m[0, 3] - 0.5) < 1e-12 and abs(got.m[3, 0] - 0.5) < 1e-12
    # The nonzero eigenvalues are the question states' probabilities 1/2
    # with parities (-1)^1, (-1)^0, and nothing is left to reject:
    # sum |lambda| = 1.
    w = got.eigenvalues
    assert np.allclose(w[np.abs(w) > 1e-12], [-0.5, 0.5])
    assert abs(got.trace_norm - 1.0) < 1e-9


def test_t_game_spectrum():
    dec = herm_eig(games.t_game(3).m)
    w = np.sort(dec.eigenvalues)
    assert abs(w[-1] - 0.5) < 1e-12 and abs(w[0] + 0.5) < 1e-12
    assert np.all(np.abs(w[1:-1]) < 1e-12)


def test_generators_trace_norm_one():
    for g in [
        games.t_game(1),
        games.t_game(4),
        games.h_game(1),
        games.h_game(2),
        games.c_game(1),
        games.c_game(4),
    ]:
        assert abs(trace_norm(g.m) - 1.0) <= 1e-8
    classical = games.from_classical(games.chsh())
    assert abs(trace_norm(classical.m) - 1.0) <= 1e-10


def test_chsh_coefficients():
    r = games.chsh()
    assert np.allclose(r, [[0.25, 0.25], [0.25, -0.25]])
    assert abs(np.sum(np.abs(r)) - 1.0) < 1e-12


def test_from_classical_chsh_diagonal():
    m = games.from_classical(games.chsh()).m
    assert np.allclose(np.diag(m), [0.25, 0.25, 0.25, -0.25])
    assert np.allclose(m, np.diag(np.diag(m)))


def test_from_classical_zero_and_norm(rng):
    assert np.allclose(games.from_classical(np.zeros((2, 2))).m, 0)
    r = rng.standard_normal((3, 3))
    r /= np.sum(np.abs(r))
    g = games.from_classical(r)
    assert abs(trace_norm(g.m) - np.sum(np.abs(r))) < 1e-10


def test_h1_equals_explicit_matrix():
    want = (np.kron(C1, C1) + np.kron(C2, C2) + np.kron(C3, C3)) / 10.0
    assert np.allclose(games.h_game(1).m, want, atol=1e-12)


def test_h1_sample_entry_direct_expansion():
    # oracle: expand the three Kronecker terms at composite (0,1), (1,0)
    want = sum(c[0, 1] * c[1, 0] for c in (C1, C2, C3)) / 10.0
    assert abs(want - (-0.1)) < 1e-15
    assert abs(games.h_game(1).m[0 * 3 + 1, 1 * 3 + 0] - want) < 1e-12


def test_h_subset_sign_identity_case():
    assert games.h_subset_sign(2, (1,), 3) == 1  # permutation (1, 2, 3)


def test_c_game_entries():
    m = games.c_game(1).m  # local dimension 2
    assert abs(m[0 * 2 + 1, 1 * 2 + 0] - 0.5) < 1e-12
    assert abs(m[1 * 2 + 0, 0 * 2 + 1] - 0.5) < 1e-12
    assert np.count_nonzero(np.abs(m) > 1e-12) == 2
    # eigenvalue oracle for the trace norm
    w = np.linalg.eigvalsh(games.c_game(3).m)
    assert abs(np.sum(np.abs(w)) - 1.0) < 1e-10


def test_tensor_with_trivial_game():
    g = games.t_game(2)
    trivial = games.validate(np.array([[1.0]]), 1)
    assert np.allclose(games.tensor_games(g, trivial).m, g.m)
    assert np.allclose(games.tensor_games(trivial, g).m, g.m)


def test_tensor_trace_norm_multiplicative():
    g1 = random_game(2, seed=11)
    g2 = random_game(2, seed=12)
    prod = games.tensor_games(g1, g2)
    assert prod.n == 4
    want = trace_norm(g1.m) * trace_norm(g2.m)
    assert abs(trace_norm(prod.m) - want) < 1e-8


def test_product_state_protocol_diagonal_support():
    g = games.from_classical(games.chsh())
    dec = to_product_state_protocol(g)
    m = dec.reconstruct(g.n ** 2)
    assert np.linalg.norm(m - g.m) <= 1e-9
    for _, _, hl, hr in dec.terms:
        assert np.allclose(hl, np.diag(np.diag(hl)), atol=1e-12)
        assert np.allclose(hr, np.diag(np.diag(hr)), atol=1e-12)


def test_product_state_protocol_product_input(rng):
    h = linalg.hermitian_part(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    )
    h /= trace_norm(h)
    g = games.validate(np.kron(h, h), 3)
    dec = to_product_state_protocol(g)
    assert np.linalg.norm(dec.reconstruct(9) - g.m) <= 1e-9
    for w, s, hl, hr in dec.terms:
        assert w >= 0 and s in (-1, 1)
        assert abs(trace_norm(hl) - 1.0) < 1e-9
        assert abs(trace_norm(hr) - 1.0) < 1e-9


def test_product_state_protocol_zero():
    dec = to_product_state_protocol(games.validate(np.zeros((4, 4)), 2))
    assert dec.terms == ()


def test_rank_one_matrix_product_state():
    eta = np.zeros(4, dtype=complex)
    eta[1] = 1.0
    g = RankOneGame(n=2, v_dim=1, eta=eta, gamma=eta.copy())
    mhat = rank_one_matrix(g)
    assert np.allclose(mhat, np.outer(eta, eta.conj()))


def test_rank_one_matrix_t2():
    # oracle: expanding the partial trace over the trivial referee register
    g = t_rank_one(2)
    psi_me = np.zeros(9, dtype=complex)
    psi_me[1 * 3 + 1] = psi_me[2 * 3 + 2] = 1 / math.sqrt(2)
    e00 = np.zeros(9, dtype=complex)
    e00[0] = 1.0
    assert np.allclose(rank_one_matrix(g), np.outer(e00, psi_me.conj()))


def test_rank_one_matrix_norm_bound(rng):
    for seed in range(10):
        r = np.random.default_rng(seed)
        eta = r.standard_normal(2 * 2 * 3) + 1j * r.standard_normal(12)
        gam = r.standard_normal(12) + 1j * r.standard_normal(12)
        eta /= np.linalg.norm(eta)
        gam /= np.linalg.norm(gam)
        g = RankOneGame(n=2, v_dim=3, eta=eta, gamma=gam)
        assert trace_norm(rank_one_matrix(g)) <= 1.0 + 1e-9


def test_xor_to_rank_one_round_trip():
    for seed in range(8):
        g = random_game(2, seed=300 + seed)
        hat = xor_to_rank_one(g)
        assert abs(hat.norm_deficit) < 1e-9  # corpus games have trace norm 1
        back = rank_one_matrix(hat)
        assert np.linalg.norm(back - g.m) <= 1e-8


def test_xor_to_rank_one_tn_structure():
    hat = xor_to_rank_one(games.t_game(2))
    assert hat.v_dim == 2
    back = rank_one_matrix(hat)
    assert np.linalg.norm(back - games.t_game(2).m) <= 1e-8


def test_xor_to_rank_one_rank_one_input():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    g = games.validate(np.outer(psi, psi.conj()), 2)
    assert xor_to_rank_one(g).v_dim == 1


def test_xor_to_rank_one_zero_game():
    with pytest.raises(ZeroGameError):
        xor_to_rank_one(games.validate(np.zeros((4, 4)), 2))


def test_rank_one_to_xor_spectrum_matches_t_game():
    for n in range(1, 5):
        g = rank_one_to_xor(t_rank_one(n))
        assert g.n == 2 * (n + 1)
        w = np.linalg.eigvalsh(g.m)
        nonzero = w[np.abs(w) > 1e-10]
        assert np.allclose(sorted(nonzero), [-0.5, 0.5])
        tw = np.linalg.eigvalsh(games.t_game(n).m)
        assert np.allclose(
            sorted(tw[np.abs(tw) > 1e-10]), sorted(nonzero), atol=1e-10
        )


def test_rank_one_to_xor_zero_matrix():
    eta = np.zeros(2 * 2 * 2, dtype=complex)
    eta[0] = 1.0  # |00>|0_V>
    gam = np.zeros(8, dtype=complex)
    gam[1] = 1.0  # |00>|1_V>, orthogonal referee states: Mhat = 0
    g = RankOneGame(n=2, v_dim=2, eta=eta, gamma=gam)
    assert np.linalg.norm(rank_one_to_xor(g).m) < 1e-12


def test_rank_one_to_xor_spectrum_symmetry(rng):
    for seed in range(6):
        r = np.random.default_rng(700 + seed)
        eta = r.standard_normal(8) + 1j * r.standard_normal(8)
        gam = r.standard_normal(8) + 1j * r.standard_normal(8)
        eta /= np.linalg.norm(eta)
        gam /= np.linalg.norm(gam)
        g = RankOneGame(n=2, v_dim=2, eta=eta, gamma=gam)
        s = np.linalg.svd(rank_one_matrix(g), compute_uv=False)
        w = np.linalg.eigvalsh(rank_one_to_xor(g).m)
        want = sorted(np.concatenate([s / 2, -s / 2]))
        got = sorted(w[np.abs(w) > 1e-12])
        trimmed = [x for x in want if abs(x) > 1e-12]
        assert np.allclose(got, trimmed, atol=1e-8)


def test_t_rank_one_states():
    g = t_rank_one(2)
    assert abs(np.linalg.norm(g.eta) - 1) < 1e-12
    assert abs(np.linalg.norm(g.gamma) - 1) < 1e-12
    assert abs(g.gamma[1 * 3 + 1] - 1 / math.sqrt(2)) < 1e-12
    assert abs(g.gamma[2 * 3 + 2] - 1 / math.sqrt(2)) < 1e-12


def test_game_serialization_round_trip(tmp_path):
    g = games.t_game(3)
    data = games.game_to_dict(g)
    assert data["format"] == "xorq-game-v1"
    # entries sorted by (r, c)
    keys = [(e["r"], e["c"]) for e in data["entries"]]
    assert keys == sorted(keys)
    back = games.game_from_dict(data)
    assert back.n == g.n
    assert np.allclose(back.m, g.m, atol=1e-12)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert np.allclose(games.load_game(path).m, g.m, atol=1e-12)


def test_game_to_dict_row_major_and_bitwise_round_trip():
    g = games.tensor_games(random_game(2, 21), games.c_game(1))
    data = games.game_to_dict(g)
    # The reference: a double loop over M in row-major order.
    want = [
        {"r": r, "c": c, "re": float(v.real), "im": float(v.imag)}
        for r in range(g.n ** 2)
        for c in range(g.n ** 2)
        if (v := g.m[r, c]) != 0
    ]
    assert data["entries"] == want
    assert 0 < len(want) < g.m.size
    # Bitwise on the stored entries; a zero entry is left out, so it comes
    # back +0.0 whatever its sign.
    back = games.game_from_dict(json.loads(json.dumps(data)))
    rows, cols = np.nonzero(g.m)
    assert back.m[rows, cols].tobytes() == g.m[rows, cols].tobytes()
    assert np.array_equal(back.m, g.m)


def test_game_reader_symmetrizes():
    data = {
        "format": "xorq-game-v1",
        "n": 2,
        "entries": [
            {"r": 0, "c": 3, "re": 0.5, "im": 0.0},
            {"r": 3, "c": 0, "re": 0.5, "im": -1e-12},
        ],
    }
    g = games.game_from_dict(data)
    assert np.linalg.norm(g.m - g.m.conj().T) < 1e-15


def test_game_reader_rejects_garbage():
    with pytest.raises(FormatError):
        games.game_from_dict({"format": "nope"})
    with pytest.raises(FormatError):
        games.game_from_dict(
            {"format": "xorq-game-v1", "n": 2, "entries": [{"r": 99, "c": 0, "re": 1, "im": 0}]}
        )


def test_game_reader_rejects_oversized_and_huge_entries():
    for n in (400, 10**1200):  # n^4 of the second has too many digits to print
        with pytest.raises(TooLargeError, match="dense cap"):
            games.game_from_dict({"format": "xorq-game-v1", "n": n, "entries": []})
    # Each entry is finite; symmetrizing or a trace-norm SVD would overflow.
    for entries in (
        [(0, 0, 1e308, 0), (1, 1, 1e308, 0), (0, 1, 1e308, 0), (1, 0, 1e308, 0)],
        [(0, 3, 1.7e308, 1.7e308), (3, 0, 1.7e308, -1.7e308)],
    ):
        data = {"format": "xorq-game-v1", "n": 2,
                "entries": [{"r": r, "c": c, "re": x, "im": y} for r, c, x, y in entries]}
        with pytest.raises(FormatError, match="modulus above 1"):
            games.game_from_dict(data)


def test_game_reader_refuses_an_entry_listed_twice(tmp_path, capsys):
    # The later entry used to replace the earlier one: beta_nc read 0.25.
    data = {"format": "xorq-game-v1", "n": 1, "entries": [
        {"r": 0, "c": 0, "re": 0.9, "im": 0.0}, {"r": 0, "c": 0, "re": 0.25, "im": 0.0},
    ]}
    with pytest.raises(FormatError, match=r"entry \(0, 0\) is listed twice"):
        games.game_from_dict(data)
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data))
    assert cli.main(["bias", str(path), "--quantities", "omega,beta-nc"]) == cli.EXIT_ARGS
    err = capsys.readouterr().err
    assert "listed twice" in err and "Traceback" not in err


def test_from_classical_refuses_games_above_the_dense_cap(monkeypatch):
    # With a cap of 100 entries, n = 4 (256 entries) is refused before M exists.
    monkeypatch.setattr(errors, "DENSE_AMPLITUDE_CAP", 100)
    with pytest.raises(TooLargeError, match="a game with n = 4"):
        games.from_classical(np.eye(4) / 4)
    assert games.from_classical(np.eye(3) / 3).n == 3


def _classical30() -> games.GameMatrix:
    r = np.random.default_rng(2026).standard_normal((30, 30))
    return games.from_classical(r / (np.abs(r).sum() * 1.000001))


# SHA-256 of M's bytes, recorded when each builder still filled a dense M
# of its own: a moved summation or a -0.0 entry changes them.
GAME_DIGESTS = {
    "CHSH": "6c3f7499143765414a1c21b9a42d568e5f24c097559eb3fa8562477f2dcee130",
    "T1": "079da4b126f02dd4df823455fdb68869493b4d2f61ed4a5c9a73c6c8193e8597",
    "T2": "5d308aa90327026769ee239d19bdb2decbb54455305e66ae189e69146cb44925",
    "T3": "2b52e328c540b824f83a9039601f6ef10902db982636b3f773edb0ec208d3f0e",
    "T4": "817fc573589c4a6d04113e896bf6d8f062c28fe176443f77bedc981df0d7c132",
    "T5": "c767cc7356dffaf2438bae388dd094c3240742b71c230fe04f80074408775711",
    "T6": "631ab63b9a53f1543fab24bbe3963286120090466a2ce3c4e5b69bd898a2fcef",
    "T7": "7289f9928a24b1aad376232671d8549cbb57e7137570c6ac86d15f218d879ac3",
    "T8": "86949f849dd08471bdf33debdb7ed43160cde18fbbfc787d396085a54927f9fc",
    "T63": "4688bf195382627a61cab2353bbaecfeaf37e874ebb120eea149ff3501a6f524",
    "C1": "2f509e42a147452735dce6250b0bec39512f5808139521ddfcbabe8cd5fc2871",
    "C2": "8b0d63460bc3fcc0e34a6e17dc0721a38e645cba065300c24918547708e953f7",
    "C3": "8dce6c31e8e61257e2252e0305f0cfda459895f9062512f746a79e1d3826862c",
    "C4": "b1b791f22e0eac767696d1237cbb96c08ca80a57a8417ca34aa9466cf04f645c",
    "C5": "7755e69a6f4f8f8d1170af8a7040271b39741c422620670850293f49367af643",
    "C6": "5f9ae621424e8f77c8207557e0aebb886c304e1e6c38eed2bdeb80b1d4d09cd9",
    "C7": "b3882d18516a15a016faf36538cba51504b7c1ad8cef99d289d26eaa02a31b01",
    "C8": "c15b1aed68394789736e02202ff2e61f9e838935831845c2d57d399530e80e4c",
    "C63": "4489796b6c1dda4a2abaaff7202c6b24939f124a7ed235c9074df845a481b368",
    "H1": "05ed527f0eeef10fcede0556904d903b068f84285eb38de7f3c0c6b585fb6231",
    "H2": "94f960e1e3f61dd736738fe8249f6fccc6456e4494e14d39f259ec0fb9e77acf",
    "H3": "2f638a5bbd9babf2cb57faed04b54027d70c2a62df75146cbc44b2d68898c17f",
    "C2xC2": "c204783d7eaa0bb33c1c79187ca9aba23b76a0308d34b630807e88394320140d",
    "C3xC3": "f689f9f61a1d02f4dfbc6af47058365a31ff62b93a17481f39046d78aba87e47",
    "C4xC4": "9a4591f24423c2a58a86c008d5ca805af5e8b7b53d5743f0e0743a6f9b263adb",
    "classical30": "dc39a4c313be84f7d506cf2b0b221c88d827b7f2bc67fcf7a898d653da1bd2be",
}


def test_games_keep_their_bits():
    builders = {
        "CHSH": lambda: games.from_classical(games.chsh()),
        **{f"T{k}": lambda k=k: games.t_game(k) for k in (*range(1, 9), 63)},
        **{f"C{k}": lambda k=k: games.c_game(k) for k in (*range(1, 9), 63)},
        **{f"H{k}": lambda k=k: games.h_game(k) for k in (1, 2, 3)},
        **{f"C{k}xC{k}": lambda k=k: games.tensor_games(games.c_game(k), games.c_game(k))
           for k in (2, 3, 4)},
        "classical30": _classical30,
    }
    got = {name: hashlib.sha256(build().m.tobytes()).hexdigest() for name, build in builders.items()}
    assert got == GAME_DIGESTS


def test_classical_reader_rejects_huge_coefficients_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in ([[1e308, 1e308], [1e308, 0]], [[0.0, -1.7e308], [0.0, 0.0]]):
            with pytest.raises(FormatError, match="modulus above 1"):
                games.classical_game_from_dict({"r": r})


@pytest.mark.parametrize(
    "build",
    [
        lambda: games.t_game(400),
        lambda: games.c_game(400),
        lambda: games.h_game(4),
        # t_game(8) has 9 levels, so the tensor has 81 and 81^4 > 2^24 entries.
        lambda: games.tensor_games(games.t_game(8), games.t_game(8)),
    ],
    ids=["t400", "c400", "h4", "t8xt8"],
)
def test_named_families_refuse_oversized_games(build):
    with pytest.raises(TooLargeError, match="dense cap"):
        build()
