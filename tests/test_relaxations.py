import hashlib
import itertools
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import slack
from certify import row_values
from conftest import random_game, random_unitary
from constructions import trace_norm
from dense import odot, vvm_products
from table import dense_objective
from witness import families, nc_objective
from xorq import games, heuristics, linalg, relaxations, sdp
from xorq.errors import DimensionMismatchError, FormatError, TooLargeError
from xorq.report import BiasReport


def _random_vvm(rng, n, d) -> np.ndarray:
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def test_odot_d1_is_kron(rng):
    x = _random_vvm(rng, 2, 1)
    y = _random_vvm(rng, 2, 1)
    assert np.allclose(odot(x, y), np.kron(x[0], y[0]))


def test_odot_entry_formula(rng):
    x = _random_vvm(rng, 2, 3)
    y = _random_vvm(rng, 2, 3)
    k = odot(x, y)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    want = np.vdot(
                        np.conj(x[:, i, a]), y[:, j, b]
                    )
                    assert abs(k[i * 2 + j, a * 2 + b] - want) < 1e-12


def test_odot_zero_and_mismatch(rng):
    z = np.zeros((2, 2, 2))
    assert np.allclose(odot(z, z), 0)
    with pytest.raises(DimensionMismatchError):
        odot(z, _random_vvm(rng, 2, 3))


@pytest.mark.parametrize("n, d", [(2, 1), (2, 5), (3, 4)])
def test_nc_objective_matches_odot_oracle(rng, n, d):
    g = random_game(n, seed=n + d)
    x, y = _random_vvm(rng, n, d), _random_vvm(rng, n, d)
    want = float(np.real(np.trace(odot(x, y) @ g.m)))
    assert abs(nc_objective(g, x, y) - want) <= 1e-12


@pytest.mark.parametrize("n, d", [(2, 1), (2, 6), (3, 10), (4, 25)])
def test_nc_objective_matches_einsum_oracle(rng, n, d):
    # The three-operand contraction that nc_objective replaced, on a random
    # game of n questions and on T_n (n + 1 questions).
    for g in (random_game(n, seed=10 * n + d), games.t_game(n)):
        x, y = _random_vvm(rng, g.n, d), _random_vvm(rng, g.n, d)
        want = float(np.einsum("rik,rjl,klij->", x, y, g.m.reshape((g.n,) * 4)).real)
        assert abs(nc_objective(g, x, y) - want) <= 1e-12 * max(1.0, abs(want))


def test_vvm_products_unitary():
    u = np.array([[0, 1.0], [1.0, 0]], dtype=complex)
    x = u[None]
    left, right = vvm_products(x)
    assert np.allclose(left, np.eye(2))
    assert np.allclose(right, np.eye(2))


def test_vvm_products_t_counterexample():
    # entries e_i at position (i, 0): X_r = |r><0| on n+1 levels
    n = 3
    mats = np.zeros((n, n + 1, n + 1), dtype=complex)
    for r in range(1, n + 1):
        mats[r - 1, r, 0] = 1.0
    left, right = vvm_products(mats)
    assert np.allclose(left, np.diag([0.0] + [1.0] * n))
    want = np.zeros((n + 1, n + 1))
    want[0, 0] = n
    assert np.allclose(right, want)
    # and the capped-constraint violation pays off: objective sqrt(n)/2
    val = np.trace(odot(mats, mats) @ games.t_game(n).m)
    assert abs(val - math.sqrt(n) / 2) < 1e-12


def test_vvm_products_psd(rng):
    x = _random_vvm(rng, 3, 4)
    left, right = vvm_products(x)
    assert np.linalg.eigvalsh(left)[0] >= -1e-10
    assert np.linalg.eigvalsh(right)[0] >= -1e-10


def test_gram_bookkeeping_soundness(rng):
    """Building the Gram matrix of {conj X entries} u {Y entries} and
    evaluating the compiled functionals reproduces the direct quantities.
    This pins the conjugation convention of the compilation."""
    n, d = 2, 3
    g = random_game(n, seed=71)
    x = _random_vvm(rng, n, d)
    y = _random_vvm(rng, n, d)
    vecs = np.zeros((d, 2 * n * n), dtype=complex)
    for a in range(n):
        for c in range(n):
            vecs[:, a * n + c] = np.conj(x[:, a, c])
            vecs[:, n * n + a * n + c] = y[:, a, c]
    gram = vecs.conj().T @ vecs

    inst = relaxations.beta_nc_instance(g)
    obj = float(np.vdot(dense_objective(inst), gram).real)
    want_obj = float(np.real(np.trace(odot(x, y) @ g.m)))
    assert abs(obj - want_obj) <= 1e-10

    left, right = vvm_products(x)
    for a in range(n):
        for a2 in range(n):
            got = sum(gram[a * n + c, a2 * n + c] for c in range(n))
            assert abs(got - left[a, a2]) <= 1e-10  # row form of X X^+
    for c in range(n):
        for c2 in range(n):
            got = sum(gram[a * n + c, a * n + c2] for a in range(n))
            assert abs(got - right[c2, c]) <= 1e-10  # transpose of X^+ X


@pytest.mark.parametrize("diagonal, upper", [(3, 0), (0, 3), (2, 2)])
def test_functional_rows_are_real_and_imaginary_parts(rng, diagonal, upper):
    """On a Hermitian Z, the rows _table makes of one functional read Re S
    and, for a complex game matrix, Im S, where S = sum v Z[i, j] over real
    v and i <= j."""
    dim = 4
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z = a + a.conj().T
    above = list(itertools.combinations(range(dim), 2))
    pairs = [(i, i) for i in rng.choice(dim, diagonal, replace=False)]
    pairs += [above[p] for p in rng.choice(len(above), upper, replace=False)]
    i, j = np.array(sorted(pairs)).T[:, None]
    v = rng.standard_normal(i.shape)
    want = np.sum(v * z[i, j])
    for real in (False, True):
        table = relaxations._table((np.zeros(0, np.intp),) * 3, [(i, j, v, 0.5)], real)  # C = 0
        assert table[-1].tolist() == ([0.5, 0.0] if upper and not real else [0.5])
        values = row_values(sdp.SdpInstance(dim, *table), z)
        assert values[0] == pytest.approx(want.real, abs=1e-12)
        if upper and not real:
            assert values[1] == pytest.approx(want.imag, abs=1e-12)


# SHA-256 of each table of the package instances, as recorded from the rows
# that the tuple-per-entry builders made (rows, cols and owner as intp, vals
# as complex128, the rhs as float64, each in the machine's byte order on a
# 64-bit intp): a reordered row or entry, or a zero of flipped sign, changes one.
TABLE_HASHES = {
    "T4/beta_nc": (
        "1321366c652d698d4eea121423b0ed0509703956a6640dace08db272fc4137b7",
        "5162da44b3e7399343960dbeebf2bfe38d7f0494db335f334b0ef014158c2451",
        "641568d5969ae8233ff918b2310e601846b08551bb4c8f054127905004d90d1f",
        "e39d514f716f8213e75b670abf6443910ab7c42acf681683e1ef54740ef016b1",
        "56b2025a9b1adf0c51f75b58ecbce39d9aff711dcc4297d5a210626dae42a217",
    ),
    "T4/beta_os": (
        "e3f31e1472e1119efeca7431875412526631697a9093de5d4a200a4f4753f0ff",
        "9f60601f00397492b76889ebeb1f7c736011eada329e319036bc84aaab1c9c2f",
        "186e9b4d7850adb83152fa615f3d46f1125042b5d8af3fbb11bb469edd1b8c82",
        "20a13adcc96df05eeb5a38dfe4871b310721c3f126718abe81bc0e1e8e51d661",
        "6d9c97f6d6edfb74f05ffccf08851dc81043fafe3db93e8f435f958e057ff8ee",
    ),
    "C4/beta_nc": (
        "1321366c652d698d4eea121423b0ed0509703956a6640dace08db272fc4137b7",
        "5162da44b3e7399343960dbeebf2bfe38d7f0494db335f334b0ef014158c2451",
        "641568d5969ae8233ff918b2310e601846b08551bb4c8f054127905004d90d1f",
        "e39d514f716f8213e75b670abf6443910ab7c42acf681683e1ef54740ef016b1",
        "56b2025a9b1adf0c51f75b58ecbce39d9aff711dcc4297d5a210626dae42a217",
    ),
    "C4/beta_os": (
        "e3f31e1472e1119efeca7431875412526631697a9093de5d4a200a4f4753f0ff",
        "9f60601f00397492b76889ebeb1f7c736011eada329e319036bc84aaab1c9c2f",
        "186e9b4d7850adb83152fa615f3d46f1125042b5d8af3fbb11bb469edd1b8c82",
        "20a13adcc96df05eeb5a38dfe4871b310721c3f126718abe81bc0e1e8e51d661",
        "6d9c97f6d6edfb74f05ffccf08851dc81043fafe3db93e8f435f958e057ff8ee",
    ),
    "H1/beta_nc": (
        "3df25b9982163a38d234474b7f2fbdd3ee9e227121c7d6f03ee6e205279b66b9",
        "b2a0aaa42bcf6dda25062be8af63533b1d782c1af00ec42573cb73a67e26190e",
        "0375523847e6ea259a0d518b3aca7a90d45c705aa847704408e6903a3ae7a763",
        "f9f9720589810096be40a30a582ee5e7d1adb4b94ae8bed32cae8ed613ba192d",
        "1f7cc3db270bf14171714345d6dc5112c74695f3bb9b865c975400b2cb633405",
    ),
    "H1/beta_os": (
        "ebf3e0ffc0c4a0605780ea4c8c2a1ddecfab362c2e94524764c0363983ddb54c",
        "b072dd0ff9a8caa164c4062cf866b729c8d175c15dbce44e87f677b7e3a055db",
        "4c763e17a50867084a314ed6360e0e758170e7280c211cb5599d79fbb0c0a1dc",
        "656c01de3b712653f56732cc58cce98e301e09510997f686ced0f77848b73269",
        "c09f967b55125b319ceaa97ee4b9ebce29d449ad45907e2792fdb482f022c6bc",
    ),
    "H2/beta_nc": (
        "0cb02370566f6a1f0c46a8ed26c36e2b1d1468647df823dcd2ffc0e67b0b205b",
        "be07e32269eb3722d7998a3997e6fe0a1938380f799d94252f8fd65d4be7add4",
        "4c8822eb173eafa506be312220738046cdcb91352551a87c022328834016d7de",
        "c2c136cd6c4a5358f2e035172768286cfbf5ee978a4897d6c91f1c7193361e59",
        "20ea55a95f062675b4483cfb616320ba1e264bc1b3a47ae2f9eefc77beb5537e",
    ),
    "H2/beta_os": (
        "b27debd0bf1171a387b824d8360a3656a513777e17269303743c30a2a40b9b83",
        "96830aeadea402f8543d6f11bdb7db8a728dc575c9c8e69d2d328a8f370b58f6",
        "ac5612c059e7a011284d27ca7da13068e5d6166a19f4dba15b17dec84a15b92f",
        "d80c4635f52e92d0e0fe02b541ce931ac06ecada25baa9cebe8c5b924c6507a4",
        "f8c58194bc01ea1bad6494c72530dce161a6500f33375d6ec529eb954b42c42f",
    ),
    "random3/beta_nc": (
        "e37debce0a941e67ad79ff487464e90324712181f884474ae5f5725ddd8d90e3",
        "b377b955720dc1c69f87d9dfe0ca331da73cdcef1d1332ad05882bc1fcf3189d",
        "228eb31f7b766dc48e6a02d07993d582309556cac732fe3b8fd20f924e2db0a3",
        "5d8501911969319de60f1e3f4259baa2e4cd289d0c66e8a765e2279fd79694af",
        "a0d18bd12a406918269a1e715d75f7533ff17673e03c7bfeeddc493fc54ff52e",
    ),
    "random3/beta_os": (
        "fabbca2011c5638b8b9693d5ef314a579dbbe0349f8f58a54a8e519573ca2d67",
        "95af3e7982736ce6b03e3c17ea89df155d0b06fdec33c45fb8a4397214dda182",
        "1292471cc5ec43abc81a20441e0c4bfc9028107e99d55dd2db2bf44af967d592",
        "f843a65f49411b3dcdd65f481212d99c554ca24aac1ca2b8a43078a2ea3e2043",
        "c00f3a0170a62eb7040fca9db8cb582bb12f8c30c2c5981f14082ec8651f291c",
    ),
    "random2/beta_nc": (
        "493372b9e17e800ab5a22d8e221b01db651db3f1ba12fcd1a625a101d4dfddcc",
        "0ea77a9af54acb96ec43c86472e4884e59d49ea12e874227b363bdccb0abb79a",
        "a0a5c6008f8a9b49b7d901751741962f289f472349280bacdaf07bec521c2d7d",
        "fbc34a9b12599c961f716fe042e91e6ef4abbe239e5904686fe4ac8730d98d42",
        "2369ec132f8afddf10af567aed387dc09a793fe28be53a2c89652675f47a878f",
    ),
    "random2/beta_os": (
        "2642cf8caa2e2791791d1e7162b161f9d0f3b5cbe400185d49f16899c4f20c32",
        "85cdb9c9aacbc8a1bfe550e44e5bf0071cd290c7253d2aa1dfd34dcc992700d5",
        "eeae449c7b85aba1a0cc1ddfbb832b3ce6e0f2dd9cb1829eae4d7becf08c21df",
        "35b9fd2ae1f235c869203c259da4e057bcc2eeb954e5dbaff617a6b8f5225984",
        "89f7519c71ef6265823ce4b9f07aaa20b657e1d8331b75533f753c7504103366",
    ),
}


def _table_instances() -> dict:
    cases = {}
    named = {"T4": games.t_game(4), "C4": games.c_game(4), "H1": games.h_game(1), "H2": games.h_game(2),
             "random3": random_game(3, 7), "random2": random_game(2, 7)}
    for name, g in named.items():
        for kind in ("nc", "os"):
            cases[f"{name}/beta_{kind}"] = getattr(relaxations, f"beta_{kind}_instance")(g)
    return cases


def test_tables_keep_their_bits():
    # random3 and random2 are complex, with imaginary-part rows.
    assert random_game(3, 7).m.imag.any() and random_game(2, 7).m.imag.any()
    got = {}
    for name, inst in _table_instances().items():
        row = inst.owner >= 0  # the rows' entries, not C's
        tables = zip((inst.rows[row], inst.cols[row], inst.vals[row], inst.owner[row], inst.constraints),
                     (np.intp, np.intp, np.complex128, np.intp, np.float64))
        got[name] = tuple(hashlib.sha256(np.ascontiguousarray(x, dtype=t).tobytes()).hexdigest()
                          for x, t in tables)
    assert got == TABLE_HASHES
    # beta_sdp's table is beta_nc's, field by field.
    chsh = games.from_classical(games.chsh())
    sdp_inst, nc_inst = relaxations.beta_sdp_instance(chsh), relaxations.beta_nc_instance(chsh)
    for field in fields(sdp.SdpInstance):
        a, b = getattr(sdp_inst, field.name), getattr(nc_inst, field.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), field.name


def test_gram_objective_matches_entrywise_loop():
    """C's entries (owner -1) are those of the entrywise definition
    c[x(a, c), y(b, e)] = conj(M[(c, e), (a, b)]) / 2 that are not 0, each
    stored once above the diagonal."""
    for g in (games.t_game(2), games.h_game(1), random_game(3, seed=72)):
        n = g.n
        nn = n * n
        m4 = g.m.reshape(n, n, n, n)
        for inst, size, yb in (
            (relaxations.beta_nc_instance(g), 2 * nn, nn),
            (relaxations.beta_os_instance(g), 4 * nn, 3 * nn),
        ):
            c = np.zeros((size, size), dtype=complex)
            for a, b, cc, e in itertools.product(range(n), repeat=4):
                c[a * n + cc, yb + b * n + e] += np.conj(m4[cc, e, a, b]) / 2
            obj = inst.owner < 0
            r, col, v = inst.rows[obj], inst.cols[obj], inst.vals[obj]
            assert r.size == np.count_nonzero(c) == len(set(zip(r.tolist(), col.tolist())))
            assert (v != 0).all() and np.array_equal(c[r, col], v)


def test_beta_sdp_values():
    res = relaxations.beta_sdp(games.from_classical(games.chsh()), 1e-7)
    assert abs(res.value - math.sqrt(2) / 2) <= 1e-4
    single = games.from_classical(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert abs(relaxations.beta_sdp(single, 1e-7).value - 1.0) <= 1e-6
    # sandwich against the complex heuristic
    oc = heuristics.Ladder(
        games.from_classical(games.chsh()),
        heuristics.OptimizerConfig(restarts=8, seed=0),
    ).omega_c()
    assert res.value >= oc.value - 1e-4


@pytest.mark.parametrize(
    "build",
    [lambda g: relaxations.beta_sdp(g, sdp.DEFAULT_TOL), relaxations.beta_sdp_instance],
    ids=["beta_sdp", "beta_sdp_instance"],
)
def test_beta_sdp_refuses_a_game_off_the_diagonal(monkeypatch, build):
    def unreachable(*args, **kwargs):
        raise AssertionError("sdp.solve reached")

    monkeypatch.setattr(relaxations.sdp_mod, "solve", unreachable)
    with pytest.raises(FormatError, match="diagonal"):
        build(games.t_game(1))


def test_beta_sdp_witness_feasible():
    g = games.from_classical(games.chsh())
    sol = sdp.solve(relaxations.beta_sdp_instance(g), 1e-7)
    assert relaxations.beta_sdp(g, 1e-7).value == sol.primal_value
    # The vectors x_s and y_t are the diagonals X[:, s, s] and Y[:, t, t].
    witness = families("nc", g.n, sol)
    s = np.arange(g.n)
    xs, ys = witness["x"][:, s, s].T, witness["y"][:, s, s].T
    assert np.all(np.linalg.norm(xs, axis=1) <= 1.0 + 1e-6)
    assert np.all(np.linalg.norm(ys, axis=1) <= 1.0 + 1e-6)
    val = float(np.real(np.sum(games.chsh() * (xs @ ys.T))))
    assert abs(val - sol.primal_value) <= 1e-6


def test_beta_nc_t32_allocates_less_than_one_side_squared_array():
    # The solution stays packed on its classes, {2: 64, 1: 2,050}: no array
    # at the side, 2,178, is built, where one float64 array of side^2
    # entries takes 36 MiB.
    g = games.t_game(32)
    side = 2 * g.n * g.n
    tracemalloc.start()
    try:
        value = relaxations.beta_nc(g, sdp.DEFAULT_TOL).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - 1 / math.sqrt(32)) <= 1e-6
    assert peak < side * side * 8


def test_beta_nc_t_family():
    for n in (1, 2, 3):
        res = relaxations.beta_nc(games.t_game(n), 1e-7)
        assert abs(res.value - 1.0 / math.sqrt(n)) <= 1e-4


def test_beta_nc_h1():
    assert abs(relaxations.beta_nc(games.h_game(1), 1e-7).value - 0.6) <= 1e-4


def _classical_games() -> list:
    """The coefficients R of CHSH and of seeded random classical games with
    n = 2 to 5."""
    rng = np.random.default_rng(7)
    cases = [games.chsh()]
    for n in (2, 3, 4, 5):
        r = rng.standard_normal((n, n))
        cases.append(r / np.sum(np.abs(r)))
    return cases


def test_beta_nc_equals_beta_sdp_on_classical():
    for c in _classical_games():
        g = games.from_classical(c)
        want = relaxations.beta_nc(g, sdp.DEFAULT_TOL).value
        assert relaxations.beta_sdp(g, sdp.DEFAULT_TOL).value == want, g.n


def test_beta_nc_of_the_diagonal_embedding_is_beta_sdp():
    # beta_sdp, solved as beta_nc of the diagonal embedding, against the
    # unit-vector program with slacks (tests/slack.py), side 4n; the two
    # solves differ only within their gaps. At n = 46, beta_nc has side
    # 4,232 and is let in by the cap on its table.
    rng = np.random.default_rng(46)
    r = rng.standard_normal((46, 46))
    for c in _classical_games() + [r / np.sum(np.abs(r))]:
        g = games.from_classical(c)
        want = sdp.solve(slack.beta_sdp_instance(g), sdp.DEFAULT_TOL).primal_value
        assert abs(relaxations.beta_sdp(g, sdp.DEFAULT_TOL).value - want) <= 2e-6, g.n


def _transformed_games(g: games.GameMatrix, rng) -> dict:
    """g under local unitaries U (x) V, the player swap and complex
    conjugation: each has the biases and Gram bounds of g."""
    n = g.n
    uv = np.kron(random_unitary(rng, n), random_unitary(rng, n))
    return {
        "local": games.validate(uv @ g.m @ uv.conj().T, n),
        "swap": games.validate(linalg.permute_systems(g.m, (n, n), (1, 0)), n),
        "conj": games.validate(g.m.conj(), n),
    }


@pytest.mark.parametrize("n, seed", [(2, 7101), (2, 7102), (2, 7103),
                                     (3, 7104), (3, 7105), (3, 7106)])
def test_gram_bounds_invariant_under_game_symmetries(n, seed):
    g, tol = random_game(n, seed), sdp.DEFAULT_TOL
    want = (relaxations.beta_nc(g, tol).value, relaxations.beta_os(g, tol).value)
    for name, h in _transformed_games(g, np.random.default_rng(seed)).items():
        got = (relaxations.beta_nc(h, tol).value, relaxations.beta_os(h, tol).value)
        assert max(abs(a - b) for a, b in zip(want, got)) <= 1e-7, name


def test_beta_nc_witness_round_trip():
    g = games.h_game(1)
    sol = sdp.solve(relaxations.beta_nc_instance(g), 1e-7)
    assert relaxations.beta_nc(g, 1e-7).value == sol.primal_value
    witness = families("nc", g.n, sol)
    x, y = witness["x"], witness["y"]
    val = nc_objective(g, x, y)
    assert abs(val - sol.primal_value) <= 1e-6
    for v in (x, y):
        left, right = vvm_products(v)
        assert linalg.op_norm(left) <= 1.0 + 1e-6
        assert linalg.op_norm(right) <= 1.0 + 1e-6


def test_beta_nc_h1_explicit_witness():
    # X = Y = (C1, C2, C3)/sqrt(2) is feasible with objective exactly 3/5
    cs = games.h_c_matrices(1)
    mats = np.array(cs, dtype=complex) / math.sqrt(2)
    left, right = vvm_products(mats)
    assert np.allclose(left, np.eye(3), atol=1e-10)
    assert np.allclose(right, np.eye(3), atol=1e-10)
    val = nc_objective(games.h_game(1), mats, mats)
    assert abs(val - 0.6) <= 1e-10
    assert relaxations.beta_nc(games.h_game(1), 1e-7).value >= val - 1e-6


def test_beta_os_values_small():
    assert abs(relaxations.beta_os(games.t_game(1), 1e-7).value - 1.0) <= 1e-3
    assert abs(relaxations.beta_os(games.t_game(2), 1e-7).value - 1.0) <= 1e-3
    assert abs(relaxations.beta_os(games.h_game(1), 1e-7).value - 0.6) <= 1e-4
    assert abs(relaxations.beta_os(games.c_game(2), 1e-7).value - 0.5) <= 1e-4


def _t_os_witness(n: int):
    """Split staircase witness: 2n components per family, objective 1."""
    loc = n + 1
    xr = np.zeros((2 * n, loc, loc), dtype=complex)
    xc = np.zeros((2 * n, loc, loc), dtype=complex)
    for i in range(1, n + 1):
        xr[i - 1, 0, i] = 1.0 / math.sqrt(n)
        xr[n + i - 1, i, 0] = 1.0
        xc[i - 1, 0, i] = 1.0
        xc[n + i - 1, i, 0] = 1.0 / math.sqrt(n)
    return xr, xc, xr.copy(), xc.copy()  # X_R, X_C, Y_R, Y_C


def test_beta_os_t_explicit_witness():
    # reconstructed witness: feasibility and objective checked by direct
    # evaluation, then the solver must match it
    for n in (2, 3):
        g = games.t_game(n)
        xr, xc, yr, yc = _t_os_witness(n)
        assert np.linalg.norm(
            odot(xr, yc) - odot(xc, yr)
        ) <= 1e-10
        assert linalg.op_norm(vvm_products(xr)[0]) <= 1 + 1e-10
        assert linalg.op_norm(vvm_products(yr)[0]) <= 1 + 1e-10
        assert linalg.op_norm(vvm_products(xc)[1]) <= 1 + 1e-10
        assert linalg.op_norm(vvm_products(yc)[1]) <= 1 + 1e-10
        val = nc_objective(g, xr, yc)
        assert abs(val - 1.0) <= 1e-10
        assert relaxations.beta_os(g, 1e-6).value >= val - 1e-3


def test_beta_os_witness_round_trip():
    g = games.h_game(1)
    sol = sdp.solve(relaxations.beta_os_instance(g), 1e-7)
    assert relaxations.beta_os(g, 1e-7).value == sol.primal_value
    witness = families("os", g.n, sol)
    xr, xc = witness["x_r"], witness["x_c"]
    yr, yc = witness["y_r"], witness["y_c"]
    assert abs(nc_objective(g, xr, yc) - sol.primal_value) <= 1e-6
    assert np.linalg.norm(
        odot(xr, yc) - odot(xc, yr)
    ) <= 1e-6
    assert linalg.op_norm(vvm_products(xr)[0]) <= 1 + 1e-6
    assert linalg.op_norm(vvm_products(yr)[0]) <= 1 + 1e-6
    assert linalg.op_norm(vvm_products(xc)[1]) <= 1 + 1e-6
    assert linalg.op_norm(vvm_products(yc)[1]) <= 1 + 1e-6


def test_maximizing_negated_objective_matches():
    # global-phase freedom makes Re maximization exact: flipping the sign
    # of the objective must give the same optimum value
    g = games.h_game(1)
    inst = relaxations.beta_nc_instance(g)
    flipped = replace(inst, vals=np.where(inst.owner < 0, -inst.vals, inst.vals))
    v1 = sdp.solve(inst, 1e-7).primal_value
    v2 = sdp.solve(flipped, 1e-7).primal_value
    assert abs(v1 - v2) <= 2e-6


def test_beta_os_at_least_beta_nc():
    for seed in (1, 2, 3):
        g = random_game(2, seed=600 + seed)
        nc = relaxations.beta_nc(g, 1e-6).value
        os_ = relaxations.beta_os(g, 1e-6).value
        assert os_ >= nc - 2e-4


def test_h_n_closed_forms():
    assert relaxations.h_n_closed_forms(1) == (Fraction(2, 5), Fraction(3, 5))
    assert relaxations.h_n_closed_forms(2) == (Fraction(2, 7), Fraction(10, 21))
    ratios = [
        relaxations.h_n_closed_forms(n)[1] / relaxations.h_n_closed_forms(n)[0]
        for n in range(1, 30)
    ]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
    assert abs(float(ratios[-1]) - 2.0) < 0.05  # (2n+1)/(n+1) -> 2


def test_check_chains_t3():
    g = games.t_game(3)
    cfg = heuristics.OptimizerConfig(restarts=8, seed=0)
    rep = BiasReport(game="t3", n=g.n, seed=0, restarts=8, tol=1e-6, trace_norm=trace_norm(g.m))
    rep.omega_lower = heuristics.omega_lower(g, cfg).value
    rep.beta_nc = relaxations.beta_nc(g, 1e-6).value
    rep.beta_os = relaxations.beta_os(g, 1e-6).value
    checks = relaxations.check_chains(rep, 1e-6)
    assert all(c.passed for c in checks if c.hard)
    assert abs(rep.beta_nc - 0.5774) <= 1e-3
    assert abs(rep.beta_os - 1.0) <= 1e-3


def test_check_chains_h1_ratio_diagnostic():
    g = games.h_game(1)
    cfg = heuristics.OptimizerConfig(restarts=8, seed=0)
    rep = BiasReport(game="h1", n=g.n, seed=0, restarts=8, tol=1e-6, trace_norm=trace_norm(g.m))
    rep.omega_c_lower = heuristics.Ladder(g, cfg).omega_c().value
    rep.beta_nc = relaxations.beta_nc(g, 1e-6).value
    checks = relaxations.check_chains(rep, 1e-6)
    assert all(c.passed for c in checks if c.hard)
    assert abs(rep.beta_nc / rep.omega_c_lower - 1.5) <= 1e-2


def test_check_chains_zero_game():
    g = games.validate(np.zeros((4, 4)), 2)
    rep = BiasReport(game="zero", n=2, seed=0, restarts=0, tol=1e-6, trace_norm=0.0)
    rep.omega_lower = 0.0
    rep.beta_nc = relaxations.beta_nc(g, 1e-6).value
    rep.beta_os = relaxations.beta_os(g, 1e-6).value
    assert abs(rep.beta_nc) <= 1e-6 and abs(rep.beta_os) <= 1e-6
    checks = relaxations.check_chains(rep, 1e-6)
    assert all(c.passed for c in checks if c.hard)


def _real_constraint_matrix(inst: sdp.SdpInstance) -> np.ndarray:
    """Row q holds the real coefficients of A(Z)_q on the real and imaginary
    parts of the Hermitian Z, built from the instance's entries: A(Z)_q =
    Re sum of w Z[r, c], w = Re v on the diagonal and 2 conj(v) off it."""
    side = inst.side
    size = side * side
    row = inst.owner >= 0  # not C's entries
    r, c, v, q = inst.rows[row], inst.cols[row], inst.vals[row], inst.owner[row]
    w = np.where(r == c, v.real, 2.0 * v.conj())
    flat = r * side + c
    a = np.zeros((len(inst.constraints), 2 * size))
    np.add.at(a, (q, flat), w.real)
    np.add.at(a, (q, size + flat), -w.imag)
    return a


RANK_CASES = {
    "CHSH/sdp": (lambda: games.from_classical(games.chsh()), "sdp"),
    "diag3/sdp": (lambda: games.from_classical(np.eye(3) / 3), "sdp"),
    **{
        f"{name}/{kind}": (build, kind)
        for name, build in (
            ("H1", lambda: games.h_game(1)),
            ("T3", lambda: games.t_game(3)),
            ("R2", lambda: random_game(2, seed=7)),
        )
        for kind in ("nc", "os")
    },
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
def test_constraint_matrix_has_full_row_rank(case):
    build, kind = RANK_CASES[case]
    inst = getattr(relaxations, f"beta_{kind}_instance")(build())
    a = _real_constraint_matrix(inst)
    assert np.linalg.matrix_rank(a) == len(inst.constraints)


def test_beta_os_refuses_oversized_instance(monkeypatch):
    # T32 has n = 33: beta_os has side 4 n^2 = 4,356, above the dense cap
    # of 4,096, and is refused before its n^4 consistency rows are built.
    for name in ("_cap", "_table"):
        monkeypatch.setattr(relaxations, name, lambda *args: pytest.fail("built before the size check"))
    with pytest.raises(TooLargeError, match="beta_os of side 4356"):
        relaxations.beta_os(games.t_game(32), sdp.DEFAULT_TOL)


def test_beta_os_instance_is_smaller_than_a_dense_objective():
    # beta_os(T8), side 324: its whole table, C's 16 entries (one per
    # nonzero of M) and the 14,742 entries of its 6,741 rows, holds 644,248
    # bytes, fewer than one 324 x 324 complex array (1,679,616).
    inst = relaxations.beta_os_instance(games.t_game(8))
    fields = (inst.rows, inst.cols, inst.vals, inst.owner, inst.constraints)
    assert inst.side == 324 and np.count_nonzero(inst.owner < 0) == 16
    assert sum(x.nbytes for x in fields) < np.zeros((324, 324), dtype=complex).nbytes
