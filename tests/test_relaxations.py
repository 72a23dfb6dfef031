import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_game
from xorq import games, heuristics, linalg, relaxations, sdp
from xorq.errors import DimensionMismatchError, TooLargeError
from xorq.report import BiasReport


def _random_vvm(rng, n, d) -> relaxations.VectorValuedMatrix:
    mats = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    return relaxations.VectorValuedMatrix(n=n, d=d, mats=mats)


def test_odot_d1_is_kron(rng):
    x = _random_vvm(rng, 2, 1)
    y = _random_vvm(rng, 2, 1)
    assert np.allclose(relaxations.odot(x, y), np.kron(x.mats[0], y.mats[0]))


def test_odot_entry_formula(rng):
    x = _random_vvm(rng, 2, 3)
    y = _random_vvm(rng, 2, 3)
    k = relaxations.odot(x, y)
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    want = np.vdot(
                        np.conj(x.entry_vector(i, a)), y.entry_vector(j, b)
                    )
                    assert abs(k[i * 2 + j, a * 2 + b] - want) < 1e-12


def test_odot_zero_and_mismatch(rng):
    z = relaxations.VectorValuedMatrix(n=2, d=2, mats=np.zeros((2, 2, 2)))
    assert np.allclose(relaxations.odot(z, z), 0)
    with pytest.raises(DimensionMismatchError):
        relaxations.odot(z, _random_vvm(rng, 2, 3))


def test_vvm_products_unitary():
    u = np.array([[0, 1.0], [1.0, 0]], dtype=complex)
    x = relaxations.VectorValuedMatrix(n=2, d=1, mats=u[None])
    left, right = relaxations.vvm_products(x)
    assert np.allclose(left, np.eye(2))
    assert np.allclose(right, np.eye(2))


def test_vvm_products_t_counterexample():
    # entries e_i at position (i, 0): X_r = |r><0| on n+1 levels
    n = 3
    mats = np.zeros((n, n + 1, n + 1), dtype=complex)
    for r in range(1, n + 1):
        mats[r - 1, r, 0] = 1.0
    x = relaxations.VectorValuedMatrix(n=n + 1, d=n, mats=mats)
    left, right = relaxations.vvm_products(x)
    assert np.allclose(left, np.diag([0.0] + [1.0] * n))
    want = np.zeros((n + 1, n + 1))
    want[0, 0] = n
    assert np.allclose(right, want)
    # and the capped-constraint violation pays off: objective sqrt(n)/2
    val = np.trace(relaxations.odot(x, x) @ games.t_game(n).m)
    assert abs(val - math.sqrt(n) / 2) < 1e-12


def test_vvm_products_psd(rng):
    x = _random_vvm(rng, 3, 4)
    left, right = relaxations.vvm_products(x)
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
            vecs[:, a * n + c] = np.conj(x.entry_vector(a, c))
            vecs[:, n * n + a * n + c] = y.entry_vector(a, c)
    gram = vecs.conj().T @ vecs

    inst = relaxations.beta_nc_instance(g)
    obj = float(np.real(np.trace(inst.objective["gram"].conj().T @ gram)))
    want_obj = float(np.real(np.trace(relaxations.odot(x, y) @ g.m)))
    assert abs(obj - want_obj) <= 1e-10

    left, right = relaxations.vvm_products(x)
    for a in range(n):
        for a2 in range(n):
            got = sum(gram[a * n + c, a2 * n + c] for c in range(n))
            assert abs(got - left[a, a2]) <= 1e-10  # row form of X X^+
    for c in range(n):
        for c2 in range(n):
            got = sum(gram[a * n + c, a * n + c2] for a in range(n))
            assert abs(got - right[c2, c]) <= 1e-10  # transpose of X^+ X


def test_gram_objective_matches_entrywise_loop():
    """The objective blocks equal the entrywise definition
    c[x(a, c), y(b, e)] = conj(M[(c, e), (a, b)]) / 2, then c + c^+."""
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
            assert np.array_equal(inst.objective["gram"], c + c.conj().T)


def test_beta_sdp_values():
    res = relaxations.beta_sdp(games.chsh(), 1e-7)
    assert abs(res.value - math.sqrt(2) / 2) <= 1e-4
    single = games.ClassicalGame(2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert abs(relaxations.beta_sdp(single, 1e-7).value - 1.0) <= 1e-6
    # sandwich against the complex heuristic
    oc = heuristics.omega_c_lower(
        games.from_classical(games.chsh()),
        heuristics.OptimizerConfig(restarts=8, seed=0),
    )
    assert res.value >= oc.value - 1e-4


def test_beta_sdp_witness_feasible():
    res = relaxations.beta_sdp(games.chsh(), 1e-7)
    xs, ys = res.witness["x"], res.witness["y"]
    assert np.all(np.linalg.norm(xs, axis=1) <= 1.0 + 1e-6)
    assert np.all(np.linalg.norm(ys, axis=1) <= 1.0 + 1e-6)
    val = float(np.real(np.sum(games.chsh().r * (xs @ ys.T))))
    assert abs(val - res.value) <= 1e-6


def test_beta_nc_t_family():
    for n in (1, 2, 3):
        res = relaxations.beta_nc(games.t_game(n), 1e-7)
        assert abs(res.value - 1.0 / math.sqrt(n)) <= 1e-4


def test_beta_nc_h1():
    assert abs(relaxations.beta_nc(games.h_game(1), 1e-7).value - 0.6) <= 1e-4


def test_beta_nc_equals_beta_sdp_on_classical():
    g = games.chsh()
    v1 = relaxations.beta_sdp(g, 1e-7).value
    v2 = relaxations.beta_nc(games.from_classical(g), 1e-7).value
    assert abs(v1 - v2) <= 2e-4


def test_beta_nc_witness_round_trip():
    g = games.h_game(1)
    res = relaxations.beta_nc(g, 1e-7)
    x, y = res.witness["x"], res.witness["y"]
    val = relaxations.nc_objective(g, x, y)
    assert abs(val - res.value) <= 1e-6
    for v in (x, y):
        left, right = relaxations.vvm_products(v)
        assert linalg.op_norm(left) <= 1.0 + 1e-6
        assert linalg.op_norm(right) <= 1.0 + 1e-6


def test_beta_nc_h1_explicit_witness():
    # X = Y = (C1, C2, C3)/sqrt(2) is feasible with objective exactly 3/5
    cs = games.h_c_matrices(1)
    mats = np.array(cs, dtype=complex) / math.sqrt(2)
    x = relaxations.VectorValuedMatrix(n=3, d=3, mats=mats)
    left, right = relaxations.vvm_products(x)
    assert np.allclose(left, np.eye(3), atol=1e-10)
    assert np.allclose(right, np.eye(3), atol=1e-10)
    val = relaxations.nc_objective(games.h_game(1), x, x)
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
    mk = lambda m: relaxations.VectorValuedMatrix(n=loc, d=2 * n, mats=m)
    return mk(xr), mk(xc), mk(xr.copy()), mk(xc.copy())  # X_R, X_C, Y_R, Y_C


def test_beta_os_t_explicit_witness():
    # reconstructed witness: feasibility and objective checked by direct
    # evaluation, then the solver must match it
    for n in (2, 3):
        g = games.t_game(n)
        xr, xc, yr, yc = _t_os_witness(n)
        assert np.linalg.norm(
            relaxations.odot(xr, yc) - relaxations.odot(xc, yr)
        ) <= 1e-10
        assert linalg.op_norm(relaxations.vvm_products(xr)[0]) <= 1 + 1e-10
        assert linalg.op_norm(relaxations.vvm_products(yr)[0]) <= 1 + 1e-10
        assert linalg.op_norm(relaxations.vvm_products(xc)[1]) <= 1 + 1e-10
        assert linalg.op_norm(relaxations.vvm_products(yc)[1]) <= 1 + 1e-10
        val = relaxations.nc_objective(g, xr, yc)
        assert abs(val - 1.0) <= 1e-10
        assert relaxations.beta_os(g, 1e-6).value >= val - 1e-3


def test_beta_os_witness_round_trip():
    g = games.h_game(1)
    res = relaxations.beta_os(g, 1e-7)
    xr, xc = res.witness["x_r"], res.witness["x_c"]
    yr, yc = res.witness["y_r"], res.witness["y_c"]
    assert abs(relaxations.nc_objective(g, xr, yc) - res.value) <= 1e-6
    assert np.linalg.norm(
        relaxations.odot(xr, yc) - relaxations.odot(xc, yr)
    ) <= 1e-6
    assert linalg.op_norm(relaxations.vvm_products(xr)[0]) <= 1 + 1e-6
    assert linalg.op_norm(relaxations.vvm_products(yr)[0]) <= 1 + 1e-6
    assert linalg.op_norm(relaxations.vvm_products(xc)[1]) <= 1 + 1e-6
    assert linalg.op_norm(relaxations.vvm_products(yc)[1]) <= 1 + 1e-6


def test_maximizing_negated_objective_matches():
    # global-phase freedom makes Re maximization exact: flipping the sign
    # of the objective must give the same optimum value
    g = games.h_game(1)
    inst = relaxations.beta_nc_instance(g)
    flipped = sdp.SdpInstance(
        blocks=inst.blocks,
        objective={k: -v for k, v in inst.objective.items()},
        constraints=inst.constraints,
    )
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
    rep = BiasReport(game="t3", n=g.n, trace_norm=linalg.trace_norm(g.m))
    rep.omega_lower = heuristics.omega_lower(g, cfg).value
    rep.beta_nc = relaxations.beta_nc(g, 1e-6).value
    rep.beta_os = relaxations.beta_os(g, 1e-6).value
    checks = relaxations.check_chains(g, rep, 1e-6)
    assert all(c.passed for c in checks if c.hard)
    assert abs(rep.beta_nc - 0.5774) <= 1e-3
    assert abs(rep.beta_os - 1.0) <= 1e-3


def test_check_chains_h1_ratio_diagnostic():
    g = games.h_game(1)
    cfg = heuristics.OptimizerConfig(restarts=8, seed=0)
    rep = BiasReport(game="h1", n=g.n, trace_norm=linalg.trace_norm(g.m))
    rep.omega_c_lower = heuristics.omega_c_lower(g, cfg).value
    rep.beta_nc = relaxations.beta_nc(g, 1e-6).value
    checks = relaxations.check_chains(g, rep, 1e-6)
    assert all(c.passed for c in checks if c.hard)
    assert abs(rep.beta_nc / rep.omega_c_lower - 1.5) <= 1e-2


def test_check_chains_zero_game():
    g = games.validate(np.zeros((4, 4)), 2)
    rep = BiasReport(game="zero", n=2, trace_norm=0.0)
    rep.omega_lower = 0.0
    rep.beta_nc = relaxations.beta_nc(g, 1e-6).value
    rep.beta_os = relaxations.beta_os(g, 1e-6).value
    assert abs(rep.beta_nc) <= 1e-6 and abs(rep.beta_os) <= 1e-6
    checks = relaxations.check_chains(g, rep, 1e-6)
    assert all(c.passed for c in checks if c.hard)


def _real_constraint_matrix(inst: sdp.SdpInstance) -> np.ndarray:
    """Row q holds the real coefficients of A(Z)_q on the real and
    imaginary parts of the (one-block) Hermitian Z."""
    prog = sdp._Program(inst)
    size = prog.dim * prog.dim
    a = np.zeros((prog.m, 2 * size))
    np.add.at(a, (prog.owner, prog.flat), prog.weight.real)
    np.add.at(a, (prog.owner, size + prog.flat), -prog.weight.imag)
    return a


RANK_CASES = {
    "CHSH/sdp": (games.chsh, "sdp"),
    "diag3/sdp": (lambda: games.ClassicalGame(3, np.eye(3) / 3), "sdp"),
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


def test_beta_os_refuses_oversized_instance():
    # H2 has n = 10: 20,400 constraints, so a 20,401^2 Schur matrix
    with pytest.raises(TooLargeError, match="dense cap"):
        relaxations.beta_os(games.h_game(2))
