import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import decreasing_sign_step, random_game
from dense import effective_operators_dense, state_operator_dense
from xorq import cli, games, heuristics, linalg, strategies
from xorq.errors import BadArgsError, SeesawError, TooLargeError

CFG = heuristics.OptimizerConfig(restarts=10, seed=0)
SMALL = heuristics.OptimizerConfig(restarts=4, seed=0)


def test_effective_operator_classical_diagonal():
    g = games.from_classical(games.chsh())
    b = np.diag([1.0, -1.0]).astype(complex)
    k = heuristics.effective_operator_for_a(g, b)
    want = np.diag(games.chsh().r @ np.array([1.0, -1.0]))
    assert np.allclose(k, want)


def test_effective_operator_zero_and_linearity(rng):
    g = random_game(3, seed=5)
    assert np.allclose(heuristics.effective_operator_for_a(g, np.zeros((3, 3))), 0)
    a = strategies.random_hermitian(rng, 3)
    b = strategies.random_hermitian(rng, 3)
    k = heuristics.effective_operator_for_a(g, b)
    want = np.trace(np.kron(a, b) @ g.m)
    assert abs(np.trace(a @ k) - want) < 1e-10
    l = heuristics.effective_operator_for_b(g, a)
    assert abs(np.trace(b @ l) - want) < 1e-10
    # Hermiticity assertion exercised on Hermitian inputs
    assert np.linalg.norm(k - k.conj().T) <= 1e-9


def test_omega_lower_chsh():
    r = heuristics.omega_lower(games.from_classical(games.chsh()), CFG)
    assert abs(r.value - 0.5) <= 1e-6
    assert r.value == max(r.restart_values)
    assert abs(strategies.bias(games.from_classical(games.chsh()), r.strategy) - r.value) <= 1e-9


def test_omega_lower_t3_and_h1():
    assert abs(heuristics.omega_lower(games.t_game(3), CFG).value - 1 / math.sqrt(3)) <= 1e-3
    assert abs(heuristics.omega_lower(games.h_game(1), CFG).value - 0.4) <= 1e-3


def test_omega_c_lower_values():
    assert abs(
        heuristics.omega_c_lower(games.from_classical(games.chsh()), CFG).value
        - math.sqrt(2) / 2
    ) <= 1e-4
    assert abs(heuristics.omega_c_lower(games.h_game(1), CFG).value - 0.4) <= 1e-3
    zero = games.validate(np.zeros((4, 4)), 2)
    assert abs(heuristics.omega_c_lower(zero, SMALL).value) <= 1e-12


def test_me_lower_h1_reaches_five_ninths():
    r = heuristics.me_lower(games.h_game(1), 3, CFG)
    assert r.value >= 5.0 / 9.0 - 1e-3
    assert abs(strategies.bias(games.h_game(1), r.strategy) - r.value) <= 1e-9


def test_me_lower_d1_reduces_to_omega():
    g = games.h_game(1)
    r1 = heuristics.me_lower(g, 1, SMALL)
    r0 = heuristics.omega_lower(g, SMALL)
    assert abs(r1.value - r0.value) <= 1e-6


def test_me_lower_t4_respects_value():
    r = heuristics.me_lower(games.t_game(4), 4, SMALL)
    assert r.value <= 0.5 + 1e-6
    assert r.value >= 0.5 - 1e-6  # warm start already achieves 1/sqrt(n)


def test_entangled_lower_t1():
    r = heuristics.entangled_lower(games.t_game(1), 1, 1, SMALL)
    assert abs(r.value - 1.0) <= 1e-6


def test_entangled_lower_t2_warm_start_dominates_me(monkeypatch):
    monkeypatch.setattr(heuristics, "MAX_ITERS", 25)
    cfg = heuristics.OptimizerConfig(restarts=1, seed=0)
    rme = heuristics.me_lower(games.t_game(2), 3, cfg)
    rent = heuristics.entangled_lower(games.t_game(2), 9, 9, cfg)
    assert rent.value >= rme.value - 1e-6


def test_half_steps_are_exactly_optimal(rng):
    g = random_game(3, seed=31)
    r = heuristics.omega_lower(g, SMALL)
    a, b = r.strategy.a, r.strategy.b
    k = heuristics.effective_operator_for_a(g, b)
    val = float(np.real(np.trace(a @ k)))
    for trial in range(1000):
        cand = linalg.sign_of_hermitian(strategies.random_hermitian(rng, 3))
        assert np.real(np.trace(cand @ k)) <= val + 1e-9
    # perturbed contenders around the optimum do no better either
    for trial in range(200):
        pert = a + 0.05 * strategies.random_hermitian(rng, 3)
        pert = pert / max(1.0, linalg.op_norm(pert))
        assert np.real(np.trace(pert @ k)) <= val + 1e-9


def test_determinism_bit_for_bit():
    g = random_game(2, seed=77)
    r1 = heuristics.omega_lower(g, CFG)
    r2 = heuristics.omega_lower(g, CFG)
    assert r1.value == r2.value
    assert r1.restart_values == r2.restart_values
    assert np.array_equal(r1.strategy.a, r2.strategy.a)
    assert np.array_equal(r1.strategy.b, r2.strategy.b)
    e1 = heuristics.entangled_lower(g, 2, 2, SMALL)
    e2 = heuristics.entangled_lower(g, 2, 2, SMALL)
    assert e1.value == e2.value
    assert np.array_equal(e1.strategy.psi, e2.strategy.psi)


def test_chain_monotonicity_on_corpus():
    for seed in range(6):
        g = random_game(2, seed=500 + seed)
        om = heuristics.omega_lower(g, SMALL).value
        oc = heuristics.omega_c_lower(g, SMALL).value
        me = heuristics.me_lower(g, 2, SMALL).value
        assert om <= oc + 1e-6
        assert oc <= me + 1e-6  # even d: one shared qubit pair replays omega_c


def test_round_complex_real_signed_fixed_point():
    # optimal real-signed input: x1 y1 / 2 - x2 y2 / 2 maximized by these signs
    g = games.from_classical(
        games.ClassicalGame(2, np.array([[0.5, 0.0], [0.0, -0.5]]))
    )
    a = np.diag([1.0, 1.0]).astype(complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    out = heuristics.round_complex_to_real(g, strategies.ComplexStrategy(a=a, b=b))
    assert np.allclose(out.a, a) and np.allclose(out.b, b)
    assert abs(strategies.bias(g, out) - 1.0) <= 1e-12


def test_round_complex_to_real_chsh():
    g = games.from_classical(games.chsh())
    rc = heuristics.omega_c_lower(g, CFG)
    out = heuristics.round_complex_to_real(g, rc.strategy)
    val = strategies.bias(g, out)
    assert val >= rc.value / math.sqrt(2) - 1e-6
    assert val >= 0.5 - 1e-6


def test_round_complex_to_real_h1_and_corpus():
    g = games.h_game(1)
    out = heuristics.round_complex_to_real(g, strategies.h1_unentangled_strategy())
    assert strategies.bias(g, out) >= 0.4 / math.sqrt(2) - 1e-9
    for seed in range(6):
        gg = random_game(2, seed=800 + seed)
        rc = heuristics.omega_c_lower(gg, SMALL)
        out = heuristics.round_complex_to_real(gg, rc.strategy)
        assert strategies.bias(gg, out) >= rc.value / math.sqrt(2) - 1e-6


def test_optimizer_config_validation():
    with pytest.raises(BadArgsError, match="restarts"):
        heuristics.OptimizerConfig(restarts=0)


def _contraction(rng, dim):
    h = strategies.random_hermitian(rng, dim)
    return h / linalg.op_norm(h)


def _state(rng, kind, da, db):
    if kind == "one":
        return heuristics.ONE
    if kind == "me":
        return linalg.max_entangled_state(da)
    psi = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize(
    "n,da,db,kind",
    [(2, 1, 1, "one"), (3, 1, 1, "one"), (2, 2, 2, "me"), (3, 3, 3, "me")]
    + [(n, da, db, "random") for n, da, db in [(2, 1, 2), (2, 2, 2), (3, 2, 3), (3, 3, 3)]],
)
def test_effective_operators_match_fold_oracle(rng, n, da, db, kind):
    g = random_game(n, seed=10 * n + da + db)
    a = _contraction(rng, n * da)
    b = _contraction(rng, n * db)
    psi = _state(rng, kind, da, db)
    want_k, want_l = effective_operators_dense(g, a, b, psi, da, db)
    assert np.max(np.abs(heuristics.effective_operator_for_a(g, b, psi) - want_k)) <= 1e-12
    assert np.max(np.abs(heuristics.effective_operator_for_b(g, a, psi) - want_l)) <= 1e-12


def test_seesaw_sizes_checked_before_allocation():
    g = games.t_game(1)
    with pytest.raises(TooLargeError):
        heuristics.me_lower(g, 3000, SMALL)
    with pytest.raises(TooLargeError):
        heuristics.entangled_lower(g, 1, 5000, SMALL)
    with pytest.raises(TooLargeError):  # the state operator is (dA dB)^2
        heuristics.Ladder(g, SMALL).entangled(70, 70)


@pytest.mark.parametrize("n,da,db", [(2, 1, 2), (2, 2, 2), (3, 2, 3), (3, 3, 3)])
def test_state_operator_matches_kronecker_oracle(rng, n, da, db):
    g = random_game(n, seed=10 * n + da + db)
    a = _contraction(rng, n * da)
    b = _contraction(rng, n * db)
    got = heuristics._state_operator(g.m, a, b, n, da, db)
    want = state_operator_dense(g.m, a, b, n, da, db)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_seesaw_decreasing_half_step_raises_typed_error(monkeypatch):
    monkeypatch.setattr(heuristics, "MAX_ITERS", 50)
    g = random_game(2, seed=3)
    b0 = heuristics._spectral_start(g)
    with pytest.raises(SeesawError, match="half-step decreased"):
        heuristics._seesaw(g, heuristics.ONE, b0, decreasing_sign_step())


def test_seesaw_typed_error_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        from conftest import decreasing_sign_step, random_game
        from xorq import heuristics
        from xorq.errors import SeesawError

        heuristics.MAX_ITERS = 50
        g = random_game(2, seed=3)
        b0 = heuristics._spectral_start(g)
        try:
            heuristics._seesaw(g, heuristics.ONE, b0, decreasing_sign_step())
        except SeesawError as exc:
            print("SeesawError", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "half-step decreased" in out.stdout


def test_entangled_state_step_decrease_raises_typed_error(monkeypatch):
    real = heuristics._state_step
    calls = []

    def shrinking(g, a, b, da, db):
        psi, lam = real(g, a, b, da, db)
        calls.append(None)
        return psi, abs(lam) / len(calls)

    monkeypatch.setattr(heuristics, "_state_step", shrinking)
    monkeypatch.setattr(heuristics, "IMPROVEMENT_TOL", 1e-300)
    cfg = heuristics.OptimizerConfig(restarts=1)
    with pytest.raises(SeesawError, match="state step decreased"):
        heuristics.entangled_lower(random_game(2, seed=9), 2, 2, cfg)


def test_effective_operator_hermiticity_check(rng):
    # Game matrices built directly, past games.validate.
    g = random_game(3, seed=4)
    eye = np.eye(3, dtype=complex)
    # M + 0.1i I is not Hermitian, so K of a Hermitian B is not either.
    skew = games.GameMatrix(n=3, m=g.m + 0.1j * np.eye(9))
    with pytest.raises(SeesawError, match="for A lost Hermiticity"):
        heuristics._seesaw(skew, heuristics.ONE, eye, heuristics._sign_step)
    # M + I (x) iE, E Hermitian and traceless, adds I Tr(iE B) = 0 to K at
    # B = I, but iE Tr(A) to L, and Tr(A) != 0 for an observable on C^3.
    e = strategies.random_hermitian(rng, 3)
    e -= np.trace(e) / 3 * eye
    lopsided = games.GameMatrix(n=3, m=g.m + np.kron(eye, 1j * e))
    with pytest.raises(SeesawError, match="for B lost Hermiticity"):
        heuristics._seesaw(lopsided, heuristics.ONE, eye, heuristics._sign_step)
    # The complex class's non-Hermitian parts make no claim on K.
    heuristics._seesaw(g, heuristics.ONE, heuristics._haar_start(0, 1, 3), heuristics._polar_step)


def test_report_ladder_runs_omega_once_with_standalone_values(monkeypatch):
    g = random_game(2, seed=21)
    cfg = heuristics.OptimizerConfig(restarts=3, seed=5)
    standalone = (
        heuristics.omega_lower(g, cfg).value,
        heuristics.omega_c_lower(g, cfg).value,
        heuristics.me_lower(g, 2, cfg).value,
        heuristics.entangled_lower(g, 2, 2, cfg).value,
    )
    real = heuristics.omega_lower
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(heuristics, "omega_lower", counted)
    quantities = cli._parse_quantities("omega,omega-c,me:2,ent:2x2")
    rep = cli.compute_report(g, quantities, 1e-6, cfg.restarts, cfg.seed)
    assert len(calls) == 1
    got = (rep.omega_lower, rep.omega_c_lower, rep.me_lower, rep.entangled_lower)
    assert got == standalone
