import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import decreasing_sign_step, random_game, random_hermitian, random_unitary
from dense import effective_operators_dense, state_operator_dense
import rounding
from xorq import cli, errors, games, heuristics, linalg, strategies
from xorq.errors import BadArgsError, SeesawError, TooLargeError

CFG = heuristics.OptimizerConfig(restarts=10, seed=0)
SMALL = heuristics.OptimizerConfig(restarts=4, seed=0)
ONES = np.ones((1, 1, 1), dtype=complex)  # the stack of one unentangled shared state


def test_effective_operator_classical_diagonal():
    g = games.from_classical(games.chsh())
    b = np.diag([1.0, -1.0]).astype(complex)
    (k,) = heuristics.effective_operator_for_a(g, b[None], ONES)
    want = np.diag(games.chsh() @ np.array([1.0, -1.0]))
    assert np.allclose(k, want)


def test_effective_operator_zero_and_linearity(rng):
    g = random_game(3, seed=5)
    assert np.allclose(heuristics.effective_operator_for_a(g, np.zeros((1, 3, 3)), ONES), 0)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    (k,) = heuristics.effective_operator_for_a(g, b[None], ONES)
    want = np.trace(np.kron(a, b) @ g.m)
    assert abs(np.trace(a @ k) - want) < 1e-10
    (l,) = heuristics.effective_operator_for_b(g, a[None], ONES)
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
        heuristics.Ladder(games.from_classical(games.chsh()), CFG).omega_c().value
        - math.sqrt(2) / 2
    ) <= 1e-4
    assert abs(heuristics.Ladder(games.h_game(1), CFG).omega_c().value - 0.4) <= 1e-3
    zero = games.validate(np.zeros((4, 4)), 2)
    assert abs(heuristics.Ladder(zero, SMALL).omega_c().value) <= 1e-12


def test_me_lower_h1_reaches_five_ninths():
    r = heuristics.Ladder(games.h_game(1), CFG).me(3)
    assert r.value >= 5.0 / 9.0 - 1e-3
    assert abs(strategies.bias(games.h_game(1), r.strategy) - r.value) <= 1e-9


def test_me_lower_d1_reduces_to_omega():
    ladder = heuristics.Ladder(games.h_game(1), SMALL)
    r1 = ladder.me(1)
    r0 = ladder.omega()
    assert abs(r1.value - r0.value) <= 1e-6


def test_me_lower_t4_respects_value():
    r = heuristics.Ladder(games.t_game(4), SMALL).me(4)
    assert r.value <= 0.5 + 1e-6
    assert r.value >= 0.5 - 1e-6  # warm start already achieves 1/sqrt(n)


def test_entangled_lower_t1():
    r = heuristics.Ladder(games.t_game(1), SMALL).entangled(1, 1)
    assert abs(r.value - 1.0) <= 1e-6


def test_entangled_lower_t2_warm_start_dominates_me(monkeypatch):
    monkeypatch.setattr(heuristics, "MAX_ITERS", 25)
    cfg = heuristics.OptimizerConfig(restarts=1, seed=0)
    ladder = heuristics.Ladder(games.t_game(2), cfg)
    rme = ladder.me(3)
    rent = ladder.entangled(9, 9)
    assert rent.value >= rme.value - 1e-6


def test_one_restart_runs_every_class_from_its_warm_start():
    # restarts = 1 draws nothing: each class's drawn stack is empty and
    # restart 0 runs alone.
    g = random_game(3, seed=61)
    cfg = heuristics.OptimizerConfig(restarts=1, seed=0)
    assert [z.shape for z in heuristics._draws(cfg.seed, range(1), (3, 3), (4,))] == [(0, 3, 3), (0, 4)]
    ladder = heuristics.Ladder(g, cfg)
    # dA != dB both ways: the state is dA x dB, and B's contraction takes its transpose.
    results = [ladder.omega(), ladder.omega_c(), ladder.me(2), ladder.entangled(2, 2),
               ladder.entangled(2, 3), ladder.entangled(3, 2)]
    for res, shape in zip(results, [(1, 1), (1, 1), (2, 2), (2, 2), (2, 3), (3, 2)]):
        assert len(res.restart_values) == len(res.restart_iterations) == 1
        assert res.value == res.restart_values[0] > 0
        assert res.strategy.psi.shape == shape
        assert abs(strategies.bias(g, res.strategy) - res.value) <= 1e-9


def test_draws_take_each_restart_from_its_own_stream_in_order():
    cfg = heuristics.OptimizerConfig(restarts=4, seed=9)
    x, y = heuristics._draws(cfg.seed, range(cfg.restarts), (2, 2), (3,))
    assert x.shape == (3, 2, 2) and y.shape == (3, 3)
    for r in range(1, 4):
        rng = np.random.default_rng((9, r))
        for got, shape in ((x, (2, 2)), (y, (3,))):
            want = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(got[r - 1], want)


def test_half_steps_are_exactly_optimal(rng):
    g = random_game(3, seed=31)
    r = heuristics.omega_lower(g, SMALL)
    a, b = r.strategy.a, r.strategy.b
    (k,) = heuristics.effective_operator_for_a(g, b[None], ONES)
    val = float(np.real(np.trace(a @ k)))
    for trial in range(1000):
        cand = linalg.sign_of_hermitian(random_hermitian(rng, 3))
        assert np.real(np.trace(cand @ k)) <= val + 1e-9
    # perturbed contenders around the optimum do no better either
    for trial in range(200):
        pert = a + 0.05 * random_hermitian(rng, 3)
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
    e1 = heuristics.Ladder(g, SMALL).entangled(2, 2)
    e2 = heuristics.Ladder(g, SMALL).entangled(2, 2)
    assert e1.value == e2.value
    assert np.array_equal(e1.strategy.psi, e2.strategy.psi)


def test_chain_monotonicity_on_corpus():
    for seed in range(6):
        ladder = heuristics.Ladder(random_game(2, seed=500 + seed), SMALL)
        om = ladder.omega().value
        oc = ladder.omega_c().value
        me = ladder.me(2).value
        assert om <= oc + 1e-6
        assert oc <= me + 1e-6  # even d: one shared qubit pair replays omega_c


def test_round_complex_real_signed_fixed_point():
    # optimal real-signed input: x1 y1 / 2 - x2 y2 / 2 maximized by these signs
    g = games.from_classical(np.array([[0.5, 0.0], [0.0, -0.5]]))
    a = np.diag([1.0, 1.0]).astype(complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    out = rounding.round_complex_to_real(g, strategies.Strategy(a, b, ONES[0], hermitian=False))
    assert np.allclose(out.a, a) and np.allclose(out.b, b)
    assert abs(strategies.bias(g, out) - 1.0) <= 1e-12


def test_round_complex_to_real_chsh():
    g = games.from_classical(games.chsh())
    rc = heuristics.Ladder(g, CFG).omega_c()
    out = rounding.round_complex_to_real(g, rc.strategy)
    val = strategies.bias(g, out)
    assert val >= rc.value / math.sqrt(2) - 1e-6
    assert val >= 0.5 - 1e-6


def test_round_complex_to_real_h1_and_corpus():
    g = games.h_game(1)
    out = rounding.round_complex_to_real(g, strategies.h1_unentangled_strategy())
    assert strategies.bias(g, out) >= 0.4 / math.sqrt(2) - 1e-9
    for seed in range(6):
        gg = random_game(2, seed=800 + seed)
        rc = heuristics.Ladder(gg, SMALL).omega_c()
        out = rounding.round_complex_to_real(gg, rc.strategy)
        assert strategies.bias(gg, out) >= rc.value / math.sqrt(2) - 1e-6


def test_optimizer_config_validation():
    with pytest.raises(BadArgsError, match="restarts"):
        heuristics.OptimizerConfig(restarts=0, seed=0)
    with pytest.raises(BadArgsError, match="seed"):
        heuristics.OptimizerConfig(restarts=50, seed=-1)


def _contraction(rng, dim):
    h = random_hermitian(rng, dim)
    return h / linalg.op_norm(h)


def _state(rng, kind, da, db):
    if kind == "one":
        return ONES[0]
    if kind == "me":
        return linalg.max_entangled_state(da)
    psi = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
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
    want_k, want_l = effective_operators_dense(g, a, b, psi)
    (k,) = heuristics.effective_operator_for_a(g, b[None], psi[None])
    (l,) = heuristics.effective_operator_for_b(g, a[None], psi[None])
    assert np.max(np.abs(k - want_k)) <= 1e-12
    assert np.max(np.abs(l - want_l)) <= 1e-12


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("n,da,db,kind", [(2, 1, 1, "one"), (3, 2, 2, "me"), (3, 2, 3, "ent")])
def test_stacked_effective_operators_match_fold_oracle(rng, restarts, n, da, db, kind):
    g = random_game(n, seed=10 * n + da + db)
    a = np.stack([_contraction(rng, n * da) for _ in range(restarts)])
    b = np.stack([_contraction(rng, n * db) for _ in range(restarts)])
    # One state per part: the same state for the unentangled and maximally
    # entangled classes, as the see-saw tiles it, and the entangled class's own.
    psi = (np.stack([_state(rng, "random", da, db) for _ in range(restarts)])
           if kind == "ent" else np.tile(_state(rng, kind, da, db), (restarts, 1, 1)))
    k = heuristics.effective_operator_for_a(g, b, psi)
    l = heuristics.effective_operator_for_b(g, a, psi)
    assert k.shape == (restarts, n * da, n * da) and l.shape == (restarts, n * db, n * db)
    for r in range(restarts):
        want_k, want_l = effective_operators_dense(g, a[r], b[r], psi[r])
        assert np.max(np.abs(k[r] - want_k)) <= 1e-12
        assert np.max(np.abs(l[r] - want_l)) <= 1e-12


@pytest.mark.parametrize(
    "psi",
    # The flat stack holds one state per part, each as a vector of dA*dB entries.
    [np.ones((2, 1, 1), dtype=complex), np.ones((3, 1), dtype=complex)],
    ids=["two-states-for-three-parts", "one-flat-state"],
)
def test_effective_operators_take_one_state_per_part(rng, psi):
    g = random_game(2, seed=12)
    parts = np.stack([_contraction(rng, 2) for _ in range(3)])
    for half_step in (heuristics.effective_operator_for_a, heuristics.effective_operator_for_b):
        with pytest.raises(errors.DimensionMismatchError, match="operator or state incompatible"):
            half_step(g, parts, psi)


@pytest.mark.parametrize(
    "game",
    [lambda: random_game(2, seed=41), lambda: random_game(3, seed=42),
     lambda: games.t_game(3), lambda: games.h_game(1)],
    ids=["random2", "random3", "T3", "H1"],
)
def test_restart_values_do_not_depend_on_the_stack(monkeypatch, game):
    """Each restart of an R = 5 stack gives the value and iteration count of
    its own R = 1 run, in every class of the ladder."""
    real = heuristics._seesaw
    runs = []

    def recording(g, psi, b, step, free_state=False):
        out = real(g, psi, b, step, free_state)
        runs.append((g, psi, b, step, free_state, out))
        return out

    monkeypatch.setattr(heuristics, "_seesaw", recording)
    ladder = heuristics.Ladder(game(), heuristics.OptimizerConfig(restarts=5, seed=3))
    results = [ladder.omega(), ladder.omega_c(), ladder.me(2), ladder.entangled(2, 2)]
    assert len(runs) == 4
    for res, (g, psi, b, step, free_state, (values, _, iters)) in zip(results, runs):
        assert res.restart_values == tuple(values) and len(values) == 5
        assert res.restart_iterations == tuple(iters)
        assert res.iterations_used == sum(res.restart_iterations)
        for r in range(5):
            alone, _, alone_iters = real(g, psi[r : r + 1], b[r : r + 1], step, free_state)
            assert abs(alone[0] - values[r]) <= 1e-12 * max(1.0, abs(values[r]))
            assert alone_iters[0] == iters[r]


def _rule_stop(values, cap, stack):
    """The restarts the stopping rule runs, given every value of a one-stack
    run: the first multiple of stack (or the cap) by which MATCHES values lie
    within IMPROVEMENT_TOL of the best so far."""
    for k in [*range(stack, cap, stack), cap]:
        best = max(values[:k])
        if sum(v >= best - heuristics.IMPROVEMENT_TOL for v in values[:k]) >= heuristics.MATCHES:
            return k
    return cap


def _assert_same_result(got, want):
    assert got.restart_values == want.restart_values
    assert got.restart_iterations == want.restart_iterations
    assert got.strategy.hermitian == want.strategy.hermitian
    for x, y in zip((got.strategy.a, got.strategy.b, got.strategy.psi),
                    (want.strategy.a, want.strategy.b, want.strategy.psi)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("restarts", [1, 8, 9, 16, 50])
@pytest.mark.parametrize(
    "game",
    [lambda: games.t_game(3), lambda: games.h_game(1), lambda: random_game(3, seed=43)],
    ids=["T3", "H1", "random3"],
)
def test_stacked_restarts_stop_by_the_rule(monkeypatch, game, restarts):
    """Each class's values are the first k of a one-stack run's values, with
    k the first multiple of STACK (or the cap) at which MATCHES values reach
    the best; at most one stack gives the one-stack result, bit for bit.

    Across stacks the values agree to 1e-12, not bit for bit: the matrix
    product of A's effective operator sums a column in an order that can
    depend on how many restarts are live, on complex games (random3)."""
    g = game()
    cfg = heuristics.OptimizerConfig(restarts=restarts, seed=0)
    ladder = heuristics.Ladder(g, cfg)
    staged = [ladder.omega(), ladder.omega_c(), ladder.me(2), ladder.entangled(2, 2)]
    # The one-stack run of each class, from the staged run's warm starts.
    stack = heuristics.STACK
    monkeypatch.setattr(heuristics, "STACK", restarts)
    om, oc, me, _ = staged
    whole = [
        heuristics.omega_lower(g, cfg),
        heuristics.omega_c_lower(g, cfg, om),
        heuristics.me_lower(g, 2, cfg, om, oc),
        heuristics.entangled_lower(g, 2, 2, cfg, me),
    ]
    for got, want in zip(staged, whole):
        assert len(want.restart_values) == restarts
        k = _rule_stop(want.restart_values, restarts, stack)
        assert len(got.restart_values) == k
        assert np.allclose(got.restart_values, want.restart_values[:k], rtol=1e-12, atol=1e-12)
        assert got.restart_iterations == want.restart_iterations[:k]
        if restarts <= stack:
            _assert_same_result(got, want)


def test_stopping_rule_keeps_the_t_family_optimum():
    # Restart 0 of omega, B = I, is a stationary point of value 0 on T_n:
    # the rule must run on until drawn restarts reach 1/sqrt(n).
    cfg = heuristics.OptimizerConfig(restarts=50, seed=0)
    for n in (2, 3, 4):
        res = heuristics.omega_lower(games.t_game(n), cfg)
        assert abs(res.value - 1.0 / math.sqrt(n)) <= 1e-6
        assert len(res.restart_values) < 50


def test_seesaw_sizes_checked_before_allocation():
    g = games.t_game(1)
    with pytest.raises(TooLargeError, match="dense cap"):
        heuristics.Ladder(g, SMALL).me(3000)
    with pytest.raises(TooLargeError, match="dense cap"):
        heuristics.Ladder(g, SMALL).entangled(1, 5000)
    with pytest.raises(TooLargeError, match="dense cap"):  # the state operator is (dA dB)^2
        heuristics.Ladder(g, SMALL).entangled(70, 70)



def test_ladder_checks_the_stack_of_restarts_before_any_start(monkeypatch):
    # Each class holds restarts x side^2 entries: side n for omega and
    # omega-c, n d for me:d and max(n dA, n dB, dA dB) for ent:dA x dB. One
    # restart more than the cap allows fails; at the cap the class runs,
    # here into a stand-in that draws nothing.
    def never(*args):
        raise AssertionError("a class ran")

    for name in ("omega_lower", "omega_c_lower", "me_lower", "entangled_lower"):
        monkeypatch.setattr(heuristics, name, never)
    g = games.from_classical(games.chsh())  # n = 2
    cap = errors.DENSE_AMPLITUDE_CAP
    for side, run in (
        (2, lambda ladder: ladder.omega()),
        (2, lambda ladder: ladder.omega_c()),
        (6, lambda ladder: ladder.me(3)),
        (10, lambda ladder: ladder.entangled(2, 5)),
    ):
        over = heuristics.Ladder(g, heuristics.OptimizerConfig(restarts=cap // side**2 + 1, seed=0))
        with pytest.raises(TooLargeError, match="dense cap"):
            run(over)
        at = heuristics.Ladder(g, heuristics.OptimizerConfig(restarts=cap // side**2, seed=0))
        with pytest.raises(AssertionError, match="a class ran"):
            run(at)


@pytest.mark.parametrize("n,da,db", [(2, 1, 2), (2, 2, 2), (3, 2, 3), (3, 3, 3)])
def test_state_operator_matches_kronecker_oracle(rng, n, da, db):
    g = random_game(n, seed=10 * n + da + db)
    a = _contraction(rng, n * da)
    b = _contraction(rng, n * db)
    got = heuristics._state_operator(g, np.stack([a, a.T]), np.stack([b, b.T]))
    for r, (ar, br) in enumerate([(a, b), (a.T, b.T)]):
        want = state_operator_dense(g.m, ar, br, n, da, db)
        assert np.max(np.abs(got[r] - want)) <= 1e-12


def test_seesaw_decreasing_half_step_raises_typed_error(monkeypatch):
    monkeypatch.setattr(heuristics, "MAX_ITERS", 50)
    g = random_game(2, seed=3)
    b0 = np.eye(g.n, dtype=complex)
    with pytest.raises(SeesawError, match="half-step decreased in restart 0"):
        heuristics._seesaw(g, ONES, b0[None], decreasing_sign_step())


def test_seesaw_typed_error_survives_python_O():
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from conftest import decreasing_sign_step, random_game
        from xorq import heuristics
        from xorq.errors import SeesawError

        heuristics.MAX_ITERS = 50
        g = random_game(2, seed=3)
        b0 = np.eye(g.n, dtype=complex)
        try:
            heuristics._seesaw(g, np.ones((1, 1, 1)), b0[None], decreasing_sign_step())
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

    def shrinking(g, a, b):
        psi, lam = real(g, a, b)
        calls.append(None)
        return psi, np.abs(lam) / len(calls)

    monkeypatch.setattr(heuristics, "_state_step", shrinking)
    monkeypatch.setattr(heuristics, "IMPROVEMENT_TOL", 1e-300)
    cfg = heuristics.OptimizerConfig(restarts=1, seed=0)
    with pytest.raises(SeesawError, match="state step decreased"):
        heuristics.Ladder(random_game(2, seed=9), cfg).entangled(2, 2)


def test_effective_operator_hermiticity_check(rng):
    # Game matrices built directly, past games.validate.
    g = random_game(3, seed=4)
    eye = np.eye(3, dtype=complex)
    # M + 0.1i I is not Hermitian, so K of a Hermitian B is not either.
    skew = games.GameMatrix(n=3, m=g.m + 0.1j * np.eye(9))
    # It adds 0.1i Tr(B) I to K: Hermitian for the traceless start of
    # restart 0, not for restart 1's B = I.
    one = np.ones((2, 1, 1), dtype=complex)
    traceless = np.diag([1.0, -1.0, 0.0]).astype(complex)
    with pytest.raises(SeesawError, match="for A lost Hermiticity in restart 1"):
        heuristics._seesaw(skew, one, np.stack([traceless, eye]), heuristics._sign_step)
    # M + I (x) iE, E Hermitian and traceless, adds I Tr(iE B) = 0 to K at
    # B = I, but iE Tr(A) to L, and Tr(A) != 0 for an observable on C^3.
    e = random_hermitian(rng, 3)
    e -= np.trace(e) / 3 * eye
    lopsided = games.GameMatrix(n=3, m=g.m + np.kron(eye, 1j * e))
    with pytest.raises(SeesawError, match="for B lost Hermiticity in restart 0"):
        heuristics._seesaw(lopsided, one, np.stack([eye, eye]), heuristics._sign_step)
    # The complex class's non-Hermitian parts make no claim on K.
    haar = np.stack([random_unitary(rng, 3) for _ in range(2)])
    heuristics._seesaw(g, one, haar, heuristics._polar_step)


def test_report_ladder_runs_omega_once_with_standalone_values(monkeypatch):
    g = random_game(2, seed=21)
    cfg = heuristics.OptimizerConfig(restarts=3, seed=5)
    # One fresh ladder per class recomputes that class's predecessors.
    standalone = (
        heuristics.Ladder(g, cfg).omega().value,
        heuristics.Ladder(g, cfg).omega_c().value,
        heuristics.Ladder(g, cfg).me(2).value,
        heuristics.Ladder(g, cfg).entangled(2, 2).value,
    )
    real = heuristics.omega_lower
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(heuristics, "omega_lower", counted)
    quantities = cli._parse_quantities("omega,omega-c,me:2,ent:2x2")
    rep = cli.compute_report(g, quantities, 1e-6, cfg.restarts, cfg.seed, "game")
    assert len(calls) == 1
    got = (rep.omega_lower, rep.omega_c_lower, rep.me_lower, rep.entangled_lower)
    assert got == standalone
