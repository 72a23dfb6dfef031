"""Heuristic lower bounds on the biases via alternating maximization.

Every class maximizes one form, Tr((A (x) B)(M (x) |psi><psi|)), where psi,
kept as its dA x dB coefficient matrix as in strategies.Strategy, is [[1]]
(unentangled and complex classes), the maximally entangled state I/sqrt(d)
(me:d) or a free unit state (ent:dA x dB). The form is linear in each
player's operator (and in psi's density matrix), so each block subproblem
has an exact closed-form maximizer: the spectral sign of the effective
operator for Hermitian classes, its polar unitary for the complex class,
and a top eigenvector for the state. The effective operators are the
contraction that strategies.bias evaluates the form with
(strategies.effective_operator_for_a/_b).

One see-saw loop (_seesaw) alternates these steps for every class, and it
runs all cfg.restarts restarts of a class as one stack: operators (R, s, s)
and shared states (R, dA, dB), the layout of the record throughout. Each
half-step is one stacked contraction, a matrix product with the game's
realigned M (GameMatrix.realigned), and one stacked sign or polar step.
Each restart keeps its own stop rule, MAX_ITERS cap, monotonicity checks
and iteration count; once it stops, its A, B, psi and value stay frozen and
later half-steps run only on the restarts still live. So a restart's value
does not depend on the stack it ran in. A sign step checks each effective
operator of the stack for Hermiticity once, against its own norm, within
linalg.HERMITICITY_RTOL, and symmetrizes it (linalg.check_hermitian); a
failure is a SeesawError naming the player and the restart.

Restart 0 is a deterministic warm start: the previous class's optimum
embedded, or B = I for the unentangled class, which has none. Restart r of
1..k-1 starts from complex Gaussian arrays drawn from the stream (seed, r)
(_draws), and each class maps the whole drawn stack with one call: the
spectral sign of the Hermitian parts, Haar unitaries from one stacked SVD
for the complex class, and unit states for ent's psi. _run_restarts builds
every class's result: the best restart's Strategy with every restart's
value and iteration count. Ladder is the only code that chains the classes:
omega_c_lower, me_lower and entangled_lower take their predecessors'
results as arguments, and Ladder computes each class once and hands it on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadArgsError,
    NotHermitianError,
    SeesawError,
    check_dense,
)
from .games import GameMatrix
from .strategies import Strategy, effective_operator_for_a, effective_operator_for_b

MONOTONE_SLACK = 1e-10
MAX_ITERS = 500  # see-saw iterations per restart
IMPROVEMENT_TOL = 1e-9  # a restart stops once an iteration gains less


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int
    seed: int

    def __post_init__(self):
        if self.restarts < 1:
            raise BadArgsError("restarts must be >= 1")
        if self.seed < 0:
            raise BadArgsError("seed must be >= 0")


@dataclass(frozen=True)
class HeuristicResult:
    strategy: Strategy  # the best restart's
    restart_values: tuple[float, ...]
    restart_iterations: tuple[int, ...]

    @property
    def value(self) -> float:
        return max(self.restart_values)

    @property
    def iterations_used(self) -> int:
        return sum(self.restart_iterations)


def _half_step(step, k: np.ndarray, player: str, live: np.ndarray) -> np.ndarray:
    """step(k) on the stack k of the live restarts, where a K that the sign
    step's check rejects is a SeesawError naming the player and the restart:
    a Hermitian part in a validated game gives a Hermitian K."""
    try:
        return step(k)
    except NotHermitianError as exc:
        raise SeesawError(
            f"effective operator for {player} lost Hermiticity in restart {live[exc.index]}"
        ) from None


def _check_monotone(value: np.ndarray, prev: np.ndarray, what: str, live: np.ndarray):
    # A NaN value compares false, so it fails too.
    ok = value >= prev - MONOTONE_SLACK * np.maximum(1.0, np.abs(prev))
    if not ok.all():
        i = int(np.argmin(ok))
        raise SeesawError(
            f"{what} in restart {live[i]}: {float(value[i])!r} after {float(prev[i])!r}"
        )


def _form(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Re Tr(A_r K_r) for each r of the two stacks."""
    return np.real(np.trace(a @ k, axis1=1, axis2=2))


def _seesaw(g: GameMatrix, psi: np.ndarray, b: np.ndarray, step, free_state: bool = False):
    """Alternate exact half-steps from every initial B of the stack b
    (R, s, s) at once, restart r with the state psi[r] of the stack psi
    (R, dA, dB); with free_state, each iteration then also takes the optimal
    state step.

    Each restart keeps its own stop rule and MAX_ITERS cap: once it stops,
    its A, B, psi and value stay frozen and later half-steps run only on
    the restarts still live. Monotone and Hermiticity-preserving by
    construction, and checked per restart: the sign step checks each
    effective operator once (linalg.check_hermitian).
    Returns (values (R,), (A, B, psi) stacks, iterations per restart (R,))."""
    b, psi = b.copy(), psi.copy()
    restarts = b.shape[0]
    prev = np.full(restarts, -np.inf)
    iters = np.zeros(restarts, dtype=int)
    live = np.arange(restarts)
    a = None
    for _ in range(MAX_ITERS):
        k = effective_operator_for_a(g, b[live], psi[live])
        a_live = _half_step(step, k, "A", live)
        val_a = _form(a_live, k)
        _check_monotone(val_a, prev[live], "half-step decreased", live)
        l = effective_operator_for_b(g, a_live, psi[live])
        b[live] = _half_step(step, l, "B", live)
        value = _form(b[live], l)
        _check_monotone(value, val_a, "half-step decreased", live)
        if free_state:
            psi[live], lam = _state_step(g, a_live, b[live])
            flip = lam < 0  # play -A, so the bias is |lam|
            a_live[flip] = -a_live[flip]
            lam = np.where(flip, -lam, lam)
            _check_monotone(lam, value, "state step decreased |bias|", live)
            value = lam
        if a is None:  # every restart is live in the first iteration
            a = a_live
        else:
            a[live] = a_live
        iters[live] += 1
        stopped = value - prev[live] < IMPROVEMENT_TOL
        prev[live] = value
        live = live[~stopped]
        if not live.size:
            break
    return prev, (a, b, psi), iters


def _run_restarts(
    g: GameMatrix, b0: np.ndarray, psi: np.ndarray, hermitian: bool, free_state: bool = False
) -> HeuristicResult:
    """The see-saw from every start (b0[r], psi[r]) as one stack, with the
    sign step, or the polar step when hermitian is False (each looked up
    per call). The result's strategy is the best run's."""
    step = _sign_step if hermitian else _polar_step
    values, finals, iters = _seesaw(g, psi, b0, step, free_state)
    strategy = Strategy(*(x[int(np.argmax(values))] for x in finals), hermitian)
    return HeuristicResult(strategy, tuple(values.tolist()), tuple(iters.tolist()))


def _sign_step(k: np.ndarray) -> np.ndarray:
    return linalg.sign_of_hermitian(k)


def _polar_step(k: np.ndarray) -> np.ndarray:
    return linalg.polar_unitary(k)


def _draws(cfg: OptimizerConfig, *shapes) -> list[np.ndarray]:
    """The complex Gaussian starts of restarts 1..k-1, one stack (k-1,
    *shape) per shape: restart r draws one array of each shape in turn from
    the stream (seed, r), its real part and then its imaginary part."""
    stacks = [np.empty((cfg.restarts - 1, *shape), dtype=complex) for shape in shapes]
    for r in range(1, cfg.restarts):
        rng = np.random.default_rng((cfg.seed, r))
        for stack in stacks:
            shape = stack.shape[1:]
            stack[r - 1] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return stacks


def _observables(warm: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The stack of B starts: `warm`, then the spectral sign of each
    Hermitian part of the draws z."""
    return np.concatenate([warm[None], linalg.sign_of_hermitian(linalg.hermitian_part(z))])


def omega_lower(g: GameMatrix, cfg: OptimizerConfig) -> HeuristicResult:
    """Lower bound on the unentangled bias via sign-step see-saw, restart 0
    from B = I."""
    (z,) = _draws(cfg, (g.n, g.n))
    b0 = _observables(np.eye(g.n, dtype=complex), z)
    return _run_restarts(g, b0, np.ones((cfg.restarts, 1, 1), dtype=complex), True)


def omega_c_lower(
    g: GameMatrix, cfg: OptimizerConfig, omega: HeuristicResult
) -> HeuristicResult:
    """Lower bound on the complex bias via polar-step see-saw, warm-started
    from the unentangled optimum `omega` (so it never falls below it).
    Restarts 1..k-1 start from the Haar unitaries U V^dagger of the draws'
    SVDs: Hermitian starts cannot leave the real fixed subspace of diagonal
    games, so relative phases must come from the start itself."""
    (z,) = _draws(cfg, (g.n, g.n))
    u, _, v = linalg.svd(z)
    b0 = np.concatenate([omega.strategy.b[None], u @ linalg.dagger(v)])
    return _run_restarts(g, b0, np.ones((cfg.restarts, 1, 1), dtype=complex), False)


def _epr_embed(op: np.ndarray, d: int) -> np.ndarray:
    """Embed a complex contraction as a Hermitian contraction on message (x)
    C^d for even d, playing it on half of one shared qubit pair."""
    flip = np.zeros((2, 2), dtype=complex)
    flip[0, 1] = 1.0
    tilde = np.kron(np.kron(op, flip), np.eye(d // 2))
    return tilde + tilde.conj().T


def me_lower(
    g: GameMatrix,
    d: int,
    cfg: OptimizerConfig,
    omega: HeuristicResult,
    omega_c: HeuristicResult | None,
) -> HeuristicResult:
    """Lower bound on the maximally entangled bias at dimension d.

    Restart 0 starts from the better of the unentangled optimum `omega` and,
    for even d, the complex optimum `omega_c` played on shared qubit pairs
    (None for odd d). Ladder.me checks d first.
    """
    n = g.n
    psi = linalg.max_entangled_state(d)

    warm = [np.kron(omega.strategy.b, np.eye(d))]
    if d % 2 == 0:
        warm.append(_epr_embed(omega_c.strategy.b, d))
    # one half-step of each, all with the maximally entangled state
    k = effective_operator_for_a(g, np.stack(warm), np.tile(psi, (len(warm), 1, 1)))
    best_warm = warm[int(np.argmax(_form(_sign_step(k), k)))]
    (z,) = _draws(cfg, (n * d, n * d))
    return _run_restarts(g, _observables(best_warm, z), np.tile(psi, (cfg.restarts, 1, 1)), True)


def _state_operator(g: GameMatrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T_r = Tr_msg((A_r (x) B_r)(M (x) I)) on C^dA (x) C^dB for each r of the
    stacks a (R, n*dA, n*dA) and b (R, n*dB, n*dB):
    T[(a, b), (c, d)] = sum A[(i, a), (k, c)] B[(j, b), (l, d)] M[(k, l), (i, j)].

    Two matrix products: U = R B over (j, l) with R = g.realigned, as in
    strategies.effective_operator_for_a, then T = A U over (i, k) per r.
    """
    n, r = g.n, a.shape[0]
    da, db = a.shape[-1] // n, b.shape[-1] // n
    bm = b.reshape(r, n, db, n, db).transpose(1, 3, 0, 2, 4).reshape(n * n, -1)
    u = (g.realigned @ bm).reshape(n, n, r, db * db).transpose(2, 1, 0, 3)
    am = a.reshape(r, n, da, n, da).transpose(0, 2, 4, 1, 3).reshape(r, da * da, n * n)
    t = (am @ u.reshape(r, n * n, db * db)).reshape(r, da, da, db, db)
    return t.transpose(0, 1, 3, 2, 4).reshape(r, da * db, da * db)


def _top_state(w: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, float]:
    """The top eigenvector by magnitude of one eigendecomposition, with a
    fixed tie-break and phase convention (largest entry real positive)."""
    top = float(np.max(np.abs(w)))
    cands = []
    for lam, vec in zip(w, vecs.T):
        if abs(abs(lam) - top) <= 1e-12 * max(1.0, top):
            j = int(np.argmax(np.abs(vec)))
            phase = vec[j] / abs(vec[j]) if abs(vec[j]) > 0 else 1.0
            fixed = vec / phase
            cands.append((tuple(np.round(fixed, 12).view(float)), float(lam), fixed))
    cands.sort(key=lambda c: c[0])
    _, lam, vec = cands[0]
    return vec, lam


def _state_step(g: GameMatrix, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal shared state for fixed operators, for each r of the stacks:
    the top eigenvector by magnitude of T_r = Tr_msg((A_r (x) B_r)(M (x) I))
    (_top_state). Returns the stacks (psi (R, dA, dB), lambda (R,))."""
    w, vecs = np.linalg.eigh(linalg.hermitian_part(_state_operator(g, a, b)))
    tops = [_top_state(wr, vr) for wr, vr in zip(w, vecs)]
    psi = np.array([vec for vec, _ in tops]).reshape(a.shape[0], a.shape[-1] // g.n, -1)
    return psi, np.array([lam for _, lam in tops])


def entangled_lower(
    g: GameMatrix, da: int, db: int, cfg: OptimizerConfig, me: HeuristicResult
) -> HeuristicResult:
    """Lower bound on the entangled bias: three-block see-saw over A, B,
    and the shared state, monotone in |bias|.

    Restart 0 starts from the maximally entangled optimum `me` at
    min(da, db), embedded. Ladder.entangled checks the dimensions first.
    """
    n = g.n
    dm = min(da, db)
    ea = np.eye(da, dtype=complex)[:, :dm]
    eb = np.eye(db, dtype=complex)[:, :dm]
    lift_b = np.kron(np.eye(n), eb)
    warm_b = lift_b @ me.strategy.b @ lift_b.conj().T
    warm_psi = ea @ linalg.max_entangled_state(dm) @ eb.T

    # A's draw is unused: the first half-step replaces A. Each state is
    # normalized alone: an axis= norm sums in another order, in other bits.
    _, zb, zpsi = _draws(cfg, (n * da, n * da), (n * db, n * db), (da, db))
    norms = np.array([np.linalg.norm(z) for z in zpsi]).reshape(-1, 1, 1)
    psi0 = np.concatenate([warm_psi[None], zpsi / norms])
    return _run_restarts(g, _observables(warm_b, zb), psi0, True, free_state=True)


class Ladder:
    """The see-saw ladder of one game at one config:
    omega -> omega_c -> me:d -> ent:dA x dB.

    The only code that chains the classes. Each class is computed at most
    once (me once per d) and handed to the next class as its warm start, so
    a report that asks for every class runs omega_lower once. Each class
    checks its stack of restarts x side^2 entries against the dense cap, and
    the dimensions of me and ent are checked before any class runs. Create one
    per report; it holds the results until it is dropped.
    """

    def __init__(self, g: GameMatrix, cfg: OptimizerConfig):
        self.g = g
        self.cfg = cfg
        self._omega = None
        self._omega_c = None
        self._me = {}

    def _check_stack(self, side: int):
        """check_dense for the stack of all restarts' operators of this side,
        before any start is drawn."""
        restarts = self.cfg.restarts
        check_dense(restarts * side * side, f"a stack of {restarts} operators of side {side}")

    def omega(self) -> HeuristicResult:
        if self._omega is None:
            self._check_stack(self.g.n)
            self._omega = omega_lower(self.g, self.cfg)
        return self._omega

    def omega_c(self) -> HeuristicResult:
        if self._omega_c is None:
            self._check_stack(self.g.n)
            self._omega_c = omega_c_lower(self.g, self.cfg, self.omega())
        return self._omega_c

    def me(self, d: int) -> HeuristicResult:
        if d < 1:
            raise BadArgsError("d must be >= 1")
        self._check_stack(self.g.n * d)
        if d not in self._me:
            omega_c = self.omega_c() if d % 2 == 0 else None
            self._me[d] = me_lower(self.g, d, self.cfg, self.omega(), omega_c)
        return self._me[d]

    def entangled(self, da: int, db: int) -> HeuristicResult:
        if da < 1 or db < 1:
            raise BadArgsError("dimensions must be >= 1")
        self._check_stack(max(self.g.n * da, self.g.n * db, da * db))
        return entangled_lower(self.g, da, db, self.cfg, self.me(min(da, db)))
