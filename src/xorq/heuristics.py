"""Heuristic lower bounds on the biases via alternating maximization.

Every class maximizes one form, Tr((A (x) B)(M (x) |psi><psi|)), where psi
is the scalar 1 (unentangled and complex classes), the maximally entangled
state (me:d) or a free unit state (ent:dA x dB). The form is linear in each
player's operator (and in psi's density matrix), so each block subproblem
has an exact closed-form maximizer: the spectral sign of the effective
operator for Hermitian classes, its polar unitary for the complex class,
and a top eigenvector for the state. The effective operators are the
contraction that strategies.bias evaluates the form with
(strategies.effective_operator_for_a/_b). One see-saw loop alternates
these steps for every class; one deterministic multi-restart driver takes
the best value.

Restart 0 is a deterministic warm start (the previous class's optimum
embedded, where one exists); restarts 1..k-1 draw Gaussian Hermitian
starts seeded by (seed, restart index).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import (
    DENSE_AMPLITUDE_CAP,
    BadArgsError,
    SeesawError,
    TooLargeError,
)
from .games import GameMatrix
from .strategies import (
    ONE,
    ComplexStrategy,
    EntangledStrategy,
    MaxEntangledStrategy,
    Strategy,
    UnentangledStrategy,
    effective_operator_for_a,
    effective_operator_for_b,
    random_hermitian,
)

MONOTONE_SLACK = 1e-10
MAX_ITERS = 500  # see-saw iterations per restart
IMPROVEMENT_TOL = 1e-9  # a restart stops once an iteration gains less


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise BadArgsError("restarts must be >= 1")


@dataclass(frozen=True)
class HeuristicResult:
    value: float
    strategy: Strategy
    iterations_used: int
    restart_values: tuple[float, ...]


def _is_hermitian(x: np.ndarray) -> bool:
    """||x - x^dagger||_F <= 1e-9 max(1, ||x||_F), squared (vdot beats norm here)."""
    d = x - x.conj().T
    return np.vdot(d, d).real <= 1e-18 * max(1.0, np.vdot(x, x).real)


def _check_hermitian(part: np.ndarray, k: np.ndarray, player: str):
    """SeesawError when a Hermitian part gave a non-Hermitian effective
    operator, which a validated (Hermitian) game matrix never does."""
    if _is_hermitian(part) and not _is_hermitian(k):
        raise SeesawError(f"effective operator for {player} lost Hermiticity")


def _check_monotone(value: float, prev: float, what: str):
    # Written as "not >=" so that a NaN value fails too.
    if not value >= prev - MONOTONE_SLACK * max(1.0, abs(prev)):
        raise SeesawError(f"{what}: {value!r} after {prev!r}")


def _check_size(*sides: int):
    """TooLargeError when a dense see-saw operator of one of these sides
    would exceed the package's dense cap; called before any allocation."""
    side = max(sides)
    if side * side > DENSE_AMPLITUDE_CAP:
        raise TooLargeError(f"see-saw operator of side {side} exceeds the dense cap 2^24")


def _seesaw(g: GameMatrix, psi, b0, step, dims=None):
    """Alternate exact half-steps from an initial B; with dims = (dA, dB),
    each iteration then also takes the optimal state step (a free psi).
    Monotone and Hermiticity-preserving by construction, and checked.
    Returns (value, (A, B, psi), iterations)."""
    b = b0
    prev = -np.inf
    for it in range(MAX_ITERS):
        k = effective_operator_for_a(g, b, psi)
        _check_hermitian(b, k, "A")
        a = step(k)
        val_a = float(np.real(np.trace(a @ k)))
        _check_monotone(val_a, prev, "half-step decreased")
        l = effective_operator_for_b(g, a, psi)
        _check_hermitian(a, l, "B")
        b = step(l)
        value = float(np.real(np.trace(b @ l)))
        _check_monotone(value, val_a, "half-step decreased")
        if dims is not None:
            psi, lam = _state_step(g, a, b, *dims)
            if lam < 0:  # play -A, so the bias is |lam|
                a = -a
                lam = -lam
            _check_monotone(lam, value, "state step decreased |bias|")
            value = lam
        if value - prev < IMPROVEMENT_TOL:
            break
        prev = value
    return value, (a, b, psi), it + 1


def _run_restarts(g: GameMatrix, starts, step, cfg, dims=None):
    """The see-saw from each start (B, psi) = starts(r), r < cfg.restarts.
    Returns (restart values, the best run's (A, B, psi), total iterations)."""
    values, finals = [], []
    total_iters = 0
    for r in range(cfg.restarts):
        b0, psi = starts(r)
        value, final, iters = _seesaw(g, psi, b0, step, dims)
        values.append(value)
        finals.append(final)
        total_iters += iters
    return values, finals[int(np.argmax(values))], total_iters


def _sign_step(k: np.ndarray) -> np.ndarray:
    return linalg.sign_of_hermitian(linalg.hermitian_part(k))


def _polar_step(k: np.ndarray) -> np.ndarray:
    return linalg.polar_unitary(k)


def _gaussian_start(seed: int, restart: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng((seed, restart))
    return linalg.sign_of_hermitian(random_hermitian(rng, dim))


def _haar_start(seed: int, restart: int, dim: int) -> np.ndarray:
    """Haar unitary start for the complex class. Hermitian starts cannot
    leave the real fixed subspace of diagonal games, so relative phases
    must come from the start itself."""
    rng = np.random.default_rng((seed, restart))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u, _, v = linalg.svd(z)
    return u @ v.conj().T


def _starts(warm: np.ndarray, draw, cfg: OptimizerConfig, dim: int, psi=ONE):
    """Restart 0 from `warm`, restart r >= 1 from draw(seed, r, dim); psi fixed."""
    return lambda r: (draw(cfg.seed, r, dim) if r else warm, psi)


def _spectral_start(g: GameMatrix) -> np.ndarray:
    """Deterministic start: spectral sign of the top question state,
    matricized on the B side (identity when that vanishes)."""
    w, vecs = np.linalg.eigh(g.m)
    idx = int(np.argmax(np.abs(w)))
    mat = vecs[:, idx].reshape(g.n, g.n)
    herm = linalg.hermitian_part(mat.conj().T @ mat)
    if np.linalg.norm(herm) < 1e-12:
        return np.eye(g.n, dtype=complex)
    return linalg.sign_of_hermitian(herm)


def omega_lower(g: GameMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> HeuristicResult:
    """Lower bound on the unentangled bias via sign-step see-saw."""
    starts = _starts(_spectral_start(g), _gaussian_start, cfg, g.n)
    values, (a, b, _), iters = _run_restarts(g, starts, _sign_step, cfg)
    return HeuristicResult(max(values), UnentangledStrategy(a=a, b=b), iters, tuple(values))


def omega_c_lower(
    g: GameMatrix,
    cfg: OptimizerConfig = OptimizerConfig(),
    omega: HeuristicResult | None = None,
) -> HeuristicResult:
    """Lower bound on the complex bias via polar-step see-saw, warm-started
    from the unentangled optimum `omega` (so it never falls below it);
    `omega` is omega_lower(g, cfg), computed here when not given."""
    if omega is None:
        omega = omega_lower(g, cfg)
    starts = _starts(omega.strategy.b, _haar_start, cfg, g.n)
    values, (a, b, _), iters = _run_restarts(g, starts, _polar_step, cfg)
    return HeuristicResult(max(values), ComplexStrategy(a=a, b=b), iters, tuple(values))


def _epr_embed(op: np.ndarray, n: int, d: int) -> np.ndarray:
    """Embed a complex contraction as a Hermitian contraction on message (x)
    C^d for even d, playing it on half of one shared qubit pair."""
    flip = np.zeros((2, 2), dtype=complex)
    flip[0, 1] = 1.0
    tilde = np.kron(
        linalg.permute_systems(np.kron(flip, op), (2, n), (1, 0)), np.eye(d // 2)
    )
    return tilde + tilde.conj().T


def me_lower(
    g: GameMatrix,
    d: int,
    cfg: OptimizerConfig = OptimizerConfig(),
    omega: HeuristicResult | None = None,
    omega_c: HeuristicResult | None = None,
) -> HeuristicResult:
    """Lower bound on the maximally entangled bias at dimension d.

    Restart 0 starts from the better of the unentangled optimum `omega` and,
    for even d, the complex optimum `omega_c` played on shared qubit pairs;
    each is computed here (omega_lower / omega_c_lower at `cfg`) when not
    given.
    """
    if d < 1:
        raise BadArgsError("d must be >= 1")
    n = g.n
    _check_size(n * d)
    psi = linalg.max_entangled_state(d)

    def half_step_value(b0: np.ndarray) -> float:
        k = effective_operator_for_a(g, b0, psi)
        return float(np.real(np.trace(_sign_step(k) @ k)))

    warm_candidates = []
    if omega is None:
        omega = omega_lower(g, cfg)
    warm_candidates.append(np.kron(omega.strategy.b, np.eye(d)))
    if d % 2 == 0:
        if omega_c is None:
            omega_c = omega_c_lower(g, cfg, omega)
        warm_candidates.append(_epr_embed(omega_c.strategy.b, n, d))
    best_warm = max(warm_candidates, key=half_step_value)
    starts = _starts(best_warm, _gaussian_start, cfg, n * d, psi)
    values, (a, b, _), iters = _run_restarts(g, starts, _sign_step, cfg)
    strategy = MaxEntangledStrategy(d=d, a=a, b=b)
    return HeuristicResult(max(values), strategy, iters, tuple(values))


_STATE_SUBSCRIPTS = "iakc,jbld,klij->abcd"


@functools.cache
def _state_path(n: int, da: int, db: int) -> list:
    """The pairwise contraction order einsum(optimize=True) picks for
    _state_operator at these sizes; it depends on the shapes only."""
    shapes = ((n, da, n, da), (n, db, n, db), (n, n, n, n))
    return np.einsum_path(
        _STATE_SUBSCRIPTS, *(np.empty(shape) for shape in shapes), optimize=True
    )[0]


def _state_operator(
    m: np.ndarray, a: np.ndarray, b: np.ndarray, n: int, da: int, db: int
) -> np.ndarray:
    """T = Tr_msg((A (x) B)(M (x) I)) on C^dA (x) C^dB, as one contraction:
    T[(a, b), (c, d)] = sum A[(i, a), (k, c)] B[(j, b), (l, d)] M[(k, l), (i, j)].

    Contracted pairwise in the order optimize=True picks (computed once per
    size by _state_path), which is much faster than one loop over all eight
    indices once n is about 6 or more. Its rounding also reproduces the
    12-digit values of the Kronecker construction on every report recorded
    in perfbench/references.json, where the single loop changes the last
    digit of one.
    """
    t = np.einsum(
        _STATE_SUBSCRIPTS,
        a.reshape(n, da, n, da),
        b.reshape(n, db, n, db),
        m.reshape(n, n, n, n),
        optimize=_state_path(n, da, db),
    )
    return t.reshape(da * db, da * db)


def _state_step(
    g: GameMatrix, a: np.ndarray, b: np.ndarray, da: int, db: int
) -> tuple[np.ndarray, float]:
    """Optimal shared state for fixed operators: top eigenvector by
    magnitude of T = Tr_msg((A (x) B)(M (x) I)), with a fixed tie-break and
    phase convention (largest entry real positive)."""
    t = linalg.hermitian_part(_state_operator(g.m, a, b, g.n, da, db))
    w, vecs = np.linalg.eigh(t)
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


def entangled_lower(
    g: GameMatrix,
    da: int,
    db: int,
    cfg: OptimizerConfig = OptimizerConfig(),
    me: HeuristicResult | None = None,
) -> HeuristicResult:
    """Lower bound on the entangled bias: three-block see-saw over A, B,
    and the shared state, monotone in |bias|.

    Restart 0 starts from the maximally entangled optimum `me` at
    min(da, db), embedded; it is me_lower(g, min(da, db), cfg), computed here
    when not given.
    """
    if da < 1 or db < 1:
        raise BadArgsError("dimensions must be >= 1")
    n = g.n
    _check_size(n * da, n * db, da * db)
    dm = min(da, db)
    warm = me if me is not None else me_lower(g, dm, cfg)
    ea = np.eye(da, dtype=complex)[:, :dm]
    eb = np.eye(db, dtype=complex)[:, :dm]
    lift_b = np.kron(np.eye(n), eb)
    warm_b = lift_b @ warm.strategy.b @ lift_b.conj().T
    warm_psi = np.kron(ea, eb) @ linalg.max_entangled_state(dm)

    def starts(r):
        if r == 0:
            return warm_b, warm_psi
        rng = np.random.default_rng((cfg.seed, r))
        random_hermitian(rng, n * da)  # A's draw: the first half-step replaces A
        b = linalg.sign_of_hermitian(random_hermitian(rng, n * db))
        psi = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
        return b, psi / np.linalg.norm(psi)

    values, (a, b, psi), iters = _run_restarts(g, starts, _sign_step, cfg, dims=(da, db))
    strategy = EntangledStrategy(d_a=da, d_b=db, a=a, b=b, psi=psi)
    return HeuristicResult(max(values), strategy, iters, tuple(values))


class Ladder:
    """The see-saw ladder of one game at one config:
    omega -> omega_c -> me:d -> ent:dA x dB.

    Each class is computed at most once (me once per d) and handed to the
    next class as its warm start, so a report that asks for every class runs
    omega_lower once. The values equal those of standalone calls. Create one
    per report; it holds the results until it is dropped.
    """

    def __init__(self, g: GameMatrix, cfg: OptimizerConfig):
        self.g = g
        self.cfg = cfg
        self._omega = None
        self._omega_c = None
        self._me = {}

    def omega(self) -> HeuristicResult:
        if self._omega is None:
            self._omega = omega_lower(self.g, self.cfg)
        return self._omega

    def omega_c(self) -> HeuristicResult:
        if self._omega_c is None:
            self._omega_c = omega_c_lower(self.g, self.cfg, self.omega())
        return self._omega_c

    def me(self, d: int) -> HeuristicResult:
        if d not in self._me:
            omega_c = self.omega_c() if d % 2 == 0 else None
            self._me[d] = me_lower(self.g, d, self.cfg, self.omega(), omega_c)
        return self._me[d]

    def entangled(self, da: int, db: int) -> HeuristicResult:
        # Checked before the me warm start runs, not only in entangled_lower.
        _check_size(self.g.n * da, self.g.n * db, da * db)
        return entangled_lower(self.g, da, db, self.cfg, self.me(min(da, db)))


def round_complex_to_real(g: GameMatrix, s: ComplexStrategy) -> UnentangledStrategy:
    """Round a complex strategy to Hermitian observables.

    Diagonalizes the (unitarized) operators and searches eigenvalue signs
    over 720 global phase rotations followed by single-flip local search.
    Empirically loses at most a sqrt(2) factor on the test corpus.
    """

    def unitarize(x):
        if np.linalg.norm(x.conj().T @ x - np.eye(x.shape[0])) <= 1e-9 * x.shape[0]:
            return x
        uu, _, vv = linalg.svd(x)
        return uu @ vv.conj().T

    a = unitarize(s.a)
    b = unitarize(s.b)
    ta, ua = scipy.linalg.schur(a, output="complex")
    tb, ub = scipy.linalg.schur(b, output="complex")
    lam = np.diag(ta)
    mu = np.diag(tb)
    p = np.kron(ua, ub)
    w = np.real(np.diag(p.conj().T @ g.m @ p)).reshape(a.shape[0], b.shape[0])

    def signs(vals):
        out = np.where(np.real(vals) >= 0, 1.0, -1.0)
        return out

    best = None
    for t in range(720):
        theta = 2.0 * np.pi * t / 720.0
        x = signs(np.exp(-1j * theta) * lam)
        y = signs(np.exp(1j * theta) * mu)
        val = float(x @ w @ y)
        if best is None or val > best[0]:
            best = (val, x, y)
    val, x, y = best
    improved = True
    while improved:
        improved = False
        for i in range(x.size):
            delta = -2.0 * x[i] * float(w[i] @ y)
            if delta > 1e-15:
                x[i] = -x[i]
                val += delta
                improved = True
        for j in range(y.size):
            delta = -2.0 * y[j] * float(x @ w[:, j])
            if delta > 1e-15:
                y[j] = -y[j]
                val += delta
                improved = True
    a_round = linalg.hermitian_part((ua * x) @ ua.conj().T)
    b_round = linalg.hermitian_part((ub * y) @ ub.conj().T)
    return UnentangledStrategy(a=a_round, b=b_round)
