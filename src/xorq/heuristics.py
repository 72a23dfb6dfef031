"""Heuristic lower bounds on the biases via alternating maximization.

The bias is linear in each player's operator (and in the shared state's
density matrix), so each block subproblem has an exact closed-form
maximizer: the spectral sign of the effective operator for Hermitian
classes, its polar unitary for the complex class, and a top eigenvector
for the state. Alternating these half-steps gives a monotone see-saw; a
deterministic multi-restart driver takes the best value.

Restart 0 is a deterministic warm start (the previous class's optimum
embedded, where one exists); restarts 1..k-1 draw Gaussian Hermitian
starts seeded by (seed, restart index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import BadArgsError, DimensionMismatchError, SeesawError
from .games import GameMatrix
from .strategies import (
    ComplexStrategy,
    EntangledStrategy,
    MaxEntangledStrategy,
    Strategy,
    UnentangledStrategy,
    bias,
    random_hermitian,
)

MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 50
    max_iters: int = 500
    improvement_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise BadArgsError("restarts must be >= 1")
        if self.improvement_tol <= 0:
            raise BadArgsError("improvement_tol must be positive")


@dataclass(frozen=True)
class HeuristicResult:
    value: float
    strategy: Strategy
    iterations_used: int
    restart_values: tuple[float, ...]


def _as_bipartite(m, nb: int) -> tuple[np.ndarray, int]:
    m = linalg.as_complex(m.m if isinstance(m, GameMatrix) else m)
    dim = m.shape[0]
    na, rem = divmod(dim, nb)
    if rem or m.shape != (dim, dim):
        raise DimensionMismatchError("coefficient matrix incompatible with B side")
    return m, na


def effective_operator_for_a(
    m, b_part: np.ndarray, m_hermitian: bool | None = None
) -> np.ndarray:
    """K with Tr(A K) = Tr((A (x) B) M) for every A.

    K[k, i] = sum_jl B[j, l] M[(k, l), (i, j)]. Hermitian whenever M and the
    B side are (checked; SeesawError otherwise). `m_hermitian` is the verdict
    on M of a caller that checked it once for a whole see-saw run; None
    checks M here.
    """
    b = linalg.as_complex(b_part)
    m, na = _as_bipartite(m, b.shape[0])
    nb = b.shape[0]
    m4 = m.reshape(na, nb, na, nb)
    k = np.einsum("jl,klij->ki", b, m4)
    _check_hermitian_if(m, m_hermitian, b, k)
    return k


def effective_operator_for_b(
    m, a_part: np.ndarray, m_hermitian: bool | None = None
) -> np.ndarray:
    """L with Tr(B L) = Tr((A (x) B) M) for every B; `m_hermitian` as for
    effective_operator_for_a."""
    a = linalg.as_complex(a_part)
    m_arr = linalg.as_complex(m.m if isinstance(m, GameMatrix) else m)
    na = a.shape[0]
    nb, rem = divmod(m_arr.shape[0], na)
    if rem:
        raise DimensionMismatchError("coefficient matrix incompatible with A side")
    m4 = m_arr.reshape(na, nb, na, nb)
    l = np.einsum("ik,klij->lj", a, m4)
    _check_hermitian_if(m_arr, m_hermitian, a, l)
    return l


def _is_hermitian(x: np.ndarray) -> bool:
    return np.linalg.norm(x - x.conj().T) <= 1e-9 * max(1.0, float(np.linalg.norm(x)))


def _check_hermitian_if(m, m_hermitian, part, k):
    if m_hermitian is None:
        m_hermitian = _is_hermitian(m)
    if m_hermitian and _is_hermitian(part) and not _is_hermitian(k):
        raise SeesawError("effective operator lost Hermiticity")


def _check_monotone(value: float, prev: float, what: str):
    # Written as "not >=" so that a NaN value fails too.
    if not value >= prev - MONOTONE_SLACK * max(1.0, abs(prev)):
        raise SeesawError(f"{what}: {value!r} after {prev!r}")


def folded_game_matrix(
    g: GameMatrix, psi: np.ndarray, da: int, db: int
) -> np.ndarray:
    """M (x) |psi><psi| permuted to the players' (message, private) split."""
    psi = linalg.as_complex(psi).reshape(-1)
    if psi.shape[0] != da * db:
        raise DimensionMismatchError("state size must be da * db")
    big = np.kron(g.m, np.outer(psi, psi.conj()))
    return linalg.permute_systems(big, (g.n, g.n, da, db), (0, 2, 1, 3))


def _seesaw_pair(
    m: np.ndarray,
    m_hermitian: bool,
    b0: np.ndarray,
    step,
    max_iters: int,
    tol: float,
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Alternate exact half-steps from an initial B; monotone by construction."""
    b = b0
    a = None
    prev = -np.inf
    value = 0.0
    iters = 0
    for it in range(max_iters):
        k = effective_operator_for_a(m, b, m_hermitian)
        a = step(k)
        val_a = float(np.real(np.trace(a @ k)))
        _check_monotone(val_a, prev, "half-step decreased")
        l = effective_operator_for_b(m, a, m_hermitian)
        b = step(l)
        value = float(np.real(np.trace(b @ l)))
        _check_monotone(value, val_a, "half-step decreased")
        iters = it + 1
        if value - prev < tol:
            break
        prev = value
    return value, a, b, iters


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


def _spectral_start(m: np.ndarray, nb: int) -> np.ndarray:
    """Deterministic start: spectral sign of the top question state,
    matricized on the B side (identity when that vanishes)."""
    w, vecs = np.linalg.eigh(m)
    idx = int(np.argmax(np.abs(w)))
    na = m.shape[0] // nb
    mat = vecs[:, idx].reshape(na, nb)
    herm = linalg.hermitian_part(mat.conj().T @ mat)
    if np.linalg.norm(herm) < 1e-12:
        return np.eye(nb, dtype=complex)
    return linalg.sign_of_hermitian(herm)


def _run_restarts(m, m_hermitian, nb, step, cfg, warm_b=None, start=_gaussian_start):
    values, finals = [], []
    total_iters = 0
    for r in range(cfg.restarts):
        if r == 0:
            b0 = warm_b if warm_b is not None else _spectral_start(m, nb)
        else:
            b0 = start(cfg.seed, r, nb)
        value, a, b, iters = _seesaw_pair(
            m, m_hermitian, b0, step, cfg.max_iters, cfg.improvement_tol
        )
        values.append(value)
        finals.append((a, b))
        total_iters += iters
    best = int(np.argmax(values))
    return values, finals[best], total_iters


def omega_lower(g: GameMatrix, cfg: OptimizerConfig = OptimizerConfig()) -> HeuristicResult:
    """Lower bound on the unentangled bias via sign-step see-saw."""
    values, (a, b), iters = _run_restarts(g.m, _is_hermitian(g.m), g.n, _sign_step, cfg)
    return HeuristicResult(
        value=max(values),
        strategy=UnentangledStrategy(a=a, b=b),
        iterations_used=iters,
        restart_values=tuple(values),
    )


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
    values, (a, b), iters = _run_restarts(
        g.m, _is_hermitian(g.m), g.n, _polar_step, cfg,
        warm_b=omega.strategy.b, start=_haar_start,
    )
    return HeuristicResult(
        value=max(values),
        strategy=ComplexStrategy(a=a, b=b),
        iterations_used=iters,
        restart_values=tuple(values),
    )


def _epr_embed(op: np.ndarray, n: int, d: int) -> np.ndarray | None:
    """Embed a complex contraction as a Hermitian contraction on message (x)
    C^d for even d, playing it on half of one shared qubit pair."""
    if d % 2:
        return None
    flip = np.zeros((2, 2), dtype=complex)
    flip[0, 1] = 1.0
    tilde = np.kron(
        linalg.permute_systems(np.kron(flip, op), (2, n), (1, 0)), np.eye(d // 2)
    )
    tilde = tilde + tilde.conj().T
    return tilde


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
    m_fold = folded_game_matrix(g, linalg.max_entangled_state(d), d, d)
    m_hermitian = _is_hermitian(m_fold)
    nb = n * d

    def half_step_value(b0: np.ndarray) -> float:
        k = effective_operator_for_a(m_fold, b0, m_hermitian)
        return float(np.real(np.trace(_sign_step(k) @ k)))

    warm_candidates = []
    if omega is None:
        omega = omega_lower(g, cfg)
    warm_candidates.append(np.kron(omega.strategy.b, np.eye(d)))
    if d % 2 == 0:
        if omega_c is None:
            omega_c = omega_c_lower(g, cfg, omega)
        emb = _epr_embed(omega_c.strategy.b, n, d)
        if emb is not None:
            warm_candidates.append(emb)
    best_warm = max(warm_candidates, key=half_step_value)
    values, (a, b), iters = _run_restarts(
        m_fold, m_hermitian, nb, _sign_step, cfg, warm_b=best_warm
    )
    return HeuristicResult(
        value=max(values),
        strategy=MaxEntangledStrategy(d=d, a=a, b=b),
        iterations_used=iters,
        restart_values=tuple(values),
    )


def _state_operator(
    m: np.ndarray, a: np.ndarray, b: np.ndarray, n: int, da: int, db: int
) -> np.ndarray:
    """T = Tr_msg((A (x) B)(M (x) I)) on C^dA (x) C^dB, as one contraction:
    T[(a, b), (c, d)] = sum A[(i, a), (k, c)] B[(j, b), (l, d)] M[(k, l), (i, j)].

    Contracted pairwise (optimize=True), which is much faster than one loop
    over all eight indices once n is about 6 or more. Its rounding also
    reproduces the 12-digit values of the Kronecker construction on every
    report recorded in perfbench/references.json, where the single loop
    changes the last digit of one.
    """
    t = np.einsum(
        "iakc,jbld,klij->abcd",
        a.reshape(n, da, n, da),
        b.reshape(n, db, n, db),
        m.reshape(n, n, n, n),
        optimize=True,
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

    dm = min(da, db)
    warm = me if me is not None else me_lower(g, dm, cfg)
    ea = np.eye(da, dtype=complex)[:, :dm]
    eb = np.eye(db, dtype=complex)[:, :dm]
    warm_a = np.kron(np.eye(n), ea) @ warm.strategy.a @ np.kron(np.eye(n), ea).conj().T
    warm_b = np.kron(np.eye(n), eb) @ warm.strategy.b @ np.kron(np.eye(n), eb).conj().T
    warm_psi = np.kron(ea, eb) @ linalg.max_entangled_state(dm)

    # Each folded matrix below is M (x) |psi><psi| with a unit psi, permuted,
    # so it is Hermitian exactly when M is: M is checked once for the run.
    m_hermitian = _is_hermitian(g.m)
    values, finals = [], []
    total_iters = 0
    for r in range(cfg.restarts):
        if r == 0:
            a, b, psi = warm_a, warm_b, warm_psi
        else:
            rng = np.random.default_rng((cfg.seed, r))
            a = linalg.sign_of_hermitian(random_hermitian(rng, n * da))
            b = linalg.sign_of_hermitian(random_hermitian(rng, n * db))
            psi = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
            psi /= np.linalg.norm(psi)
        prev = -np.inf
        value = 0.0
        for it in range(cfg.max_iters):
            m_fold = folded_game_matrix(g, psi, da, db)
            a = _sign_step(effective_operator_for_a(m_fold, b, m_hermitian))
            l = effective_operator_for_b(m_fold, a, m_hermitian)
            b = _sign_step(l)
            psi, lam = _state_step(g, a, b, da, db)
            if lam < 0:
                a = -a
                lam = -lam
            value = lam
            _check_monotone(value, prev, "state step decreased |bias|")
            total_iters += 1
            if value - prev < cfg.improvement_tol:
                break
            prev = value
        values.append(value)
        finals.append((a, b, psi))
    best = int(np.argmax(values))
    a, b, psi = finals[best]
    return HeuristicResult(
        value=max(values),
        strategy=EntangledStrategy(d_a=da, d_b=db, a=a, b=b, psi=psi),
        iterations_used=total_iters,
        restart_values=tuple(values),
    )


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
