"""The proof constructions of the paper (Regev and Vidick, Quantum XOR Games,
arXiv:1207.4939), reproduced as test oracles.

  rank-one games     Every XOR game is a rank-one game with the same
                     associated matrix Tr_V |eta><gamma| (xor_to_rank_one,
                     via the SVD of M), and every rank-one game is an XOR
                     game of twice the message size whose spectrum is
                     +/- half the singular values of that matrix
                     (rank_one_to_xor). T_n is the rank-one game with a
                     trivial referee that sends |00> and accepts on the
                     maximally entangled state (t_rank_one).
  the lemma          A rank-one strategy (U, V, psi, phi) gives an entangled
                     XOR strategy of bias at least (1 - 2/d) times the
                     rank-one value, through a staircase state over
                     (psi, phi) (lemma_rank_one_strategy).
  product states     M expands over products of trace-norm-1 Hermitians, so
                     each term is a game whose question states are product
                     states (to_product_state_protocol).
  symmetrization     An entangled strategy of an exchange-symmetric game has
                     a symmetric form with the same bias, both players
                     playing one observable on a symmetric state
                     (symmetrize).
  T_n dimension      With d-dimensional entanglement the bias of T_n stays
                     below sqrt(1 - min(1/(4e^2), log2(n)^2 / (16 log2(3d)^2)))
                     (max_bias_upper_bound_tn).

They live in tests/ because no program path runs them: the CLI, the rows of
the paper table and the see-saw ladder reach none of them. The tests use
them to check the package's games and strategies against the paper's
statements. partial_trace and trace_norm are the dense helpers that they
and the tests share.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from xorq import games, linalg, strategies
from xorq.errors import (
    BadArgsError,
    DimensionMismatchError,
    XorqError,
    check_dense,
)

SPECTRAL_CUTOFF = 1e-12


class ZeroGameError(XorqError):
    """The zero game has no rank-one form: M has no singular value."""


class PreconditionViolatedError(XorqError):
    """An input or an output that breaks a construction's stated condition."""


def trace_norm(a: np.ndarray) -> float:
    """Schatten 1-norm: the sum of singular values."""
    return float(np.sum(linalg.singular_values(a)))


def partial_trace(p: np.ndarray, dims: tuple[int, int], which: str) -> np.ndarray:
    """Trace out one factor of an operator on C^d1 (x) C^d2.

    which = "first" traces out the d1 factor, "second" the d2 factor.
    """
    d1, d2 = dims
    p = linalg.as_complex(p)
    if p.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatchError(
            f"operator shape {p.shape} does not match dims {dims}"
        )
    t = p.reshape(d1, d2, d1, d2)
    if which == "first":
        return np.einsum("ijik->jk", t)
    if which == "second":
        return np.einsum("ijkj->ik", t)
    raise BadArgsError(f"which must be 'first' or 'second', got {which!r}")


@dataclass(frozen=True)
class ProductStateDecomposition:
    """Expansion of M over a product basis of trace-norm-1 Hermitians."""

    terms: tuple[tuple[float, int, np.ndarray, np.ndarray], ...]
    basis: str

    def reconstruct(self, dim: int) -> np.ndarray:
        m = np.zeros((dim, dim), dtype=complex)
        for w, s, hl, hr in self.terms:
            m += w * s * np.kron(hl, hr)
        return m


def _trace_norm_one_basis(n: int) -> list[np.ndarray]:
    """Identity plus generalized Gell-Mann family, each rescaled to ||.||_1 = 1."""
    mats = [np.eye(n, dtype=complex) / n]
    for j in range(n):
        for k in range(j + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = e[k, j] = 0.5
            mats.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[j, k] = -0.5j
            f[k, j] = 0.5j
            mats.append(f)
    for level in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[np.arange(level), np.arange(level)] = 1.0
        d[level, level] = -level
        mats.append(d / (2 * level))
    return mats


def to_product_state_protocol(g: games.GameMatrix) -> ProductStateDecomposition:
    """Decompose M = sum_j weight_j sign_j H_left,j (x) H_right,j.

    Every local factor has trace norm 1, so each term is (up to sign and
    scaling) itself a game whose question states are product states.
    """
    basis = _trace_norm_one_basis(g.n)
    hs = [float(np.real(np.trace(h.conj().T @ h))) for h in basis]
    terms = []
    coeffs = []
    for i, hi in enumerate(basis):
        for j, hj in enumerate(basis):
            c = np.real(np.trace(np.kron(hi, hj).conj().T @ g.m)) / (hs[i] * hs[j])
            coeffs.append((float(c), i, j))
    cmax = max((abs(c) for c, _, _ in coeffs), default=0.0)
    for c, i, j in coeffs:
        if abs(c) > SPECTRAL_CUTOFF * max(1.0, cmax):
            terms.append((abs(c), 1 if c > 0 else -1, basis[i], basis[j]))
    return ProductStateDecomposition(
        terms=tuple(terms),
        basis="identity + generalized Gell-Mann, trace-norm normalized",
    )


@dataclass(frozen=True)
class RankOneGame:
    """Referee game sending halves of |eta> and accepting via |gamma><gamma|.

    Both states are unit vectors on C^n (x) C^n (x) C^v_dim; the last factor
    is the referee's private register.
    """

    n: int
    v_dim: int
    eta: np.ndarray
    gamma: np.ndarray
    norm_deficit: float = field(default=0.0)

    def __post_init__(self):
        want = self.n * self.n * self.v_dim
        for name, vec in (("eta", self.eta), ("gamma", self.gamma)):
            if vec.shape != (want,):
                raise DimensionMismatchError(f"{name} must have length {want}")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
                raise BadArgsError(f"{name} must be a unit vector")


def rank_one_matrix(g: RankOneGame) -> np.ndarray:
    """The associated matrix Tr_V |eta><gamma| on C^n (x) C^n."""
    outer = np.outer(g.eta, g.gamma.conj())
    return partial_trace(outer, (g.n * g.n, g.v_dim), "second")


def xor_to_rank_one(g: games.GameMatrix) -> RankOneGame:
    """Rank-one game with the same associated matrix, via the SVD of M.

    The referee space indexes the singular triplets; when ||M||_1 < 1 both
    vectors are renormalized and the deficit recorded.
    """
    u, s, v = linalg.svd(g.m)
    smax = float(s[0]) if s.size else 0.0
    keep = [i for i, si in enumerate(s) if si > SPECTRAL_CUTOFF * max(smax, 1e-300)]
    if not keep:
        raise ZeroGameError("cannot build a rank-one game from the zero matrix")
    v_dim = len(keep)
    eta = np.zeros(g.n ** 2 * v_dim, dtype=complex)
    gamma = np.zeros(g.n ** 2 * v_dim, dtype=complex)
    for slot, i in enumerate(keep):
        w = math.sqrt(float(s[i]))
        eta += w * np.kron(u[:, i], _unit(v_dim, slot))
        gamma += w * np.kron(v[:, i], _unit(v_dim, slot))
    total = float(np.sum(s[keep]))
    eta /= np.linalg.norm(eta)
    gamma /= np.linalg.norm(gamma)
    return RankOneGame(
        n=g.n, v_dim=v_dim, eta=eta, gamma=gamma, norm_deficit=1.0 - total
    )


def rank_one_to_xor(g: RankOneGame) -> games.GameMatrix:
    """XOR game of size 2n distinguishing flag-tagged |eta> and |gamma>.

    M = (1/2)(|00><11| (x) Mhat + |11><00| (x) Mhat^dagger) re-expressed so
    that each player's register is C^2 (x) C^n with the flag qubit first.
    """
    mhat = rank_one_matrix(g)
    n = g.n
    e01 = np.zeros((4, 4), dtype=complex)
    e01[0, 3] = 1.0
    raw = 0.5 * (np.kron(e01, mhat) + np.kron(e01.T, mhat.conj().T))
    m = linalg.permute_systems(raw, (2, 2, n, n), (0, 2, 1, 3))
    return games.validate(m, 2 * n)


def t_rank_one(n: int) -> RankOneGame:
    """Trivial-referee rank-one game sending |00> and accepting on |Psi_me>."""
    if n < 1:
        raise BadArgsError("n must be >= 1")
    loc = n + 1
    eta = np.zeros(loc * loc, dtype=complex)
    eta[0] = 1.0
    gamma = np.zeros(loc * loc, dtype=complex)
    for i in range(1, n + 1):
        gamma[i * loc + i] = 1.0 / math.sqrt(n)
    return RankOneGame(n=loc, v_dim=1, eta=eta, gamma=gamma)


def _unit(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[i] = 1.0
    return e


def lemma_rank_one_strategy(
    g: RankOneGame,
    u: np.ndarray,
    v: np.ndarray,
    psi: np.ndarray,
    phi: np.ndarray,
    d: int,
) -> strategies.Strategy:
    """Entangled strategy for rank_one_to_xor(g) built from a rank-one-game
    strategy (U, V, psi, phi).

    The players share phi plus a staircase state over (psi, phi); a flagged
    rotate-then-play operator achieves bias at least (1 - 2/d) times the
    square root of the rank-one value. A global phase on U is fixed so the
    achieved bias is non-negative.
    """
    if d < 1:
        raise BadArgsError("d must be >= 1")
    n1 = g.n
    psi = strategies._check_state(psi)
    phi = strategies._check_state(phi)
    h = math.isqrt(psi.shape[0])
    if h * h != psi.shape[0] or phi.shape[0] != psi.shape[0]:
        raise DimensionMismatchError("psi and phi must be bipartite states on C^h (x) C^h")
    u = strategies._check_contraction("U", u, False)
    v = strategies._check_contraction("V", v, False)
    if u.shape[0] != n1 * h or v.shape[0] != n1 * h:
        raise DimensionMismatchError("U, V must act on C^n (x) C^h")
    game = rank_one_to_xor(g)
    priv = h ** (d + 1)
    check_dense((2 * n1 * priv) ** 2, "the strategy's dense evaluation")

    psi, phi = psi.reshape(h, h), phi.reshape(h, h)  # coefficient matrices
    gamma = strategies.embezzlement_state(h, d, psi, phi)
    # the unconditional rotation's unitary, V[sigma[x], x] = 1
    rot = np.eye(h ** (d + 1))[:, strategies._rotation(h, h, d, list(range(h)))]

    def build(uu: np.ndarray, vv: np.ndarray) -> strategies.Strategy:
        wa = np.kron(uu, np.eye(h**d)) @ np.kron(np.eye(n1), rot)
        wb = np.kron(vv, np.eye(h**d)) @ np.kron(np.eye(n1), rot)
        # The rotate-then-play action sits in the |1><0| flag block: the
        # game matrix pairs that block with the question-to-target
        # direction of the rank-one referee.
        e10 = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = np.kron(e10, wa) + np.kron(e10.T, wa.conj().T)
        b = np.kron(e10, wb) + np.kron(e10.T, wb.conj().T)
        # rows (r0A, restA), columns (r0B, restB)
        return strategies.Strategy(a, b, np.kron(phi, gamma))

    b0 = strategies.bias(game, build(u, v))
    b1 = strategies.bias(game, build(1j * u, v))
    w0 = b0 - 1j * b1
    if abs(w0) > 1e-300:
        u = cmath.exp(-1j * cmath.phase(w0)) * u
    return build(u, v)


def symmetrize(g: games.GameMatrix, s: strategies.Strategy) -> strategies.Strategy:
    """Exchange-symmetric form of an entangled strategy with equal bias.

    Requires the game matrix to be invariant under swapping the two message
    registers (true for every family built here). The shared state is
    restricted to its Schmidt support, a flag qubit routes each player to
    one of the original operators, and a final dilation by one ancilla
    qubit turns the Hermitian contraction into an observable. The bias of
    the output is checked against the input's (PreconditionViolatedError),
    both read through strategies.bias.
    """
    if not s.hermitian:
        raise BadArgsError("symmetrize expects a Hermitian strategy")
    n = g.n
    swapped = linalg.permute_systems(g.m, (n, n), (1, 0))
    if np.linalg.norm(swapped - g.m) > 1e-9 * max(1.0, np.linalg.norm(g.m)):
        raise BadArgsError("game matrix must be exchange-symmetric")
    before = strategies.bias(g, s)

    ua, sv, vb = linalg.svd(s.psi)
    rank = max(1, int(np.sum(sv > 1e-12 * sv[0])))
    ua = ua[:, :rank]
    wb = vb[:, :rank].conj()
    core = sv[:rank] / np.linalg.norm(sv[:rank])  # Schmidt coefficients

    a1 = np.kron(np.eye(n), ua.conj().T) @ s.a @ np.kron(np.eye(n), ua)
    b1 = np.kron(np.eye(n), wb.conj().T) @ s.b @ np.kron(np.eye(n), wb)
    psi1 = np.zeros(rank * rank, dtype=complex)
    psi1[np.arange(rank) * rank + np.arange(rank)] = core

    # Flag qubit (first private factor) selects which operator is played.
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    a_flag = np.kron(p0, a1) + np.kron(p1, b1)  # (flag, msg, priv)
    a_flag = linalg.permute_systems(a_flag, (2, n, rank), (1, 0, 2))
    state = np.zeros(4, dtype=complex)
    state[1] = state[2] = 1.0 / math.sqrt(2)  # (|01> + |10>)/sqrt(2) on flags
    # psi1 is Schmidt-diagonal, hence invariant under swapping its halves.
    psi_flag = np.kron(state, psi1)
    psi_flag = linalg.permute_systems(psi_flag, (2, 2, rank, rank), (0, 2, 1, 3))
    d_half = 2 * rank

    gram = a_flag @ a_flag - np.eye(a_flag.shape[0])
    if np.linalg.norm(gram) > 1e-9 * a_flag.shape[0]:
        # Dilate to an observable with an ancilla qubit in |0> per player.
        w, uvec = np.linalg.eigh(a_flag)
        s_comp = (uvec * np.sqrt(np.clip(1.0 - w**2, 0.0, None))) @ uvec.conj().T
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        a_out = np.kron(a_flag, sz) + np.kron(s_comp, sx)
        anc = np.zeros(4, dtype=complex)
        anc[0] = 1.0
        psi_out = np.kron(psi_flag, anc)  # (fA,pA,fB,pB,aA,aB)
        psi_out = linalg.permute_systems(
            psi_out, (2, rank, 2, rank, 2, 2), (0, 1, 4, 2, 3, 5)
        )
        d_out = 2 * d_half
    else:
        a_out = a_flag
        psi_out = psi_flag
        d_out = d_half

    out = strategies.Strategy(a_out, a_out.copy(), psi_out.reshape(d_out, d_out))
    after = strategies.bias(g, out)
    if abs(after - before) > 1e-8 * max(1.0, abs(before)):
        raise PreconditionViolatedError(f"symmetrization changed the bias: {before} -> {after}")
    return out


def max_bias_upper_bound_tn(n: int, d: int) -> float:
    """Upper bound on the T-family bias reachable with d-dimensional
    entanglement: sqrt(1 - min(1/(4e^2), log2(n)^2 / (16 log2(3d)^2))).

    Valid for n >= 2 (the underlying entropy bound needs S >= 1).
    """
    if n < 2:
        raise BadArgsError("bound requires n >= 2")
    if d < 1:
        raise BadArgsError("d must be >= 1")
    s = math.log2(n)
    gap = min(1.0 / (4.0 * math.e**2), s**2 / (16.0 * math.log2(3.0 * d) ** 2))
    return math.sqrt(min(max(1.0 - gap, 0.0), 1.0))
