"""Player strategies for quantum XOR games and exact bias evaluation.

Four resource classes are represented:

  Unentangled   Hermitian contractions acting on the message registers only.
  Complex       arbitrary contractions (relaxation; bias is a modulus).
  MaxEntangled  Hermitian contractions on message (x) C^d, sharing the
                maximally entangled state of dimension d (kept implicit).
  Entangled     Hermitian contractions on message (x) private space plus an
                arbitrary shared unit state.

Every class is scored by one form, Tr((A (x) B)(M (x) |psi><psi|)), with psi
the scalar 1, the maximally entangled state or the free state. One
contraction evaluates it: the effective operator K of B and psi, with
Tr(A K) equal to the form. bias takes Tr(A K), and the see-saw's two
half-steps take K in both orientations (effective_operator_for_a/_b).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DENSE_AMPLITUDE_CAP,
    BadArgsError,
    DimensionMismatchError,
    PreconditionViolatedError,
    TooLargeError,
)
from .games import GameMatrix, RankOneGame, rank_one_matrix, rank_one_to_xor

OP_NORM_SLACK = 1e-9
STATE_NORM_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-9
ONE = np.ones(1, dtype=complex)  # the shared state of the two unentangled classes
ONE.setflags(write=False)


def _check_contraction(name: str, a: np.ndarray, hermitian: bool) -> np.ndarray:
    a = linalg.check_square(a)
    if hermitian:
        a = linalg.check_hermitian(a)
    if linalg.op_norm(a) > 1.0 + OP_NORM_SLACK:
        raise BadArgsError(f"{name} must be a contraction (operator norm <= 1)")
    return a


def _check_sides(a: np.ndarray, b: np.ndarray, da: int, db: int) -> None:
    """A acts on C^n (x) C^da and B on C^n (x) C^db, one message space C^n."""
    if da < 1 or db < 1:
        raise BadArgsError("private dimensions must be >= 1")
    sides = a.shape[0], b.shape[0]
    if sides[0] % da or sides[1] % db or sides[0] // da != sides[1] // db:
        raise DimensionMismatchError(
            f"operators of sides {sides} do not act on C^n (x) C^{da} and C^n (x) C^{db}"
        )


def _check_state(psi: np.ndarray) -> np.ndarray:
    psi = linalg.as_complex(psi).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > STATE_NORM_TOL:
        raise BadArgsError("shared state must be a unit vector")
    return psi


@dataclass(frozen=True)
class UnentangledStrategy:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _check_contraction("A", self.a, True))
        object.__setattr__(self, "b", _check_contraction("B", self.b, True))


@dataclass(frozen=True)
class ComplexStrategy:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _check_contraction("A", self.a, False))
        object.__setattr__(self, "b", _check_contraction("B", self.b, False))


@dataclass(frozen=True)
class MaxEntangledStrategy:
    d: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _check_contraction("A", self.a, True))
        object.__setattr__(self, "b", _check_contraction("B", self.b, True))
        _check_sides(self.a, self.b, self.d, self.d)


@dataclass(frozen=True)
class EntangledStrategy:
    d_a: int
    d_b: int
    a: np.ndarray
    b: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _check_contraction("A", self.a, True))
        object.__setattr__(self, "b", _check_contraction("B", self.b, True))
        _check_sides(self.a, self.b, self.d_a, self.d_b)
        object.__setattr__(self, "psi", _check_state(self.psi))
        if self.psi.shape[0] != self.d_a * self.d_b:
            raise DimensionMismatchError("shared state size must be d_a * d_b")


Strategy = UnentangledStrategy | ComplexStrategy | MaxEntangledStrategy | EntangledStrategy


def _effective_operator(m4: np.ndarray, part: np.ndarray, p: np.ndarray) -> np.ndarray:
    """K with Tr(A K) = Tr((A (x) B)(M (x) |psi><psi|)) for every A, where
    m4[k, l, i, j] = M[(k, l), (i, j)], part is B and p is psi as a dA x dB
    matrix; each player's registers are ordered (message, private).

    With B_jl[d, b] = B[(j, d), (l, b)], X_jl = P B_jl^T P^dagger and
    K[(k, a), (i, c)] = sum_jl X_jl[a, c] M[(k, l), (i, j)]. The same code
    gives B's operator on the players-swapped view m4.transpose(1, 0, 3, 2)
    with A as the part and P^T.
    """
    n = m4.shape[0]
    da, db = p.shape
    if part.shape != (n * db, n * db):
        raise DimensionMismatchError(
            f"operator of shape {part.shape} does not act on C^{n} (x) C^{db}"
        )
    x = p @ part.reshape(n, db, n, db).transpose(0, 2, 3, 1) @ p.conj().T
    k = np.einsum("jlab,klij->kaib", x, m4)
    return k.reshape(n * da, n * da)


def _private_dim(n: int, part: np.ndarray, psi: np.ndarray) -> int:
    """The private dimension of the part's player, which must divide psi's size."""
    d = part.shape[0] // n
    if d < 1 or psi.ndim != 1 or psi.shape[0] % d:
        raise DimensionMismatchError("operator or state incompatible with the game")
    return d


def effective_operator_for_a(
    g: GameMatrix, b_part: np.ndarray, psi: np.ndarray = ONE
) -> np.ndarray:
    """K with Tr(A K) = Tr((A (x) B)(M (x) |psi><psi|)) for every A, psi the
    dA*dB shared state; Hermitian whenever B is, since a validated M is."""
    b = linalg.as_complex(b_part)
    p = psi.reshape(-1, _private_dim(g.n, b, psi))
    return _effective_operator(g.m.reshape((g.n,) * 4), b, p)


def effective_operator_for_b(
    g: GameMatrix, a_part: np.ndarray, psi: np.ndarray = ONE
) -> np.ndarray:
    """L with Tr(B L) = Tr((A (x) B)(M (x) |psi><psi|)) for every B: the
    operator for A of the players-swapped game and state."""
    a = linalg.as_complex(a_part)
    p = psi.reshape(_private_dim(g.n, a, psi), -1)
    m4 = g.m.reshape((g.n,) * 4).transpose(1, 0, 3, 2)
    return _effective_operator(m4, a, p.T)


def bias(g: GameMatrix, s: Strategy) -> float:
    """Exact bias of a strategy in a game: Tr(A K) with K the effective
    operator of B and the strategy's shared state (1 without entanglement).

    Hermitian strategy classes must yield a real value (the imaginary
    residue is checked below 1e-9, then discarded); the complex class
    returns the modulus.
    """
    if isinstance(s, MaxEntangledStrategy):
        p = linalg.max_entangled_state(s.d).reshape(s.d, s.d)
    elif isinstance(s, EntangledStrategy):
        p = s.psi.reshape(s.d_a, s.d_b)
    else:
        p = ONE.reshape(1, 1)
    k = _effective_operator(g.m.reshape((g.n,) * 4), s.b, p)
    if s.a.shape != k.shape:
        raise DimensionMismatchError(
            f"operator A of shape {s.a.shape} does not act on C^{g.n} (x) C^{p.shape[0]}"
        )
    val = complex(np.sum(s.a * k.T))  # Tr(A K)
    if isinstance(s, ComplexStrategy):
        return abs(val)
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val)):
        raise BadArgsError(f"bias has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


# --- explicit strategies -----------------------------------------------------


def t_unentangled_strategy(n: int) -> UnentangledStrategy:
    """Rank-two distinguisher |pi0><pi0| - |pi1><pi1| for the T family.

    Both players measure in a basis containing pi0, pi1 and answer with the
    observed index, answering at random otherwise; achieves bias 1/sqrt(n).
    """
    if n < 1:
        raise BadArgsError("n must be >= 1")
    loc = n + 1
    pi0 = np.zeros(loc, dtype=complex)
    pi0[0] = 1.0 / math.sqrt(2)
    pi0[1:] = 1.0 / math.sqrt(2 * n)
    pi1 = pi0.copy()
    pi1[1:] *= -1.0
    q = np.outer(pi0, pi0.conj()) - np.outer(pi1, pi1.conj())
    return UnentangledStrategy(a=q, b=q.copy())


def h1_unentangled_strategy() -> ComplexStrategy:
    """Both players bet on the antisymmetric question pair: A = iC1, B = -iC1."""
    c1 = np.zeros((3, 3), dtype=complex)
    c1[1, 2] = 1.0
    c1[2, 1] = -1.0
    return ComplexStrategy(a=1j * c1, b=-1j * c1)


def h1_me_strategy() -> MaxEntangledStrategy:
    """The 5/9 strategy: measure in the game matrix eigenbasis at d = 3.

    The outcome-0 projector spans the three antisymmetric vectors and the
    maximally entangled state; the observable is its +/-1 completion.
    """
    vecs = []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        v = np.zeros(9, dtype=complex)
        v[j * 3 + k] = 1.0 / math.sqrt(2)
        v[k * 3 + j] = -1.0 / math.sqrt(2)
        vecs.append(v)
    vecs.append(linalg.max_entangled_state(3))
    p0 = np.zeros((9, 9), dtype=complex)
    for v in vecs:
        p0 += np.outer(v, v.conj())
    a = 2.0 * p0 - np.eye(9)
    return MaxEntangledStrategy(d=3, a=a, b=a.copy())


@dataclass(frozen=True)
class EmbezzlementSpec:
    """Per-copy local dimension and copy count for the staircase state."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise BadArgsError("n and d must be >= 1")


def embezzlement_state(
    spec: EmbezzlementSpec, psi: np.ndarray, phi: np.ndarray
) -> np.ndarray:
    """Gamma_d = D^(-1/2) sum_{j=1..d} psi^(x j) (x) phi^(x (d-j)).

    psi and phi are unit bipartite states on C^n (x) C^n; the output is
    interleaved per player: all d left halves first, then all right halves.
    D is the exact squared norm of the unnormalized sum.
    """
    m, d = spec.n, spec.d
    psi = _check_state(psi)
    phi = _check_state(phi)
    if psi.shape[0] != m * m or phi.shape[0] != m * m:
        raise DimensionMismatchError(f"states must live on C^{m} (x) C^{m}")
    if m ** (2 * d) > DENSE_AMPLITUDE_CAP:
        raise TooLargeError(f"{m ** (2 * d)} amplitudes exceed the dense cap 2^24")
    total = np.zeros(m ** (2 * d), dtype=complex)
    for j in range(1, d + 1):
        term = np.ones(1, dtype=complex)
        for c in range(d):
            term = np.kron(term, psi if c < j else phi)
        total += term
    norm_sq = float(np.vdot(total, total).real)
    if norm_sq < 1e-12:
        raise BadArgsError("degenerate embezzlement state (norm ~ 0)")
    total /= math.sqrt(norm_sq)
    perm = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    return linalg.permute_systems(total, (m,) * (2 * d), perm)


def _rotation_unitary(ext: int, copy: int, d: int, enc: list[int]) -> np.ndarray:
    """Left rotation of register contents, controlled on the front register.

    Registers: one front register of dimension ext followed by d copies of
    dimension copy. enc[k] is the front-register index that encodes copy
    content k. When the front content lies in enc, contents move one slot
    left (front <- copy 1, ..., copy d <- decoded front content); all other
    basis states are fixed.
    """
    dec = {e: k for k, e in enumerate(enc)}
    if len(dec) != len(enc):
        raise BadArgsError("enc must be injective")
    size = ext * copy**d
    sigma = np.arange(size)
    for x in range(size):
        e, rest = divmod(x, copy**d)
        if e not in dec:
            continue
        ks = []
        r = rest
        for _ in range(d):
            r, k = divmod(r, copy)
            ks.append(k)
        ks.reverse()
        new_e = enc[ks[0]]
        new_ks = ks[1:] + [dec[e]]
        y = new_e
        for k in new_ks:
            y = y * copy + k
        sigma[x] = y
    if len(set(sigma.tolist())) != size:
        raise AssertionError("rotation map is not a bijection")
    v = np.zeros((size, size), dtype=complex)
    v[sigma, np.arange(size)] = 1.0
    return v


def t_entangled_strategy(n: int, d: int) -> EntangledStrategy:
    """Embezzlement strategy for the T family achieving bias 1 - 1/d.

    Each player holds an ancilla qubit (extending the message register by
    one level) and d private copies; controlled on the message not being
    |0>, contents rotate one slot left through the staircase state, after
    which the two-level distinguisher on {|0>, extra level} is measured.
    """
    if n < 1 or d < 1:
        raise BadArgsError("n and d must be >= 1")
    loc = n + 1  # game message dimension
    copy = n + 1  # private copy space: levels 1..n+1 stored as 0..n
    ext = 2 * loc  # message (x) ancilla qubit, index e = 2*i + anc
    priv = 2 * copy**d
    if (loc * priv) ** 2 > DENSE_AMPLITUDE_CAP:
        raise TooLargeError("strategy exceeds the dense evaluation cap")

    psi_pair = np.zeros(copy * copy, dtype=complex)
    psi_pair[n * copy + n] = 1.0  # level pair (n+1, n+1)
    phi_pair = np.zeros(copy * copy, dtype=complex)
    for i in range(n):  # levels (i+1, i+1), i.e. the maximally entangled state
        phi_pair[i * copy + i] = 1.0 / math.sqrt(n)
    gamma = embezzlement_state(EmbezzlementSpec(copy, d), psi_pair, phi_pair)

    # Copy content k encodes level k+1: message levels 1..n sit at extended
    # index 2*(k+1); the extra level n+1 uses the ancilla slot (i=0, anc=1).
    enc = [2 * (k + 1) for k in range(n)] + [1]
    v = _rotation_unitary(ext, copy, d, enc)
    q = np.zeros((ext, ext), dtype=complex)
    q[0, 1] = q[1, 0] = 1.0  # distinguisher on {level 0, extra level}
    a = v.conj().T @ np.kron(q, np.eye(copy**d)) @ v

    anc = np.zeros(4, dtype=complex)
    anc[0] = 1.0  # |0>|0> on the two ancilla qubits
    state = np.kron(anc, gamma)  # (ancA, ancB, copiesA, copiesB)
    state = linalg.permute_systems(state, (2, 2, copy**d, copy**d), (0, 2, 1, 3))
    return EntangledStrategy(d_a=priv, d_b=priv, a=a, b=a.copy(), psi=state)


def lemma_rank_one_strategy(
    g: RankOneGame,
    u: np.ndarray,
    v: np.ndarray,
    psi: np.ndarray,
    phi: np.ndarray,
    d: int,
) -> EntangledStrategy:
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
    psi = _check_state(psi)
    phi = _check_state(phi)
    h = math.isqrt(psi.shape[0])
    if h * h != psi.shape[0] or phi.shape[0] != psi.shape[0]:
        raise DimensionMismatchError("psi and phi must be bipartite states on C^h (x) C^h")
    u = _check_contraction("U", u, False)
    v = _check_contraction("V", v, False)
    if u.shape[0] != n1 * h or v.shape[0] != n1 * h:
        raise DimensionMismatchError("U, V must act on C^n (x) C^h")
    game = rank_one_to_xor(g)
    priv = h ** (d + 1)
    if (2 * n1 * priv) ** 2 > DENSE_AMPLITUDE_CAP:
        raise TooLargeError("strategy exceeds the dense evaluation cap")

    gamma = embezzlement_state(EmbezzlementSpec(h, d), psi, phi)
    rot = _rotation_unitary(h, h, d, list(range(h)))  # unconditional rotation

    def build(uu: np.ndarray, vv: np.ndarray) -> EntangledStrategy:
        wa = np.kron(uu, np.eye(h**d)) @ np.kron(np.eye(n1), rot)
        wb = np.kron(vv, np.eye(h**d)) @ np.kron(np.eye(n1), rot)
        # The rotate-then-play action sits in the |1><0| flag block: the
        # game matrix pairs that block with the question-to-target
        # direction of the rank-one referee.
        e10 = np.array([[0.0, 0.0], [1.0, 0.0]])
        a = np.kron(e10, wa) + np.kron(e10.T, wa.conj().T)
        b = np.kron(e10, wb) + np.kron(e10.T, wb.conj().T)
        shared = np.kron(phi, gamma)  # (r0A, r0B, restA, restB)
        shared = linalg.permute_systems(shared, (h, h, h**d, h**d), (0, 2, 1, 3))
        return EntangledStrategy(d_a=priv, d_b=priv, a=a, b=b, psi=shared)

    b0 = bias(game, build(u, v))
    b1 = bias(game, build(1j * u, v))
    w0 = b0 - 1j * b1
    if abs(w0) > 1e-300:
        u = cmath.exp(-1j * cmath.phase(w0)) * u
    return build(u, v)


def symmetrize(g: GameMatrix, s: EntangledStrategy) -> EntangledStrategy:
    """Exchange-symmetric form of an entangled strategy with equal bias.

    Requires the game matrix to be invariant under swapping the two message
    registers (true for every family built here). The shared state is
    restricted to its Schmidt support, a flag qubit routes each player to
    one of the original operators, and a final dilation by one ancilla
    qubit turns the Hermitian contraction into an observable. The bias of
    the output is checked against the input's (PreconditionViolatedError).
    """
    if not isinstance(s, EntangledStrategy):
        raise BadArgsError("symmetrize expects an entangled strategy")
    n = g.n
    swapped = linalg.permute_systems(g.m, (n, n), (1, 0))
    if np.linalg.norm(swapped - g.m) > 1e-9 * max(1.0, np.linalg.norm(g.m)):
        raise BadArgsError("game matrix must be exchange-symmetric")
    before = bias(g, s)

    mat = s.psi.reshape(s.d_a, s.d_b)
    ua, sv, vb = linalg.svd(mat)
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

    out = EntangledStrategy(d_a=d_out, d_b=d_out, a=a_out, b=a_out.copy(), psi=psi_out)
    after = bias(g, out)
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


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return linalg.hermitian_part(z)


def random_strategy(kind: str, g: GameMatrix, dims, seed: int) -> Strategy:
    """Seeded random strategy: spectral signs of Gaussian Hermitian draws
    (Haar unitaries for the complex class) and a Gaussian unit state."""
    rng = np.random.default_rng(seed)
    n = g.n
    if kind == "unentangled":
        return UnentangledStrategy(
            a=linalg.sign_of_hermitian(random_hermitian(rng, n)),
            b=linalg.sign_of_hermitian(random_hermitian(rng, n)),
        )
    if kind == "complex":
        za = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        zb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ua, _, va = linalg.svd(za)
        ub, _, vb = linalg.svd(zb)
        return ComplexStrategy(a=ua @ va.conj().T, b=ub @ vb.conj().T)
    if kind == "maxent":
        d = int(dims)
        return MaxEntangledStrategy(
            d=d,
            a=linalg.sign_of_hermitian(random_hermitian(rng, n * d)),
            b=linalg.sign_of_hermitian(random_hermitian(rng, n * d)),
        )
    if kind == "entangled":
        da, db = dims
        psi = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
        psi /= np.linalg.norm(psi)
        return EntangledStrategy(
            d_a=da,
            d_b=db,
            a=linalg.sign_of_hermitian(random_hermitian(rng, n * da)),
            b=linalg.sign_of_hermitian(random_hermitian(rng, n * db)),
            psi=psi,
        )
    raise BadArgsError(f"unknown strategy kind {kind!r}")
