"""Player strategies for quantum XOR games and exact bias evaluation.

Every resource class is one record, Strategy(a, b, psi, hermitian), scored
by one form, Tr((A (x) B)(M (x) |psi><psi|)). The classes differ only in
psi, kept as its dA x dB coefficient matrix, and in whether A and B are
Hermitian:

  unentangled   psi = [[1]]; Hermitian contractions on the message registers.
  complex       psi = [[1]]; arbitrary contractions (hermitian=False, a
                relaxation whose bias is a modulus).
  me:d          psi = I/sqrt(d), the maximally entangled state; Hermitian
                contractions on message (x) C^d.
  ent:dA x dB   psi a free unit state; Hermitian contractions on message
                (x) the player's private space.

The explicit strategies below build psi in this layout directly; the
embezzlement state is its n^d x n^d matrix, rows A's copies, columns B's.

One contraction evaluates the form: the effective operator K of B and psi,
with Tr(A K) equal to the form. bias takes Tr(A K), and the see-saw's two
half-steps take K in both orientations (effective_operator_for_a/_b), for a
whole stack of restarts at once: R shared states are one (R, dA, dB) array.

The contraction is one matrix product with the game's realigned matrix
R[(k, i), (j, l)] = M[(k, l), (i, j)] (GameMatrix.realigned, one contiguous
copy per game). A's operator multiplies R from the right by the small
blocks X_jl = psi B_jl^T psi^dagger of every operator of the stack; B's
multiplies R from the left by its blocks with the two message indices
swapped, so one copy of R serves both players. bias runs the same code on
a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadArgsError,
    DimensionMismatchError,
    check_dense,
)
from .games import GameMatrix

OP_NORM_SLACK = 1e-9
STATE_NORM_TOL = 1e-10
IMAG_RESIDUE_TOL = 1e-9


def _check_contraction(name: str, a: np.ndarray, hermitian: bool) -> np.ndarray:
    a = linalg.check_square(a)
    if hermitian:
        a = linalg.check_hermitian(a)
    if linalg.op_norm(a) > 1.0 + OP_NORM_SLACK:
        raise BadArgsError(f"{name} must be a contraction (operator norm <= 1)")
    return a


def _check_state(psi: np.ndarray) -> np.ndarray:
    psi = linalg.as_complex(psi)
    if abs(np.linalg.norm(psi) - 1.0) > STATE_NORM_TOL:
        raise BadArgsError("shared state must be a unit vector")
    return psi


@dataclass(frozen=True)
class Strategy:
    """A on C^n (x) C^dA and B on C^n (x) C^dB, one message space C^n, with
    (dA, dB) = psi.shape; both contractions, Hermitian unless hermitian is
    False. The classes are in the module docstring."""

    a: np.ndarray
    b: np.ndarray
    psi: np.ndarray
    hermitian: bool = True

    def __post_init__(self):
        object.__setattr__(self, "a", _check_contraction("A", self.a, self.hermitian))
        object.__setattr__(self, "b", _check_contraction("B", self.b, self.hermitian))
        psi = linalg.as_complex(self.psi)
        if psi.ndim != 2:
            raise DimensionMismatchError(f"shared state of shape {psi.shape} is not dA x dB")
        object.__setattr__(self, "psi", _check_state(psi))
        (da, db), sides = psi.shape, (self.a.shape[0], self.b.shape[0])
        if sides[0] % da or sides[1] % db or sides[0] // da != sides[1] // db:
            raise DimensionMismatchError(
                f"operators of sides {sides} do not act on C^n (x) C^{da} and C^n (x) C^{db}"
            )


def _effective_operators(
    g: GameMatrix, parts: np.ndarray, psi: np.ndarray, for_b: bool
) -> np.ndarray:
    """The effective operator of each part of a stack (R, n*din, n*din),
    part r with the state psi[r] of the stack psi (R, dA, dB).

    With p = psi[r] (A's operator, parts of B, din = dB) or psi[r]^T (B's,
    parts of A, din = dA), part_jl[d, b] = part[(j, d), (l, b)] and X_jl =
    p part_jl^T p^dagger, A's is K[(k, a), (i, c)] = sum_jl X_jl[a, c]
    M[(k, l), (i, j)] = sum_jl R[(k, i), (j, l)] X_jl[a, c], R = g.realigned;
    B's is L[(l, b), (j, d)] = sum_ik R[(k, i), (j, l)] X_ik[b, d]: the same
    matrix R contracted on its other side, with the two message indices of
    X swapped. Either is one matrix product of R with all R * dout^2 entries
    of X at once.
    """
    parts, psi, n = linalg.as_complex(parts), linalg.as_complex(psi), g.n
    din = psi.shape[-2 if for_b else -1] if psi.ndim == 3 else 0
    if din < 1 or parts.shape != (psi.shape[0], n * din, n * din):
        raise DimensionMismatchError("operator or state incompatible with the game")
    p = psi.swapaxes(-1, -2) if for_b else psi
    r, dout = p.shape[:2]
    # part^T's private indices first: [r, b, (j, l, d)] = part[r, (j, d), (l, b)]
    pt = parts.reshape(r, n, din, n, din).transpose(0, 4, 1, 3, 2).reshape(r, din, -1)
    x = ((p @ pt).reshape(r, -1, din) @ linalg.dagger(p)).reshape(r, dout, n, n, dout)
    if for_b:  # rows (r, b, d), columns (l, j)
        out = x.transpose(0, 1, 4, 3, 2).reshape(-1, n * n) @ g.realigned
        out = out.reshape(r, dout, dout, n, n).transpose(0, 4, 1, 3, 2)
    else:  # rows (j, l), columns (r, a, c)
        out = g.realigned @ x.transpose(2, 3, 0, 1, 4).reshape(n * n, -1)
        out = out.reshape(n, n, r, dout, dout).transpose(2, 0, 3, 1, 4)
    return out.reshape(r, n * dout, n * dout)


def effective_operator_for_a(g: GameMatrix, b_parts: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The stack of K_r with Tr(A K_r) = Tr((A (x) B_r)(M (x) |psi_r><psi_r|))
    for every A, from the stack b_parts (R, n*dB, n*dB) and the stack psi
    (R, dA, dB) of shared states; K_r is Hermitian whenever B_r is, since a
    validated M is."""
    return _effective_operators(g, b_parts, psi, False)


def effective_operator_for_b(g: GameMatrix, a_parts: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The stack of L_r with Tr(B L_r) = Tr((A_r (x) B)(M (x) |psi_r><psi_r|))
    for every B, from the stack a_parts (R, n*dA, n*dA) and the stack psi
    (R, dA, dB) of shared states."""
    return _effective_operators(g, a_parts, psi, True)


def bias(g: GameMatrix, s: Strategy) -> float:
    """Exact bias of a strategy in a game: Tr(A K) with K the effective
    operator of B and the strategy's shared state psi.

    A Hermitian strategy must yield a real value (the imaginary residue is
    checked below 1e-9, then discarded); the complex class returns the
    modulus.
    """
    k = effective_operator_for_a(g, s.b[None], s.psi[None])[0]
    val = complex(np.sum(s.a * k.T))  # Tr(A K)
    if not s.hermitian:
        return abs(val)
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val)):
        raise BadArgsError(f"bias has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


# --- explicit strategies -----------------------------------------------------


def t_unentangled_strategy(n: int) -> Strategy:
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
    return Strategy(q, q.copy(), np.ones((1, 1)))


def h1_unentangled_strategy() -> Strategy:
    """Both players bet on the antisymmetric question pair: A = iC1, B = -iC1."""
    c1 = np.zeros((3, 3), dtype=complex)
    c1[1, 2] = 1.0
    c1[2, 1] = -1.0
    return Strategy(1j * c1, -1j * c1, np.ones((1, 1)), hermitian=False)


def h1_me_strategy() -> Strategy:
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
    vecs.append(linalg.max_entangled_state(3).ravel())
    p0 = np.zeros((9, 9), dtype=complex)
    for v in vecs:
        p0 += np.outer(v, v.conj())
    a = 2.0 * p0 - np.eye(9)
    return Strategy(a, a.copy(), linalg.max_entangled_state(3))


def embezzlement_state(n: int, d: int, psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Gamma_d = D^(-1/2) sum_{j=1..d} psi^(x j) (x) phi^(x (d-j)).

    psi and phi are unit bipartite states on C^n (x) C^n, given as n x n
    coefficient matrices; the output is Gamma_d's n^d x n^d coefficient
    matrix, rows the d left halves and columns the d right halves, so each
    term is a Kronecker power of the pair matrices. D is the exact squared
    norm of the unnormalized sum.
    """
    if n < 1 or d < 1:
        raise BadArgsError("n and d must be >= 1")
    psi, phi = _check_state(psi), _check_state(phi)
    if psi.shape != (n, n) or phi.shape != (n, n):
        raise DimensionMismatchError(f"states must be {n} x {n} coefficient matrices")
    check_dense(n ** (2 * d), "the embezzlement state")
    total = np.zeros((n**d, n**d), dtype=complex)
    for j in range(1, d + 1):
        term = np.ones((1, 1), dtype=complex)
        for c in range(d):
            term = np.kron(term, psi if c < j else phi)
        total += term
    norm_sq = float(np.vdot(total, total).real)
    if norm_sq < 1e-12:
        raise BadArgsError("degenerate embezzlement state (norm ~ 0)")
    return total / math.sqrt(norm_sq)


def _rotation(ext: int, copy: int, d: int, enc: list[int]) -> np.ndarray:
    """Left rotation of register contents, controlled on the front register,
    as the basis permutation sigma of its unitary V: V[sigma[x], x] = 1.

    Registers: one front register of dimension ext followed by d copies of
    dimension copy. enc[k] is the front-register index that encodes copy
    content k, for k < copy. When the front content lies in enc, contents
    move one slot left (front <- encoded copy 1, ..., copy d <- decoded
    front content); all other basis states are fixed.
    """
    if len(set(enc)) != len(enc):
        raise BadArgsError("enc must be injective")
    enc = np.asarray(enc)
    dec = np.full(ext, -1)
    dec[enc] = np.arange(len(enc))
    shape = (ext,) + (copy,) * d
    sigma = np.arange(ext * copy**d)
    moved = sigma[dec[sigma // copy**d] >= 0]
    front, *ks = np.unravel_index(moved, shape)
    sigma[moved] = np.ravel_multi_index((enc[ks[0]], *ks[1:], dec[front]), shape)
    return sigma


def t_entangled_strategy(n: int, d: int) -> Strategy:
    """Embezzlement strategy for the T family achieving bias 1 - 1/d.

    Each player holds an ancilla qubit (extending the message register by
    one level) and d private copies; controlled on the message not being
    |0>, contents rotate one slot left through the staircase state, after
    which the two-level distinguisher on {|0>, extra level} is measured.
    A player's private space is (ancilla, copies), and the shared state is
    the staircase state in its |0>|0> ancilla block.
    """
    if n < 1 or d < 1:
        raise BadArgsError("n and d must be >= 1")
    loc = n + 1  # game message dimension
    copy = n + 1  # private copy space: levels 1..n+1 stored as 0..n
    ext = 2 * loc  # message (x) ancilla qubit, index e = 2*i + anc
    priv = 2 * copy**d
    check_dense((loc * priv) ** 2, "the strategy's dense evaluation")

    psi_pair = np.zeros((copy, copy), dtype=complex)
    psi_pair[n, n] = 1.0  # level pair (n+1, n+1)
    phi_pair = np.zeros((copy, copy), dtype=complex)
    for i in range(n):  # levels (i+1, i+1), i.e. the maximally entangled state
        phi_pair[i, i] = 1.0 / math.sqrt(n)

    # Copy content k encodes level k+1: message levels 1..n sit at extended
    # index 2*(k+1); the extra level n+1 uses the ancilla slot (i=0, anc=1).
    enc = [2 * (k + 1) for k in range(n)] + [1]
    sigma = _rotation(ext, copy, d, enc)
    q = np.zeros((ext, ext), dtype=complex)
    q[0, 1] = q[1, 0] = 1.0  # distinguisher on {level 0, extra level}
    a = np.kron(q, np.eye(copy**d))[np.ix_(sigma, sigma)]  # V^dagger (Q (x) I) V

    psi = np.zeros((priv, priv), dtype=complex)
    psi[: copy**d, : copy**d] = embezzlement_state(copy, d, psi_pair, phi_pair)
    return Strategy(a, a.copy(), psi)
