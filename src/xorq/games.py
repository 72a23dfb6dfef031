"""Construction, validation, and transformation of quantum XOR game matrices.

A game on message dimension n is a Hermitian matrix M on C^n (x) C^n with
trace norm at most 1. Classical XOR games embed as diagonal M. The named
families built here:

  t_game(n)  distinguish (|00> +/- |Psi_me>)/sqrt(2); unentangled bias
             1/sqrt(n) but entangled bias 1.
  h_game(n)  antisymmetric-tensor family on C(2n+1, n) levels; separates
             the Gram relaxations from the maximally entangled bias.
  c_game(n)  distinguish (|0,k> +/- |k,0>)/sqrt(2) over uniform k; breaks
             perfect parallel repetition.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BadArgsError,
    DimensionMismatchError,
    FormatError,
    TraceNormExceededError,
    ZeroGameError,
)

TRACE_NORM_SLACK = 1e-8
CLASSICAL_NORM_SLACK = 1e-10
SPECTRAL_CUTOFF = 1e-12


@dataclass(frozen=True)
class GameMatrix:
    """Validated quantum XOR game: Hermitian M on C^n (x) C^n, ||M||_1 <= 1."""

    n: int
    m: np.ndarray

    @property
    def dim(self) -> int:
        return self.n * self.n


def validate(m: np.ndarray, n: int) -> GameMatrix:
    """Check Hermiticity and the trace-norm cap, symmetrize, and wrap."""
    m = linalg.as_complex(m)
    if m.shape != (n * n, n * n):
        raise DimensionMismatchError(
            f"expected a {n * n} x {n * n} matrix for message dimension {n}"
        )
    m = linalg.check_hermitian(m)
    norm = linalg.trace_norm(m)
    if norm > 1.0 + TRACE_NORM_SLACK:
        raise TraceNormExceededError(norm)
    return GameMatrix(n=n, m=m)


@dataclass(frozen=True)
class ClassicalGame:
    """Classical XOR game: n x n real coefficients with sum |R_st| <= 1."""

    n: int
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != (self.n, self.n):
            raise DimensionMismatchError(f"coefficients must be {self.n} x {self.n}")
        total = float(np.sum(np.abs(r)))
        if total > 1.0 + CLASSICAL_NORM_SLACK:
            raise TraceNormExceededError(total)
        object.__setattr__(self, "r", r)


def chsh() -> ClassicalGame:
    """The CHSH game: R = [[1/4, 1/4], [1/4, -1/4]]."""
    return ClassicalGame(n=2, r=np.array([[0.25, 0.25], [0.25, -0.25]]))


def from_classical(g: ClassicalGame) -> GameMatrix:
    """Diagonal embedding M = sum_st R_st |s><s| (x) |t><t|."""
    n = g.n
    m = np.zeros((n * n, n * n), dtype=complex)
    idx = np.arange(n * n)
    m[idx, idx] = g.r.reshape(-1)
    return validate(m, n)


def t_game(n: int) -> GameMatrix:
    """M = (1/(2 sqrt n)) sum_i (|00><ii| + |ii><00|) on n+1 levels."""
    if n < 1:
        raise BadArgsError("n must be >= 1")
    loc = n + 1
    m = np.zeros((loc * loc, loc * loc), dtype=complex)
    w = 1.0 / (2.0 * math.sqrt(n))
    for i in range(1, n + 1):
        ii = i * loc + i
        m[0, ii] += w
        m[ii, 0] += w
    return validate(m, loc)


def c_game(n: int) -> GameMatrix:
    """M = (1/(2n)) sum_k (|0,k><k,0| + |k,0><0,k|) on n+1 levels."""
    if n < 1:
        raise BadArgsError("n must be >= 1")
    loc = n + 1
    m = np.zeros((loc * loc, loc * loc), dtype=complex)
    w = 1.0 / (2.0 * n)
    for k in range(1, n + 1):
        zk = 0 * loc + k
        kz = k * loc + 0
        m[zk, kz] += w
        m[kz, zk] += w
    return validate(m, loc)


def h_subset_sign(i: int, subset: tuple[int, ...], universe: int) -> int:
    """Sign epsilon(i, S): parity of (S, i, complement(S u {i})), blocks sorted."""
    rest = [x for x in range(1, universe + 1) if x != i and x not in subset]
    return linalg.permutation_sign(list(subset) + [i] + rest)


def h_c_matrices(n: int) -> list[np.ndarray]:
    """The 2n+1 creation-style maps e_S -> eps(i,S) e_{complement(S u {i})}.

    Basis of C^N, N = C(2n+1, n), indexed by sorted n-subsets of {1..2n+1}
    in lexicographic order.
    """
    if n < 1:
        raise BadArgsError("n must be >= 1")
    universe = 2 * n + 1
    subsets = list(itertools.combinations(range(1, universe + 1), n))
    index = {s: j for j, s in enumerate(subsets)}
    big = len(subsets)
    mats = []
    for i in range(1, universe + 1):
        c = np.zeros((big, big))
        for s in subsets:
            if i in s:
                continue
            target = tuple(x for x in range(1, universe + 1) if x != i and x not in s)
            c[index[target], index[s]] = h_subset_sign(i, s, universe)
        mats.append(c)
    return mats


def h_game(n: int) -> GameMatrix:
    """M = C(4n+1, 2n)^(-1) sum_i C_i (x) C_i on C(2n+1, n) levels."""
    mats = h_c_matrices(n)
    big = mats[0].shape[0]
    m = np.zeros((big * big, big * big), dtype=complex)
    for c in mats:
        m += np.kron(c, c)
    m /= math.comb(4 * n + 1, 2 * n)
    return validate(m, big)


def tensor_games(g1: GameMatrix, g2: GameMatrix) -> GameMatrix:
    """Parallel repetition: M1 (x) M2 with both Alice factors leading.

    Register order of the result is (A1 A2)(B1 B2); local dimension n1*n2.
    """
    n1, n2 = g1.n, g2.n
    raw = np.kron(g1.m, g2.m)  # order (A1, B1, A2, B2)
    m = linalg.permute_systems(raw, (n1, n1, n2, n2), (0, 2, 1, 3))
    return validate(m, n1 * n2)


@dataclass(frozen=True)
class RefereeProtocol:
    """Operational form of a game: orthonormal question states with parities.

    Each outcome is (probability, parity bit, unit state on C^n (x) C^n);
    the referee rejects outright with the remaining probability.
    """

    outcomes: tuple[tuple[float, int, np.ndarray], ...]
    reject_probability: float

    def reconstruct(self, dim: int) -> np.ndarray:
        m = np.zeros((dim, dim), dtype=complex)
        for p, c, phi in self.outcomes:
            m += (-1) ** c * p * np.outer(phi, phi.conj())
        return m


def to_referee_protocol(g: GameMatrix) -> RefereeProtocol:
    """Spectral form M = sum (-1)^c_i p_i |Phi_i><Phi_i| with p_i > 0."""
    dec = linalg.herm_eig(g.m)
    outcomes = []
    for lam, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
        if abs(lam) <= SPECTRAL_CUTOFF:
            continue
        outcomes.append((abs(float(lam)), 0 if lam > 0 else 1, vec.copy()))
    total = sum(p for p, _, _ in outcomes)
    return RefereeProtocol(
        outcomes=tuple(outcomes), reject_probability=1.0 - total
    )


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


def to_product_state_protocol(g: GameMatrix) -> ProductStateDecomposition:
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
    return linalg.partial_trace(outer, (g.n * g.n, g.v_dim), "second")


def xor_to_rank_one(g: GameMatrix) -> RankOneGame:
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
    eta = np.zeros(g.dim * v_dim, dtype=complex)
    gamma = np.zeros(g.dim * v_dim, dtype=complex)
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


def rank_one_to_xor(g: RankOneGame) -> GameMatrix:
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
    return validate(m, 2 * n)


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


# --- xorq-game-v1 wire format ------------------------------------------------

GAME_FORMAT = "xorq-game-v1"


def game_to_dict(g: GameMatrix) -> dict:
    entries = []
    dim = g.dim
    for r in range(dim):
        for c in range(dim):
            v = g.m[r, c]
            if v != 0:
                entries.append(
                    {"r": r, "c": c, "re": float(v.real), "im": float(v.imag)}
                )
    return {"format": GAME_FORMAT, "n": g.n, "entries": entries}


def game_from_dict(data: dict) -> GameMatrix:
    if not isinstance(data, dict) or data.get("format") != GAME_FORMAT:
        raise FormatError(f"expected format {GAME_FORMAT!r}")
    try:
        n = int(data["n"])
        if n < 1:
            raise FormatError("n must be >= 1")
        m = np.zeros((n * n, n * n), dtype=complex)
        for e in data["entries"]:
            r, c = int(e["r"]), int(e["c"])
            if not (0 <= r < n * n and 0 <= c < n * n):
                raise FormatError(f"entry index ({r}, {c}) out of range")
            m[r, c] = float(e["re"]) + 1j * float(e["im"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed game file: {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise FormatError("game file has a non-finite entry")
    return validate(m, n)


def load_game(path) -> GameMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    return game_from_dict(data)
