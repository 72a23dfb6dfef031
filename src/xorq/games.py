"""Construction, validation, and transformation of quantum XOR game matrices.

A game on message dimension n is a Hermitian matrix M on C^n (x) C^n with
trace norm at most 1. A classical XOR game is its n x n real coefficients
R and embeds as the diagonal M of from_classical(R), on which beta_nc is
the vector relaxation beta_sdp. The named families built here:

  t_game(n)  distinguish (|00> +/- |Psi_me>)/sqrt(2); unentangled bias
             1/sqrt(n) but entangled bias 1.
  h_game(n)  antisymmetric-tensor family on C(2n+1, n) levels; separates
             the Gram relaxations from the maximally entangled bias.
  c_game(n)  distinguish (|0,k> +/- |k,0>)/sqrt(2) over uniform k; breaks
             perfect parallel repetition.

Every game's M is made in one place, _from_entries, which checks the n^4
dense cap before M exists. The builders emit M's nonzero entries into it by
index arithmetic (h_game's as products of its C_i's entries); only
tensor_games forms a Kronecker product. When games are held as tables of
their nonzeros (ROADMAP item 26 step 1), only _from_entries changes.

Each game decomposes M once, by the connected components of its nonzero
pattern (the graph on the n^2 basis indices with an edge wherever
M[r, c] != 0): M is block diagonal on them, so its eigenpairs are those of
the blocks. Components are ordered by their smallest index, with the
indices ascending inside each one. The components of one size share one
stacked eigvalsh (linalg.component_stacks), those of side 1 included, and a
game whose pattern is one component takes eigvalsh of M itself, with no
second copy of M. The tensor-product games are almost all zeros (C4 (x) C4:
625 basis indices, 593 components), so no dense n^2 x n^2 matrix is
factored for them. GameMatrix.eigenvalues keeps them, ascending (a stable
sort of the components' eigenvalues, taken in component order), read by
validation's trace-norm cap and the report's trace norm. For a classical
game, whose M is diagonal, that cap is sum |R_st| <= 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadArgsError,
    DimensionMismatchError,
    FormatError,
    TooLargeError,
    TraceNormExceededError,
    check_dense,
    json_float,
    json_int,
    load_json,
)

TRACE_NORM_SLACK = 1e-8


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """m's eigenvalues, ascending: label the components of m's pattern and
    take one stacked eigvalsh per component size; a pattern of one component
    is eigvalsh(m) itself."""
    label = linalg.component_labels(m.shape[0], *np.nonzero(m))
    values = np.empty(label.size)  # each component's eigenvalues at its nodes
    for idx in linalg.component_stacks(label):
        block = m if idx.shape[1] == label.size else m[idx[:, :, None], idx[:, None, :]]
        values[idx] = np.linalg.eigvalsh(block)
    return np.sort(values[np.argsort(label, kind="stable")], kind="stable")


@dataclass(frozen=True)
class GameMatrix:
    """Validated quantum XOR game: Hermitian M on C^n (x) C^n, ||M||_1 <= 1.

    M is decomposed once, by the components of its pattern, and eigenvalues
    keeps its eigenvalues, which validation's trace-norm cap and the
    report's trace norm read. No dense n^2 x n^2 matrix of a game with more
    than one component is factored."""

    n: int
    m: np.ndarray

    @functools.cached_property
    def realigned(self) -> np.ndarray:
        """M realigned, R[(k, i), (j, l)] = M[(k, l), (i, j)], as one
        contiguous copy made on first use: the n^2 x n^2 matrix that turns
        every effective operator into one matrix product
        (strategies.effective_operator_for_a/_b)."""
        n = self.n
        return self.m.reshape(n, n, n, n).transpose(0, 2, 3, 1).reshape(n * n, n * n)

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """M's eigenvalues, ascending, from its decomposition by components,
        computed on first use and shared by every reader."""
        return _eigenvalues(self.m)

    @property
    def trace_norm(self) -> float:
        """||M||_1, the sum of |eigenvalues| (M is Hermitian), summed in
        ascending order of the eigenvalues."""
        return float(np.sum(np.abs(self.eigenvalues)))


def validate(m: np.ndarray, n: int) -> GameMatrix:
    """Check Hermiticity and the trace-norm cap, symmetrize, and wrap.

    The cap is read from the game's one decomposition by components
    (GameMatrix.eigenvalues), which the returned game keeps for later use."""
    m = linalg.as_complex(m)
    if m.shape != (n * n, n * n):
        raise DimensionMismatchError(
            f"expected a {n * n} x {n * n} matrix for message dimension {n}"
        )
    g = GameMatrix(n=n, m=linalg.check_hermitian(m))
    if not g.trace_norm <= 1.0 + TRACE_NORM_SLACK:
        raise TraceNormExceededError(g.trace_norm)
    return g


def _from_entries(n: int, rows, cols, vals) -> GameMatrix:
    """The game on n levels whose M holds vals at (rows, cols), each position
    given once, and 0 elsewhere: the one place a game's dense M is made,
    refused above the dense cap before it exists."""
    check_dense(n**4, f"a game with n = {n}")
    m = np.zeros((n * n, n * n), dtype=complex)
    m[rows, cols] = vals
    return validate(m, n)


def chsh() -> np.ndarray:
    """The CHSH game's coefficients R = [[1/4, 1/4], [1/4, -1/4]]."""
    return np.array([[0.25, 0.25], [0.25, -0.25]])


def from_classical(r) -> GameMatrix:
    """Diagonal embedding M = sum_st R_st |s><s| (x) |t><t| of a classical
    XOR game's n x n real coefficients R, sum |R_st| <= 1: validate's
    trace-norm cap, as ||M||_1 = sum |R_st| for a diagonal M."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionMismatchError(f"coefficients must be n x n, got shape {r.shape}")
    idx = np.arange(r.size)
    return _from_entries(r.shape[0], idx, idx, r.reshape(-1))


def _check_param(n: int):
    """BadArgsError for a family index n < 1. Every family has more than n
    levels, so an n above 2^6 = (2^24)^(1/4) is a TooLargeError before any
    power or binomial of n is formed, whatever its size."""
    if n < 1:
        raise BadArgsError("n must be >= 1")
    if n > 2**6:
        raise TooLargeError(
            "a game of family index n > 2^6 has more than n^4 entries (> 2^24), above the dense cap"
        )


def t_game(n: int) -> GameMatrix:
    """M = (1/(2 sqrt n)) sum_i (|00><ii| + |ii><00|) on n+1 levels."""
    _check_param(n)
    ii = np.arange(1, n + 1) * (n + 2)  # |ii> = i (n + 1) + i
    zero = np.zeros(n, dtype=int)  # |00>
    return _from_entries(n + 1, np.r_[zero, ii], np.r_[ii, zero], 1.0 / (2.0 * math.sqrt(n)))


def c_game(n: int) -> GameMatrix:
    """M = (1/(2n)) sum_k (|0,k><k,0| + |k,0><0,k|) on n+1 levels."""
    _check_param(n)
    zk = np.arange(1, n + 1)  # |0,k> = k
    kz = zk * (n + 1)  # |k,0> = k (n + 1)
    return _from_entries(n + 1, np.r_[zk, kz], np.r_[kz, zk], 1.0 / (2.0 * n))


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
    """M = C(4n+1, 2n)^(-1) sum_i C_i (x) C_i on C(2n+1, n) levels.

    A term's entries are products of two of C_i's C(2n, n) entries +/-1, and
    no two terms share one: i is in neither the row's nor the column's first subset."""
    _check_param(n)
    big = math.comb(2 * n + 1, n)
    check_dense(big**4, f"a game with n = {big}")
    c = np.array(h_c_matrices(n))
    i, t, s = (x.reshape(2 * n + 1, -1, 1) for x in np.nonzero(c))  # C_i's entries
    vals = c[i, t, s] * c[i, t, s].swapaxes(1, 2) / math.comb(4 * n + 1, 2 * n)
    return _from_entries(big, big * t + t.swapaxes(1, 2), big * s + s.swapaxes(1, 2), vals)


def tensor_games(g1: GameMatrix, g2: GameMatrix) -> GameMatrix:
    """Parallel repetition: M1 (x) M2 with both Alice factors leading.

    Register order of the result is (A1 A2)(B1 B2); local dimension n1*n2.
    """
    n1, n2 = g1.n, g2.n
    check_dense((n1 * n2) ** 4, f"a game with n = {n1 * n2}")
    raw = np.kron(g1.m, g2.m)  # order (A1, B1, A2, B2)
    m = linalg.permute_systems(raw, (n1, n1, n2, n2), (0, 2, 1, 3))
    return validate(m, n1 * n2)


# --- game files: xorq-game-v1 and classical coefficients ----------------------

GAME_FORMAT = "xorq-game-v1"


def game_to_dict(g: GameMatrix) -> dict:
    """The nonzero entries of M in row-major order."""
    rows, cols = np.nonzero(g.m)
    entries = [
        {"r": r, "c": c, "re": v.real, "im": v.imag}
        for r, c, v in zip(rows.tolist(), cols.tolist(), g.m[rows, cols].tolist())
    ]
    return {"format": GAME_FORMAT, "n": g.n, "entries": entries}


def game_from_dict(data: dict) -> GameMatrix:
    """The game of an xorq-game-v1 file; FormatError also for an entry listed twice."""
    if not isinstance(data, dict) or data.get("format") != GAME_FORMAT:
        raise FormatError(f"expected format {GAME_FORMAT!r}")
    try:
        n = json_int(data["n"])
        if n < 1:
            raise FormatError("n must be >= 1")
        entries = {}
        for e in data["entries"]:
            r, c = json_int(e["r"]), json_int(e["c"])
            if not (0 <= r < n * n and 0 <= c < n * n):
                raise FormatError(f"entry index ({r}, {c}) out of range")
            if (r, c) in entries:
                raise FormatError(f"entry ({r}, {c}) is listed twice")
            entries[r, c] = json_float(e["re"]) + 1j * json_float(e["im"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed game file: {exc}") from exc
    vals = np.array(list(entries.values()), dtype=complex)
    # |M_rc| <= ||M||_1, and the check keeps overflow out of validate.
    if np.max(np.abs(vals), initial=0.0) > 1.0 + TRACE_NORM_SLACK:
        raise FormatError("game entry of modulus above 1: the trace norm exceeds 1")
    rows, cols = np.array(list(entries), dtype=np.intp).reshape(-1, 2).T
    return _from_entries(n, rows, cols, vals)


def classical_game_from_dict(data) -> GameMatrix:
    """Embedded classical game from {"r": n x n coefficients} or the bare list."""
    try:
        rows = data["r"] if isinstance(data, dict) else data
        r = np.array([[json_float(x) for x in row] for row in rows], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed classical game file: {exc}") from exc
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise FormatError(f"classical coefficients must be n x n, got shape {r.shape}")
    # |R_st| <= ||M||_1, and the check keeps overflow out of validate.
    if np.max(np.abs(r)) > 1.0 + TRACE_NORM_SLACK:
        raise FormatError("classical coefficient of modulus above 1")
    return from_classical(r)


def load_game(path) -> GameMatrix:
    return game_from_dict(load_json(path))


def load_classical_game(path) -> GameMatrix:
    return classical_game_from_dict(load_json(path))
