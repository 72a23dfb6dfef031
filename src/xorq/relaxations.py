"""Efficiently solvable relaxations of the game biases.

Three Gram-matrix semidefinite programs, each from the GameMatrix:

  beta_nc   vector-valued matrices X, Y with all four products
            XX^+, X^+X, YY^+, Y^+Y equal to the identity.
  beta_os   row/column-weighted families (X_R, X_C, Y_R, Y_C) with the
            consistency constraint X_R . Y_C = X_C . Y_R, upper-bounding
            the entangled bias.
  beta_sdp  a classical game's relaxation to unit vectors, solved as
            beta_nc of its diagonal embedding M (games.from_classical).

beta_nc of M has beta_sdp's optimum: given unit vectors x_s and y_t, set
X_ss = x_s, Y_tt = y_t and every other entry to 0; every cap holds, as the
products off the diagonal vanish and the diagonal ones are |x_s|^2 = 1.
Conversely, the row cap gives |X_ss| <= 1, and the objective reads only
X_ss and Y_tt, so padding those vectors to unit norm changes nothing.

The Gram variables are the conjugated X-entry vectors and the plain
Y-entry vectors; maximizing the real part of the objective is exact by the
global-phase freedom of each family. Each program is built as one PSD Gram
matrix; sdp.solve finds the finest block partition that its objective and
rows allow (beta_os of a random game {X_R, Y_C} and {X_C, Y_R}, beta_os of
T_k and C_k blocks of side 2 and 1).

All take one path: a builder gives the instance, and _solve_gram solves it
and returns its value, refusing a solve that did not end optimal. The Gram
indices are the families' entries, family after family at bases that are
multiples of n^2: X then Y, or X_R, X_C, Y_R, Y_C for beta_os, entry (i, k)
at base + i*n + k. Every row comes from a functional, a sum of real
coefficients times entries Z[i, j], i <= j, equal to a real constant, given
by index arithmetic over the family bases (_cap; np.divmod for beta_os's
consistency); _table turns them into the instance's table: one row for the
real part and, for a complex M and a functional with a term off the
diagonal, one with rhs 0 for the imaginary part. C heads the table, owner
-1, one entry per nonzero of M (_gram_objective). Each builder checks a
bound on its table against the dense cap before building it: beta_nc
nnz(M) + 4n^3, C's entries and the caps' 2n(n^2 + n - 1) terms (4n^3 - 2n
with a complex M's imaginary-part rows); beta_os side^2, which bounds C and
its n^4 consistency rows, built in full although pinching drops most of
them, so beta_os of n >= 33 is refused before they exist. The solver's own
cap counts Z packed on its classes and the Schur matrix of its kept rows.

A real M needs no imaginary-part rows. Its objective C and every real-part
row are real, so if Z is feasible so is its conjugate, on which the
imaginary-part rows take the negated value, 0, and every other row and the
objective the same value. Re Z = (Z + conj Z) / 2 is then PSD, feasible and
has the same objective, and on a real symmetric Z every imaginary-part row
vanishes. So the program without them, which the solver takes over real
symmetric Z, has the same optimum, and a dual point of it, with 0 for each
left-out row, is a dual point of the full program: A^T y - C is unchanged.
Each instance builder checks once whether M is real.

The caps are equalities, where the relaxations of the paper ask for
products <= I; the optimum is the same. An equality-feasible point is
<=-feasible. Conversely, let a family X have XX^+ <= I and X^+X <= I, and
write I - sum_r X_r X_r^+ = sum_i a_i u_i u_i^+ and I - sum_r X_r^+ X_r =
sum_j b_j v_j v_j^+; both have trace t = n - sum |x|^2. If t > 0, append
vector coordinates (i, j) carrying X = sqrt(a_i b_j / t) u_i v_j^+, zero in
every other family: both caps then hold with equality. The objective
sum_r Tr((X_r (x) Y_r) M) is unchanged, as every new coordinate is zero in
the partner family, and so are beta_os's consistency products X_R . Y_C and
X_C . Y_R. A beta_os family has only one cap, say the row one; there the
coordinates i carrying X = sqrt(a_i) u_i e^+, e a fixed unit vector, fill
it.

Every constraint row is independent. A beta_nc family keeps both caps but
not the (n-1, n-1) diagonal of the column one: the traces of both products
are sum |x|^2, so once the row cap holds and the other column diagonals are
1, that entry is n - (n - 1) = 1 as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sdp as sdp_mod
from .errors import BadArgsError, FormatError, SdpError, check_dense
from .games import GameMatrix
from .report import CHAINS, BiasReport


@dataclass(frozen=True)
class RelaxationResult:
    value: float


# --- compilation -----------------------------------------------------------------


def _table(objective, functionals, real: bool) -> tuple[np.ndarray, ...]:
    """The table (rows, cols, vals, owner, rhs) of an SdpInstance: C's
    entries (i, j, v), i <= j, first, owner -1, then the rows of the
    functionals sum_t v_t Z[i_t, j_t] = rhs with i_t <= j_t and v_t real,
    given as blocks (i, j, v, rhs): i and j of shape (F, k), one functional
    of k terms per row, v and rhs broadcast to (F, k) and (F,). Each gives
    its real part's row and then, for a complex M (real False) and a term
    off the diagonal, its imaginary part's over those terms."""
    parts, done = [(*objective, np.full(len(objective[0]), -1), np.zeros(0))], 0
    for i, j, v, rhs in functionals:
        (f, k), v = i.shape, np.broadcast_to(v, i.shape)
        off = i < j
        im = off.any(axis=1) & (not real)
        first = np.arange(f) + np.cumsum(im) - im  # the block's row of each real part
        vals = np.where(off, v / 2, v).astype(complex)
        if im.any():  # each imaginary-part row after its real part's
            im_vals = np.zeros(i.shape, dtype=complex)
            im_vals.imag = v / 2  # not 0.5j * v, whose real part is -0.0 for v < 0
            take = np.hstack([np.ones(i.shape, dtype=bool), off & im[:, None]])
            i, j, vals = (np.hstack(pair)[take] for pair in ((i, i), (j, j), (vals, im_vals)))
            owner = (first[:, None] + (np.arange(2 * k) >= k))[take]
        else:
            i, j, vals, owner = i.ravel(), j.ravel(), vals.ravel(), np.repeat(first, k)
        b = np.zeros(f + int(im.sum()))
        b[first] = rhs
        parts.append((i, j, vals, done + owner, b))
        done += b.size
    return tuple(np.concatenate(x) for x in zip(*parts))


def _cap(n: int, base: int, rows: bool) -> tuple[np.ndarray, ...]:
    """The functionals (i, j, rhs) of Q = I, one per entry a <= a2 of Q in
    the order of np.triu_indices, so the (n-1, n-1) diagonal last. Q is the
    row product sum_k X_ak X_a2k^* (rows) or the column product sum_k X_ka
    X_ka2^* of the family whose entry (i, k) is Gram index base + i*n + k."""
    a, a2 = np.divmod(np.arange(n * n), n)  # np.triu_indices's order, at a tenth of its cost
    a, a2, k = a[a <= a2, None], a2[a <= a2, None], np.arange(n)
    if rows:
        i, j = base + a * n + k, base + a2 * n + k
    else:
        i, j = base + k * n + a, base + k * n + a2
    return i, j, (a == a2)[:, 0].astype(float)


def _gram_objective(g: GameMatrix, xb: int, yb: int) -> tuple[np.ndarray, ...]:
    """C's entries (i, j, v), v = conj(M[(c, e), (a, b)]) / 2 at i = xb + a*n
    + c and j = yb + b*n + e, one per nonzero of M: the game pairing the X
    family at base xb with the Y family at base yb >= xb + n^2, so i < j."""
    n = g.n
    ce, ab = np.nonzero(g.m)
    (c, e), (a, b) = np.divmod(ce, n), np.divmod(ab, n)
    return xb + a * n + c, yb + b * n + e, np.conj(g.m[ce, ab]) / 2


def beta_sdp_instance(g: GameMatrix) -> sdp_mod.SdpInstance:
    """beta_nc_instance of a classical game's diagonal embedding g (see the
    module docstring); FormatError when M has an entry off its diagonal."""
    r, c = np.nonzero(g.m)
    if np.linalg.norm(g.m[r, c][r != c]) > 1e-10:
        raise FormatError("beta-sdp requires a diagonal (classical) game matrix")
    return beta_nc_instance(g)


def beta_nc_instance(g: GameMatrix) -> sdp_mod.SdpInstance:
    n, real, side = g.n, not g.m.imag.any(), 2 * g.n * g.n
    # C's and the caps' entries (see the module docstring).
    check_dense(np.count_nonzero(g.m) + 4 * n**3, f"the beta_nc table of n = {n}")
    x, y = 0, n * n
    # The last column-cap functional, the (n-1, n-1) diagonal, is implied by
    # the others (see the module docstring), so each family drops it.
    caps = []
    for base in (x, y):
        caps += [_cap(n, base, rows=True), tuple(a[:-1] for a in _cap(n, base, rows=False))]
    i, j, rhs = (np.concatenate(parts) for parts in zip(*caps))
    return sdp_mod.SdpInstance(side, *_table(_gram_objective(g, x, y), [(i, j, 1.0, rhs)], real))


def beta_os_instance(g: GameMatrix) -> sdp_mod.SdpInstance:
    n, real, side = g.n, not g.m.imag.any(), 4 * g.n * g.n
    check_dense(side**2, f"beta_os of side {side}")  # before its n^4 consistency rows
    nn = n * n
    wr, wc, vr, vc = 0, nn, 2 * nn, 3 * nn
    # Consistency X_R . Y_C = X_C . Y_R, entrywise on the composite space.
    ac, be = np.divmod(np.arange(nn * nn), nn)
    consistency = (np.stack([wr + ac, wc + ac], 1), np.stack([vc + be, vr + be], 1), [1.0, -1.0], 0.0)
    caps = [_cap(n, base, rows) for base, rows in ((wr, True), (vr, True), (wc, False), (vc, False))]
    i, j, rhs = (np.concatenate(parts) for parts in zip(*caps))
    return sdp_mod.SdpInstance(side, *_table(_gram_objective(g, wr, vc), [consistency, (i, j, 1.0, rhs)], real))


# --- solving ----------------------------------------------------------------------


def _solve_gram(kind: str, inst: sdp_mod.SdpInstance, tol: float) -> RelaxationResult:
    """The value of beta_<kind>, solved on inst; SdpError when the solve did
    not end optimal (its best iterate is no value of the relaxation)."""
    sol = sdp_mod.solve(inst, tol)
    if sol.status != "optimal":
        raise SdpError(
            f"beta_{kind} solve ended with status {sol.status!r} at iteration {sol.iterations}"
        )
    return RelaxationResult(value=sol.primal_value)


def beta_sdp(g: GameMatrix, tol: float) -> RelaxationResult:
    """Vector relaxation of a classical XOR game, given as its diagonal
    embedding M, M[(s, t), (s, t)] = R_st (FormatError when M is not
    diagonal): the largest Re sum_st R_st <conj x_s, y_t> over unit
    vectors, solved as beta_nc of M."""
    return _solve_gram("sdp", beta_sdp_instance(g), tol)


def beta_nc(g: GameMatrix, tol: float) -> RelaxationResult:
    """Non-commutative Gram relaxation; upper bound on the maximally
    entangled bias, at most 2 sqrt(2) times the unentangled bias."""
    return _solve_gram("nc", beta_nc_instance(g), tol)


def beta_os(g: GameMatrix, tol: float) -> RelaxationResult:
    """Operator-space Gram relaxation; upper bound on the entangled bias
    within a factor 2."""
    return _solve_gram("os", beta_os_instance(g), tol)


# --- closed forms and chain checks ----------------------------------------------


def h_n_closed_forms(n: int) -> tuple[Fraction, Fraction]:
    """Exact unentangled bias and nc-relaxation value of the H family."""
    if n < 1:
        raise BadArgsError("n must be >= 1")
    binom_small = Fraction(math.comb(2 * n + 1, n))
    binom_big = Fraction(math.comb(4 * n + 1, 2 * n))
    omega = Fraction(n + 1, 2 * n + 1) ** 2 * binom_small**2 / binom_big
    beta_nc_value = Fraction(2 * n + 1, n + 1) * omega
    return omega, beta_nc_value


@dataclass(frozen=True)
class ChainCheck:
    label: str
    lhs: float
    rhs: float
    passed: bool
    hard: bool


def check_chains(report: BiasReport, tol: float) -> list[ChainCheck]:
    """Evaluate every chain of report.CHAINS whose two fields are populated.

    A check passes when lhs <= factor * rhs within 4 tol.
    """
    slack = 4.0 * tol
    checks: list[ChainCheck] = []
    for lhs_field, factor, rhs_field, label, hard in CHAINS:
        lhs, rhs = getattr(report, lhs_field), getattr(report, rhs_field)
        if lhs is not None and rhs is not None:
            rhs = factor * rhs
            checks.append(ChainCheck(label, lhs, rhs, lhs <= rhs + slack, hard))
    return checks
