"""Efficiently solvable relaxations of the game biases.

Three Gram-matrix semidefinite programs are compiled and solved:

  beta_sdp  classical games; unit vectors replacing the +/-1 signs.
  beta_nc   vector-valued matrices X, Y with all four products
            XX^+, X^+X, YY^+, Y^+Y equal to the identity.
  beta_os   row/column-weighted families (X_R, X_C, Y_R, Y_C) with the
            consistency constraint X_R . Y_C = X_C . Y_R, upper-bounding
            the entangled bias.

The Gram variables are the conjugated X-entry vectors and the plain
Y-entry vectors; maximizing the real part of the objective is exact by the
global-phase freedom of each family. Each program is one PSD Gram block.

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
it. For beta_sdp, pad each vector to unit norm with a coordinate of its own.

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
from .errors import BadArgsError, DimensionMismatchError, SdpError
from .games import ClassicalGame, GameMatrix
from .report import BiasReport

RANK_CUT = 1e-10


@dataclass(frozen=True)
class VectorValuedMatrix:
    """A d-vector of n x n matrices; entry (i, k) is the length-d vector of
    the (i, k) coefficients."""

    n: int
    d: int
    mats: np.ndarray  # shape (d, n, n)

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=complex)
        if mats.shape != (self.d, self.n, self.n):
            raise DimensionMismatchError(
                f"expected shape {(self.d, self.n, self.n)}, got {mats.shape}"
            )
        object.__setattr__(self, "mats", mats)


@dataclass(frozen=True)
class RelaxationResult:
    value: float
    witness: dict
    solver_gap: float


# --- constraint compilation helpers -------------------------------------------


def _functional(terms, rhs: complex):
    """Real constraints expressing a complex-linear functional equality.

    terms: (block, i, j, coeff) meaning sum coeff * Z_b[i, j]; indices may be
    in either triangle. Returns one constraint for the real part and, when
    non-trivial, one for the imaginary part.
    """
    out = []
    for mult, rhs_part in ((1.0 + 0.0j, complex(rhs).real), (-1.0j, complex(rhs).imag)):
        acc: dict[tuple[str, int, int], complex] = {}
        for b, i, j, coeff in terms:
            alpha = mult * complex(coeff)
            if i == j:
                key, add = (b, i, i), complex(alpha.real)
            elif i < j:
                key, add = (b, i, j), alpha.conjugate() / 2
            else:
                key, add = (b, j, i), alpha / 2
            acc[key] = acc.get(key, 0.0) + add
        entries = tuple(
            (b, i, j, v) for (b, i, j), v in sorted(acc.items(), key=lambda t: t[0])
            if v != 0
        )
        if entries:
            out.append(sdp_mod.SdpConstraint(entries=entries, rhs=float(rhs_part)))
        elif abs(rhs_part) > 1e-12:
            raise BadArgsError("inconsistent constant constraint")
    return out


def _cap_constraints(n: int, base: int, rows: bool) -> list:
    """Compile Q = I over Hermitian entries of the Gram block.

    Q is the row product sum_k X_ik X_jk^* (rows) or the column product
    sum_k X_ki X_kj^* of the family whose entry (i, k) is Gram index
    base + i*n + k. The row of the (n-1, n-1) diagonal comes last.
    """

    def idx(i, k):
        return base + (i * n + k if rows else k * n + i)

    cons = []
    for a in range(n):
        for a2 in range(a, n):
            terms = [("gram", idx(a, k), idx(a2, k), 1.0 + 0.0j) for k in range(n)]
            cons.extend(_functional(terms, 1.0 if a == a2 else 0.0))
    return cons


def _gram_objective(g: GameMatrix, dim: int, xb: int, yb: int) -> np.ndarray:
    """c + c^+ with c[xb + a*n + c, yb + b*n + e] = conj(M[(c, e), (a, b)]) / 2:
    the game pairing the X family at base xb with the Y family at base yb."""
    n = g.n
    nn = n * n
    c = np.zeros((dim, dim), dtype=complex)
    c[xb:xb + nn, yb:yb + nn] = np.conj(_m4(g)).transpose(2, 0, 3, 1).reshape(nn, nn) / 2
    return c + c.conj().T


def _gram_vectors(z: np.ndarray) -> np.ndarray:
    """Factor a PSD Gram block as W^+ W; returns W with rank many rows."""
    w, u = np.linalg.eigh((z + z.conj().T) / 2)
    w = w[::-1]
    u = u[:, ::-1]
    top = max(float(w[0]), 0.0)
    keep = np.where(w > RANK_CUT * max(top, 1e-300))[0]
    if keep.size == 0:
        return np.zeros((1, z.shape[0]), dtype=complex)
    return (np.sqrt(w[keep])[:, None] * u[:, keep].conj().T).astype(complex)


# --- beta_sdp -------------------------------------------------------------------


def beta_sdp_instance(g: ClassicalGame) -> sdp_mod.SdpInstance:
    n = g.n
    c = np.zeros((2 * n, 2 * n), dtype=complex)
    for s in range(n):
        for t in range(n):
            c[s, n + t] = g.r[s, t] / 2  # real coefficients: conj is itself
    c = c + c.conj().T
    cons = []
    for u in range(2 * n):
        cons.extend(_functional([("gram", u, u, 1.0 + 0.0j)], 1.0))
    return sdp_mod.SdpInstance(
        blocks=(("gram", 2 * n),), objective={"gram": c}, constraints=tuple(cons)
    )


def beta_sdp(g: ClassicalGame, tol: float = sdp_mod.DEFAULT_TOL) -> RelaxationResult:
    """Vector relaxation of a classical XOR game."""
    inst = beta_sdp_instance(g)
    sol = sdp_mod.solve(inst, tol)
    n = g.n
    w = _gram_vectors(sol.blocks["gram"])
    xs = w[:, :n].conj().T  # rows: the x_s vectors (un-conjugated)
    ys = w[:, n:].T  # rows: the y_t vectors
    # objective = Re sum_st R_st <conj x_s, y_t> = Re sum_st R_st (xs @ ys^T)_st
    value = float(np.real(np.sum(g.r * (xs @ ys.T))))
    _check_close("beta_sdp witness objective", value, sol.primal_value)
    return RelaxationResult(
        value=sol.primal_value,
        witness={"x": xs, "y": ys},
        solver_gap=sol.gap,
    )


# --- beta_nc --------------------------------------------------------------------


def _m4(g: GameMatrix) -> np.ndarray:
    """Game matrix reshaped so m4[c, e, a, b] = M[(c, e), (a, b)]."""
    n = g.n
    return g.m.reshape(n, n, n, n)


def beta_nc_instance(g: GameMatrix) -> sdp_mod.SdpInstance:
    n = g.n
    nn = n * n
    # The last column-cap row, the (n-1, n-1) diagonal, is implied by the
    # others (see the module docstring), so each family drops it.
    cons = (
        _cap_constraints(n, 0, rows=True)
        + _cap_constraints(n, 0, rows=False)[:-1]
        + _cap_constraints(n, nn, rows=True)
        + _cap_constraints(n, nn, rows=False)[:-1]
    )
    return sdp_mod.SdpInstance(
        blocks=(("gram", 2 * nn),),
        objective={"gram": _gram_objective(g, 2 * nn, 0, nn)},
        constraints=tuple(cons),
    )


def _extract_vvm(w: np.ndarray, n: int, base: int, conjugate: bool) -> VectorValuedMatrix:
    mats = w[:, base:base + n * n].reshape(-1, n, n)
    return VectorValuedMatrix(n=n, d=w.shape[0], mats=np.conj(mats) if conjugate else mats)


def nc_objective(g: GameMatrix, x: VectorValuedMatrix, y: VectorValuedMatrix) -> float:
    """Re Tr((sum_r X_r (x) Y_r) M) = Re sum X_r[i, k] Y_r[j, l] M[(k, l), (i, j)]."""
    return float(np.einsum("rik,rjl,klij->", x.mats, y.mats, _m4(g)).real)


def beta_nc(g: GameMatrix, tol: float = sdp_mod.DEFAULT_TOL) -> RelaxationResult:
    """Non-commutative Gram relaxation; upper bound on the maximally
    entangled bias, at most 2 sqrt(2) times the unentangled bias."""
    inst = beta_nc_instance(g)
    sol = sdp_mod.solve(inst, tol)
    n = g.n
    w = _gram_vectors(sol.blocks["gram"])
    x = _extract_vvm(w, n, 0, conjugate=True)
    y = _extract_vvm(w, n, n * n, conjugate=False)
    _check_close("beta_nc witness objective", nc_objective(g, x, y), sol.primal_value)
    return RelaxationResult(
        value=sol.primal_value, witness={"x": x, "y": y}, solver_gap=sol.gap
    )


# --- beta_os --------------------------------------------------------------------


def beta_os_instance(g: GameMatrix) -> sdp_mod.SdpInstance:
    n = g.n
    nn = n * n
    wr, wc, vr, vc = 0, nn, 2 * nn, 3 * nn  # base index of each family

    cons = []
    # Consistency X_R . Y_C = X_C . Y_R, entrywise on the composite space.
    for ac in range(nn):
        for be in range(nn):
            cons.extend(
                _functional(
                    [
                        ("gram", wr + ac, vc + be, 1.0 + 0.0j),
                        ("gram", wc + ac, vr + be, -1.0 + 0.0j),
                    ],
                    0.0,
                )
            )
    cons += _cap_constraints(n, wr, rows=True)
    cons += _cap_constraints(n, vr, rows=True)
    cons += _cap_constraints(n, wc, rows=False)
    cons += _cap_constraints(n, vc, rows=False)
    return sdp_mod.SdpInstance(
        blocks=(("gram", 4 * nn),),
        objective={"gram": _gram_objective(g, 4 * nn, wr, vc)},
        constraints=tuple(cons),
    )


def beta_os(g: GameMatrix, tol: float = sdp_mod.DEFAULT_TOL) -> RelaxationResult:
    """Operator-space Gram relaxation; upper bound on the entangled bias
    within a factor 2."""
    inst = beta_os_instance(g)
    sol = sdp_mod.solve(inst, tol)
    n = g.n
    nn = n * n
    w = _gram_vectors(sol.blocks["gram"])
    xr = _extract_vvm(w, n, 0 * nn, conjugate=True)
    xc = _extract_vvm(w, n, 1 * nn, conjugate=True)
    yr = _extract_vvm(w, n, 2 * nn, conjugate=False)
    yc = _extract_vvm(w, n, 3 * nn, conjugate=False)
    _check_close("beta_os witness objective", nc_objective(g, xr, yc), sol.primal_value)
    return RelaxationResult(
        value=sol.primal_value,
        witness={"x_r": xr, "x_c": xc, "y_r": yr, "y_c": yc},
        solver_gap=sol.gap,
    )


def _check_close(what: str, got: float, want: float):
    if abs(got - want) > 1e-5 * max(1.0, abs(want)):
        raise SdpError(f"{what} {got:.8g} drifted from solver value {want:.8g}")


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


def check_chains(g: GameMatrix, report: BiasReport, tol: float = 1e-6) -> list[ChainCheck]:
    """Evaluate the inequality chains between every populated pair.

    Hard checks compare lower bounds against upper bounds and must hold;
    soft checks involve the constant-factor inequalities whose right-hand
    sides are only heuristic lower bounds, so they are reported without
    being asserted.
    """
    slack = 4.0 * tol
    checks: list[ChainCheck] = []
    tn = report.trace_norm if report.trace_norm is not None else g.trace_norm

    def hard(label, lhs, rhs):
        if lhs is None or rhs is None:
            return
        checks.append(ChainCheck(label, lhs, rhs, lhs <= rhs + slack, True))

    def soft(label, lhs, rhs):
        if lhs is None or rhs is None:
            return
        checks.append(ChainCheck(label, lhs, rhs, lhs <= rhs + slack, False))

    hard("omega_lower<=beta_nc", report.omega_lower, report.beta_nc)
    hard("omega_lower<=omega_c_lower", report.omega_lower, report.omega_c_lower)
    hard("me_lower<=beta_nc", report.me_lower, report.beta_nc)
    hard("entangled_lower<=beta_os", report.entangled_lower, report.beta_os)
    hard("beta_nc<=beta_os", report.beta_nc, report.beta_os)
    hard("beta_nc<=trace_norm", report.beta_nc, tn)
    hard("beta_os<=trace_norm", report.beta_os, tn)
    if report.beta_sdp is not None:
        hard("omega_lower<=beta_sdp", report.omega_lower, report.beta_sdp)
        hard("omega_c_lower<=beta_sdp", report.omega_c_lower, report.beta_sdp)
    soft(
        "beta_nc<=2sqrt2*omega_lower",
        report.beta_nc,
        None if report.omega_lower is None else 2.0 * math.sqrt(2.0) * report.omega_lower,
    )
    soft(
        "beta_nc<=2*omega_c_lower",
        report.beta_nc,
        None if report.omega_c_lower is None else 2.0 * report.omega_c_lower,
    )
    soft(
        "beta_os<=2*entangled_lower",
        report.beta_os,
        None if report.entangled_lower is None else 2.0 * report.entangled_lower,
    )
    return checks
