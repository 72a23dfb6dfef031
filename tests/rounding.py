"""Code reserved for the constructive rounding of the unentangled side and
of the entangled side, kept as tests until the package has a caller for it.

  round_complex_to_real       rounds a complex strategy to Hermitian
                              observables, from the Schur forms of its
                              operators.
  proportionality_isometries  aligns two factorizations of one product,
                              through the generalized SVD (gsvd).

No program path runs them: the CLI, the rows of the paper table and the
see-saw ladder reach none of them. Their tests keep them working until the
rounding brings them back into the package with a measured caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from constructions import PreconditionViolatedError
from xorq import games, linalg
from xorq.errors import BadArgsError, DimensionMismatchError
from xorq.strategies import Strategy

# Rank decisions use this multiple of the largest singular value.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class GsvdResult:
    """Joint decomposition A1 U1 = R [D1 | 0], A2 U2 = R [D2 | 0].

    U1, U2 are d x d unitaries, R is n x k of full column rank, D1, D2 are
    non-negative k x k diagonals with D1^2 + D2^2 = I, and k is the rank of
    the horizontal concatenation [A1 A2].
    """

    u1: np.ndarray
    u2: np.ndarray
    r: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    k: int


def _complete_orthonormal_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """Extend a stack of orthonormal rows (possibly empty) to a d x d unitary."""
    k = rows.shape[0]
    if k == d:
        return rows
    if k == 0:
        return np.eye(d, dtype=complex)
    null = scipy.linalg.null_space(rows)  # d x (d - k), orthonormal columns
    return np.vstack([rows, null.conj().T])


def gsvd(a1: np.ndarray, a2: np.ndarray) -> GsvdResult:
    """Generalized SVD of a pair of n x d matrices with n <= d.

    Both factors share the left matrix R; the diagonal cosine/sine pair
    satisfies D1^2 + D2^2 = I.
    """
    a1 = linalg.as_complex(a1)
    a2 = linalg.as_complex(a2)
    if a1.shape != a2.shape:
        raise DimensionMismatchError(f"shape mismatch: {a1.shape} vs {a2.shape}")
    n, d = a1.shape
    if n > d:
        raise BadArgsError(f"requires n <= d, got {n} x {d}; pad columns first")

    # Rank from the stacked matrix directly: squaring through the Gram
    # matrix would lift numerical zeros above the threshold.
    stacked = np.hstack([a1, a2])
    sv = np.linalg.svd(stacked, compute_uv=False)
    fro = float(np.linalg.norm(stacked))
    k = int(np.sum(sv > RANK_RTOL * max(fro, 1e-300)))

    # Column-space basis from the Gram matrix G = A1 A1^+ + A2 A2^+.
    g = a1 @ a1.conj().T + a2 @ a2.conj().T
    _, q = np.linalg.eigh(linalg.hermitian_part(g))
    q = q[:, ::-1]

    if k == 0:
        return GsvdResult(
            u1=np.eye(d, dtype=complex),
            u2=np.eye(d, dtype=complex),
            r=np.zeros((n, 0), dtype=complex),
            d1=np.zeros((0, 0)),
            d2=np.zeros((0, 0)),
            k=0,
        )

    r0 = q[:, :k] * sv[:k]  # n x k, R0 R0^+ = G
    inv = 1.0 / sv[:k]
    f1 = (q[:, :k].conj().T @ a1) * inv[:, None]  # k x d, F1 F1^+ + F2 F2^+ = I
    f2 = (q[:, :k].conj().T @ a2) * inv[:, None]

    # SVD of F1 gives the cosines; the sines come from the rows of W1^+ F2,
    # which are orthogonal with norms s_i satisfying c_i^2 + s_i^2 = 1.
    w1, c, v1 = linalg.svd(f1)
    c = np.clip(c, 0.0, 1.0)
    if v1.shape[1] < d:  # economy SVD: complete V1 to a d x d unitary
        v1 = _complete_orthonormal_rows(v1.conj().T, d).conj().T
    f2t = w1.conj().T @ f2
    norms = np.linalg.norm(f2t, axis=1)
    s = norms.copy()
    fixed = [i for i in range(k) if norms[i] > RANK_RTOL]
    s[[i for i in range(k) if i not in fixed]] = 0.0
    rows = [f2t[i] / norms[i] for i in fixed]
    if rows:
        completed = _complete_orthonormal_rows(np.vstack(rows), d)
    else:
        completed = np.eye(d, dtype=complex)
    v2rows = np.zeros((k, d), dtype=complex)
    spare = iter(range(len(fixed), d))
    for i in range(k):
        if i in fixed:
            v2rows[i] = completed[fixed.index(i)]
        else:
            v2rows[i] = completed[next(spare)]
    u2 = _complete_orthonormal_rows(v2rows, d).conj().T

    return GsvdResult(
        u1=v1,
        u2=u2,
        r=r0 @ w1,
        d1=np.diag(c),
        d2=np.diag(s),
        k=k,
    )


def proportionality_isometries(
    a1: np.ndarray, a2: np.ndarray, b1: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Isometries aligning two factorizations of the same product.

    Given n x d matrices with A1 B1^dagger = A2 B2^dagger, returns d x d'
    matrices V1, V2 with orthonormal rows (d' >= d) such that for every
    column index i, (col_i(A1 V1), col_i(B2 V2)) is non-negatively
    proportional to (col_i(A2 V2), col_i(B1 V1)).
    """
    a1, a2, b1, b2 = map(linalg.as_complex, (a1, a2, b1, b2))
    if not (a1.shape == a2.shape == b1.shape == b2.shape):
        raise DimensionMismatchError("all four matrices must share one shape")
    n, d = a1.shape
    scale = max(
        1.0, linalg.op_norm(a1) * linalg.op_norm(b1), linalg.op_norm(a2) * linalg.op_norm(b2)
    )
    resid = float(np.linalg.norm(a1 @ b1.conj().T - a2 @ b2.conj().T))
    if resid > 1e-8 * scale:
        raise PreconditionViolatedError(
            f"A1 B1^+ != A2 B2^+ (residual {resid:.3e} at scale {scale:.3e})"
        )

    dd = max(d, n)
    if dd > d:  # append zero coordinates so the GSVD precondition n <= d holds
        pad = np.zeros((n, dd - d), dtype=complex)
        a1p, a2p = np.hstack([a1, pad]), np.hstack([a2, pad])
    else:
        a1p, a2p = a1, a2
    res = gsvd(a1p, a2p)
    k = res.k

    # Column blocks (k, dd-k, dd-k): keep the matched columns, then route the
    # trailing columns of U1 and U2 into disjoint slots.
    dprime = 2 * dd - k
    e1 = np.zeros((dd, dprime), dtype=complex)
    e2 = np.zeros((dd, dprime), dtype=complex)
    e1[:k, :k] = np.eye(k)
    e1[k:, k : dd] = np.eye(dd - k)
    e2[:k, :k] = np.eye(k)
    e2[k:, dd:] = np.eye(dd - k)

    inject = np.hstack([np.eye(d), np.zeros((d, dd - d))])  # d x dd
    v1 = inject @ res.u1 @ e1
    v2 = inject @ res.u2 @ e2
    return v1, v2


def round_complex_to_real(g: games.GameMatrix, s: Strategy) -> Strategy:
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
    return Strategy(a_round, b_round, np.ones((1, 1)))
