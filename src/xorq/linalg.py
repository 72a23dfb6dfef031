"""Dense complex linear algebra used throughout the package.

Factorizations, tensor-product utilities, register permutation, the
generalized SVD, and permutation signs. All functions are pure: inputs are
never mutated and no global state is touched. The see-saw's steps
(check_hermitian, sign_of_hermitian, polar_unitary, hermitian_part) also
take a stack (..., s, s) and act on each matrix of it.

Index convention, fixed globally: the composite basis of C^a (x) C^b is
ordered |i>|j> -> i*b + j, 0-based (numpy's kron order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadArgsError,
    BadPermutationError,
    DimensionMismatchError,
    NotAPermutationError,
    NotHermitianError,
    NotSquareError,
    PreconditionViolatedError,
)

# Inputs within this relative Frobenius distance of Hermitian are accepted
# and symmetrized before factorization.
HERMITICITY_RTOL = 1e-10

# Rank decisions use this multiple of the largest singular value.
RANK_RTOL = 1e-10

# Eigenvalues below this magnitude count as zero in sign_of_hermitian.
SIGN_ZERO_TOL = 1e-12


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (..., r, c)."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2, of one matrix or of each matrix of a stack."""
    a = as_complex(a)
    return (a + dagger(a)) / 2


def check_square(a: np.ndarray) -> np.ndarray:
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_square_stack(a: np.ndarray) -> np.ndarray:
    """One square matrix (s, s) or a stack (..., s, s) of them."""
    a = as_complex(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotSquareError(f"expected square matrices, got shape {a.shape}")
    return a


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate Hermiticity within relative Frobenius tolerance
    HERMITICITY_RTOL; return the symmetrized matrix (removes spurious
    imaginary parts downstream).

    A stack (..., s, s) is checked matrix by matrix, each against its own
    norm; the error then carries the flat stack position of the first
    matrix that fails (NotHermitianError.index). A matrix with a NaN or
    infinite entry fails too: no tolerance can be measured on it. A finite
    matrix of norm 1e300 or more is measured divided by its largest real or
    imaginary part, so that no norm overflows, and then both numbers in the
    message are in that unit.

    Besides its result, the check holds one temporary of the input's size:
    A^dagger, turned into A - A^dagger in place once A + A^dagger is formed."""
    a = check_square_stack(a)
    finite = np.isfinite(a).all(axis=(-2, -1)).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or near 1e308
        scale = np.maximum(1.0, _frobenius(a))
        diff = dagger(a)
        out = a + diff
        resid = _frobenius(np.subtract(a, diff, out=diff))
        del diff
    # One comparison keeps the see-saw's half-step off the overflow path.
    near_limit = not (scale < 1e300).all()  # also for a non-finite entry; not when empty
    if near_limit:
        over = finite & (scale >= 1e300)
        huge = a.reshape((-1,) + a.shape[-2:])[over]
        top = np.maximum(np.abs(huge.real), np.abs(huge.imag)).max(axis=(-2, -1))
        huge = huge / top[:, None, None]
        scale[over] = np.maximum(1.0 / top, np.linalg.norm(huge, axis=(-2, -1)))
        resid[over] = np.linalg.norm(huge - dagger(huge), axis=(-2, -1))
    bad = np.flatnonzero(~finite | (resid > HERMITICITY_RTOL * scale))
    if bad.size:
        i = int(bad[0])
        index = i if a.ndim > 2 else None
        where = "" if index is None else f" (matrix {i} of the stack)"
        why = (
            f"residual {resid[i]:.3e} > {HERMITICITY_RTOL:.1e} * {scale[i]:.3e}"
            if finite[i]
            else "non-finite entry"
        )
        raise NotHermitianError(f"matrix is not Hermitian{where}: {why}", index=index)
    if near_limit:
        return a / 2 + dagger(a) / 2  # a + a^dagger may overflow
    out /= 2
    return out


def _frobenius(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, flattened; for one
    matrix, taken on real and imaginary views with no temporary copy."""
    if a.ndim == 2:
        return np.array([np.linalg.norm(a)])
    return np.linalg.norm(a, axis=(-2, -1)).reshape(-1)


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition A = U diag(s) V^dagger.

    Returns (U, s, V); note V, not V^dagger, so columns of V are the right
    singular vectors.
    """
    a = as_complex(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, dagger(vh)


def singular_values(a: np.ndarray) -> np.ndarray:
    return np.linalg.svd(as_complex(a), compute_uv=False)


def op_norm(a: np.ndarray) -> float:
    """Operator norm: the largest singular value (0 for empty matrices)."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def _permutation_axes(dims: Sequence[int], perm: Sequence[int], size: int) -> list[int]:
    dims = list(dims)
    perm = list(perm)
    if sorted(perm) != list(range(len(dims))):
        raise BadPermutationError(f"{perm} is not a permutation of 0..{len(dims) - 1}")
    if int(np.prod(dims)) != size:
        raise BadPermutationError(
            f"product of dims {dims} does not match dimension {size}"
        )
    return perm


def permute_systems(
    v: np.ndarray, dims: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Reorder tensor factors of a state vector or square operator.

    Output factor at slot j is the input factor perm[j]; output dims are
    dims[perm[0]], dims[perm[1]], ...  Applying perm and then its inverse is
    the identity.
    """
    v = as_complex(v)
    if v.ndim == 1:
        axes = _permutation_axes(dims, perm, v.shape[0])
        return v.reshape(dims).transpose(axes).reshape(-1)
    if v.ndim == 2:
        if v.shape[0] != v.shape[1]:
            raise BadPermutationError("operator must be square")
        axes = _permutation_axes(dims, perm, v.shape[0])
        k = len(axes)
        full = v.reshape(list(dims) * 2)
        return full.transpose(axes + [k + a for a in axes]).reshape(v.shape)
    raise BadPermutationError("input must be a vector or a square matrix")


def sign_of_hermitian(k: np.ndarray) -> np.ndarray:
    """Spectral sign of a Hermitian matrix, or of each matrix of a stack
    (..., s, s): eigenvalues mapped to +/-1.

    Eigenvalues with |lambda| < 1e-12 map to +1, extending the scalar
    convention sign(0) = 1. The result is an observable: Hermitian and
    squaring to the identity. K is checked and symmetrized first
    (check_hermitian), so a non-Hermitian K raises NotHermitianError.
    """
    w, u = np.linalg.eigh(check_hermitian(k))
    u = u[..., ::-1]  # descending, the order the products are summed in
    signs = np.where(w[..., ::-1] < -SIGN_ZERO_TOL, -1.0, 1.0)
    return hermitian_part((u * signs[..., None, :]) @ dagger(u))


def polar_unitary(k: np.ndarray) -> np.ndarray:
    """Unitary A maximizing |Tr(A K)|: A = V U^dagger for K = U S V^dagger,
    of one matrix or of each matrix of a stack (..., s, s).

    Attains Tr(A K) = ||K||_1, real non-negative.
    """
    u, _, v = svd(check_square_stack(k))
    return v @ dagger(u)


def max_entangled_state(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |i>|i> on C^d (x) C^d, as its d x d coefficient
    matrix I/sqrt(d)."""
    return np.eye(d, dtype=complex) / np.sqrt(d)


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
    import scipy.linalg  # deferred: SciPy stays off the start-up path

    null = scipy.linalg.null_space(rows)  # d x (d - k), orthonormal columns
    return np.vstack([rows, null.conj().T])


def gsvd(a1: np.ndarray, a2: np.ndarray) -> GsvdResult:
    """Generalized SVD of a pair of n x d matrices with n <= d.

    Both factors share the left matrix R; the diagonal cosine/sine pair
    satisfies D1^2 + D2^2 = I.
    """
    a1 = as_complex(a1)
    a2 = as_complex(a2)
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
    _, q = np.linalg.eigh(hermitian_part(g))
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
    w1, c, v1 = svd(f1)
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
    a1, a2, b1, b2 = map(as_complex, (a1, a2, b1, b2))
    if not (a1.shape == a2.shape == b1.shape == b2.shape):
        raise DimensionMismatchError("all four matrices must share one shape")
    n, d = a1.shape
    scale = max(1.0, op_norm(a1) * op_norm(b1), op_norm(a2) * op_norm(b2))
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


def permutation_sign(perm: Sequence[int]) -> int:
    """Parity of a permutation given in one-line notation (0- or 1-based)."""
    perm = list(perm)
    m = len(perm)
    if m == 0:
        return 1
    base = min(perm)
    if base not in (0, 1) or sorted(perm) != list(range(base, base + m)):
        raise NotAPermutationError(f"{perm} is not a permutation of {base}..{base + m - 1}")
    seen = [False] * m
    sign = 1
    for start in range(m):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j] - base
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
