"""Dense complex linear algebra used throughout the package.

Factorizations, tensor-product utilities, register permutation,
permutation signs and the connected components of a sparsity pattern,
grouped by size. All functions are pure: inputs are never mutated and no
global state is touched. The see-saw's steps (check_hermitian,
sign_of_hermitian, polar_unitary, hermitian_part) also take a stack
(..., s, s) and act on each matrix of it.

Index convention, fixed globally: the composite basis of C^a (x) C^b is
ordered |i>|j> -> i*b + j, 0-based (numpy's kron order).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    BadPermutationError,
    NotAPermutationError,
    NotHermitianError,
    NotSquareError,
)

# Inputs within this relative Frobenius distance of Hermitian are accepted
# and symmetrized before factorization.
HERMITICITY_RTOL = 1e-10

# Eigenvalues below this magnitude count as zero in sign_of_hermitian.
SIGN_ZERO_TOL = 1e-12


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix of a stack (..., r, c)."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2, of one matrix or of each matrix of a stack."""
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

    Both Frobenius norms are taken as squared sums, one einsum per stack.
    Only when a sum is non-finite or reaches 1e300 (a norm of 1e150) is the
    stack measured again with norms that cannot overflow (_near_limit).

    Besides its result, the check of a C-contiguous stack below that limit
    holds one temporary of the input's size: A^dagger, turned into
    A - A^dagger in place once A + A^dagger is formed."""
    a = check_square_stack(a)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or near 1e308
        sq = _squared_frobenius(a)
        diff = dagger(a)
        out = a + diff
        # A - A^dagger, measured transposed: contiguous when A is.
        rsq = _squared_frobenius(np.subtract(a, diff, out=diff).swapaxes(-1, -2))
        del diff
    # One comparison keeps the see-saw's half-step off the overflow path.
    if (sq < 1e300).all():  # false for a non-finite entry; true when empty
        over_tol = rsq > HERMITICITY_RTOL**2 * np.maximum(1.0, sq)
        if not over_tol.any():
            out /= 2
            return out
        bad = np.flatnonzero(over_tol)
        finite, scale, resid = np.ones(sq.shape, bool), np.sqrt(np.maximum(1.0, sq)), np.sqrt(rsq)
    else:
        finite, scale, resid = _near_limit(a)
        bad = np.flatnonzero(~finite | (resid > HERMITICITY_RTOL * scale))
        if not bad.size:
            return a / 2 + dagger(a) / 2  # a + a^dagger may overflow
    i = int(bad[0])
    index = i if a.ndim > 2 else None
    where = "" if index is None else f" (matrix {i} of the stack)"
    why = (
        f"residual {resid[i]:.3e} > {HERMITICITY_RTOL:.1e} * {scale[i]:.3e}"
        if finite[i]
        else "non-finite entry"
    )
    raise NotHermitianError(f"matrix is not Hermitian{where}: {why}", index=index)


def _squared_frobenius(a: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of each matrix of a stack, flattened: one
    einsum over the real view of the entries, copied only when A is not
    C-contiguous."""
    x = np.ascontiguousarray(a).view(float)
    return np.einsum("...ij,...ij->...", x, x).reshape(-1)


def _near_limit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each matrix of a stack, flattened: whether its entries are finite,
    max(1, its Frobenius norm) and the norm of A - A^dagger. A finite matrix
    of norm 1e300 or more is measured divided by its largest real or
    imaginary part, so that no norm overflows."""
    finite = np.isfinite(a).all(axis=(-2, -1)).reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):
        scale = np.maximum(1.0, _frobenius(a))
        resid = _frobenius(a - dagger(a))
    over = finite & (scale >= 1e300)
    if over.any():
        huge = a.reshape((-1,) + a.shape[-2:])[over]
        top = np.maximum(np.abs(huge.real), np.abs(huge.imag)).max(axis=(-2, -1))
        huge = huge / top[:, None, None]
        scale[over] = np.maximum(1.0 / top, np.linalg.norm(huge, axis=(-2, -1)))
        resid[over] = np.linalg.norm(huge - dagger(huge), axis=(-2, -1))
    return finite, scale, resid


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


def component_labels(size: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each of size nodes, the smallest node of its connected component
    in the undirected graph with an edge between rows[i] and cols[i].

    Min-label propagation with pointer jumping: every node takes the
    smallest label among its neighbours, then label <- label[label] until
    that changes nothing, and the rounds repeat until no label falls. A
    label only falls and always names a node of the same component, so it
    settles on the component's smallest node."""
    label = np.arange(size)
    while True:
        new = label.copy()
        np.minimum.at(new, rows, label[cols])
        np.minimum.at(new, cols, label[rows])
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def component_stacks(label: np.ndarray) -> list[np.ndarray]:
    """The components of a labelling, each node's named by its smallest node
    (component_labels), grouped by size: one (K, s) array per component
    size s, widest first, whose K rows are the components of that size in
    the order of their names, each its nodes ascending."""
    nodes = np.argsort(label, kind="stable")  # by component, ascending inside each
    size = np.bincount(label)
    size = size[size > 0]  # per component, in the order of their names
    start = np.cumsum(size) - size
    sides = np.flatnonzero(np.bincount(size))[::-1].tolist()
    return [nodes[start[size == s][:, None] + np.arange(s)] for s in sides]


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
