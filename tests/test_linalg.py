import math
import warnings

import numpy as np
import pytest

from conftest import random_unitary
from constructions import PreconditionViolatedError, partial_trace, trace_norm
import rounding
from spectral import herm_eig
from xorq import linalg
from xorq.errors import (
    BadArgsError,
    NotAPermutationError,
    NotHermitianError,
    NotSquareError,
)


def test_herm_eig_identity():
    dec = herm_eig(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])


def test_herm_eig_diagonal():
    dec = herm_eig(np.diag([3.0, -1.0]))
    assert np.allclose(dec.eigenvalues, [3.0, -1.0])
    # eigenvectors are the standard basis up to phase
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_herm_eig_reconstruction(rng):
    # oracle: build H = U Lambda U^+ from a random unitary, then factor it back
    u = random_unitary(rng, 6)
    lam = rng.standard_normal(6)
    h = (u * lam) @ u.conj().T
    dec = herm_eig(h)
    scale = max(1.0, np.linalg.norm(h))
    assert np.linalg.norm(dec.reconstruct() - h) <= 1e-10 * scale
    assert np.allclose(sorted(dec.eigenvalues), sorted(lam))
    ortho = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.linalg.norm(ortho - np.eye(6)) <= 1e-10 * 6


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotSquareError):
        herm_eig(np.zeros((2, 3)))


def test_svd_zero_matrix():
    _, s, _ = linalg.svd(np.zeros((3, 4)))
    assert np.allclose(s, 0.0)


def test_svd_rank_one(rng):
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    _, s, _ = linalg.svd(np.outer(u, v.conj()))
    assert abs(s[0] - 1.0) < 1e-12 and np.all(s[1:] < 1e-12)


def test_svd_reconstruction(rng):
    a = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    u, s, v = linalg.svd(a)
    assert np.linalg.norm(a - (u * s) @ v.conj().T) <= 1e-10 * np.linalg.norm(a)


def test_trace_norm_identity():
    assert abs(trace_norm(np.eye(5)) - 5.0) < 1e-12


def test_trace_norm_matches_eigenvalues_for_hermitian(rng):
    # oracle: for Hermitian H the trace norm is the sum of |eigenvalues|
    for _ in range(20):
        h = linalg.hermitian_part(
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        )
        want = float(np.sum(np.abs(np.linalg.eigvalsh(h))))
        assert abs(trace_norm(h) - want) <= 1e-9 * max(1.0, want)


def test_op_norm():
    assert abs(linalg.op_norm(np.eye(3)) - 1.0) < 1e-12
    assert abs(linalg.op_norm(2.0 * np.eye(3)) - 2.0) < 1e-12


def test_op_norm_contraction(rng):
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    s = rng.uniform(0.0, 1.0, size=4)
    a = (u * s) @ v.conj().T
    assert linalg.op_norm(a) <= 1.0 + 1e-12


def test_tensor_identities(rng):
    assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))
    a, b, c, d = (
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(4)
    )
    left = np.kron(a, b) @ np.kron(c, d)
    right = np.kron(a @ c, b @ d)
    assert np.allclose(left, right)
    assert np.isclose(
        np.trace(np.kron(a, b)), np.trace(a) * np.trace(b)
    )


def test_partial_trace_basics(rng):
    assert np.allclose(
        partial_trace(np.kron(np.eye(2), np.eye(3)), (2, 3), "second"),
        3.0 * np.eye(2),
    )
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(
        partial_trace(np.kron(a, b), (3, 4), "second"), np.trace(b) * a
    )
    psi = linalg.max_entangled_state(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, (2, 2), "first"), np.eye(2) / 2)


def test_partial_trace_tensor_factorization_many(rng):
    for _ in range(200):
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        a = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        b = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        p = np.kron(a, b)
        assert np.allclose(
            partial_trace(p, (d1, d2), "second"), np.trace(b) * a, atol=1e-10
        )
        assert np.allclose(
            partial_trace(p, (d1, d2), "first"), np.trace(a) * b, atol=1e-10
        )


def test_permute_systems_identity_and_swap():
    v = np.arange(6, dtype=complex)
    assert np.allclose(linalg.permute_systems(v, (2, 3), (0, 1)), v)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    swapped = linalg.permute_systems(np.kron(e0, e1), (2, 2), (1, 0))
    assert np.allclose(swapped, np.kron(e1, e0))


def test_permute_systems_inverse_and_isometry(rng):
    dims = (2, 3, 2)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    perm = [2, 0, 1]
    inv = [perm.index(i) for i in range(3)]
    out = linalg.permute_systems(v, dims, perm)
    back = linalg.permute_systems(out, [dims[p] for p in perm], inv)
    assert np.allclose(back, v)
    assert np.isclose(np.linalg.norm(out), np.linalg.norm(v))


def test_permute_systems_operator_matches_vector_action(rng):
    dims = (2, 2, 3)
    perm = [1, 2, 0]
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    mp = linalg.permute_systems(m, dims, perm)
    vp = linalg.permute_systems(v, dims, perm)
    assert np.allclose(mp @ vp, linalg.permute_systems(m @ v, dims, perm))


def test_sign_of_hermitian_examples():
    assert np.allclose(
        linalg.sign_of_hermitian(np.diag([2.0, -3.0])), np.diag([1.0, -1.0])
    )
    # tie rule: zero eigenvalues map to +1
    assert np.allclose(linalg.sign_of_hermitian(np.zeros((3, 3))), np.eye(3))


def test_sign_of_hermitian_attains_trace_norm(rng):
    for _ in range(20):
        k = linalg.hermitian_part(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        )
        s = linalg.sign_of_hermitian(k)
        val = float(np.real(np.trace(s @ k)))
        assert abs(val - trace_norm(k)) <= 1e-9
        assert np.linalg.norm(s @ s - np.eye(4)) <= 1e-9
        # no Hermitian contraction does better
        for _ in range(20):
            u = random_unitary(rng, 4)
            cand = (u * rng.uniform(-1, 1, size=4)) @ u.conj().T
            assert np.real(np.trace(cand @ k)) <= val + 1e-9


def test_polar_unitary():
    assert np.allclose(linalg.polar_unitary(np.eye(3)), np.eye(3))
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 3)
    a = linalg.polar_unitary(u)
    assert np.allclose(a, u.conj().T)
    assert abs(np.trace(a @ u) - 3.0) < 1e-9
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = linalg.polar_unitary(k)
    val = complex(np.trace(a @ k))
    assert abs(val.imag) < 1e-9
    assert abs(val.real - trace_norm(k)) < 1e-9


def test_stacked_sign_and_polar_match_each_matrix():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    herm = (z + z.conj().swapaxes(1, 2)) / 2
    signs = linalg.sign_of_hermitian(herm)
    polars = linalg.polar_unitary(z)
    for r in range(4):
        assert np.max(np.abs(signs[r] - linalg.sign_of_hermitian(herm[r]))) <= 1e-14
        assert np.max(np.abs(polars[r] - linalg.polar_unitary(z[r]))) <= 1e-14


def test_stacked_hermiticity_check_is_per_matrix():
    # Residual 1.4e-9 against its own norm 1.4: above HERMITICITY_RTOL. Measured
    # against the stack's norm (about 1.4e6, from `big`) it would pass.
    skew = np.array([[1.0, 1e-9], [0.0, 1.0]])
    big = 1e6 * np.eye(2)
    with pytest.raises(NotHermitianError, match="matrix 2 of the stack") as exc:
        linalg.check_hermitian(np.stack([np.eye(2), big, skew]))
    assert exc.value.index == 2
    with pytest.raises(NotHermitianError) as exc:
        linalg.sign_of_hermitian(np.stack([skew, big]))
    assert exc.value.index == 0
    with pytest.raises(NotHermitianError) as exc:
        linalg.check_hermitian(skew)
    assert exc.value.index is None
    herm = linalg.check_hermitian(np.stack([big, np.eye(2), big]))
    assert herm.shape == (3, 2, 2)
    with pytest.raises(NotSquareError):
        linalg.check_hermitian(np.zeros((2, 2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermiticity_check_rejects_non_finite(bad):
    # A NaN residual compares false against any tolerance, so it must fail
    # on its own; a stack names the matrix that holds the entry.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError, match="non-finite entry") as exc:
            linalg.check_hermitian([[bad, 0], [1, 0]])
        assert exc.value.index is None
        stack = np.stack([np.eye(2), [[bad, 0], [0, 1]], np.eye(2)])
        with pytest.raises(NotHermitianError, match="matrix 1 of the stack") as exc:
            linalg.check_hermitian(stack)
        assert exc.value.index == 1


def test_hermiticity_check_near_the_float_limit():
    # Both norms of these matrices overflow; each is measured divided by its
    # largest part instead, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError) as exc:
            linalg.check_hermitian([[1e308, 1e308], [-1e308, 1e308]])
        assert exc.value.index is None
        skew = np.array([[1e308, 1e308], [-1e308, 1e308]])
        with pytest.raises(NotHermitianError, match="matrix 1 of the stack"):
            linalg.check_hermitian(np.stack([np.eye(2), skew]))
        herm = np.array([[1.7e308, 1e308j], [-1e308j, 1.7e308]])
        assert np.array_equal(linalg.check_hermitian(herm), herm)
        both = linalg.check_hermitian(np.stack([herm, np.eye(2)]))
        assert np.array_equal(both, np.stack([herm, np.eye(2)]))


def _check_gsvd(a1, a2):
    res = rounding.gsvd(a1, a2)
    n, d = a1.shape
    k = res.k
    scale1 = max(1.0, np.linalg.norm(a1))
    scale2 = max(1.0, np.linalg.norm(a2))
    pad = np.zeros((k, d - k))
    assert np.linalg.norm(a1 @ res.u1 - res.r @ np.hstack([res.d1, pad])) <= 1e-8 * scale1
    assert np.linalg.norm(a2 @ res.u2 - res.r @ np.hstack([res.d2, pad])) <= 1e-8 * scale2
    assert np.linalg.norm(res.d1 @ res.d1 + res.d2 @ res.d2 - np.eye(k)) <= 1e-8
    assert np.linalg.norm(res.u1.conj().T @ res.u1 - np.eye(d)) <= 1e-8
    assert np.linalg.norm(res.u2.conj().T @ res.u2 - np.eye(d)) <= 1e-8
    if k:
        assert np.linalg.matrix_rank(res.r, tol=1e-8 * max(scale1, scale2)) == k
    want_k = np.linalg.matrix_rank(
        np.hstack([a1, a2]), tol=1e-8 * max(np.linalg.norm(np.hstack([a1, a2])), 1e-12)
    )
    assert k == want_k
    return res


def test_gsvd_identity_zero():
    res = _check_gsvd(np.eye(3), np.zeros((3, 3)))
    assert res.k == 3
    assert np.allclose(np.diag(res.d1), 1.0)
    assert np.allclose(np.diag(res.d2), 0.0)


def test_gsvd_equal_inputs():
    res = _check_gsvd(np.eye(3), np.eye(3))
    assert np.allclose(np.diag(res.d1), 1 / math.sqrt(2), atol=1e-8)


def test_gsvd_random_instances(rng):
    for trial in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(n, n + 4))
        a1 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        a2 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        if trial % 4 == 0:
            a2[:] = 0.0  # rank-deficient [A1 A2]
        if trial % 7 == 0 and n > 1:
            a1[n - 1] = a1[0]  # rank-deficient rows
            a2[n - 1] = a2[0]
        _check_gsvd(a1, a2)


def test_gsvd_requires_wide_input():
    with pytest.raises(BadArgsError):
        rounding.gsvd(np.zeros((3, 2)), np.zeros((3, 2)))


def _check_proportional(a1, a2, b1, b2, v1, v2):
    c1, c2 = a1 @ v1, a2 @ v2
    d1, d2 = b1 @ v1, b2 @ v2
    d = a1.shape[1]
    assert np.linalg.norm(v1 @ v1.conj().T - np.eye(d)) <= 1e-7
    assert np.linalg.norm(v2 @ v2.conj().T - np.eye(d)) <= 1e-7
    scale = max(
        1.0,
        np.linalg.norm(c1),
        np.linalg.norm(c2),
        np.linalg.norm(d1),
        np.linalg.norm(d2),
    )
    for i in range(v1.shape[1]):
        p = np.concatenate([c1[:, i], d2[:, i]])
        q = np.concatenate([c2[:, i], d1[:, i]])
        np_, nq = np.linalg.norm(p), np.linalg.norm(q)
        if np_ < 1e-9 * scale or nq < 1e-9 * scale:
            continue  # a zero pair is 0 times the other
        t = nq / np_
        ok = (
            np.linalg.norm(q - t * p) <= 1e-7 * scale
            or np.linalg.norm(p - (np_ / nq) * q) <= 1e-7 * scale
        )
        assert ok, f"column {i} not non-negatively proportional"


def test_proportionality_identity_case(rng):
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    v1, v2 = rounding.proportionality_isometries(a, a, b, b)
    _check_proportional(a, a, b, b, v1, v2)


def test_proportionality_zero_case():
    z = np.zeros((2, 3))
    v1, v2 = rounding.proportionality_isometries(z, z, z, z)
    _check_proportional(z, z, z, z, v1, v2)


def _random_feasible_quad(rng):
    """Forward-construction oracle: A1 B1^+ = A2 B2^+ by design."""
    n = int(rng.integers(1, 4))
    d = int(rng.integers(n, n + 3))
    k = int(rng.integers(1, n + 1))
    r = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    theta = rng.uniform(0, np.pi / 2, size=k)
    dd1, dd2 = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    u1 = random_unitary(rng, d)
    u2 = random_unitary(rng, d)
    pad = np.zeros((k, d - k))
    a1 = r @ np.hstack([dd1, pad]) @ u1.conj().T
    a2 = r @ np.hstack([dd2, pad]) @ u2.conj().T
    q = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    rest1 = rng.standard_normal((d - k, n)) + 1j * rng.standard_normal((d - k, n))
    rest2 = rng.standard_normal((d - k, n)) + 1j * rng.standard_normal((d - k, n))
    p1 = np.vstack([dd2 @ q, rest1])
    p2 = np.vstack([dd1 @ q, rest2])
    b1 = (u1 @ p1).conj().T
    b2 = (u2 @ p2).conj().T
    return a1, a2, b1, b2


def test_proportionality_random_feasible(rng):
    for _ in range(100):
        a1, a2, b1, b2 = _random_feasible_quad(rng)
        v1, v2 = rounding.proportionality_isometries(a1, a2, b1, b2)
        _check_proportional(a1, a2, b1, b2, v1, v2)


def test_proportionality_rejects_mismatch(rng):
    a1 = rng.standard_normal((2, 3))
    a2 = rng.standard_normal((2, 3))
    with pytest.raises(PreconditionViolatedError):
        rounding.proportionality_isometries(a1, a2, a1, a1 + 1.0)


def _inversion_sign(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def test_component_stacks_group_classes_by_size(rng):
    # Components {0, 4}, {1}, {2, 3, 6}, {5}, {7, 8}: widest first, then by
    # name, each with its nodes ascending.
    label = np.array([0, 1, 2, 2, 0, 5, 2, 7, 7])
    stacks = linalg.component_stacks(label)
    assert [x.tolist() for x in stacks] == [[[2, 3, 6]], [[0, 4], [7, 8]], [[1], [5]]]
    # Against a plain grouping, on the labels of a random pattern.
    rows, cols = rng.integers(0, 60, (2, 40))
    label = linalg.component_labels(60, rows, cols)
    members = {}
    for node, name in enumerate(label.tolist()):
        members.setdefault(name, []).append(node)
    want = {}
    for name in sorted(members):
        want.setdefault(len(members[name]), []).append(members[name])
    got = linalg.component_stacks(label)
    assert [x.shape[1] for x in got] == sorted(want, reverse=True)
    assert [x.tolist() for x in got] == [want[s] for s in sorted(want, reverse=True)]


def test_permutation_sign_examples():
    assert linalg.permutation_sign([1, 2, 3]) == 1
    assert linalg.permutation_sign([2, 1, 3]) == -1
    assert linalg.permutation_sign([0, 1]) == 1


def test_permutation_sign_matches_inversion_count(rng):
    for _ in range(300):
        m = int(rng.integers(1, 9))
        perm = list(rng.permutation(m) + 1)
        assert linalg.permutation_sign(perm) == _inversion_sign(perm)


def test_permutation_sign_rejects_non_permutation():
    with pytest.raises(NotAPermutationError):
        linalg.permutation_sign([1, 1, 2])
    with pytest.raises(NotAPermutationError):
        linalg.permutation_sign([2, 3, 4])
