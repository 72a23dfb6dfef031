"""A sorted spectral decomposition of one Hermitian matrix: the reference
the tests read eigenvalues and eigenvectors from."""

from dataclasses import dataclass

import numpy as np

from xorq import linalg


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition H = U diag(w) U^dagger, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def herm_eig(h: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending."""
    h = linalg.check_hermitian(linalg.check_square(h))
    w, u = np.linalg.eigh(h)
    return HermEig(eigenvalues=w[::-1].copy(), eigenvectors=u[:, ::-1].copy())
