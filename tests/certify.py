"""The test oracle for a returned SDP solution: certify recomputes, from the
instance's own entries, what sdp.solve reports about its solution."""

from dataclasses import dataclass

import numpy as np

from table import dense_objective
from witness import dense_z
from xorq.sdp import DEFAULT_TOL, SdpInstance, SdpSolution

PSD_SLACK = 1e-8
RESIDUAL_SCALE_TOL = 1e-7


def row_values(inst: SdpInstance, z: np.ndarray) -> np.ndarray:
    """Each row's Re Tr(F_q^dagger Z), summed entry by entry from the
    instance's table: v Re Z[r, r] on the diagonal, 2 Re(conj(v) Z[r, c])
    off it."""
    row = inst.owner >= 0  # not C's entries
    r, c, v = inst.rows[row], inst.cols[row], inst.vals[row]
    at = z[r, c]
    terms = np.where(r == c, v.real * at.real, 2.0 * (np.conj(v) * at).real)
    return np.bincount(inst.owner[row], weights=terms, minlength=len(inst.constraints))


@dataclass(frozen=True)
class CertifyReport:
    passed: bool
    checks: tuple[tuple[str, float, float, bool], ...]  # (name, value, bound, ok)

    def failures(self) -> list[str]:
        return [name for name, _, _, ok in self.checks if not ok]


def certify(inst: SdpInstance, sol: SdpSolution, tol: float = DEFAULT_TOL) -> CertifyReport:
    """Recompute residuals, the PSD slack, the objective Re Tr(C^dagger Z)
    against primal_value, and the duality gap of a solution, on its Z at
    the instance's side."""
    checks = []

    def at_most(name: str, value: float, bound: float):
        checks.append((name, value, bound, value <= bound))

    def at_least(name: str, value: float, bound: float):
        checks.append((name, value, bound, value >= bound))

    z = dense_z(sol, inst.side)
    # ||Z - Z^H|| <= 1e-9 max(1, ||Z||), measured on Z / s with s >= 1 its
    # largest real or imaginary part, so that neither norm overflows.
    s = max(1.0, float(np.max(np.abs([z.real, z.imag]), initial=0.0)))
    u = z / s
    at_most("hermitian", float(np.linalg.norm(u - u.conj().T)),
            1e-9 * max(1.0 / s, float(np.linalg.norm(u))))
    at_least("psd", float(np.linalg.eigvalsh(z / 2 + z.conj().T / 2)[0]), -PSD_SLACK)
    rhs_scale = max(1.0, float(np.max(np.abs(inst.constraints), initial=0.0)))
    worst = float(np.max(np.abs(row_values(inst, z) - inst.constraints), initial=0.0))
    at_most("residual", worst, RESIDUAL_SCALE_TOL * rhs_scale)
    objective = float(np.vdot(dense_objective(inst), z).real)
    at_most("objective", abs(objective - sol.primal_value),
            RESIDUAL_SCALE_TOL * max(1.0, abs(sol.primal_value)))
    gap = sol.dual_value - sol.primal_value
    at_least("gap_nonneg", gap, -RESIDUAL_SCALE_TOL * max(1.0, abs(sol.primal_value)))
    at_most("gap_small", abs(gap), tol * max(1.0, abs(sol.primal_value)))
    if sol.status != "optimal":
        checks.append(("status_optimal", 0.0, 0.0, False))
    return CertifyReport(passed=all(ok for *_, ok in checks), checks=tuple(checks))
