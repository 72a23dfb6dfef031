"""Standard-form semidefinite programming over complex Hermitian blocks.

An instance asks to maximize sum_b Re Tr(C_b^dagger Z_b) over PSD Hermitian
blocks Z_b subject to equality constraints sum_b Re Tr(F_qb^dagger Z_b) =
rhs_q. It is solved by an infeasible primal-dual interior-point method with
Nesterov-Todd scaling; the Schur complement M[p, q] = Re Tr(F_p W F_q W) and
the multipliers y are real. Each iteration is a Mehrotra predictor-corrector
step in the NT frame G (W = G G^H, G^-1 Z G^-H = G^H S G = diag(lam)): the
affine predictor fixes sigma = (mu_aff / mu)^3, and the corrector adds to
the centering term the second-order term of the predictor (Mehrotra, SIAM
J. Optim. 2, 1992; Toh-Todd-Tutuncu, Optim. Methods Softw. 11, 1999). One
Cholesky factor and its inverse per iterate serve the NT frame, S^-1 and
all four step-length searches. The Schur matrix is assembled a group of
constraints at a time, each group's stack at most 1 MB (see _schur).

The core holds an instance as one Hermitian matrix Z with the blocks on its
diagonal, each entry shifted by its block's offset. That is the same
program: a PSD Z with those diagonal blocks exists exactly when every block
is PSD (take zero off-diagonal blocks), and C, every F_q, hence every
iterate, is block-diagonal up to rounding. solve returns the diagonal
blocks under their labels.

C and the right-hand sides are scaled by exact powers of two when an entry
exceeds 1, so that huge finite coefficients solve; the solution is mapped
back (see _scaled).

Boundedness is enforced internally with a trace cap Tr(Z) + t = M_big
(one more diagonal entry t >= 0, M_big = 10 * total dimension * rhs
scale); a binding cap is reported as unboundedness. The cap is redundant
for every instance produced by this package.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DENSE_AMPLITUDE_CAP,
    BadArgsError,
    DimensionMismatchError,
    FormatError,
    InfeasibleError,
    SdpError,
    TooLargeError,
    UnboundedError,
)

COEFF_HERMITICITY_TOL = 1e-12
DEFAULT_TOL = 1e-6
FEAS_TOL = 1e-8
PSD_SLACK = 1e-8
RESIDUAL_SCALE_TOL = 1e-7
MAX_ITERS = 120
MU_FLOOR = 1e-13
SHORT_STEP = 0.1  # corrector step below which the centering direction is tried
SCHUR_GROUP_ENTRIES = 1 << 16  # complex entries (1 MB) in one Schur group array

Entry = tuple[str, int, int, complex]


@dataclass(frozen=True)
class SdpConstraint:
    """sum over entries (b, r, c, v) of Re Tr(F^dagger Z_b) = rhs, where F
    has value v at (r, c) and conj(v) at (c, r); only r <= c is stored."""

    entries: tuple[Entry, ...]
    rhs: float


@dataclass(frozen=True)
class SdpInstance:
    blocks: tuple[tuple[str, int], ...]
    objective: dict[str, np.ndarray]
    constraints: tuple[SdpConstraint, ...]

    def __post_init__(self):
        labels = {}
        for label, dim in self.blocks:
            if dim < 1:
                raise BadArgsError(f"block {label!r} must have dim >= 1")
            if label in labels:
                raise BadArgsError(f"duplicate block label {label!r}")
            labels[label] = dim
        for label, c in self.objective.items():
            if label not in labels:
                raise BadArgsError(f"objective references unknown block {label!r}")
            d = labels[label]
            c = np.asarray(c, dtype=complex)
            if c.shape != (d, d):
                raise DimensionMismatchError(f"objective block {label!r} shape")
            # ||C - C^H|| <= tol * max(1, ||C||), both sides divided by the
            # largest entry so that huge coefficients do not overflow.
            top = max(1.0, float(np.max(np.abs(c))))
            if np.linalg.norm((c - c.conj().T) / top) > COEFF_HERMITICITY_TOL * max(
                1.0 / top, float(np.linalg.norm(c / top))
            ):
                raise BadArgsError(f"objective block {label!r} is not Hermitian")
            c = (c + c.conj().T) / 2
            if not np.all(np.isfinite(c)):
                raise BadArgsError(f"objective block {label!r} is not finite")
            self.objective[label] = c
        for q, con in enumerate(self.constraints):
            for b, r, c, v in con.entries:
                if b not in labels:
                    raise BadArgsError(f"constraint {q} references block {b!r}")
                d = labels[b]
                if not (0 <= r <= c < d):
                    raise BadArgsError(f"constraint {q}: bad entry index ({r}, {c})")
                if r == c and abs(complex(v).imag) > COEFF_HERMITICITY_TOL:
                    raise BadArgsError(f"constraint {q}: diagonal entry not real")


@dataclass(frozen=True)
class IpmIteration:
    """One interior-point iteration: the residuals, relative gap and mu of
    the iterate it starts from, the centering weight and step sizes it took,
    and the seconds it spent per phase. An iteration that stops the solver
    takes no step and leaves the later fields at 0."""

    pres: float
    dres: float
    rel_gap: float
    mu: float
    sigma: float = 0.0
    alpha_p: float = 0.0
    alpha_d: float = 0.0
    nt_s: float = 0.0
    schur_s: float = 0.0
    chol_s: float = 0.0
    newton_s: float = 0.0
    step_s: float = 0.0


@dataclass(frozen=True)
class SdpSolution:
    """Primal blocks, dual multipliers, objective values, the gap, and the
    per-iteration trace (kept out of every serialized payload)."""

    blocks: dict[str, np.ndarray]
    y: np.ndarray
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: str  # "optimal" or "max_iterations" (best iterate, non-certified)
    trace: tuple[IpmIteration, ...] = ()

    @property
    def certified(self) -> bool:
        return self.status == "optimal"


def constraint_value(inst: SdpInstance, con: SdpConstraint, blocks) -> float:
    total = 0.0
    for b, r, c, v in con.entries:
        z = blocks[b][r, c]
        if r == c:
            total += float(np.real(v)) * float(np.real(z))
        else:
            total += 2.0 * float(np.real(np.conj(v) * z))
    return total


# --- interior-point core (one complex Hermitian matrix) -----------------------


class _Program:
    """The instance's blocks on the diagonal of one Hermitian matrix of side
    dim, and its stored constraint entries (r <= c, shifted by their block's
    offset) in constraint order: entries q_ptr[i]:q_ptr[i + 1] belong to
    constraint q_list[i].

    F_q has v at (r, c) and conj(v) at (c, r), so A(Z)_q = Re sum of
    weight * Z[r, c] with weight 2 conj(v) off the diagonal and v on it, and
    A^T y = U + U^H where U holds half * y[owner] at (r, c), half being v with
    the diagonal halved.
    """

    def __init__(self, inst: SdpInstance):
        self.spans = {}
        offset = 0
        for label, d in inst.blocks:
            self.spans[label] = slice(offset, offset + d)
            offset += d
        self.dim = dim = offset
        self.cobj = np.zeros((dim, dim), dtype=complex)
        for label, c in inst.objective.items():
            self.cobj[self.spans[label], self.spans[label]] = c
        rows, cols, vals, owner = [], [], [], []
        for q, con in enumerate(inst.constraints):
            for b, r, c, v in con.entries:
                base = self.spans[b].start
                rows.append(base + r)
                cols.append(base + c)
                vals.append(complex(v))
                owner.append(q)
        self.m = len(inst.constraints)
        self.b = np.array([con.rhs for con in inst.constraints], dtype=float)
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.owner = np.asarray(owner, dtype=np.intp)
        diag = self.rows == self.cols
        vals = np.asarray(vals, dtype=complex)
        vals = np.where(diag, vals.real, vals)
        self.flat = self.rows * dim + self.cols
        self.flat_t = self.cols * dim + self.rows
        self.weight = np.where(diag, 1.0, 2.0) * vals.conj()
        self.half = np.where(diag, 0.5, 1.0) * vals
        self.q_list, starts = np.unique(self.owner, return_index=True)
        self.q_ptr = np.append(starts, self.owner.size)
        self.groups = _schur_groups(np.diff(self.q_ptr), dim)


def _schur_groups(counts: np.ndarray, dim: int) -> list[tuple[int, int]]:
    """Runs [start, stop) of consecutive constraints with equal entry counts,
    each at most SCHUR_GROUP_ENTRIES / max(dim^2, entries) long, so that
    both the (G, dim, dim) stack of a group's products and its gather of
    the entries of every later constraint hold at most 1 MB."""
    cap = max(1, SCHUR_GROUP_ENTRIES // max(dim * dim, int(counts.sum())))
    groups, start = [], 0
    for i in range(1, counts.size + 1):
        if i == counts.size or counts[i] != counts[start] or i - start == cap:
            groups.append((start, i))
            start = i
    return groups


def _a_of(prog: _Program, z: np.ndarray) -> np.ndarray:
    w = (prog.weight * z.take(prog.flat)).real
    return np.bincount(prog.owner, weights=w, minlength=prog.m)


def _at_of(prog: _Program, y: np.ndarray) -> np.ndarray:
    u = prog.half * y[prog.owner]
    size = prog.dim * prog.dim
    up = np.bincount(prog.flat, weights=u.real, minlength=size) + 1j * np.bincount(
        prog.flat, weights=u.imag, minlength=size
    )
    up = up.reshape(prog.dim, prog.dim)
    return up + up.conj().T


def _chol_psd(x: np.ndarray) -> np.ndarray:
    jitter = 0.0
    base = max(float(np.trace(x).real) / x.shape[0], 1e-300)
    for _ in range(12):
        try:
            return np.linalg.cholesky(
                x + jitter * np.eye(x.shape[0]) if jitter else x
            )
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-15 * base)
    raise np.linalg.LinAlgError("matrix not positive definite")


def _hermitian(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2


def _nt_scaling(lz: np.ndarray, lz_inv: np.ndarray, s: np.ndarray):
    """The NT frame of (Z, S) from the Cholesky factor L of Z and its inverse.

    With K = L^H S L = Q diag(omega) Q^H, G = L Q diag(omega^-1/4) gives the
    scaling W = G G^H (W S W = Z) and G^-1 Z G^-H = G^H S G = diag(lam),
    lam = omega^1/2. Returns W, G, G^-1 = diag(omega^1/4) Q^H L^-1 and lam.
    """
    k = lz.conj().T @ s @ lz
    omega, q = np.linalg.eigh(_hermitian(k))
    omega = np.clip(omega, 1e-300, None)
    g = lz @ (q * omega**-0.25)
    g_inv = (omega**0.25)[:, None] * (q.conj().T @ lz_inv)
    return _hermitian(g @ g.conj().T), g, g_inv, np.sqrt(omega)


def _lower_inverse(l: np.ndarray) -> np.ndarray:
    return scipy.linalg.solve_triangular(
        l, np.eye(l.shape[0]), lower=True, check_finite=False
    )


def _max_step(l_inv: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha with L L^H + alpha dx >= 0, via L^-1 dx L^-H eigenvalues."""
    lam = float(np.linalg.eigvalsh(_hermitian(l_inv @ dx @ l_inv.conj().T))[0])
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _schur(prog: _Program, w: np.ndarray) -> np.ndarray:
    """Upper triangle of M[p, q] = Re Tr(F_p W F_q W), the rows of a group
    of constraints at a time; the lower triangle stays zero, as the Cholesky
    factor reads only the upper one.

    W F_q W = P + P^H with P = W U_q W, U_q the stored upper triangle of F_q
    (diagonal halved). That Hermitian product is needed only at the stored
    entries (r, c) of the constraints p >= q, where it is P[r, c] + conj P[c, r].
    A group is a run of G consecutive constraints with k entries each
    (_schur_groups, at most 1 MB per stacked array): their products W U_q W
    are one matmul of a (G, dim, k) by a (G, k, dim) stack, gathered at the
    entries of every constraint from the group's first on and summed per
    constraint at once. The columns of a group's own earlier constraints
    fall below the diagonal and are zeroed.
    """
    mat = np.zeros((prog.m, prog.m))
    ptr, q_list = prog.q_ptr, prog.q_list
    for start, stop in prog.groups:
        size = stop - start
        lo, hi = ptr[start], ptr[stop]
        rows = prog.rows[lo:hi].reshape(size, -1)
        cols = prog.cols[lo:hi].reshape(size, -1)
        left = w[:, rows].transpose(1, 0, 2) * prog.half[lo:hi].reshape(size, 1, -1)
        p = np.matmul(left, w[cols, :]).reshape(size, -1)
        h = p.take(prog.flat[lo:], axis=1) + p.take(prog.flat_t[lo:], axis=1).conj()
        block = np.add.reduceat((prog.weight[lo:] * h).real, ptr[start:-1] - lo, axis=1)
        if size > 1:
            block[:, :size] = np.triu(block[:, :size])
        mat[q_list[start:stop, None], q_list[start:]] = block
    return mat


def _lap(t0: float) -> tuple[float, float]:
    """(now, seconds since t0), for the per-phase times of the trace."""
    t = time.perf_counter()
    return t, t - t0


def _solve(inst: SdpInstance, tol: float, unit: float = 1.0) -> SdpSolution:
    """The interior-point loop. Gaps are relative to max(unit, |primal|):
    unit is the objective value 1 in the units the instance was scaled to."""
    prog = _Program(inst)
    b_vec, nu = prog.b, prog.dim
    scale_b = 1.0 + float(np.max(np.abs(b_vec))) if prog.m else 1.0
    scale_c = 1.0 + float(np.linalg.norm(prog.cobj, 2))
    z = 10.0 * scale_b * np.eye(nu, dtype=complex)
    s = 10.0 * scale_c * np.eye(nu, dtype=complex)
    y = np.zeros(prog.m)
    trace = []

    best = None
    best_merit = np.inf
    for it in range(MAX_ITERS):
        rp = b_vec - _a_of(prog, z)
        rd = prog.cobj + s - _at_of(prog, y)
        mu = float(np.vdot(z, s).real) / nu
        pobj = float(np.vdot(prog.cobj, z).real)
        dobj = float(b_vec @ y)
        value_scale = max(unit, abs(pobj))
        rel_gap = abs(dobj - pobj) / value_scale
        pres = float(np.linalg.norm(rp)) / scale_b
        dres = float(np.linalg.norm(rd)) / scale_c
        if not all(map(math.isfinite, (pres, dres, mu))):
            raise SdpError(f"non-finite residual or mu at iteration {it}")
        record = dict(pres=pres, dres=dres, rel_gap=rel_gap, mu=mu)
        merit = max(pres, dres, rel_gap)
        if merit < best_merit:
            best_merit = merit
            best = (z, y.copy(), pobj, dobj, it)
        if pres <= FEAS_TOL and dres <= FEAS_TOL and (
            rel_gap <= tol or nu * mu / value_scale <= 0.5 * tol
        ):
            trace.append(IpmIteration(**record))
            return _finish(prog, z, y, pobj, dobj, it + 1, "optimal", trace)
        if mu / value_scale < MU_FLOOR:
            trace.append(IpmIteration(**record))
            break  # numerical floor: no further progress is possible

        # Divergence heuristics: Farkas certificate for infeasibility.
        ynorm = float(np.linalg.norm(y, np.inf))
        if ynorm > 1e8 * scale_b or dobj < -1e9 * scale_b:
            yhat = y / max(float(np.linalg.norm(y)), 1e-300)
            mineig = float(np.linalg.eigvalsh(_at_of(prog, yhat))[0])
            if mineig > -1e-6 and float(b_vec @ yhat) < -1e-8:
                raise InfeasibleError(
                    "primal infeasible (dual improving ray found)", certificate=yhat
                )

        t = time.perf_counter()
        lz = _chol_psd(z)
        ls = _chol_psd(s)
        lz_inv = _lower_inverse(lz)
        ls_inv = _lower_inverse(ls)
        w, g, g_inv, lam = _nt_scaling(lz, lz_inv, s)
        t, record["nt_s"] = _lap(t)
        schur = _schur(prog, w)
        t, record["schur_s"] = _lap(t)
        diag = np.diag(schur).copy()
        ridge = 1e-14 * max(float(np.max(diag)), 1e-300)
        factor = None
        for _ in range(10):
            np.fill_diagonal(schur, diag + ridge)
            try:
                factor = scipy.linalg.cho_factor(schur, check_finite=False)
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        t, record["chol_s"] = _lap(t)
        if factor is None:
            trace.append(IpmIteration(**record))
            break

        s_inv = ls_inv.conj().T @ ls_inv
        w_rd_w = w @ rd @ w

        def newton(rc: np.ndarray):
            """The NT direction with dZ + W dS W = rc."""
            rhs = _a_of(prog, rc + w_rd_w) - rp
            dy = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            if not np.isfinite(dy).all():
                raise SdpError(f"non-finite Newton step at iteration {it}")
            ds = _at_of(prog, dy) - rd
            return _hermitian(rc - w @ ds @ w), dy, ds

        def steps(dz: np.ndarray, ds: np.ndarray, fraction: float) -> tuple[float, float]:
            return (
                min(1.0, fraction * _max_step(lz_inv, dz)),
                min(1.0, fraction * _max_step(ls_inv, ds)),
            )

        # Predictor (affine direction) fixes the centering weight.
        dza, _, dsa = newton(-z)
        t, record["newton_s"] = _lap(t)
        ap, ad = steps(dza, dsa, 0.99)
        mu_aff = float(np.vdot(z + ap * dza, s + ad * dsa).real) / nu
        sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))
        t, record["step_s"] = _lap(t)

        # Corrector: centering plus Mehrotra's second-order term, in the NT
        # frame where Z and S are both diag(lam).
        second = _hermitian(g_inv @ dza @ dsa @ g)
        second = 2.0 * second / (lam[:, None] + lam[None, :])
        centering = sigma * mu * s_inv - z
        dz, dy, ds = newton(centering - g @ second @ g.conj().T)
        t, dt = _lap(t)
        record["newton_s"] += dt
        ap, ad = steps(dz, ds, 0.98)
        if min(ap, ad) < SHORT_STEP:
            # Near the boundary the second-order term can block the step;
            # the centering direction alone is taken when it goes further.
            t, dt = _lap(t)
            record["step_s"] += dt
            fallback = newton(centering)
            t, dt = _lap(t)
            record["newton_s"] += dt
            fallback_steps = steps(fallback[0], fallback[2], 0.98)
            if min(fallback_steps) > min(ap, ad):
                (dz, dy, ds), (ap, ad) = fallback, fallback_steps
        t, dt = _lap(t)
        record["step_s"] += dt
        z = z + ap * dz
        s = s + ad * ds
        y = y + ad * dy
        trace.append(IpmIteration(sigma=sigma, alpha_p=ap, alpha_d=ad, **record))

    z, y, pobj, dobj, it = best
    return _finish(prog, z, y, pobj, dobj, it + 1, "max_iterations", trace)


def _finish(prog, z, y, pobj, dobj, iters, status, trace) -> SdpSolution:
    return SdpSolution(
        blocks={label: z[span, span].copy() for label, span in prog.spans.items()},
        y=y,
        primal_value=pobj,
        dual_value=dobj,
        gap=dobj - pobj,
        iterations=iters,
        status=status,
        trace=tuple(trace),
    )


# --- public driver -------------------------------------------------------------

_BOUND_BLOCK = "_trace_bound"


def _with_trace_bound(inst: SdpInstance) -> tuple[SdpInstance, float]:
    total_dim = sum(d for _, d in inst.blocks)
    rhs_scale = max([1.0] + [abs(c.rhs) for c in inst.constraints])
    m_big = 10.0 * total_dim * rhs_scale
    # Written as Tr(Z)/M + t = 1 so the row is on the same scale as the rest.
    w = complex(1.0 / m_big)
    entries = [(_BOUND_BLOCK, 0, 0, 1.0 + 0.0j)]
    for label, d in inst.blocks:
        entries.extend((label, i, i, w) for i in range(d))
    bounded = SdpInstance(
        blocks=inst.blocks + ((_BOUND_BLOCK, 1),),
        objective=dict(inst.objective),
        constraints=inst.constraints
        + (SdpConstraint(entries=tuple(entries), rhs=1.0),),
    )
    return bounded, m_big


def _scale_exponent(top: float) -> int:
    """e with top * 2^-e in [0.5, 1) when top > 1, else 0 (no scaling)."""
    return math.frexp(top)[1] if top > 1.0 else 0


def _scaled(inst: SdpInstance) -> tuple[SdpInstance, int, int]:
    """The instance with C scaled by 2^-ec and every rhs by 2^-eb, exactly,
    so that no entry of either exceeds 1 in real or imaginary part; the
    instance itself when none does. Its solution maps back as Z 2^eb,
    y 2^ec and both values 2^(ec + eb)."""
    ec = _scale_exponent(max(
        (float(np.max(np.abs(part))) for c in inst.objective.values() for part in (c.real, c.imag)),
        default=0.0,
    ))
    eb = _scale_exponent(max((abs(con.rhs) for con in inst.constraints), default=0.0))
    if not (ec or eb):
        return inst, 0, 0
    scaled = SdpInstance(
        blocks=inst.blocks,
        objective={label: c * math.ldexp(1.0, -ec) for label, c in inst.objective.items()},
        constraints=tuple(
            SdpConstraint(entries=con.entries, rhs=math.ldexp(con.rhs, -eb))
            for con in inst.constraints
        ),
    )
    return scaled, ec, eb


def solve(inst: SdpInstance, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Solve a complex-block SDP to the requested relative gap tolerance.

    Deterministic for a fixed instance and tolerance. Raises Infeasible or
    Unbounded when detected; an iteration-capped run returns the best
    iterate with status "max_iterations" (certify() will fail it). Raises
    TooLargeError, before allocating, when the matrix side or the Schur
    matrix (m + 1 rows, with the trace cap) is above the dense cap.
    C and the rhs are solved scaled by powers of two when an entry exceeds
    1 (see _scaled); the trace then stays in the scaled units.
    """
    if tol <= 0:
        raise BadArgsError("tol must be positive")
    side = 1 + sum(d for _, d in inst.blocks)
    m = 1 + len(inst.constraints)
    if max(side, m) ** 2 > DENSE_AMPLITUDE_CAP:
        raise TooLargeError(
            f"SDP of side {side} with {m} constraints is above the dense cap"
        )
    scaled, ec, eb = _scaled(inst)
    bounded, m_big = _with_trace_bound(scaled)
    sol = _solve(bounded, tol, math.ldexp(1.0, -(ec + eb)))
    trace_total = sum(
        float(np.real(np.trace(sol.blocks[label]))) for label, _ in inst.blocks
    )
    if trace_total >= 0.99 * m_big:
        raise UnboundedError(
            f"objective unbounded (trace cap {m_big:.3g} is active)"
        )
    z_unit, y_unit, value_unit = (math.ldexp(1.0, e) for e in (eb, ec, ec + eb))
    return SdpSolution(
        blocks={label: sol.blocks[label] * z_unit for label, _ in inst.blocks},
        y=sol.y[: len(inst.constraints)] * y_unit,
        primal_value=sol.primal_value * value_unit,
        dual_value=sol.dual_value * value_unit,
        gap=sol.gap * value_unit,
        iterations=sol.iterations,
        status=sol.status,
        trace=sol.trace,
    )


@dataclass(frozen=True)
class CertifyReport:
    passed: bool
    checks: tuple[tuple[str, float, float, bool], ...]  # (name, value, bound, ok)

    def failures(self) -> list[str]:
        return [name for name, _, _, ok in self.checks if not ok]


def certify(inst: SdpInstance, sol: SdpSolution, tol: float = DEFAULT_TOL) -> CertifyReport:
    """Recompute residuals, PSD slacks, the objective sum_b Re Tr(C_b^dagger Z_b)
    against primal_value, and the duality gap of a solution."""
    checks = []
    for label, _ in inst.blocks:
        z = sol.blocks[label]
        herm = float(np.linalg.norm(z - z.conj().T))
        checks.append((f"hermitian[{label}]", herm, 1e-9 * max(1.0, float(np.linalg.norm(z))), None))
        mineig = float(np.linalg.eigvalsh((z + z.conj().T) / 2)[0])
        checks.append((f"psd[{label}]", mineig, -PSD_SLACK, None))
    rhs_scale = max([1.0] + [abs(c.rhs) for c in inst.constraints])
    worst = 0.0
    for con in inst.constraints:
        worst = max(worst, abs(constraint_value(inst, con, sol.blocks) - con.rhs))
    checks.append(("residual", worst, RESIDUAL_SCALE_TOL * rhs_scale, None))
    objective = sum(float(np.vdot(c, sol.blocks[b]).real) for b, c in inst.objective.items())
    checks.append(("objective", abs(objective - sol.primal_value),
                   RESIDUAL_SCALE_TOL * max(1.0, abs(sol.primal_value)), None))
    gap = sol.dual_value - sol.primal_value
    checks.append(("gap_nonneg", gap, -RESIDUAL_SCALE_TOL * max(1.0, abs(sol.primal_value)), None))
    checks.append(("gap_small", abs(gap), tol * max(1.0, abs(sol.primal_value)), None))

    resolved = []
    for name, value, bound, _ in checks:
        if name.startswith("psd") or name.startswith("gap_nonneg"):
            ok = value >= bound
        else:
            ok = value <= bound
        resolved.append((name, value, bound, ok))
    if sol.status != "optimal":
        resolved.append(("status_optimal", 0.0, 0.0, False))
    return CertifyReport(
        passed=all(ok for _, _, _, ok in resolved), checks=tuple(resolved)
    )


# --- xorq-sdp-v1 wire format ----------------------------------------------------

SDP_FORMAT = "xorq-sdp-v1"


def _entries_to_json(entries) -> list[dict]:
    out = []
    for b, r, c, v in entries:
        v = complex(v)
        out.append({"b": b, "r": r, "c": c, "re": v.real, "im": v.imag})
    return sorted(out, key=lambda e: (e["b"], e["r"], e["c"]))


def instance_to_dict(inst: SdpInstance) -> dict:
    obj_entries = []
    for label, c in sorted(inst.objective.items()):
        for r in range(c.shape[0]):
            for s in range(r, c.shape[1]):
                v = c[r, s]
                if v != 0:
                    obj_entries.append((label, r, s, complex(v)))
    return {
        "format": SDP_FORMAT,
        "blocks": [{"label": label, "dim": dim} for label, dim in inst.blocks],
        "objective": _entries_to_json(obj_entries),
        "constraints": [
            {"entries": _entries_to_json(con.entries), "rhs": con.rhs}
            for con in inst.constraints
        ],
    }


def _finite(x) -> float:
    v = float(x)
    if not math.isfinite(v):
        raise FormatError(f"non-finite number {v}")
    return v


def instance_from_dict(data: dict) -> SdpInstance:
    if not isinstance(data, dict) or data.get("format") != SDP_FORMAT:
        raise FormatError(f"expected format {SDP_FORMAT!r}")
    try:
        blocks = tuple((str(b["label"]), int(b["dim"])) for b in data["blocks"])
        side = sum(max(d, 0) for _, d in blocks)
        if side * side > DENSE_AMPLITUDE_CAP:
            raise TooLargeError(f"blocks of total side {side} are above the dense cap")
        objective = {label: np.zeros((d, d), dtype=complex) for label, d in blocks}
        for e in data["objective"]:
            label, r, c = str(e["b"]), int(e["r"]), int(e["c"])
            d = objective[label].shape[0]
            if not (0 <= r < d and 0 <= c < d):
                raise FormatError(f"objective entry index ({r}, {c}) out of range")
            v = complex(_finite(e["re"]), _finite(e["im"]))
            objective[label][r, c] = v
            objective[label][c, r] = v.conjugate()
        objective = {k: v for k, v in objective.items() if np.any(v)}
        constraints = []
        for con in data["constraints"]:
            entries = tuple(
                (str(e["b"]), int(e["r"]), int(e["c"]), complex(_finite(e["re"]), _finite(e["im"])))
                for e in con["entries"]
            )
            constraints.append(SdpConstraint(entries=entries, rhs=_finite(con["rhs"])))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed SDP file: {exc}") from exc
    return SdpInstance(blocks=blocks, objective=objective, constraints=tuple(constraints))


def load_instance(path) -> SdpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)
