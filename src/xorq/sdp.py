"""Standard-form semidefinite programming over one complex Hermitian matrix.

An instance asks to maximize Re Tr(C^dagger Z) over PSD Hermitian Z
subject to equality constraints Re Tr(F_q^dagger Z) = rhs_q. It is solved
by an infeasible primal-dual interior-point method with Nesterov-Todd
scaling; the Schur complement M[p, q] = Re Tr(F_p W F_q W) and the
multipliers y are real. Each iteration is a Mehrotra predictor-corrector
step in the NT frame G (W = G G^H, G^-1 Z G^-H = G^H S G = diag(lam)): the
affine predictor fixes sigma = (mu_aff / mu)^3, and the corrector adds to
the centering term the second-order term of the predictor (Mehrotra, SIAM
J. Optim. 2, 1992; Toh-Todd-Tutuncu, Optim. Methods Softw. 11, 1999). Z
is the only matrix factored: its Cholesky factor and that factor's inverse
give the NT frame, S^-1 = G diag(1/lam) G^H, and all four step-length
searches, taken in the frame (Todd-Toh-Tutuncu, SIAM J. Optim. 8, 1998).
The Schur matrix is assembled a group of constraints at a time, each
group's stack at most 1 MB (see _schur). A solve stops "optimal" when both
residuals are below FEAS_TOL and the relative duality gap is at most tol,
and "stalled" when its merit, max(pres, dres, rel_gap), has not fallen
below the best iterate's for STALL_ITERS iterations.

The linear algebra is NumPy's alone. _schur fills the upper triangle of the
Schur matrix M; np.linalg.cholesky of its transposed array reads that
array's lower triangle, hence M's upper one, and gives the lower factor L
with M = L L^T. dy takes a forward pass with L and an adjoint pass with L^T,
and the inverse of Z's factor a forward pass with the identity. NumPy has no
triangular solve, so each pass is a blocked substitution (_Triangular): the
diagonal blocks, SUBSTITUTION_ROWS rows each, are inverted once per factor,
and a pass takes matrix products only. A block solved through its explicit
inverse leaves a residual of about its condition number times the rounding
unit, where substitution leaves one of the order of the unit; so each
block's solution x = inv r is refined once, x + inv (r - L_kk x), which
brings the residual back to within a small factor of a substitution's.

The block partition. solve finds the finest partition of the indices
(_classes) in which each nonzero entry of C lies inside one class, and each
row has either all its entries inside classes or all of them across
classes and rhs 0. An entry of C merges its endpoints, and a row that
breaks the second rule (rhs != 0 with an entry across classes, or rhs 0
with entries of both kinds) merges the endpoints of each of its entries.
Pinching Z to the classes (zeroing every entry across them) keeps it PSD,
keeps the objective and every row inside classes, and gives each row
across them its rhs, 0; so the program with only the rows inside classes
has the same optimum (the aggregate sparsity of Fukuda-Kojima-Murota-
Nakata, SIAM J. Optim. 11, 2001, with the rows across classes dropped).
The program keeps the instance's side and index order and drops those
rows; the start and every NT step from a block-diagonal iterate are
block-diagonal on the classes, up to rounding. The solution is Z pinched
to the classes and y 0 on every dropped row, so S = A^T y - C is the
program's S and the pair is primal-dual for the instance as given. The
dense cap counts the instance as given.

A real program, C and every entry of a kept row real, is solved in real
arithmetic, over real symmetric Z. That loses nothing: if Z is feasible so
is its conjugate, on which every row and the objective take the same value,
hence Re Z = (Z + conj Z) / 2 is PSD, feasible and has the same objective.
Any other program is solved over complex Hermitian Z. Which rows a program needs is decided
where it is built (see the relaxations module).

The trace bound. solve takes an instance only when its rows bound Tr Z:
row weights u over the rows whose entries are all diagonal with sum_q u_q
diag(F_q) = D > 0 (the trace witness, _trace_witness). Every feasible Z
then has Tr(D Z) = u^T b, so Tr Z <= u^T b / min D, and both the primal
feasible set and the optimum are bounded. Each Gram relaxation of this
package has one with D = I, as its diagonal caps sum to the identity; with
the caps as inequalities Q + S = I, S the slack indices' part of Z, D is
another positive diagonal. An instance without such u, or with u^T b <= 0,
is refused (BadArgsError).

The start is Z = (u^T b / Tr D) I and y = lam u, lam = 1.5 ||C|| / min D +
1e-3, so S = A^T y - C = lam D - C is positive definite and meets the dual
rows exactly, and Z meets the witness's weighted sum of rows. On a Gram
relaxation Z meets every row as well: the start is feasible on both sides
(the max-cut start of Helmberg-Rendl-Vanderbei-Wolkowicz, SIAM J. Optim. 6,
1996).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadArgsError, SdpError, check_dense

DEFAULT_TOL = 1e-6
FEAS_TOL = 1e-8
MAX_ITERS = 120
MU_FLOOR = 1e-13
SHORT_STEP = 0.1  # corrector step below which the centering direction is tried
STALL_ITERS = 5  # iterations without a lower merit after which a run stops
SCHUR_GROUP_ENTRIES = 1 << 16  # complex entries (1 MB) in one Schur group array
SUBSTITUTION_ROWS = 64  # rows of a diagonal block in a blocked triangular solve

Entry = tuple[int, int, complex]


@dataclass(frozen=True)
class SdpConstraint:
    """sum over entries (r, c, v) of Re Tr(F^dagger Z) = rhs, where F has
    value v at (r, c) and conj(v) at (c, r); only r <= c is stored."""

    entries: tuple[Entry, ...]
    rhs: float


@dataclass(frozen=True)
class SdpInstance:
    """max Re Tr(C^dagger Z) over PSD Hermitian Z of side side, C the
    objective, subject to the constraints."""

    side: int
    objective: np.ndarray
    constraints: tuple[SdpConstraint, ...]

    def __post_init__(self):
        # A complex Hermitian copy: the caller's array is left alone.
        object.__setattr__(self, "objective", _hermitian(np.asarray(self.objective, dtype=complex)))


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
    """The primal matrix Z, of the instance's side, and the dual multipliers
    y, one per row of the instance; objective values (dual_value is b^T y)
    and the per-iteration trace (kept out of every serialized payload)."""

    z: np.ndarray
    y: np.ndarray
    primal_value: float
    dual_value: float
    iterations: int  # iterations run, len(trace), whichever iterate is returned
    # "optimal", or "max_iterations" or "stalled" (best iterate, non-certified);
    # "stalled" also when the merit has not improved for STALL_ITERS iterations
    status: str
    trace: tuple[IpmIteration, ...] = ()


# --- interior-point core (one Hermitian matrix, real or complex) -------------


class _Program:
    """The one translation of an instance that the core solves: one
    Hermitian matrix of the instance's side dim, in its index order, and the
    m rows that lie inside the classes of _classes. label and kept are that
    partition: each index's class, named by its smallest index, and which
    rows of the instance the program keeps (the others lie across classes
    with rhs 0, and pinching meets them). The stored entries (r <= c) of the
    kept rows are in row order, their owners renumbered 0..m-1: entries
    q_ptr[i]:q_ptr[i + 1] belong to row q_list[i]. witness is the rows'
    trace witness (_trace_witness), or None; the program is built either
    way, and solve refuses one whose rows do not bound Tr Z.

    F_q has v at (r, c) and conj(v) at (c, r), so A(Z)_q = Re sum of
    weight * Z[r, c] with weight 2 conj(v) off the diagonal and v on it, and
    A^T y = U + U^H where U holds half * y[owner] at (r, c), half being v with
    the diagonal halved. A real program (C and every kept entry real) holds
    them as real arrays, and so does every iterate over it.
    """

    def __init__(self, inst: SdpInstance):
        dim, c = inst.side, inst.objective
        rows, cols, vals, owner = _entries(inst)
        b = np.array([con.rhs for con in inst.constraints], dtype=float)
        self.label, self.kept = _classes(dim, *np.nonzero(c), rows, cols, owner, b)
        at = self.kept[owner]
        rows, cols, vals = rows[at], cols[at], vals[at]
        owner = (np.cumsum(self.kept) - 1)[owner[at]]
        self.b = b[self.kept]
        self.dim, self.m = dim, self.b.size
        real = not (vals.imag.any() or c.imag.any())

        self.dtype = float if real else complex
        self.cobj = np.ascontiguousarray(c.real) if real else c
        self.rows, self.cols, self.owner = rows, cols, owner
        diag = self.rows == self.cols
        vals = vals.real if real else np.where(diag, vals.real, vals)
        self.flat = self.rows * dim + self.cols
        self.flat_t = self.cols * dim + self.rows
        self.weight = np.where(diag, 1.0, 2.0) * vals.conj()
        self.half = np.where(diag, 0.5, 1.0) * vals
        self.q_list, starts = np.unique(self.owner, return_index=True)
        self.q_ptr = np.append(starts, self.owner.size)
        self.groups = _schur_groups(np.diff(self.q_ptr), dim)
        self.witness = _trace_witness(self)


def _entries(inst: SdpInstance):
    """The stored entries of every row, in row order, as arrays: row,
    column, the complex value, and the number of the row that owns it."""
    rows, cols, vals, owner = [], [], [], []
    for q, con in enumerate(inst.constraints):
        for r, c, v in con.entries:
            rows.append(r)
            cols.append(c)
            vals.append(complex(v))
            owner.append(q)
    rows, cols, owner = (np.asarray(x, dtype=np.intp) for x in (rows, cols, owner))
    return rows, cols, np.asarray(vals, dtype=complex), owner


def _trace_witness(prog: _Program) -> np.ndarray | None:
    """Row weights u, one per row the program keeps, with A^T u = D a
    diagonal whose entries all exceed 1e-12 times the largest, so that every
    Z meeting the rows has Tr(D Z) = u^T b. The test is relative: it keeps a D whose
    entries spread over many orders of magnitude and drops one that is 0 up
    to rounding. u is the least-squares fit of sum_q u_q diag(F_q) = 1 over
    the rows whose stored entries are all diagonal, 0 on every other row;
    D = I when those rows can sum to the identity. None for any other program."""
    diag = prog.rows == prog.cols
    mixed = np.bincount(prog.owner, ~diag, minlength=prog.m) > 0
    rows = np.flatnonzero(~mixed)
    if rows.size == 0:
        return None
    sel = ~mixed[prog.owner]
    fit = np.zeros((prog.dim, rows.size))
    np.add.at(fit, (prog.rows[sel], np.searchsorted(rows, prog.owner[sel])), prog.weight[sel].real)
    u = np.linalg.lstsq(fit, np.ones(prog.dim), rcond=None)[0]
    d = fit @ u
    if not d.min() > 1e-12 * d.max():
        return None
    witness = np.zeros(prog.m)
    witness[rows] = u
    return witness


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
    up = np.bincount(prog.flat, weights=u.real, minlength=size)
    if prog.dtype is complex:
        up = up + 1j * np.bincount(prog.flat, weights=u.imag, minlength=size)
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
    lam = omega^1/2, so Z = G diag(lam) G^H and S^-1 = G diag(1/lam) G^H.
    Returns W, G, G^-1 = diag(omega^1/4) Q^H L^-1 and lam.
    """
    k = lz.conj().T @ s @ lz
    omega, q = np.linalg.eigh(_hermitian(k))
    omega = np.clip(omega, 1e-300, None)
    g = lz @ (q * omega**-0.25)
    g_inv = (omega**0.25)[:, None] * (q.conj().T @ lz_inv)
    return _hermitian(g @ g.conj().T), g, g_inv, np.sqrt(omega)


class _Triangular:
    """A lower-triangular L, ready for solves with L and with L^H by blocked
    substitution. The diagonal blocks, SUBSTITUTION_ROWS rows each (the last
    one shorter), are inverted once, here, all at once; a solve then takes
    matrix products only, block by block, with one refinement step per
    block (see the module docstring)."""

    def __init__(self, l: np.ndarray):
        self.l = l
        n = l.shape[0]
        rows = min(SUBSTITUTION_ROWS, n)
        cuts = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
        # Each block padded with the identity to a side that is a power of two.
        side = 1 << (rows - 1).bit_length()
        stack = np.tile(np.eye(side, dtype=l.dtype), (len(cuts), 1, 1))
        for k, (lo, hi) in enumerate(cuts):
            stack[k, : hi - lo, : hi - lo] = l[lo:hi, lo:hi]
        inverses = self._invert(stack)
        # (lo, hi, the block's inverse, the block) per diagonal block
        self.blocks = [(lo, hi, inverses[k, : hi - lo, : hi - lo], l[lo:hi, lo:hi])
                       for k, (lo, hi) in enumerate(cuts)]

    @staticmethod
    def _invert(stack: np.ndarray) -> np.ndarray:
        """The inverses of a stack (K, s, s) of lower-triangular matrices, s a
        power of two: [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
        with the A and D halves of every matrix inverted as one stack."""
        k, s, _ = stack.shape
        if s == 1:
            return 1.0 / stack
        h = s // 2
        halves = _Triangular._invert(np.concatenate([stack[:, :h, :h], stack[:, h:, h:]]))
        out = np.zeros_like(stack)
        out[:, :h, :h], out[:, h:, h:] = halves[:k], halves[k:]
        out[:, h:, :h] = -(halves[k:] @ stack[:, h:, :h]) @ halves[:k]
        return out

    def solve(self, rhs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """L^-1 rhs, or L^-H rhs when adjoint; rhs is a vector or a matrix."""
        l = self.l
        x = np.empty(rhs.shape, dtype=np.result_type(l, rhs))
        for lo, hi, inv, diag in reversed(self.blocks) if adjoint else self.blocks:
            if adjoint:
                inv, diag = inv.conj().T, diag.conj().T
                r = rhs[lo:hi] - l[hi:, lo:hi].conj().T @ x[hi:]
            else:
                r = rhs[lo:hi] - l[lo:hi, :lo] @ x[:lo]
            xk = inv @ r
            x[lo:hi] = xk + inv @ (r - diag @ xk)
        return x


def _max_step(dx: np.ndarray) -> float:
    """Largest alpha with I + alpha dx >= 0, for a direction scaled in the NT
    frame: Lam^-1/2 G^-1 dZ G^-H Lam^-1/2 for Z, Lam^-1/2 G^H dS G Lam^-1/2 for S."""
    lam = float(np.linalg.eigvalsh(_hermitian(dx))[0])
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


def _solve(prog: _Program, tol: float) -> SdpSolution:
    """The interior-point loop, over real symmetric Z for a real program.
    The residuals are relative to 1 + max |b| and 1 + ||C||, the gap to
    max(1, |primal|).

    The start (see the module docstring) is Z = (u^T b / Tr D) I, y = lam u
    and S = A^T y - C = lam D - C, u the witness prog.witness with A^T u =
    D and lam = 1.5 ||C|| / min D + 1e-3. solve has checked that u^T b > 0."""
    b_vec, nu = prog.b, prog.dim
    scale_b = 1.0 + float(np.max(np.abs(b_vec)))
    norm_c = float(np.linalg.norm(prog.cobj, 2))
    scale_c = 1.0 + norm_c
    d = _at_of(prog, prog.witness).diagonal().real
    lam = 1.5 * norm_c / float(d.min()) + 1e-3
    z = float(prog.witness @ b_vec) / float(d.sum()) * np.eye(nu, dtype=prog.dtype)
    y = lam * prog.witness
    s = _at_of(prog, y) - prog.cobj
    trace = []

    best = None
    best_merit, best_at = np.inf, 0  # the best iterate's merit and iteration
    status = "stalled"  # each break below: the iterates can make no further progress
    for _ in range(MAX_ITERS):
        rp = b_vec - _a_of(prog, z)
        rd = prog.cobj + s - _at_of(prog, y)
        mu = float(np.vdot(z, s).real) / nu
        pobj = float(np.vdot(prog.cobj, z).real)
        dobj = float(b_vec @ y)
        value_scale = max(1.0, abs(pobj))
        rel_gap = abs(dobj - pobj) / value_scale
        pres = float(np.linalg.norm(rp)) / scale_b
        dres = float(np.linalg.norm(rd)) / scale_c
        record = dict(pres=pres, dres=dres, rel_gap=rel_gap, mu=mu)
        if not all(map(math.isfinite, (pres, dres, mu))):
            if best is None:
                raise SdpError("non-finite residual or mu at the start")
            trace.append(IpmIteration(**record))
            break  # the iterate overflowed: the best one so far is returned
        merit = max(pres, dres, rel_gap)
        if merit < best_merit:
            best_merit, best_at = merit, len(trace)
            best = (z, y.copy(), pobj, dobj)
        if pres <= FEAS_TOL and dres <= FEAS_TOL and rel_gap <= tol:
            trace.append(IpmIteration(**record))
            return _finish(prog, z, y, pobj, dobj, len(trace), "optimal", trace)
        if mu / value_scale < MU_FLOOR or len(trace) - best_at >= STALL_ITERS:
            trace.append(IpmIteration(**record))
            break  # numerical floor, or no progress for STALL_ITERS iterations

        t = time.perf_counter()
        lz = _chol_psd(z)
        w, g, g_inv, lam = _nt_scaling(lz, _Triangular(lz).solve(np.eye(nu, dtype=lz.dtype)), s)
        t, record["nt_s"] = _lap(t)
        schur = _schur(prog, w)
        t, record["schur_s"] = _lap(t)
        diag = np.diag(schur).copy()
        ridge = 1e-14 * max(float(np.max(diag)), 1e-300)
        factor = None
        for _ in range(10):
            np.fill_diagonal(schur, diag + ridge)
            try:
                factor = _Triangular(np.linalg.cholesky(schur.T))
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        t, record["chol_s"] = _lap(t)
        if factor is None:
            trace.append(IpmIteration(**record))
            break

        s_inv = (g / lam) @ g.conj().T
        root = lam**-0.5
        frame_z = root[:, None] * g_inv  # Lam^-1/2 G^-1
        frame_s = (g * root).conj().T  # Lam^-1/2 G^H
        w_rd_w = w @ rd @ w

        def newton(rc: np.ndarray):
            """The NT direction with dZ + W dS W = rc."""
            rhs = _a_of(prog, rc + w_rd_w) - rp
            dy = factor.solve(factor.solve(rhs), adjoint=True)
            if not np.isfinite(dy).all():
                raise FloatingPointError("non-finite Newton step")
            ds = _at_of(prog, dy) - rd
            return _hermitian(rc - w @ ds @ w), dy, ds

        def steps(dz: np.ndarray, ds: np.ndarray, fraction: float) -> tuple[float, float]:
            return (
                min(1.0, fraction * _max_step(frame_z @ dz @ frame_z.conj().T)),
                min(1.0, fraction * _max_step(frame_s @ ds @ frame_s.conj().T)),
            )

        try:
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
        except FloatingPointError:  # from newton: the best iterate so far is returned
            trace.append(IpmIteration(**record))
            break
        t, dt = _lap(t)
        record["step_s"] += dt
        z = z + ap * dz
        s = s + ad * ds
        y = y + ad * dy
        trace.append(IpmIteration(sigma=sigma, alpha_p=ap, alpha_d=ad, **record))
    else:
        status = "max_iterations"

    z, y, pobj, dobj = best
    return _finish(prog, z, y, pobj, dobj, len(trace), status, trace)


def _finish(prog, z, y, pobj, dobj, iters, status, trace) -> SdpSolution:
    """The solution of the instance as given: Z pinched to the classes
    (exactly 0 between them), and y 0 on every dropped row."""
    y_all = np.zeros(prog.kept.size)
    y_all[prog.kept] = y
    return SdpSolution(
        z=np.where(prog.label[:, None] == prog.label, z, 0),
        y=y_all,
        primal_value=pobj,
        dual_value=dobj,
        iterations=iters,
        status=status,
        trace=tuple(trace),
    )


# --- the finest block partition that pinching preserves ------------------------


def _classes(dim, c_rows, c_cols, rows, cols, owner, b) -> tuple[np.ndarray, np.ndarray]:
    """The finest partition of the indices 0..dim-1 in which every entry
    (c_rows[i], c_cols[i]) of C lies inside one class and every row, with
    entries (rows, cols) owned by its number and rhs b, either has all its
    entries inside classes or has all of them across classes and rhs 0.
    Returns each index's class, named by its smallest index, and which rows
    lie inside classes.

    A fixed point: the entries of C merge their endpoints; then each row
    that breaks the rule (rhs != 0 with an entry across classes, or rhs 0
    with entries of both kinds) merges the endpoints of each of its entries,
    and that repeats until no row breaks it. A valid partition is coarser
    than every iterate, since a row that breaks the rule in an iterate must
    lie inside classes in it; so the fixed point is the finest."""
    m = b.size
    label = linalg.component_labels(dim, c_rows, c_cols)
    while True:
        across = label[rows] != label[cols]
        any_across = np.bincount(owner, across, minlength=m) > 0
        any_inside = np.bincount(owner, ~across, minlength=m) > 0
        merge = any_across & ((b != 0) | any_inside)
        if not merge.any():
            return label, ~any_across
        at = merge[owner]
        label = linalg.component_labels(dim, label[rows[at]], label[cols[at]])[label]


# --- public driver -------------------------------------------------------------


def solve(inst: SdpInstance, tol: float) -> SdpSolution:
    """Solve an SDP on one Hermitian matrix to the requested relative gap
    tolerance.

    Deterministic for a fixed instance and tolerance, which must be positive
    and finite (else BadArgsError). The instance's rows must bound Tr Z: some
    rows with only diagonal entries, weighted by u, sum to a positive
    diagonal D with u^T b > 0 (see the module docstring); else BadArgsError.
    A run returns its best iterate as "max_iterations" at the cap, and as
    "stalled" when it stops early (no lower merit max(pres, dres, rel_gap)
    for STALL_ITERS iterations, a non-finite residual, mu or Newton step, mu
    below MU_FLOOR, or a Schur matrix that no ridge makes factorable); a
    non-finite start raises SdpError. A real program (C and every entry of
    a kept row real) is solved over real symmetric Z, and Z is then a real
    array. Raises TooLargeError, before allocating, when the matrix side or
    the Schur matrix (one row and column per row of the instance as given)
    is above the dense cap.

    The program (_Program) keeps the instance's side and index order and
    drops the rows that lie across the classes of the finest partition that
    C and the rows allow: an entry of C merges its endpoints, and so do those
    of each entry of a row with rhs != 0 and an entry across classes, or
    with rhs 0 and entries inside and across. The dropped rows all have rhs
    0; pinching Z to the classes meets them and keeps the optimum (see the
    module docstring). The returned Z is pinched, exactly 0 between classes,
    and y has one entry per row of the instance, 0 on each dropped row.
    """
    if not 0 < tol < math.inf:
        raise BadArgsError(f"tol must be positive and finite, got {tol!r}")
    dim, m = inst.side, len(inst.constraints)
    check_dense(max(dim, m) ** 2, f"SDP of side {dim} with {m} constraints")
    prog = _Program(inst)
    bound = 0.0 if prog.witness is None else float(prog.witness @ prog.b)
    if not bound > 0:
        raise BadArgsError("the rows do not bound Tr Z: no diagonal rows sum to a D > 0 with u^T b > 0")
    return _solve(prog, tol)
