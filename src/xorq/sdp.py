"""Standard-form semidefinite programming over one complex Hermitian matrix.

An instance asks to maximize Re Tr(C^dagger Z) over PSD Hermitian Z
subject to equality constraints Re Tr(F_q^dagger Z) = rhs_q. C and the F_q
are one table of stored entries r <= c (SdpInstance: row, column, value,
owner), C's entries with owner -1, as C is matrix 0 of the SDPA format.
It is solved by an infeasible primal-dual interior-point method with
Nesterov-Todd scaling; the Schur complement M[p, q] = Re Tr(F_p W F_q W)
and the multipliers y are real. Each iteration is a Mehrotra predictor-corrector
step in the NT frame G (W = G G^H, G^-1 Z G^-H = G^H S G = diag(lam)): the
affine predictor fixes sigma = (mu_aff / mu)^3, and the corrector adds to
the centering term the second-order term of the predictor (Mehrotra, SIAM
J. Optim. 2, 1992; Toh-Todd-Tutuncu, Optim. Methods Softw. 11, 1999).
Per class, Z's Cholesky factor and that factor's inverse give the NT
frame, S^-1 = G diag(1/lam) G^H, and all four step-length searches, taken
in the frame (Todd-Toh-Tutuncu, SIAM J. Optim. 8, 1998); a step's length
is the least over the classes. The Schur matrix takes P = W U W for each
row's entries U inside one class, by stacked matmuls, and reads it at the
entries of that class; no array of it holds more than SCHUR_GROUP_ENTRIES
entries (see _schur_plan). A solve stops "optimal" when both residuals are
below FEAS_TOL and the relative duality gap is at most tol, and "stalled"
when its merit, max(pres, dres, rel_gap), has not fallen below the best
iterate's for STALL_ITERS iterations.

The linear algebra is NumPy's alone. _schur fills the lower triangle of the
Schur matrix M, which np.linalg.cholesky reads, and gives the lower factor L
with M = L L^T. dy = M^-1 rhs takes a forward pass with L and an adjoint pass
with L^T.
NumPy has no triangular solve, so each pass is a blocked substitution
(_Triangular): the diagonal blocks, SUBSTITUTION_ROWS rows each, are
inverted once per factor, and a pass takes matrix products only. A block
solved through its explicit inverse leaves a residual of about its
condition number times the rounding unit, where substitution leaves one of
the order of the unit; so each block's solution x = inv r is refined once,
x + inv (r - L_kk x), which brings the residual back to within a small
factor of a substitution's. The inverse of Z's factor, one small matrix
per class, is np.linalg.inv of the whole stack (an LU solve, backward
stable like a substitution).

The block partition. solve finds the finest partition of the indices
(_classes) in which each entry of C lies inside one class, and each
row has either all its entries inside classes or all of them across
classes and rhs 0. An entry of C merges its endpoints, and a row that
breaks the second rule (rhs != 0 with an entry across classes, or rhs 0
with entries of both kinds) merges the endpoints of each of its entries.
Pinching Z to the classes (zeroing every entry across them) keeps it PSD,
keeps the objective and every row inside classes, and gives each row
across them its rhs, 0; so the program with only the rows inside classes
has the same optimum (the aggregate sparsity of Fukuda-Kojima-Murota-
Nakata, SIAM J. Optim. 11, 2001, with the rows across classes dropped).
The program drops those rows and holds only the blocks of the classes:
the classes of one side form one stack, and every matrix of the core is
one packed buffer of its stacks (_Program), so each dense step (Cholesky,
inverse, eigh, products, eigvalsh) runs once per distinct class side on a
stack of small matrices. The start is block-diagonal on the classes, and
so is every NT step taken from a block-diagonal iterate, so the iterates
never leave the blocks. The solution is Z as it is solved, one stack per
class side with each class's indices (so Z pinched to the classes, 0
between them), and y 0 on every dropped row: S = A^T y - C is the program's
S and the pair is primal-dual for the instance as given. The dense cap
counts the two arrays that grow with the instance, Z packed on the classes
(sum K s^2 entries) and the Schur matrix of the kept rows, right after the
partition, before either or anything of its size exists.

A real program, C and every entry of a kept row real (on the diagonal only
the real part counts), is solved in real arithmetic, over real symmetric Z.
That loses nothing: if Z is feasible so
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
STALL_ITERS = 5  # iterations without a lower merit after which a run stops
SCHUR_GROUP_ENTRIES = 1 << 15  # entries (512 KB if complex) of each array of one Schur chunk
SUBSTITUTION_ROWS = 64  # rows of a diagonal block in a blocked triangular solve


@dataclass(frozen=True)
class SdpInstance:
    """max Re Tr(C^dagger Z) over PSD Hermitian Z of side side subject to
    Re Tr(F_q^dagger Z) = constraints[q], one row per rhs. C and the rows are
    one table of stored entries, in any order: entry e puts vals[e] at
    (rows[e], cols[e]) of F_owner[e], or of C if owner[e] = -1, rows[e] <=
    cols[e], and its conjugate at the transpose; entries at one position sum,
    and on the diagonal only Re counts. BadArgsError unless side is an
    integer >= 1 and the table is 1-D arrays, the entries' of one length,
    integer indices with 0 <= r <= c < side and -1 <= owner <
    len(constraints), and finite values and rhs. The fields are read-only
    copies: the caller's arrays are left alone."""

    side: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    owner: np.ndarray
    constraints: np.ndarray

    def __post_init__(self):
        if isinstance(self.side, bool) or not isinstance(self.side, (int, np.integer)) or self.side < 1:
            raise BadArgsError(f"side must be an integer >= 1, got {self.side!r}")
        names = ("rows", "cols", "vals", "owner", "constraints")
        table = [np.asarray(getattr(self, name)) for name in names]
        if any(x.ndim != 1 for x in table) or len({x.size for x in table[:4]}) > 1:
            raise BadArgsError("the entry arrays and the rhs must be 1-D, the entry arrays of one length")
        # Integer indices, complex values and a real rhs; astype copies.
        for x, kinds in zip(table, ("iu", "iu", "iufc", "iu", "iuf")):
            if x.size and x.dtype.kind not in kinds:
                raise BadArgsError(f"an entry array or the rhs has dtype {x.dtype}, which it cannot take")
        types = (np.intp, np.intp, complex, np.intp, float)
        rows, cols, vals, owner, b = (x.astype(t) for x, t in zip(table, types))
        if not ((0 <= rows) & (rows <= cols) & (cols < self.side)).all():
            raise BadArgsError(f"an entry (r, c) lies outside 0 <= r <= c < {self.side}")
        if not ((-1 <= owner) & (owner < b.size)).all():
            raise BadArgsError(f"an entry's owner lies outside -1 <= owner < {b.size}, the number of rows")
        if not (np.isfinite(vals).all() and np.isfinite(b).all()):
            raise BadArgsError("an entry value or rhs is not finite")
        object.__setattr__(self, "side", int(self.side))
        for name, x in zip(names, (rows, cols, vals, owner, b)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)


@dataclass(frozen=True)
class IpmIteration:
    """One interior-point iteration: the residuals, relative gap and mu of
    the iterate it starts from, the centering weight and step sizes it took,
    and the seconds it spent per phase. An iteration that stops the solver
    takes no step: sigma and the step sizes stay 0, and so does the time of
    each phase it did not reach."""

    pres: float
    dres: float
    rel_gap: float
    mu: float
    sigma: float = 0.0
    alpha_p: float = 0.0
    alpha_d: float = 0.0
    nt_s: float = 0.0  # the NT scaling and its frame's products: W, S^-1, the step frames, W R_d W
    schur_s: float = 0.0  # the Schur matrix
    chol_s: float = 0.0  # its Cholesky factor and _Triangular's block inverses
    newton_s: float = 0.0  # the two Newton solves, the corrector's with its second-order term
    step_s: float = 0.0  # the four step-length searches and sigma


@dataclass(frozen=True)
class SdpSolution:
    """The primal matrix Z per class side, widest first, as it is solved:
    blocks = ((members, z), ...), members the (K, s) instance indices of
    each class, ascending, and z the (K, s, s) stack of their blocks of Z,
    which is 0 between classes. The dual multipliers y, one per row of the
    instance; objective values (dual_value is b^T y) and the per-iteration
    trace (kept out of every serialized payload)."""

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    y: np.ndarray
    primal_value: float
    dual_value: float
    iterations: int  # iterations run, len(trace), whichever iterate is returned
    # "optimal", or "max_iterations" or "stalled" (best iterate, non-certified);
    # "stalled" for every early stop, a failed factorization of Z among them (see solve)
    status: str
    trace: tuple[IpmIteration, ...] = ()


# --- interior-point core (stacks of the classes, real or complex) ------------


class _Program:
    """The one translation of an instance that the core solves: the m rows
    that lie inside the classes of _classes, on the classes stacked by side.
    label and kept are that partition: each index's class, named by its
    smallest index, and which rows of the instance the program keeps (the
    others lie across classes with rhs 0, and pinching meets them). C's
    entries are summed into cobj; the kept rows' stored entries (r <= c) are
    in the instance's order, owners renumbered 0..m-1, and TooLargeError
    when their Schur matrix or the packed Z is above the dense cap. witness
    is the trace witness (_trace_witness) or None; solve refuses a program
    without one.

    The classes of one side s form one stack (K, s, s), in the order of
    their names, each class's indices ascending; the stacks, widest first,
    fill one packed buffer of size = sum K s^2 entries, stack (lo, hi,
    shape) at lo:hi, and index holds each stack's (K, s) instance indices.
    Z, S, W, C and every direction are such buffers. pos is each stored
    entry's packed position (at_pos adds its transpose's) and diag each
    index's diagonal entry's.

    F_q has v at (r, c) and conj(v) at (c, r), so A(Z)_q = Re sum of
    weight * Z[r, c] with weight 2 conj(v) off the diagonal and v on it, and
    A^T y holds half * y[owner] at (r, c) and its conjugate at (c, r), half
    being v with the diagonal halved. A real program (C and every kept entry
    real) holds them as real arrays, and so does every iterate over it.
    """

    def __init__(self, inst: SdpInstance):
        dim, rows, cols, owner, b = inst.side, inst.rows, inst.cols, inst.owner, inst.constraints
        vals = np.where(rows == cols, inst.vals.real, inst.vals)  # only Re counts on the diagonal
        obj = owner < 0  # C's entries
        c_rows, c_cols, c_vals = rows[obj], cols[obj], vals[obj]
        self.label, self.kept = _classes(dim, c_rows, c_cols, rows[~obj], cols[~obj], owner[~obj], b)
        self.b = b[self.kept]
        self.dim, self.m = dim, self.b.size
        # Each index's place in its class and its row's packed position,
        # from the stacks of the classes.
        self.index = linalg.component_stacks(self.label)
        place, start = np.empty((2, dim), dtype=np.intp)
        self.stacks, lo = [], 0
        for index in self.index:
            k, s = index.shape
            hi = lo + k * s * s
            place[index] = np.arange(s)
            start[index] = np.arange(lo, hi, s).reshape(k, s)
            self.stacks.append((lo, hi, (k, s, s)))
            lo = hi
        self.size = lo
        check_dense(self.m**2, f"the Schur matrix of the {self.m} rows kept of {b.size}")
        check_dense(self.size, f"Z packed on its classes, the widest of side {self.index[0].shape[1]},")
        at = np.append(self.kept, False)[owner]  # the kept rows' entries; owner -1 reads the False
        self.dtype = complex if vals[at | obj].imag.any() else float
        rows, cols, vals = rows[at], cols[at], vals[at]
        owner = (np.cumsum(self.kept) - 1)[owner[at]]

        self.rows, self.cols, self.owner = rows, cols, owner
        diag = rows == cols
        vals = vals.real if self.dtype is float else vals
        self.weight = np.where(diag, 1.0, 2.0) * vals.conj()
        self.half = np.where(diag, 0.5, 1.0) * vals

        self.diag = start + place
        self.pos = start[rows] + place[cols]
        self.at_pos = np.concatenate([self.pos, start[cols] + place[rows]])
        self.at_half = np.concatenate([self.half, self.half.conj()])
        self.at_owner = np.concatenate([owner, owner])
        off = c_rows != c_cols  # C's entries, and their conjugates at the transposes
        c_pos = np.concatenate([start[c_rows] + place[c_cols], (start[c_cols] + place[c_rows])[off]])
        self.cobj = _scatter(self, c_pos, np.concatenate([c_vals, c_vals[off].conj()]))
        self.witness = _trace_witness(self)
        self.schur = _schur_plan(self, start[rows], place)


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


def _schur_plan(prog: _Program, start: np.ndarray, place: np.ndarray) -> list:
    """The terms of the Schur matrix, per stack in chunks (see _schur): start
    is the packed position of each stored entry's row, place each index's
    place in its class.

    A part is the entries of one row inside one class. With U its stored
    values, diagonal halved, in the class's block and P = W U W, each part
    of row q gives W F_q W = P + P^H in its class; so for p <= q, M[q, p] =
    Re Tr(F_q W F_p W) sums, over each part of row q and each entry e' of a
    row p <= q in the part's class (its partners), Re(weight_e' (P[r', c'] +
    conj P[c', r'])). A part's partners are one run of its stack's entries
    sorted by class and then row. A chunk is a run of one stack's parts,
    sorted by their number of entries and then by row: at least one part,
    and at most SCHUR_GROUP_ENTRIES entries in its P, in each of P's two
    factors, in its pairs of part and partner and in its rows of M."""
    m, cap = prog.m, SCHUR_GROUP_ENTRIES
    plan = []
    for lo, hi, (n_classes, s, _) in prog.stacks:
        at = np.flatnonzero((lo <= start) & (start < hi))
        if not at.size:
            continue
        cls, q = (start[at] - lo) // (s * s), prog.owner[at]  # a class's rows lie in its block
        r, c, half = place[prog.rows[at]], place[prog.cols[at]], prog.half[at]
        # The partners, by class and then row: positions in P and P^T, weights, rows.
        order = np.argsort(cls * m + q, kind="stable")
        key = (cls * m + q)[order]
        partners = ((r * s + c)[order], (c * s + r)[order], prog.weight[at][order], q[order])
        # The parts, by number of entries and then row: entries, class, row, partners.
        by_part = np.argsort(q * n_classes + cls, kind="stable")
        heads = np.flatnonzero(np.diff((q * n_classes + cls)[by_part], prepend=-1))
        k = np.diff(heads, append=at.size)
        by_k = np.argsort(k, kind="stable")
        heads, k = heads[by_k], k[by_k]
        part_cls, part_q = cls[by_part[heads]], q[by_part[heads]]
        first = np.searchsorted(key, part_cls * m)
        count = np.searchsorted(key, part_cls * m + part_q, side="right") - first
        heads_of = [0]  # the chunks' first parts
        pairs, rows, last = 0, 0, -1
        for g, (q_g, k_g, n_g) in enumerate(zip(part_q.tolist(), k.tolist(), count.tolist())):
            pairs, rows = pairs + n_g, rows + (q_g != last)
            wide = (g + 1 - heads_of[-1]) * s * max(s, k_g)  # P and its factors
            if g > heads_of[-1] and max(pairs, rows * m, wide) > cap:
                heads_of.append(g)
                pairs, rows = n_g, 1
            last = q_g
        chunks = []
        for g0, g1 in zip(heads_of, heads_of[1:] + [heads.size]):
            j = np.arange(k[g1 - 1])
            inside = j < k[g0:g1, None]
            ent = by_part[np.where(inside, heads[g0:g1, None] + j, heads[g0:g1, None])]
            n, band = count[g0:g1], np.sort(part_q[g0:g1])
            band = band[np.diff(band, prepend=-1) > 0]  # the chunk's rows of M
            chunks.append((
                cls[ent], r[ent], c[ent], np.where(inside, half[ent], 0), n,
                first[g0:g1] - (np.cumsum(n) - n), np.arange(g1 - g0) * s * s,
                np.searchsorted(band, part_q[g0:g1]) * (band[-1] + 1), band, int(n.sum()),
            ))
        plan.append((lo, hi, s, partners, chunks))
    return plan


def _a_of(prog: _Program, z: np.ndarray) -> np.ndarray:
    w = (prog.weight * z.take(prog.pos)).real
    return np.bincount(prog.owner, weights=w, minlength=prog.m)


def _at_of(prog: _Program, y: np.ndarray) -> np.ndarray:
    return _scatter(prog, prog.at_pos, prog.at_half * y[prog.at_owner])


def _scatter(prog: _Program, pos: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The packed buffer of the values u summed at the positions pos."""
    out = np.bincount(pos, weights=u.real, minlength=prog.size)
    if prog.dtype is complex:
        out = out + 1j * np.bincount(pos, weights=u.imag, minlength=prog.size)
    return out


def _views(prog: _Program, x: np.ndarray) -> list[np.ndarray]:
    """The stacks of a packed buffer, as views."""
    return [x[lo:hi].reshape(shape) for lo, hi, shape in prog.stacks]


def _pack(prog: _Program, stacks: list[np.ndarray]) -> np.ndarray:
    """One packed buffer from its stacks (a view of a program's one stack)."""
    if len(stacks) == 1:
        return stacks[0].reshape(-1)
    out = np.empty(prog.size, dtype=np.result_type(*stacks))
    for (lo, hi, _), x in zip(prog.stacks, stacks):
        out[lo:hi] = x.reshape(-1)
    return out


def _chol_psd(x: np.ndarray) -> np.ndarray:
    """The Cholesky factors of a stack, with one jitter for all of it when
    some matrix is not numerically positive definite. LinAlgError when 12
    tries (no jitter, then 11 growing ones) all fail, which stops the run
    at its best iterate (_solve)."""
    jitter = 0.0
    base = max(float(np.trace(x, axis1=-2, axis2=-1).real.mean()) / x.shape[-1], 1e-300)
    for _ in range(12):
        try:
            return np.linalg.cholesky(x + jitter * np.eye(x.shape[-1]) if jitter else x)
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-15 * base)
    raise np.linalg.LinAlgError("matrix not positive definite")


def _nt_scaling(z: np.ndarray, s: np.ndarray):
    """The NT frame of (Z, S), each a stack, from the Cholesky factor L of Z.

    With K = L^H S L = Q diag(omega) Q^H, G = L Q diag(omega^-1/4) gives the
    scaling W = G G^H (W S W = Z) and G^-1 Z G^-H = G^H S G = diag(lam),
    lam = omega^1/2, so Z = G diag(lam) G^H and S^-1 = G diag(1/lam) G^H.
    Returns W, G, G^-1 = diag(omega^1/4) Q^H L^-1 and lam, per matrix.
    """
    lz = _chol_psd(z)
    omega, q = np.linalg.eigh(linalg.hermitian_part(linalg.dagger(lz) @ s @ lz))
    omega = np.clip(omega, 1e-300, None)
    g = lz @ (q * omega[:, None, :] ** -0.25)
    g_inv = (omega**0.25)[:, :, None] * (linalg.dagger(q) @ np.linalg.inv(lz))
    return linalg.hermitian_part(g @ linalg.dagger(g)), g, g_inv, np.sqrt(omega)


class _Triangular:
    """A lower-triangular L, ready for solves with L L^H by blocked
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(L L^H)^-1 rhs, rhs a vector or a matrix: L u = rhs block by block
        downwards, then L^H x = u block by block upwards."""
        l = self.l
        u = np.empty(rhs.shape, dtype=np.result_type(l, rhs))
        for lo, hi, inv, diag in self.blocks:
            r = rhs[lo:hi] - l[lo:hi, :lo] @ u[:lo]
            uk = inv @ r
            u[lo:hi] = uk + inv @ (r - diag @ uk)
        x = np.empty_like(u)
        for lo, hi, inv, diag in reversed(self.blocks):
            inv, diag = inv.conj().T, diag.conj().T
            r = u[lo:hi] - l[hi:, lo:hi].conj().T @ x[hi:]
            xk = inv @ r
            x[lo:hi] = xk + inv @ (r - diag @ xk)
        return x


def _max_step(frames: list[np.ndarray], dx: list[np.ndarray]) -> float:
    """Largest alpha with I + alpha F dx F^H >= 0 on every class, for a
    direction and its NT frame F, one stack per class side: Lam^-1/2 G^-1
    for dZ, Lam^-1/2 G^H for dS."""
    scaled = (f @ x @ linalg.dagger(f) for f, x in zip(frames, dx))
    lam = min(float(np.linalg.eigvalsh(linalg.hermitian_part(x))[:, 0].min()) for x in scaled)
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _schur(prog: _Program, w: np.ndarray) -> np.ndarray:
    """Lower triangle of M[q, p] = Re Tr(F_q W F_p W), W packed, a chunk of
    _schur_plan at a time: the P of its parts as one stacked matmul, then
    their partners' terms summed by one bincount into the chunk's rows. The
    upper triangle stays zero, as the Cholesky factor reads only the lower
    one."""
    mat = np.zeros((prog.m, prog.m))
    for lo, hi, s, (pos, pos_t, weight, rows), chunks in prog.schur:
        wv = w[lo:hi].reshape(-1, s, s)
        for cls, r, c, half, count, base, at, target, band, pairs in chunks:
            p = np.matmul(wv[cls, :, r].swapaxes(1, 2), half[:, :, None] * wv[cls, c, :]).reshape(-1)
            f = np.repeat(base, count) + np.arange(pairs)  # the partners, part by part
            at = np.repeat(at, count)
            terms = p.take(at + pos.take(f)) + p.take(at + pos_t.take(f)).conj()
            target = np.repeat(target, count) + rows.take(f)
            vals = (weight.take(f) * terms).real
            width = int(band[-1]) + 1
            mat[band, :width] += np.bincount(target, vals, minlength=band.size * width).reshape(-1, width)
    return mat


def _solve(prog: _Program, tol: float) -> SdpSolution:
    """The interior-point loop, over real symmetric Z for a real program,
    on packed buffers whose dense steps run per stack (_Program). The
    residuals are relative to 1 + max |b| and 1 + ||C||, the gap to
    max(1, |primal|). Each iteration appends its record to the trace once,
    as soon as its residuals are known, and adds its step and phase times
    to it; every stop but "optimal" is a break to the best iterate.

    The start (see the module docstring) is Z = (u^T b / Tr D) I, y = lam u
    and S = A^T y - C = lam D - C, u the witness prog.witness with A^T u =
    D and lam = 1.5 ||C|| / min D + 1e-3. solve has checked that u^T b > 0."""
    b_vec, nu = prog.b, prog.dim
    scale_b = 1.0 + float(np.max(np.abs(b_vec)))
    norm_c = max(float(np.linalg.norm(c, 2, axis=(1, 2)).max()) for c in _views(prog, prog.cobj))
    scale_c = 1.0 + norm_c
    d = _at_of(prog, prog.witness).take(prog.diag).real
    lam = 1.5 * norm_c / float(d.min()) + 1e-3
    z = np.zeros(prog.size, dtype=prog.dtype)
    z[prog.diag] = float(prog.witness @ b_vec) / float(d.sum())
    y = lam * prog.witness
    s = _at_of(prog, y) - prog.cobj
    trace = []

    def lap(phase: str):
        """Add the seconds since the last lap to this iteration's phase."""
        nonlocal last
        now = time.perf_counter()
        record[phase] = record.get(phase, 0.0) + (now - last)
        last = now

    best = None
    best_merit, best_at = np.inf, 0  # the best iterate's merit and len(trace) at it
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
        trace.append(record)
        if not all(map(math.isfinite, (pres, dres, mu))):
            if best is None:
                raise SdpError("non-finite residual or mu at the start")
            break  # the iterate overflowed
        merit = max(pres, dres, rel_gap)
        if merit < best_merit:
            best_merit, best_at = merit, len(trace)
            best = (z, y.copy(), pobj, dobj)
        if pres <= FEAS_TOL and dres <= FEAS_TOL and rel_gap <= tol:
            return _finish(prog, z, y, pobj, dobj, "optimal", trace)
        if mu / value_scale < MU_FLOOR or len(trace) - best_at >= STALL_ITERS:
            break  # numerical floor, or no progress for STALL_ITERS iterations

        last = time.perf_counter()
        try:
            ws, gs, g_invs, lams = zip(*map(_nt_scaling, _views(prog, z), _views(prog, s)))
            w = _pack(prog, ws)
            s_inv = _pack(prog, [(g / lam[:, None, :]) @ linalg.dagger(g) for g, lam in zip(gs, lams)])
            roots = [lam**-0.5 for lam in lams]
            frames_z = [root[:, :, None] * g_inv for root, g_inv in zip(roots, g_invs)]  # Lam^-1/2 G^-1
            frames_s = [linalg.dagger(g * root[:, None, :]) for g, root in zip(gs, roots)]  # Lam^-1/2 G^H
            w_rd_w = _pack(prog, [wk @ rk @ wk for wk, rk in zip(ws, _views(prog, rd))])
            lap("nt_s")
            schur = _schur(prog, w)
            lap("schur_s")
            diag = np.diag(schur).copy()
            ridge = 1e-14 * max(float(np.max(diag)), 1e-300)
            factor = None
            for _ in range(10):
                np.fill_diagonal(schur, diag + ridge)
                try:
                    factor = _Triangular(np.linalg.cholesky(schur))
                    break
                except np.linalg.LinAlgError:
                    ridge *= 100.0
            lap("chol_s")
            if factor is None:
                break  # no ridge makes the Schur matrix factorable

            def newton(rc: np.ndarray):
                """The NT direction with dZ + W dS W = rc."""
                dy = factor.solve(_a_of(prog, rc + w_rd_w) - rp)
                if not np.isfinite(dy).all():
                    raise FloatingPointError("non-finite Newton step")
                ds = _at_of(prog, dy) - rd
                dz = [linalg.hermitian_part(r - wk @ sk @ wk)
                      for r, wk, sk in zip(_views(prog, rc), ws, _views(prog, ds))]
                return _pack(prog, dz), dy, ds

            def steps(dz: np.ndarray, ds: np.ndarray, fraction: float) -> tuple[float, float]:
                return (
                    min(1.0, fraction * _max_step(frames_z, _views(prog, dz))),
                    min(1.0, fraction * _max_step(frames_s, _views(prog, ds))),
                )

            # Predictor (affine direction) fixes the centering weight.
            dza, _, dsa = newton(-z)
            lap("newton_s")
            ap, ad = steps(dza, dsa, 0.99)
            mu_aff = float(np.vdot(z + ap * dza, s + ad * dsa).real) / nu
            sigma = min(1.0, max((mu_aff / mu) ** 3, 1e-10))
            lap("step_s")

            # Corrector: centering plus Mehrotra's second-order term, in the NT
            # frame where Z and S are both diag(lam).
            second = []
            for g, g_inv, lam, zk, sk in zip(gs, g_invs, lams, _views(prog, dza), _views(prog, dsa)):
                x = linalg.hermitian_part(g_inv @ zk @ sk @ g)
                x = 2.0 * x / (lam[:, :, None] + lam[:, None, :])
                second.append(g @ x @ linalg.dagger(g))
            dz, dy, ds = newton(sigma * mu * s_inv - z - _pack(prog, second))
            lap("newton_s")
            ap, ad = steps(dz, ds, 0.98)
        except (np.linalg.LinAlgError, FloatingPointError):
            break  # a failed factorization of Z or a non-finite Newton step
        lap("step_s")
        z = z + ap * dz
        s = s + ad * ds
        y = y + ad * dy
        record.update(sigma=sigma, alpha_p=ap, alpha_d=ad)
    else:
        status = "max_iterations"

    z, y, pobj, dobj = best
    return _finish(prog, z, y, pobj, dobj, status, trace)


def _finish(prog, z, y, pobj, dobj, status, trace) -> SdpSolution:
    """The solution of the instance as given: Z's stacks with their classes'
    indices, y 0 on every dropped row, and the trace's records as
    IpmIterations."""
    y_all = np.zeros(prog.kept.size)
    y_all[prog.kept] = y
    return SdpSolution(
        blocks=tuple(zip(prog.index, _views(prog, z))),
        y=y_all,
        primal_value=pobj,
        dual_value=dobj,
        iterations=len(trace),
        status=status,
        trace=tuple(IpmIteration(**record) for record in trace),
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
    below MU_FLOOR, a Z that no jitter of _chol_psd makes factorable, or a
    Schur matrix that no ridge makes factorable); a non-finite start raises
    SdpError. A real program (C and every entry of a kept row real) is
    solved over real symmetric Z, and its blocks are then real arrays.
    Raises TooLargeError when Z packed on the classes or the Schur matrix of
    the kept rows is above the dense cap, checked once the partition is
    known and before allocating either.

    The program (_Program) solves on the classes of the finest partition
    that C and the rows allow, one stack per class side, and drops the rows
    that lie across them, all of rhs 0, which pinching Z to the classes
    meets (see the module docstring). The returned Z is its blocks on the
    classes (SdpSolution.blocks), and y has one entry per row, 0 on each
    dropped row.
    """
    if not 0 < tol < math.inf:
        raise BadArgsError(f"tol must be positive and finite, got {tol!r}")
    prog = _Program(inst)
    bound = 0.0 if prog.witness is None else float(prog.witness @ prog.b)
    if not bound > 0:
        raise BadArgsError("the rows do not bound Tr Z: no diagonal rows sum to a D > 0 with u^T b > 0")
    return _solve(prog, tol)
