import math
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from xorq import cli, errors, games, relaxations, sdp
from xorq.errors import BadArgsError, TooLargeError

import table
from certify import certify, row_values
from conftest import random_game
from doubling import double_instance, undouble_matrix
from test_slack_oracle import CASES as SLACK_CASES, _slack_instance
from witness import dense_z


def _scalar_instance(value=1.0):
    return table.instance(1, np.eye(1, dtype=complex), [(((0, 0, 1.0 + 0.0j),), value)])


def _random_instance(seed: int, dim: int = 3, m: int = 3) -> sdp.SdpInstance:
    rng = np.random.default_rng(seed)

    def herm():
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (z + z.conj().T) / 2

    c = herm()
    cons = []
    # Feasible by construction: rhs computed at a strictly interior point.
    # A fixed trace keeps the feasible set compact (bounded objective).
    z0 = np.eye(dim) + 0.3 * herm()
    z0 = z0 @ z0.conj().T / dim
    trace_entries = tuple((i, i, 1.0 + 0.0j) for i in range(dim))
    cons.append((trace_entries, float(np.real(np.trace(z0)))))
    for _ in range(m):
        f = herm()
        entries = []
        for r in range(dim):
            for s in range(r, dim):
                if abs(f[r, s]) > 1e-12:
                    entries.append((r, s, complex(f[r, s])))
        rhs = float(np.real(np.trace(f.conj().T @ z0)))
        cons.append((tuple(entries), rhs))
    return table.instance(dim, c, cons)


def test_trivial_instance():
    sol = sdp.solve(_scalar_instance(), 1e-8)
    assert abs(sol.primal_value - 1.0) <= 1e-7
    assert certify(_scalar_instance(), sol, 1e-6).passed


def test_all_ones_boundary():
    c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    inst = table.instance(2, c, [(((0, 0, 1.0 + 0.0j),), 1.0), (((1, 1, 1.0 + 0.0j),), 1.0)])
    sol = sdp.solve(inst, 1e-9)
    assert abs(sol.primal_value - 2.0) <= 1e-7
    assert np.allclose(dense_z(sol, 2), np.ones((2, 2)), atol=1e-6)


def test_chsh_relaxation_instance():
    inst = relaxations.beta_sdp_instance(games.from_classical(games.chsh()))
    sol = sdp.solve(inst, 1e-8)
    assert abs(sol.primal_value - math.sqrt(2) / 2) <= 1e-6
    assert certify(inst, sol, 1e-6).passed


def test_weak_duality_and_certify_on_random(rng):
    for seed in range(8):
        inst = _random_instance(seed)
        sol = sdp.solve(inst, 1e-8)
        assert sol.dual_value >= sol.primal_value - 1e-7 * max(1.0, abs(sol.primal_value))
        report = certify(inst, sol, 1e-6)
        assert report.passed, report.failures()


@pytest.mark.parametrize(
    "seed, dim, m", [(27, 8, 20), (106, 8, 20), (129, 5, 8), (133, 5, 8), (191, 5, 8)]
)
def test_optimal_status_passes_certify(seed, dim, m):
    # These solves once stopped on n * mu <= tol / 2 with a duality gap
    # above tol, so "optimal" failed certify's gap_small.
    inst = _random_instance(seed, dim, m)
    sol = sdp.solve(inst, 1e-8)
    report = certify(inst, sol, 1e-8)
    assert sol.status == "optimal"
    assert report.passed, report.failures()


def test_certify_rejects_corrupted_solution():
    inst = _scalar_instance()
    sol = sdp.solve(inst, 1e-8)
    bad = replace(sol, blocks=tuple((members, z + 0.5) for members, z in sol.blocks))
    report = certify(inst, bad, 1e-6)
    assert not report.passed
    assert "residual" in report.failures()


def test_certify_recomputes_the_objective():
    inst = relaxations.beta_nc_instance(games.h_game(1))
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    assert certify(inst, sol).passed
    # Both values shifted alike: the gap checks alone cannot see it.
    shifted = replace(sol, primal_value=sol.primal_value + 0.1, dual_value=sol.dual_value + 0.1)
    report = certify(inst, shifted)
    assert report.failures() == ["objective"]


def test_certify_hermitian_check_on_huge_blocks():
    # Entries near 1e308 overflowed ||Z||_F, and the check's bound became inf.
    inst = table.instance(2, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), [])
    for lower, hermitian in ((0.0, False), (1e300, True)):
        z = np.array([[8e307, 1e300], [lower, 8e307]], dtype=complex)
        value = 1e300 + lower  # Re Tr(C^H Z)
        sol = sdp.SdpSolution(blocks=((np.arange(2)[None], z[None]),), y=np.zeros(0), primal_value=value,
                              dual_value=value, iterations=1, status="optimal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(inst, sol)
        assert report.checks[0][0] == "hermitian"
        assert report.checks[0][3] is hermitian
        assert report.failures() == ([] if hermitian else ["hermitian"])


def test_certify_zero_instance():
    # A zero objective; the trace row bounds Tr Z, so that the instance solves.
    trace_row = (((0, 0, 1.0 + 0.0j), (1, 1, 1.0 + 0.0j)), 1.0)
    inst = table.instance(2, np.zeros((2, 2)), [trace_row])
    sol = sdp.solve(inst, 1e-6)
    assert abs(sol.primal_value) <= 1e-6
    assert certify(inst, sol, 1e-6).passed


def test_invariance_under_permutation():
    inst = _random_instance(3)
    sol = sdp.solve(inst, 1e-8)
    m = len(inst.constraints)
    owner = np.where(inst.owner < 0, -1, m - 1 - inst.owner)  # C's entries stay C's
    permuted = replace(inst, owner=owner, constraints=inst.constraints[::-1])
    sol2 = sdp.solve(permuted, 1e-8)
    assert abs(sol.primal_value - sol2.primal_value) <= 2e-8 * max(1.0, abs(sol.primal_value))


def test_doubling_oracle_purely_real():
    inst = _scalar_instance()
    doubled = double_instance(inst)
    assert doubled.side == 2
    value = sdp.solve(inst, 1e-8).primal_value
    assert abs(value - 1.0) <= 1e-6
    assert abs(sdp.solve(doubled, 1e-8).primal_value / 2.0 - value) <= 2e-6


def test_doubling_oracle_one_dim_complex_block():
    inst = _scalar_instance()
    doubled = double_instance(inst)
    # 1x1 complex Z becomes a rotationally symmetric 2x2 one
    assert set(doubled.owner.tolist()) == {-1, 0} and doubled.constraints.tolist() == [2.0]
    assert set(zip(doubled.rows.tolist(), doubled.cols.tolist())) == {(0, 0), (1, 1)}
    # while the complex core keeps it 1x1
    assert [z.shape for _, z in sdp.solve(inst, 1e-8).blocks] == [(1, 1, 1)]


def _assert_feasible_psd(inst, z):
    b = inst.constraints
    assert (np.abs(row_values(inst, z) - b) <= 1e-8 * np.maximum(1.0, np.abs(b))).all()
    assert np.linalg.eigvalsh((z + z.conj().T) / 2)[0] >= -1e-8


def test_complex_core_feasibility_against_doubling():
    for seed in range(10):
        inst = _random_instance(seed + 50)
        sol = sdp.solve(inst, 1e-8)
        _assert_feasible_psd(inst, dense_z(sol, inst.side))
        doubled = sdp.solve(double_instance(inst), 1e-8)
        _assert_feasible_psd(inst, undouble_matrix(dense_z(doubled, 2 * inst.side)))
        assert abs(doubled.primal_value / 2.0 - sol.primal_value) <= 2e-6 * max(
            1.0, abs(sol.primal_value)
        )


def test_doubling_soundness_values_agree():
    for seed in range(50):
        inst = _random_instance(seed + 200, dim=2, m=2)
        v1 = sdp.solve(inst, 1e-7).primal_value
        v2 = sdp.solve(double_instance(inst), 1e-7).primal_value
        assert abs(v2 / 2.0 - v1) <= 2e-6 * max(1.0, abs(v1))


def _random_pd(rng, d, real=False):
    x = rng.standard_normal((d, d)) + (0 if real else 1j) * rng.standard_normal((d, d))
    return x @ x.conj().T / d + 0.1 * np.eye(d)


def _dense_constraints(inst: sdp.SdpInstance) -> list[np.ndarray]:
    """Every F_q of inst as one dense Hermitian matrix, built from its entries."""
    row = inst.owner >= 0  # not C's entries
    r, c, v, q = inst.rows[row], inst.cols[row], inst.vals[row], inst.owner[row]
    dense = np.zeros((len(inst.constraints), inst.side, inst.side), dtype=complex)
    off = r != c
    np.add.at(dense, (q, r, c), v)
    np.add.at(dense, (q[off], c[off], r[off]), v[off].conj())
    return list(dense)


def _kept_constraints(inst: sdp.SdpInstance, prog) -> list[np.ndarray]:
    """The dense F_q of the rows the program keeps, in its row order."""
    dense = _dense_constraints(inst)
    return [dense[q] for q in np.flatnonzero(prog.kept)]


def _dual_slack(inst: sdp.SdpInstance, y: np.ndarray) -> np.ndarray:
    """A^T y - C = sum_q y_q F_q - C as one dense matrix, built from the
    instance's entries."""
    slack = -table.dense_objective(inst)
    row = inst.owner >= 0  # not C's entries
    r, c = inst.rows[row], inst.cols[row]
    weighted = y[inst.owner[row]] * inst.vals[row]
    off = r != c
    np.add.at(slack, (r, c), weighted)
    np.add.at(slack, (c[off], r[off]), weighted[off].conj())
    return slack


def _mixed_instance() -> sdp.SdpInstance:
    """Random constraints on indices 0..4 (a), 5..7 (b) or both: diagonal,
    real and complex entries; C all ones, so that every row is kept."""
    rng = np.random.default_rng(11)
    offsets, dims = {"a": 0, "b": 5}, {"a": 5, "b": 3}
    kinds = ("diag", "real", "complex")
    cons = []
    for q in range(12):
        labels = ("a", "b") if q % 3 == 0 else (("b",) if q % 5 == 1 else ("a",))
        entries = []
        for label in labels:
            for _ in range(1 + q % 3):
                kind = kinds[int(rng.integers(3))]
                pair = rng.choice(dims[label], 2, replace=False)
                r, c = sorted(int(i) + offsets[label] for i in pair)
                if kind == "diag":
                    entries.append((r, r, complex(rng.standard_normal())))
                elif kind == "real":
                    entries.append((r, c, complex(rng.standard_normal())))
                else:
                    entries.append((r, c, complex(*rng.standard_normal(2))))
        cons.append((tuple(entries), 0.0))
    return table.instance(8, np.ones((8, 8)), cons)


def _split_mixed_instance() -> sdp.SdpInstance:
    """_mixed_instance on side 10, with C all ones on 0..4 and on 5..7 only
    and one more row, Tr Z = 1: classes of sides 5, 3, 1 and 1, every row
    kept, and rows whose entries lie in classes of different sides."""
    inst = _mixed_instance()
    c = np.zeros((10, 10))
    c[:5, :5] = c[5:8, 5:8] = 1.0
    trace = (tuple((i, i, 1.0 + 0.0j) for i in range(10)), 1.0)
    return table.with_rows(table.with_objective(inst, c, side=10), [trace])


def _packed_pd(prog, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random positive definite W, block-diagonal on the program's
    classes: packed, and at the instance's side."""
    rng = np.random.default_rng(seed)
    real = prog.dtype is float
    w = np.concatenate([
        np.stack([_random_pd(rng, side, real) for _ in range(count)]).ravel()
        for _, _, (count, side, _) in prog.stacks
    ])
    full = np.zeros((prog.dim, prog.dim), dtype=w.dtype)
    for index, block in zip(prog.index, sdp._views(prog, w)):
        full[index[:, :, None], index[:, None, :]] = block
    return w, full


def _assert_schur_matches_dense(inst: sdp.SdpInstance, prog, seed: int):
    """sdp._schur against Re Tr(F_q W F_p W) from the dense rows: the lower
    triangle to 1e-12 relative, the upper one exactly 0."""
    w, full = _packed_pd(prog, seed)
    got = sdp._schur(prog, w)
    dense = _kept_constraints(inst, prog)
    want = np.array([[np.trace(fq @ full @ fp @ full).real for fp in dense] for fq in dense])
    assert np.abs(got - np.tril(want)).max() <= 1e-12 * np.abs(want).max()
    assert not np.triu(got, 1).any()


def test_schur_matches_dense_oracle():
    # A complex program on one class that keeps every row; the real program
    # of beta_os(T2), which drops rows, on classes of sides 2 and 1; and a
    # complex one on classes of sides 5, 3, 1 and 1, rows across them.
    for inst, real, keeps_all, sides in (
        (_mixed_instance(), False, True, {8: 1}),
        (relaxations.beta_os_instance(games.t_game(2)), True, False, {2: 8, 1: 20}),
        (_split_mixed_instance(), False, True, {5: 1, 3: 1, 1: 2}),
    ):
        prog = sdp._Program(inst)
        assert prog.dtype is (float if real else complex)
        assert prog.dim == inst.side
        assert prog.kept.all() == keeps_all
        assert _class_sizes(prog.label) == sides
        assert {shape[1:] for *_, shape in prog.stacks} == {(s, s) for s in sides}
        _assert_schur_matches_dense(inst, prog, 11)


def _with_trace_row(inst: sdp.SdpInstance) -> sdp.SdpInstance:
    """inst with one more row, Tr Z = 1, last: a row with entries in every
    class."""
    return table.with_rows(inst, [(tuple((i, i, 1.0 + 0.0j) for i in range(inst.side)), 1.0)])


@pytest.mark.parametrize("group_cap", [None, 3])
@pytest.mark.parametrize(
    "make, real",
    [
        (lambda: relaxations.beta_os_instance(random_game(2, 5)), False),
        (lambda: relaxations.beta_nc_instance(games.h_game(1)), True),
    ],
    ids=["beta_os_random_n2", "beta_nc_h1"],  # complex, real
)
def test_schur_groups_match_dense_oracle(monkeypatch, make, real, group_cap):
    # With group_cap, chunks of one part each; without, a few chunks per stack.
    if group_cap:
        monkeypatch.setattr(sdp, "SCHUR_GROUP_ENTRIES", group_cap)
    inst = _with_trace_row(make())
    prog = sdp._Program(inst)
    assert prog.dtype is (float if real else complex)
    assert prog.kept[-1] and prog.m > 1
    parts = [count.size for *_, chunks in prog.schur for _, _, _, _, count, *_ in chunks]
    if group_cap:
        assert set(parts) == {1}
    else:
        assert len(parts) == len(prog.schur)
    assert sum(parts) > prog.m  # the trace row has a part in each of several classes
    _assert_schur_matches_dense(inst, prog, 3)


def _paper_table_instances() -> dict[str, sdp.SdpInstance]:
    """The solves of the paper's value table: one per beta_* row."""
    compile_for = {
        "beta_sdp": relaxations.beta_sdp_instance,
        "beta_nc": relaxations.beta_nc_instance,
        "beta_os": relaxations.beta_os_instance,
    }
    return {
        f"{r.game}/{r.quantity}": compile_for[r.quantity](cli.PAPER_GAMES[r.game]())
        for r in cli.PAPER_TABLE
        if r.quantity in compile_for
    }


def test_paper_table_solves_take_few_iterations():
    # The iteration counts from the trace-witness start, feasible on both
    # sides; with a trace-cap row as well it took 104 in total, the start at
    # 10 I took 10 on beta_os(T3) and 135 in total, and the centering-only
    # corrector 15 and 155.
    iterations = {}
    for name, inst in _paper_table_instances().items():
        sol = sdp.solve(inst, sdp.DEFAULT_TOL)
        assert certify(inst, sol).passed, name
        iterations[name] = sol.iterations
    assert len(iterations) == 15
    assert iterations["T3/beta_os"] <= 8
    assert sum(iterations.values()) <= 94


# (iterations, primal value) of each paper-table solve, in table order.
PAPER_SOLVES = {
    "CHSH/beta_sdp": (5, 0.7071061102085),
    "T1/beta_nc": (6, 0.9999999811160),
    "T1/beta_os": (6, 0.9999998345118),
    "T2/beta_nc": (6, 0.7071067616220),
    "T2/beta_os": (7, 0.9999996001177),
    "T3/beta_nc": (6, 0.5773502440870),
    "T3/beta_os": (8, 0.9999998521438),
    "T4/beta_nc": (6, 0.4999999710210),
    "T4/beta_os": (8, 0.9999994950214),
    "H1/beta_nc": (6, 0.5999999772151),
    "H1/beta_os": (6, 0.5999998237043),
    "C2/beta_os": (6, 0.4999998828662),
    "C3/beta_os": (6, 0.3333331670185),
    "C4/beta_os": (6, 0.2499998392801),
    "H2/beta_nc": (6, 0.4761903593981),
}


def test_paper_table_solves_keep_their_iterations_and_values():
    # 94 iterations in all, the budget of the traced CI benchmark run; each
    # value within 1e-9 of the one the dense core gave.
    assert sum(it for it, _ in PAPER_SOLVES.values()) == 94
    got = {}
    for name, inst in _paper_table_instances().items():
        sol = sdp.solve(inst, sdp.DEFAULT_TOL)
        assert sol.status == "optimal", name
        got[name] = (sol.iterations, sol.primal_value)
    assert list(got) == list(PAPER_SOLVES)
    for name, (iterations, value) in PAPER_SOLVES.items():
        assert got[name][0] == iterations, name
        assert abs(got[name][1] - value) <= 1e-9, name


@pytest.mark.parametrize(
    "kind, game, value, tol",
    [
        ("nc", lambda: games.t_game(8), 1 / math.sqrt(8), 1e-4),
        ("nc", lambda: games.t_game(16), 0.25, 1e-4),
        ("os", lambda: games.t_game(5), 1.0, 1e-3),
        ("os", lambda: games.t_game(6), 1.0, 1e-3),
        ("os", lambda: games.c_game(5), 1 / 5, 1e-4),
        ("os", lambda: games.c_game(6), 1 / 6, 1e-4),
        # Let in by a dense cap that counts the kept rows, not all of them.
        ("os", lambda: games.h_game(2), 10 / 21, 1e-6),
        ("os", lambda: games.tensor_games(games.c_game(2), games.c_game(2)), 3 / 8, 1e-6),
        ("os", lambda: games.t_game(8), 1.0, 1e-6),
        ("os", lambda: games.c_game(8), 1 / 8, 1e-6),
        # Sides 2,178 to 2,500, solved on classes of side at most 40.
        ("nc", lambda: games.t_game(32), 1 / math.sqrt(32), 1e-6),
        ("nc", lambda: games.h_game(3), float(relaxations.h_n_closed_forms(3)[1]), 1e-6),
        ("nc", lambda: games.tensor_games(games.c_game(3), games.c_game(3)), 2 / 9, 1e-6),
        ("os", lambda: games.tensor_games(games.c_game(3), games.c_game(3)), 2 / 9, 1e-6),
        ("nc", lambda: games.tensor_games(games.c_game(4), games.c_game(4)), 5 / 32, 1e-6),
        ("os", lambda: games.tensor_games(games.c_game(4), games.c_game(4)), 5 / 32, 1e-6),
        # Side 4,232, let in by a cap that counts its table, not side^2.
        ("nc", lambda: games.t_game(45), 1 / math.sqrt(45), 1e-6),
    ],
    ids=["T8/beta_nc", "T16/beta_nc", "T5/beta_os", "T6/beta_os", "C5/beta_os", "C6/beta_os",
         "H2/beta_os", "C2xC2/beta_os", "T8/beta_os", "C8/beta_os", "T32/beta_nc", "H3/beta_nc",
         "C3xC3/beta_nc", "C3xC3/beta_os", "C4xC4/beta_nc", "C4xC4/beta_os", "T45/beta_nc"],
)
def test_closed_forms_beyond_the_paper_table(kind, game, value, tol):
    # beta_nc(T_k) = 1/sqrt(k), beta_os(T_k) = 1 and beta_os(C_k) = 1/k;
    # beta_os(H2) = beta_nc(H2) = 10/21 and beta_nc(H3) is h_n_closed_forms(3).
    # beta_nc and beta_os of C_n (x) C_n are (n + 1) / (2 n^2): 3/8, 2/9 and
    # 5/32 at n = 2, 3 and 4, a form observed on these solves, not derived.
    got = getattr(relaxations, f"beta_{kind}")(game(), sdp.DEFAULT_TOL).value
    assert abs(got - value) <= tol


def _class_sizes(label: np.ndarray) -> dict[int, int]:
    """{class side: number of classes of that side}."""
    return dict(Counter(Counter(label.tolist()).values()))


def test_partition_of_the_gram_relaxations():
    # beta_os(T4): 16 classes of 2 and 68 of 1 (each block of side 2 pairs
    # an X_R entry with a Y_C one, or an X_C entry with a Y_R one).
    inst = relaxations.beta_os_instance(games.t_game(4))
    prog = sdp._Program(inst)
    assert (len(inst.constraints), int(prog.kept.sum()), prog.m) == (685, 28, 28)
    assert _class_sizes(prog.label) == {2: 16, 1: 68}
    # beta_os(T8) and beta_os(T16): 6k + 4 rows kept, 2k classes of 2.
    for k, rows, kept, classes in ((8, 6741, 52, {2: 32, 1: 260}), (16, 84133, 100, {2: 64, 1: 1028})):
        inst = relaxations.beta_os_instance(games.t_game(k))
        prog = sdp._Program(inst)
        assert (len(inst.constraints), int(prog.kept.sum()), prog.m) == (rows, kept, kept), k
        assert _class_sizes(prog.label) == classes, k
    # beta_nc(H2): 5 classes of 12 and 140 of 1.
    inst = relaxations.beta_nc_instance(games.h_game(2))
    prog = sdp._Program(inst)
    assert (len(inst.constraints), int(prog.kept.sum()), prog.m) == (218, 38, 38)
    assert _class_sizes(prog.label) == {12: 5, 1: 140}
    # A random complex game: beta_os splits into exactly X_R + Y_C and X_C
    # + Y_R with every row kept, and beta_nc stays one class.
    g = random_game(3, 7)
    nn = g.n**2
    inst = relaxations.beta_os_instance(g)
    prog = sdp._Program(inst)
    assert prog.kept.all() and prog.m == len(inst.constraints)
    family = np.repeat([0, 1, 1, 0], nn)  # X_R, X_C, Y_R, Y_C
    assert np.array_equal(prog.label, np.where(family == 0, 0, nn))
    inst = relaxations.beta_nc_instance(g)
    prog = sdp._Program(inst)
    assert prog.kept.all() and prog.m == len(inst.constraints) and not prog.label.any()
    # The diagonal embedding of a classical n = 5 game: beta_nc, which is
    # beta_sdp there, keeps 18 of 58 rows, on one class of side 10, the X_ss
    # and Y_tt entries, and 40 scalars.
    r = np.random.default_rng(5).standard_normal((5, 5))
    inst = relaxations.beta_nc_instance(games.from_classical(r / np.abs(r).sum()))
    prog = sdp._Program(inst)
    assert (len(inst.constraints), prog.m) == (58, 18)
    assert _class_sizes(prog.label) == {10: 1, 1: 40}
    diagonal = np.arange(5) * 6
    assert np.array_equal(np.flatnonzero(prog.label == 0), np.concatenate([diagonal, 25 + diagonal]))


def _all_in_one_class(dim, c_rows, c_cols, rows, cols, owner, b):
    """sdp._classes replaced: one class, every row kept, the program as given."""
    return np.zeros(dim, dtype=np.intp), np.ones(b.size, dtype=bool)


def _unreduced(monkeypatch, inst: sdp.SdpInstance) -> sdp.SdpSolution:
    """inst solved with every row kept, on one class."""
    with monkeypatch.context() as patched:
        patched.setattr(sdp, "_classes", _all_in_one_class)
        return sdp.solve(inst, sdp.DEFAULT_TOL)


def test_reduced_solve_retraces_the_full_one(monkeypatch):
    # The start and every NT step are block-diagonal on the classes, so the
    # reduced run takes the full run's iterations, to rounding; its Z,
    # pinched to the classes, and y, 0 on every dropped row, solve the
    # instance as given. Every one of the 15 programs drops rows, also
    # beta_sdp(CHSH), beta_nc of its diagonal embedding, which keeps 6 of 10.
    unchanged = []
    for name, inst in _paper_table_instances().items():
        sol = sdp.solve(inst, sdp.DEFAULT_TOL)
        full = _unreduced(monkeypatch, inst)
        assert (sol.status, sol.iterations) == (full.status, full.iterations), name
        assert abs(sol.primal_value - full.primal_value) <= 1e-10, name
        assert certify(inst, sol).passed, name
        prog = sdp._Program(inst)
        assert sol.y.shape == (len(inst.constraints),), name
        assert not sol.y[~prog.kept].any(), name
        # Z's blocks are the classes: each index once, a class's members
        # ascending and named by the first.
        members = np.concatenate([index.ravel() for index, _ in sol.blocks])
        assert np.array_equal(np.sort(members), np.arange(inst.side)), name
        assert all((prog.label[index] == index[:, :1]).all() for index, _ in sol.blocks), name
        if prog.kept.all():
            unchanged.append(name)
    assert unchanged == []


def _three_by_three(row: tuple, rhs: float) -> sdp.SdpInstance:
    """max 2 Re Z[0, 1] with a unit diagonal and one more row, sum over
    its entries ((r, c), v) of v Re Z[r, c] = rhs."""
    return table.instance(
        3,
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        [(((i, i, 1.0 + 0.0j),), 1.0) for i in range(3)]
        + [(tuple((r, c, v / 2 + 0j) for (r, c), v in row), rhs)],
    )


@pytest.mark.parametrize(
    "row, rhs, classes, kept, value",
    [
        # rhs 0 with one entry inside {0, 1} and one across: merges 2 in.
        # Left alone, index 2 would pin Re Z[1, 2] and so Re Z[0, 1] to 0.
        ((((0, 1), 1.0), ((1, 2), -1.0)), 0.0, [0, 0, 0], 4, 2.0),
        # rhs != 0 with an entry across: merges 2 in.
        ((((1, 2), 1.0),), -1.0, [0, 0, 0], 4, 2.0),
        # rhs 0 with every entry across: the row is dropped.
        ((((0, 2), 1.0), ((1, 2), -1.0)), 0.0, [0, 0, 2], 3, 2.0),
    ],
    ids=["zero_rhs_inside_and_across", "nonzero_rhs_across", "zero_rhs_all_across"],
)
def test_each_merge_rule_keeps_the_value(monkeypatch, row, rhs, classes, kept, value):
    inst = _three_by_three(row, rhs)
    prog = sdp._Program(inst)
    assert prog.label.tolist() == classes and prog.m == kept
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    full = _unreduced(monkeypatch, inst)
    assert sol.status == full.status == "optimal"
    assert sol.primal_value == pytest.approx(value, rel=1e-6)
    assert abs(sol.primal_value - full.primal_value) <= 1e-10
    assert certify(inst, sol).passed


def _witnessed_instances() -> dict[str, tuple[sdp.SdpInstance, float]]:
    """Gram relaxations with the trace u^T b their rows fix: 2n for beta_sdp
    and beta_nc, 4n for beta_os, n the number of questions. beta_os(H2) is
    above the dense cap."""
    chsh = cli.PAPER_GAMES["CHSH"]()
    cases = {"CHSH/beta_sdp": (relaxations.beta_sdp_instance(chsh), 2 * chsh.n)}
    named = {f"T{k}": games.t_game(k) for k in range(1, 5)}
    named.update({"H1": games.h_game(1), "H2": games.h_game(2)})
    named.update({f"C{k}": games.c_game(k) for k in range(2, 5)})
    named.update({f"random{n}": random_game(n, 7) for n in (2, 3)})
    for name, g in named.items():
        cases[f"{name}/beta_nc"] = (relaxations.beta_nc_instance(g), 2 * g.n)
        if name != "H2":
            cases[f"{name}/beta_os"] = (relaxations.beta_os_instance(g), 4 * g.n)
    return cases


def _witness_diagonal(inst: sdp.SdpInstance) -> np.ndarray:
    """sum_q u_q F_q for the program's trace witness u, from the dense rows
    that it keeps."""
    prog = sdp._Program(inst)
    assert prog.witness is not None
    return sum(u_q * f for u_q, f in zip(prog.witness, _kept_constraints(inst, prog)))


def test_gram_relaxations_have_a_trace_witness(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 1)  # the first trace entry is enough
    for name, (inst, trace) in _witnessed_instances().items():
        # The solver takes C and b as they are: every package program has
        # |Re C|, |Im C| <= 1 (C holds conj(M) / 2, |M_rc| <= ||M||_1 <= 1)
        # and every right-hand side 0 or 1.
        c = table.dense_objective(inst)
        assert max(np.abs(c.real).max(), np.abs(c.imag).max()) <= 1.0, name
        assert set(inst.constraints.tolist()) <= {0.0, 1.0}, name
        prog = sdp._Program(inst)
        # sum_q u_q F_q = D = I.
        assert np.abs(_witness_diagonal(inst) - np.eye(prog.dim)).max() <= 1e-12, name
        assert prog.witness @ prog.b == pytest.approx(trace, rel=1e-12), name
        # The start meets every row, and S = A^T y - C exactly, up to rounding.
        first = sdp.solve(inst, sdp.DEFAULT_TOL).trace[0]
        assert max(first.pres, first.dres) <= 1e-14, name
    # With the caps as inequalities Q + S = I, S on slack indices after the
    # Gram ones, D is another positive diagonal (tests/slack.py): for beta_nc
    # with n = 3, 8/7 on the Gram slots and 4/7 on the slack slots.
    cases = {case: _slack_instance(case) for case in SLACK_CASES}
    for name, inst in cases.items():
        total = _witness_diagonal(inst)
        d = np.diag(total).real
        assert np.abs(total - np.diag(d)).max() <= 1e-12 and d.min() > 0, name
    d = np.diag(_witness_diagonal(cases["H1/nc"])).real
    gram = relaxations.beta_nc_instance(games.h_game(1)).side
    assert np.allclose(d[:gram], 8 / 7, rtol=0, atol=1e-12)
    assert np.allclose(d[gram:], 4 / 7, rtol=0, atol=1e-12)


def _no_witness() -> sdp.SdpInstance:
    """max 2 Re Z[0, 1] with Z[0, 0] + 2 Re Z[0, 1] = 1 and Z[1, 1] = 1, of
    value 2 (sqrt 2 - 1): no weights of its one diagonal row, Z[1, 1] = 1,
    sum to a positive diagonal."""
    return table.instance(
        2,
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        [(((0, 0, 1.0 + 0.0j), (0, 1, 1.0 + 0.0j)), 1.0), (((1, 1, 1.0 + 0.0j),), 1.0)],
    )


def test_instances_whose_rows_do_not_bound_the_trace_are_refused():
    one = np.eye(1, dtype=complex)
    cases = {
        "no_witness": _no_witness(),
        "no_rows": table.instance(1, one, []),
        "zero_trace": table.instance(1, one, [(((0, 0, 1.0 + 0.0j),), 0.0)]),  # only Z = 0
        "negative_trace": _mixed_rows(100.0, 3.0),  # u^T b < 0: infeasible
    }
    assert sdp._Program(cases["no_witness"]).witness is None
    assert sdp._Program(cases["no_rows"]).witness is None
    prog = sdp._Program(cases["negative_trace"])
    assert prog.witness @ prog.b < 0
    for name, inst in cases.items():
        with pytest.raises(BadArgsError, match="do not bound Tr Z"):
            sdp.solve(inst, sdp.DEFAULT_TOL)


def test_trace_bound_with_spread_row_weights_solves():
    """max 2 Re Z[0, 1] with Z[0, 0] + 1e-6 Z[1, 1] = 1: D = diag(1, 1e-6)
    bounds Tr Z by 1e6, and the value is 1000 (Z[0, 0] = 1/2)."""
    inst = table.instance(
        2, np.array([[0.0, 1.0], [1.0, 0.0]]), [(((0, 0, 1.0 + 0.0j), (1, 1, 1e-6 + 0.0j)), 1.0)]
    )
    d = np.diag(_witness_diagonal(inst)).real
    assert d[1] / d[0] == pytest.approx(1e-6, rel=1e-12)
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(1000.0, rel=1e-5)
    assert sol.dual_value == pytest.approx(1000.0, rel=1e-5)
    assert certify(inst, sol).passed


def _two_blocks() -> sdp.SdpInstance:
    """max 6 Re Z[0, 1] + Z[2, 2] with Z[0, 0] = Z[1, 1] = 2, 2 Im Z[0, 1] =
    0 and Z[2, 2] + Z[3, 3] = 1, of value 13: two blocks on the diagonal,
    {0, 1} and {2} (and {3}), an objective entry and a rhs above 1, and a
    purely imaginary row with rhs 0 between real ones."""
    c = np.zeros((4, 4))
    c[0, 1] = c[1, 0] = 3.0
    c[2, 2] = 1.0
    return table.instance(4, c, [
        (((0, 0, 1.0 + 0.0j),), 2.0),
        (((0, 1, 1.0j),), 0.0),
        (((1, 1, 1.0 + 0.0j),), 2.0),
        (((2, 2, 1.0 + 0.0j), (3, 3, 1.0 + 0.0j)), 1.0),
    ])


def _phased(g: games.GameMatrix, seed: int) -> games.GameMatrix:
    """g conjugated by a local diagonal phase U (x) V: a complex game matrix
    with the same beta_nc and beta_os (the phases move into the strategies)."""
    rng = np.random.default_rng(seed)
    u, v = (np.exp(2j * np.pi * rng.random(g.n)) for _ in range(2))
    d = np.kron(u, v)
    return games.validate(d[:, None] * g.m * d.conj()[None, :], g.n)


def test_real_path_matches_complex_core():
    # A real game in real arithmetic, without imaginary-part rows, against
    # its phase-conjugated twin over complex Z, with them.
    for name, g in {"T2": games.t_game(2), "T3": games.t_game(3), "H1": games.h_game(1),
                    "C2": games.c_game(2), "C3": games.c_game(3)}.items():
        twin = _phased(g, 5)
        assert not g.m.imag.any() and twin.m.imag.any(), name
        for kind in ("nc", "os"):
            real_inst = getattr(relaxations, f"beta_{kind}_instance")(g)
            full_inst = getattr(relaxations, f"beta_{kind}_instance")(twin)
            assert sdp._Program(real_inst).dtype is float, name
            assert sdp._Program(full_inst).dtype is complex, name
            assert len(full_inst.constraints) > len(real_inst.constraints), name
            real = getattr(relaxations, f"beta_{kind}")(g, sdp.DEFAULT_TOL).value
            full = getattr(relaxations, f"beta_{kind}")(twin, sdp.DEFAULT_TOL).value
            assert abs(real - full) <= 1e-7, (name, kind)
    # Every paper-table solve is real, and its y is a dual point of the
    # program with the imaginary-part rows as well (0 at each of them):
    # A^T y - C is PSD, so b^T y bounds the optimum, within the gap tolerance.
    for name, inst in _paper_table_instances().items():
        assert sdp._Program(inst).dtype is float, name
        sol = sdp.solve(inst, sdp.DEFAULT_TOL)
        assert all(z.dtype == np.float64 for _, z in sol.blocks), name
        assert certify(inst, sol).passed, name
        assert sol.y.shape == (len(inst.constraints),), name
        assert np.linalg.eigvalsh(_dual_slack(inst, sol.y))[0] >= -1e-9, name
        b = inst.constraints
        assert sol.dual_value == pytest.approx(b @ sol.y, rel=1e-12), name
        bound = sdp.DEFAULT_TOL * max(1.0, abs(sol.primal_value))
        assert 0 <= b @ sol.y - sol.primal_value <= bound, name


def _phase_row(rhs: float) -> sdp.SdpInstance:
    """max 2 Re Z[0, 1] with Z[0, 0] = Z[1, 1] = 1 and 2 Im Z[0, 1] = rhs: a
    purely imaginary row, which no real Z meets when rhs != 0."""
    return table.instance(
        2,
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        [(((i, i, 1.0 + 0.0j),), 1.0) for i in (0, 1)] + [(((0, 1, 1.0j),), rhs)],
    )


def test_instances_that_are_not_real_stay_complex():
    two = _two_by_two(1.0, 1.0)
    assert sdp._Program(two).dtype is float
    mixed_row = (((0, 1, 0.5 + 0.5j),), 0.0)
    cases = {
        "random_game": (relaxations.beta_nc_instance(random_game(2, 7)), None),
        "complex_objective": (table.with_objective(
            two, np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])
        ), 2 * math.sqrt(2)),
        "mixed_row": (table.with_rows(two, [mixed_row]), None),
        # Im Z[0, 1] = 1/2 leaves Re Z[0, 1] at most sqrt(3)/2; no real Z is feasible.
        "imaginary_row_rhs": (_phase_row(1.0), math.sqrt(3)),
        # A purely imaginary row is kept, and solved over complex Z, also with rhs 0.
        "imaginary_row_zero": (_phase_row(0.0), 2.0),
        "two_blocks": (_two_blocks(), 13.0),
    }
    for name, (inst, value) in cases.items():
        assert sdp._Program(inst).dtype is complex, name
        sol = sdp.solve(inst, sdp.DEFAULT_TOL)
        assert sol.status == "optimal", name
        assert all(z.dtype == np.complex128 for _, z in sol.blocks), name
        assert sol.y.shape == (len(inst.constraints),), name
        if value is not None:
            assert sol.primal_value == pytest.approx(value, rel=1e-6), name


def test_real_or_complex_is_decided_on_the_kept_rows():
    # A real C and one complex row, with rhs 0 and every entry across the
    # classes {0, 1} and {2}: the program drops it and is real.
    inst = _three_by_three((((0, 2), 1.0 + 1.0j), ((1, 2), 2.0j)), 0.0)
    prog = sdp._Program(inst)
    assert prog.dtype is float
    assert prog.label.tolist() == [0, 0, 2] and prog.kept.tolist() == [True] * 3 + [False]
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    assert sol.status == "optimal" and all(z.dtype == np.float64 for _, z in sol.blocks)
    assert sol.primal_value == pytest.approx(2.0, rel=1e-6)
    assert sol.y[3] == 0 and certify(inst, sol).passed


def _all_ones_pairs(side: int) -> sdp.SdpInstance:
    """C all ones over side indices, Z[r, r] = 1 and 2 Re Z[r, c] = 0 for
    every r < c: one class of every index, and all side (side + 1) / 2 rows
    kept."""
    rows = [(((r, c, 1.0 + 0.0j),), float(r == c)) for r in range(side) for c in range(r, side)]
    return table.instance(side, np.ones((side, side)), rows)


def test_size_cap_counts_the_rows_solved(monkeypatch):
    # The dense cap counts Z packed on the classes and the Schur matrix of
    # the rows the program keeps. beta_os(T8) has 6,741 rows, 52 of them
    # kept: it is solved, where a count of every row refused it.
    inst = relaxations.beta_os_instance(games.t_game(8))
    assert len(inst.constraints) ** 2 > errors.DENSE_AMPLITUDE_CAP
    assert certify(inst, sdp.solve(inst, sdp.DEFAULT_TOL)).passed

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    for name in ("_trace_witness", "_schur_plan", "_solve"):
        monkeypatch.setattr(sdp, name, no_alloc)
    # 100 indices in one class keep all 5,050 rows: refused after the
    # partition, before the witness, the Schur plan or the loop.
    kept = _all_ones_pairs(100)
    assert len(kept.constraints) == 5050
    with pytest.raises(TooLargeError, match="5050 rows kept of 5050"):
        sdp.solve(kept, sdp.DEFAULT_TOL)
    # One class above the cap, a chain of C's entries and no rows: refused
    # after the partition, before the witness, the Schur plan or the loop.
    side = math.isqrt(errors.DENSE_AMPLITUDE_CAP) + 1
    chain = np.arange(side - 1)
    inst = sdp.SdpInstance(side, chain, chain + 1, np.ones(side - 1), np.full(side - 1, -1), np.zeros(0))
    with pytest.raises(TooLargeError, match=f"the widest of side {side}, has {side * side} entries"):
        sdp.solve(inst, sdp.DEFAULT_TOL)


def test_a_side_above_the_cap_solves_on_small_classes():
    # max sum_i c_i Z[i, i] with Tr Z = 1 at side 5,000, whose side^2 is
    # above the dense cap: 5,000 classes of side 1 and one kept row, so
    # the packed Z has 5,000 entries. The optimum is max c_i.
    side = 5000
    c = np.random.default_rng(3).uniform(-1.0, 1.0, side)
    at = np.arange(side)
    inst = sdp.SdpInstance(side, np.r_[at, at], np.r_[at, at], np.r_[c, np.ones(side)],
                           np.r_[np.full(side, -1), np.zeros(side, dtype=int)], np.ones(1))
    assert side**2 > errors.DENSE_AMPLITUDE_CAP
    prog = sdp._Program(inst)
    assert (prog.m, prog.size) == (1, side)
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    assert sol.status == "optimal"
    assert abs(sol.primal_value - c.max()) <= 2e-6


def _two_by_two(c: float, rhs: float) -> sdp.SdpInstance:
    """max 2 c Re Z[0, 1] with Z[0, 0] = Z[1, 1] = rhs: the value is 2 c rhs."""
    return table.instance(
        2, np.array([[0.0, c], [c, 0.0]], dtype=complex), [(((i, i, 1.0 + 0.0j),), rhs) for i in (0, 1)]
    )


def _one_entry(entry=(0, 0, 1.0), rhs=1.0, **arrays) -> dict:
    """The table of one row with one entry, with any of its arrays replaced."""
    r, c, v = entry
    return dict(dict(rows=[r], cols=[c], vals=[v], owner=[0], constraints=[rhs]), **arrays)


@pytest.mark.parametrize(
    "side, arrays, message",
    [
        (2.0, _one_entry(), "integer >= 1"),
        (True, _one_entry(), "integer >= 1"),
        (0, _one_entry(), "integer >= 1"),
        (2, _one_entry((0, 1, np.nan), owner=[-1]), "not finite"),
        (2, _one_entry((0, 2, 1.0)), "outside"),
        (2, _one_entry((-1, 0, 1.0)), "outside"),
        (2, _one_entry((1, 0, 1.0)), "outside"),
        (2, _one_entry((0, 1, complex(0.0, np.inf))), "not finite"),
        (2, _one_entry(rhs=np.nan), "not finite"),
        (2, _one_entry(cols=[0, 1]), "of one length"),
        (2, _one_entry(rows=[[0]]), "1-D"),
        (2, _one_entry(rows=[0.5]), "dtype float64"),  # not truncated to 0
        (2, _one_entry(owner=[-2]), "owner"),  # -1 is an entry of C
        (2, _one_entry(owner=[1]), "owner"),
    ],
    ids=["side-float", "side-bool", "side-zero", "objective-nan", "column-past-side",
         "negative-row", "below-diagonal", "value-inf", "rhs-nan", "unequal-lengths",
         "two-dimensional-rows", "float-rows", "negative-owner", "owner-past-rows"],
)
def test_malformed_instances_are_refused(side, arrays, message):
    with pytest.raises(BadArgsError, match=message):
        sdp.SdpInstance(side=side, **arrays)


def _tables(inst: sdp.SdpInstance) -> list[np.ndarray]:
    return [inst.rows, inst.cols, inst.vals, inst.owner, inst.constraints]


def test_instances_leave_the_callers_data_alone():
    arrays = [np.array(x) for x in ([0, 0, 0], [1, 0, 1], [2.0, 1.0, 0.5], [-1, 0, 1], [1.0, 0.0])]
    inst = sdp.SdpInstance(2, *arrays)
    assert arrays[2].dtype == np.float64 and inst.vals.dtype == np.complex128
    # The instance holds read-only copies: the caller's arrays may change after.
    before = [x.copy() for x in _tables(inst)]
    for x in arrays:
        x[...] = 7
    assert all(np.array_equal(x, y) for x, y in zip(_tables(inst), before))
    assert not any(x.flags.writeable for x in _tables(inst))
    for inst in (_two_blocks(), _phase_row(0.0)):  # two blocks, and an imaginary row
        before = [x.copy() for x in _tables(inst)]
        sdp.solve(inst, sdp.DEFAULT_TOL)
        assert all(np.array_equal(x, y) for x, y in zip(_tables(inst), before))


def test_duplicated_objective_entries_sum():
    # C's entries at one position sum, as a row's do: 3 at (0, 1) stored as
    # 1 and 2, and the imaginary part of an entry on the diagonal does not
    # count. max Z[0, 0] + 6 Re Z[0, 1] with Z[0, 0] = Z[1, 1] = 1 is 7.
    diag = [(((i, i, 1.0 + 0.0j),), 1.0) for i in (0, 1)]
    whole = table.instance(2, np.array([[1.0, 3.0], [3.0, 0.0]]), diag)
    r, c, v, q, b = table.columns(diag)
    split = sdp.SdpInstance(2, np.r_[[0, 0, 0], r], np.r_[[1, 1, 0], c],
                            np.r_[[1.0, 2.0, 1.0 + 5.0j], v], np.r_[[-1, -1, -1], q], b)
    assert np.array_equal(table.dense_objective(split), table.dense_objective(whole))
    prog = sdp._Program(split)
    assert prog.dtype is float and np.array_equal(prog.cobj, sdp._Program(whole).cobj)
    sol = sdp.solve(split, sdp.DEFAULT_TOL)
    assert sol.primal_value == pytest.approx(7.0, rel=1e-6)
    assert sol.primal_value == sdp.solve(whole, sdp.DEFAULT_TOL).primal_value


def test_solution_trace_one_record_per_iteration():
    inst = _random_instance(4)
    sol = sdp.solve(inst, 1e-8)
    assert len(sol.trace) == sol.iterations
    for rec in sol.trace[:-1]:
        assert 0.0 < rec.alpha_p <= 1.0 and 0.0 < rec.alpha_d <= 1.0
        assert 0.0 < rec.sigma <= 1.0
        assert min(rec.nt_s, rec.schur_s, rec.chol_s, rec.newton_s, rec.step_s) >= 0.0
    last = sol.trace[-1]
    assert max(last.pres, last.dres) <= sdp.FEAS_TOL
    assert (last.sigma, last.alpha_p, last.alpha_d) == (0.0, 0.0, 0.0)


def test_infeasible_detected():
    # Z[0, 0] = 1 and Z[0, 0] = 2: the trace witness u = (1/2, 1/2) has
    # u^T b > 0, so the loop runs, and its best iterate is not "optimal".
    inst = table.instance(
        1, np.eye(1, dtype=complex), [(((0, 0, 1.0 + 0.0j),), 1.0), (((0, 0, 1.0 + 0.0j),), 2.0)]
    )
    sol = sdp.solve(inst, 1e-8)
    assert sol.status == "stalled" and sol.iterations < sdp.MAX_ITERS
    assert "residual" in certify(inst, sol, 1e-8).failures()


def test_iteration_cap_returns_its_best_iterate(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 2)
    sol = sdp.solve(_random_instance(4), 1e-8)
    assert sol.status == "max_iterations" and sol.iterations == len(sol.trace) == 2
    assert all(np.isfinite(z).all() for _, z in sol.blocks) and np.isfinite(sol.y).all()


def _merits(sol: sdp.SdpSolution) -> list[float]:
    return [max(rec.pres, rec.dres, rec.rel_gap) for rec in sol.trace]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1.0, 0.5])
def test_overflowing_run_returns_its_best_iterate(c):
    # max 2 c Re Z[0, 1] with Z[0, 0] = 100, Z[1, 1] = 1 and 2 Re Z[0, 1] =
    # 20.5, just above the largest feasible 20: after the best iterate the
    # iterates grow until a residual would overflow, and the run stalls
    # STALL_ITERS iterations after its best iterate, before any overflow.
    rows = (((0, 0), 100.0), ((1, 1), 1.0), ((0, 1), 20.5))
    rows = [(((r, col, 1.0 + 0.0j),), rhs) for (r, col), rhs in rows]
    inst = table.instance(2, table.dense_objective(_two_by_two(c, 1.0)), rows)
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    best = int(np.argmin(_merits(sol)))
    assert sol.status == "stalled" and sol.iterations <= best + sdp.STALL_ITERS + 1
    assert all(np.isfinite(z).all() for _, z in sol.blocks) and np.isfinite(sol.y).all()
    assert math.isfinite(sol.primal_value) and math.isfinite(sol.dual_value)
    assert "residual" in certify(inst, sol).failures()


def test_non_finite_residual_returns_the_best_iterate(monkeypatch):
    # _a_of runs once for the residual at the head of each iteration and
    # once per Newton solve, two a step here: its seventh call is the
    # residual of iteration 2, and NaN from there on breaks the loop there.
    a_of, calls = sdp._a_of, []

    def nan_from_the_seventh(prog, z):
        calls.append(1)
        return a_of(prog, z) * (np.nan if len(calls) >= 7 else 1.0)

    monkeypatch.setattr(sdp, "_a_of", nan_from_the_seventh)
    sol = sdp.solve(_random_instance(4), 1e-8)
    assert sol.status == "stalled" and sol.iterations == 3
    assert not math.isfinite(sol.trace[-1].pres)
    assert all(np.isfinite(z).all() for _, z in sol.blocks) and np.isfinite(sol.y).all()
    assert math.isfinite(sol.primal_value) and math.isfinite(sol.dual_value)


def test_one_iteration_without_progress_does_not_stall():
    # The merit of iteration 1 of this instance is above iteration 0's; the
    # run goes on to optimality.
    sol = sdp.solve(_random_instance(49), 1e-8)
    merits = _merits(sol)
    assert merits[1] >= merits[0]
    assert sol.status == "optimal"


@pytest.mark.parametrize("cond", [1e2, 1e12], ids=["cond-1e2", "cond-1e12"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("side", [1, 63, 64, 65, 200, 685])
def test_blocked_substitution_matches_scipy(side, real, cond):
    # Blocks of 64 rows: one short block, one full, one full plus one row,
    # and several. On the factor of an SPD matrix of condition 1e12, the
    # solve with a vector or with the identity (M^-1) leaves at most 1.2
    # times scipy's residual in M. Without the refinement step it leaves up
    # to 2.8 times, and 3 of the 24 cases fail the bound of 2.
    import scipy.linalg

    rng = np.random.default_rng([side, real, int(math.log10(cond))])
    x = rng.standard_normal((side, side)) + (0 if real else 1j) * rng.standard_normal((side, side))
    q = np.linalg.qr(x)[0]
    m = (q * np.geomspace(1.0, 1.0 / cond, side)) @ q.conj().T
    m = (m + m.conj().T) / 2
    l = np.linalg.cholesky(m)
    tri = sdp._Triangular(l)
    b = rng.standard_normal(side) + (0 if real else 1j) * rng.standard_normal(side)
    eye = np.eye(side, dtype=l.dtype)

    def residual(sol, rhs):
        return np.linalg.norm(m @ sol - rhs)

    for rhs in (b, eye):
        got, want = tri.solve(rhs), scipy.linalg.cho_solve((l, True), rhs)
        assert residual(got, rhs) <= 2 * residual(want, rhs), rhs.ndim


def test_non_finite_newton_step_returns_the_best_iterate(monkeypatch):
    solve_one, calls = sdp._Triangular.solve, []

    def solve(self, rhs):  # NaN from the seventh Newton solve on
        calls.append(1)
        x = solve_one(self, rhs)
        return x * np.nan if len(calls) > 6 else x

    inst = _random_instance(4)
    want = sdp.solve(inst, 1e-8)
    monkeypatch.setattr(sdp._Triangular, "solve", solve)
    sol = sdp.solve(inst, 1e-8)
    assert sol.status == "stalled" and 2 <= sol.iterations < want.iterations
    assert (sol.trace[-1].alpha_p, sol.trace[-1].alpha_d) == (0.0, 0.0)  # no step taken
    assert all(rec.alpha_p > 0 for rec in sol.trace[:-1])
    assert all(np.isfinite(z).all() for _, z in sol.blocks) and np.isfinite(sol.y).all()


def test_failed_factorization_of_z_returns_the_best_iterate(monkeypatch):
    # _chol_psd runs once per class side in each NT scaling, once an
    # iteration on this one-class instance: from its third call on it
    # raises, which stops iteration 2 before its NT scaling is timed.
    chol_psd, calls = sdp._chol_psd, []

    def fail_from_the_third(x):
        calls.append(1)
        if len(calls) >= 3:
            raise np.linalg.LinAlgError("matrix not positive definite")
        return chol_psd(x)

    monkeypatch.setattr(sdp, "_chol_psd", fail_from_the_third)
    sol = sdp.solve(_random_instance(4), 1e-8)
    assert sol.status == "stalled" and sol.iterations >= 2
    last = sol.trace[-1]
    assert (last.alpha_p, last.alpha_d, last.nt_s) == (0.0, 0.0, 0.0)
    assert all(np.isfinite(z).all() for _, z in sol.blocks) and np.isfinite(sol.y).all()


def test_schur_matrix_no_ridge_factors_returns_the_best_iterate(monkeypatch):
    # The Schur matrix is the only 2-D Cholesky (Z's blocks are one 3-D
    # stack): the first two steps factor it at the first ridge, and every
    # 2-D call from the third on fails, so iteration 2 tries all ten ridges
    # and stops with the times of its NT scaling, Schur matrix and ridges.
    cholesky, calls = np.linalg.cholesky, []

    def fail_from_the_third(x):
        if x.ndim == 2:
            calls.append(1)
            if len(calls) >= 3:
                raise np.linalg.LinAlgError("matrix not positive definite")
        return cholesky(x)

    monkeypatch.setattr(np.linalg, "cholesky", fail_from_the_third)
    sol = sdp.solve(_random_instance(4), 1e-8)
    assert len(calls) == 12
    assert sol.status == "stalled" and sol.iterations == 3
    last = sol.trace[-1]
    assert (last.alpha_p, last.alpha_d) == (0.0, 0.0)
    assert min(last.nt_s, last.schur_s, last.chol_s) > 0.0


def _mixed_rows(c: float, a: float) -> sdp.SdpInstance:
    """max 2 c Re Z[0, 1] with Z[0, 0] - Z[1, 1] = 2, Z[0, 0] + 2 Re Z[0, 1]
    = a and Z[0, 0] = -a: infeasible for a > 0. The diagonal rows weighted by
    u = (-1, 2) sum to the identity with u^T b = -2 - 2a < 0."""
    rows = (
        (((0, 0, 1.0 + 0.0j), (1, 1, -1.0 + 0.0j)), 2.0),
        (((0, 1, 1.0 + 0.0j), (0, 0, 1.0 + 0.0j)), a),
        (((0, 0, 1.0 + 0.0j),), -a),
    )
    return table.instance(2, table.dense_objective(_two_by_two(c, 1.0)), rows)


def test_solver_determinism():
    inst = _random_instance(9)
    s1 = sdp.solve(inst, 1e-8)
    s2 = sdp.solve(inst, 1e-8)
    assert s1.primal_value == s2.primal_value
    assert [(m.tobytes(), z.tobytes()) for m, z in s1.blocks] == [
        (m.tobytes(), z.tobytes()) for m, z in s2.blocks
    ]
