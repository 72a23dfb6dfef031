import math
import warnings
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from xorq import cli, errors, games, relaxations, sdp
from xorq.errors import BadArgsError, TooLargeError

from certify import certify, constraint_value
from conftest import random_game
from doubling import double_instance, undouble_matrix
from test_slack_oracle import CASES as SLACK_CASES, _slack_instance


def _scalar_instance(value=1.0):
    return sdp.SdpInstance(
        blocks=(("z", 1),),
        objective={"z": np.eye(1, dtype=complex)},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=value),
        ),
    )


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
    trace_entries = tuple(("z", i, i, 1.0 + 0.0j) for i in range(dim))
    cons.append(
        sdp.SdpConstraint(entries=trace_entries, rhs=float(np.real(np.trace(z0))))
    )
    for _ in range(m):
        f = herm()
        entries = []
        for r in range(dim):
            for s in range(r, dim):
                if abs(f[r, s]) > 1e-12:
                    entries.append(("z", r, s, complex(f[r, s])))
        rhs = float(np.real(np.trace(f.conj().T @ z0)))
        cons.append(sdp.SdpConstraint(entries=tuple(entries), rhs=rhs))
    return sdp.SdpInstance(
        blocks=(("z", dim),), objective={"z": c}, constraints=tuple(cons)
    )


def test_trivial_instance():
    sol = sdp.solve(_scalar_instance(), 1e-8)
    assert abs(sol.primal_value - 1.0) <= 1e-7
    assert certify(_scalar_instance(), sol, 1e-6).passed


def test_all_ones_boundary():
    c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    inst = sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": c},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=1.0),
            sdp.SdpConstraint(entries=(("z", 1, 1, 1.0 + 0.0j),), rhs=1.0),
        ),
    )
    sol = sdp.solve(inst, 1e-9)
    assert abs(sol.primal_value - 2.0) <= 1e-7
    assert np.allclose(sol.blocks["z"], np.ones((2, 2)), atol=1e-6)


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
    bad = sdp.SdpSolution(
        blocks={"z": sol.blocks["z"] + 0.5},
        y=sol.y,
        primal_value=sol.primal_value,
        dual_value=sol.dual_value,
        iterations=sol.iterations,
        status=sol.status,
    )
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
    inst = sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)},
        constraints=(),
    )
    for lower, hermitian in ((0.0, False), (1e300, True)):
        z = np.array([[8e307, 1e300], [lower, 8e307]], dtype=complex)
        value = 1e300 + lower  # Re Tr(C^H Z)
        sol = sdp.SdpSolution(blocks={"z": z}, y=np.zeros(0), primal_value=value,
                              dual_value=value, iterations=1, status="optimal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify(inst, sol)
        assert report.checks[0][0] == "hermitian[z]"
        assert report.checks[0][3] is hermitian
        assert report.failures() == ([] if hermitian else ["hermitian[z]"])


def test_certify_zero_instance():
    # A zero objective; the trace row bounds Tr Z, so that the instance solves.
    trace_row = sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j), ("z", 1, 1, 1.0 + 0.0j)), rhs=1.0)
    inst = sdp.SdpInstance(blocks=(("z", 2),), objective={}, constraints=(trace_row,))
    sol = sdp.solve(inst, 1e-6)
    assert abs(sol.primal_value) <= 1e-6
    assert certify(inst, sol, 1e-6).passed


def test_invariance_under_permutation_and_relabeling():
    inst = _random_instance(3)
    sol = sdp.solve(inst, 1e-8)
    permuted = sdp.SdpInstance(
        blocks=(("w", 3),),
        objective={"w": inst.objective["z"]},
        constraints=tuple(
            sdp.SdpConstraint(
                entries=tuple(("w", r, c, v) for _, r, c, v in con.entries),
                rhs=con.rhs,
            )
            for con in reversed(inst.constraints)
        ),
    )
    sol2 = sdp.solve(permuted, 1e-8)
    assert abs(sol.primal_value - sol2.primal_value) <= 2e-8 * max(1.0, abs(sol.primal_value))


def test_doubling_oracle_purely_real():
    inst = _scalar_instance()
    doubled = double_instance(inst)
    assert dict(doubled.blocks)["z"] == 2
    value = sdp.solve(inst, 1e-8).primal_value
    assert abs(value - 1.0) <= 1e-6
    assert abs(sdp.solve(doubled, 1e-8).primal_value / 2.0 - value) <= 2e-6


def test_doubling_oracle_one_dim_complex_block():
    inst = _scalar_instance()
    con = double_instance(inst).constraints[0]
    # 1x1 complex block becomes a rotationally symmetric 2x2 block
    assert {(r, c) for _, r, c, _ in con.entries} == {(0, 0), (1, 1)}
    assert con.rhs == 2.0
    # while the complex core keeps it 1x1
    assert sdp.solve(inst, 1e-8).blocks["z"].shape == (1, 1)


def _assert_feasible_psd(inst, blocks):
    for con in inst.constraints:
        got = constraint_value(con, blocks)
        assert abs(got - con.rhs) <= 1e-8 * max(1.0, abs(con.rhs))
    for z in blocks.values():
        assert np.linalg.eigvalsh((z + z.conj().T) / 2)[0] >= -1e-8


def test_complex_core_feasibility_against_doubling():
    for seed in range(10):
        inst = _random_instance(seed + 50)
        sol = sdp.solve(inst, 1e-8)
        _assert_feasible_psd(inst, sol.blocks)
        doubled = sdp.solve(double_instance(inst), 1e-8)
        _assert_feasible_psd(inst, {"z": undouble_matrix(doubled.blocks["z"])})
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


def _offsets(inst: sdp.SdpInstance) -> tuple[dict[str, int], int]:
    """Each block's offset on one diagonal, and the total side."""
    offsets, side = {}, 0
    for label, d in inst.blocks:
        offsets[label], side = side, side + d
    return offsets, side


def _dense_constraints(inst: sdp.SdpInstance) -> list[np.ndarray]:
    """Every F_q of inst as one dense Hermitian matrix, the blocks on one
    diagonal, built from its entries."""
    offsets, side = _offsets(inst)
    dense = []
    for con in inst.constraints:
        f = np.zeros((side, side), dtype=complex)
        for b, r, c, v in con.entries:
            r, c = r + offsets[b], c + offsets[b]
            f[r, c] += v
            if r != c:
                f[c, r] += np.conj(v)
        dense.append(f)
    return dense


def _dual_slack(inst: sdp.SdpInstance, y: np.ndarray) -> np.ndarray:
    """A^T y - C = sum_q y_q F_q - C as one dense matrix, the blocks on one
    diagonal, built from the instance's entries."""
    offsets, side = _offsets(inst)
    slack = np.zeros((side, side), dtype=complex)
    for label, c in inst.objective.items():
        span = slice(offsets[label], offsets[label] + c.shape[0])
        slack[span, span] -= c
    for y_q, con in zip(y, inst.constraints):
        for b, r, c, v in con.entries:
            r, c = r + offsets[b], c + offsets[b]
            slack[r, c] += y_q * v
            if r != c:
                slack[c, r] += y_q * np.conj(v)
    return slack


def _mixed_instance() -> sdp.SdpInstance:
    """Random constraints on two blocks: diagonal, real and complex entries."""
    rng = np.random.default_rng(11)
    dims = {"a": 5, "b": 3}
    kinds = ("diag", "real", "complex")
    cons = []
    for q in range(12):
        labels = ("a", "b") if q % 3 == 0 else (("b",) if q % 5 == 1 else ("a",))
        entries = []
        for label in labels:
            for _ in range(1 + q % 3):
                kind = kinds[int(rng.integers(3))]
                r, c = sorted(int(i) for i in rng.choice(dims[label], 2, replace=False))
                if kind == "diag":
                    entries.append((label, r, r, complex(rng.standard_normal())))
                elif kind == "real":
                    entries.append((label, r, c, complex(rng.standard_normal())))
                else:
                    entries.append((label, r, c, complex(*rng.standard_normal(2))))
        cons.append(sdp.SdpConstraint(entries=tuple(entries), rhs=0.0))
    return sdp.SdpInstance(
        blocks=tuple(dims.items()), objective={}, constraints=tuple(cons)
    )


def test_schur_matches_dense_oracle():
    # A complex program on two blocks, and the real program of beta_os(T2).
    for inst, real in (
        (_mixed_instance(), False),
        (relaxations.beta_os_instance(games.t_game(2)), True),
    ):
        prog = sdp._Program(inst)
        assert prog.dtype is (float if real else complex)
        side = sum(d for _, d in inst.blocks)  # the blocks on one diagonal
        assert prog.dim == side
        w = _random_pd(np.random.default_rng(11), side, real)  # full, not block-diagonal
        got = sdp._schur(prog, w)

        dense = _dense_constraints(inst)
        want = np.array(
            [[np.trace(fp @ w @ fq @ w).real for fq in dense] for fp in dense]
        )
        assert np.abs(got - np.triu(want)).max() <= 1e-12 * np.abs(want).max()
        assert not np.tril(got, -1).any()


def _with_trace_row(inst: sdp.SdpInstance) -> sdp.SdpInstance:
    """inst with one more row, Tr Z_gram = 1, last. The rows of these Gram
    relaxations all have one entry count and this row another, so that the
    Schur groups also break where the count changes."""
    side = dict(inst.blocks)["gram"]
    trace = sdp.SdpConstraint(entries=tuple(("gram", i, i, 1.0 + 0.0j) for i in range(side)), rhs=1.0)
    return replace(inst, constraints=inst.constraints + (trace,))


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
    inst = _with_trace_row(make())  # groups of two entry counts
    if group_cap:  # at most group_cap constraints per stacked matmul
        prog = sdp._Program(inst)
        width = max(prog.dim * prog.dim, prog.owner.size)
        monkeypatch.setattr(sdp, "SCHUR_GROUP_ENTRIES", group_cap * width)
    prog = sdp._Program(inst)
    assert prog.dtype is (float if real else complex)
    sizes = [stop - start for start, stop in prog.groups]
    counts = np.diff(prog.q_ptr)
    assert len(set(counts)) > 1 and len(prog.groups) > 1 and max(sizes) > 1
    if group_cap:
        assert max(sizes) == group_cap
    w = _random_pd(np.random.default_rng(3), prog.dim, real)
    got = sdp._schur(prog, w)

    dense = _dense_constraints(inst)
    want = np.array([[np.trace(fp @ w @ fq @ w).real for fq in dense] for fp in dense])
    upper = np.triu_indices(prog.m)
    assert np.abs(got[upper] - want[upper]).max() <= 1e-12 * np.abs(want).max()
    assert not np.tril(got, -1).any()


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
    """sum_q u_q F_q for the program's trace witness u, from the dense rows."""
    prog = sdp._Program(inst)
    assert prog.witness is not None
    return sum(u_q * f for u_q, f in zip(prog.witness, _dense_constraints(inst)))


def test_gram_relaxations_have_a_trace_witness(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 1)  # the first trace entry is enough
    for name, (inst, trace) in _witnessed_instances().items():
        # The solver takes C and b as they are: every package program has
        # |Re C|, |Im C| <= 1 (C holds conj(M) / 2, |M_rc| <= ||M||_1 <= 1)
        # and every right-hand side 0 or 1.
        (c,) = inst.objective.values()
        assert max(np.abs(c.real).max(), np.abs(c.imag).max()) <= 1.0, name
        assert {con.rhs for con in inst.constraints} <= {0.0, 1.0}, name
        prog = sdp._Program(inst)
        # sum_q u_q F_q = D = I.
        assert np.abs(_witness_diagonal(inst) - np.eye(prog.dim)).max() <= 1e-12, name
        assert prog.witness @ prog.b == pytest.approx(trace, rel=1e-12), name
        # The start meets every row, and S = A^T y - C exactly, up to rounding.
        first = sdp.solve(inst, sdp.DEFAULT_TOL).trace[0]
        assert max(first.pres, first.dres) <= 1e-14, name
    # With the caps as inequalities Q + S = I, S a slack block, D is another
    # positive diagonal (tests/slack.py): for beta_nc with n = 3, 8/7 on the
    # Gram slots and 4/7 on the slack slots.
    cases = {case: _slack_instance(case) for case in SLACK_CASES}
    for name, inst in cases.items():
        total = _witness_diagonal(inst)
        d = np.diag(total).real
        assert np.abs(total - np.diag(d)).max() <= 1e-12 and d.min() > 0, name
    d = np.diag(_witness_diagonal(cases["H1/nc"])).real
    gram = dict(cases["H1/nc"].blocks)["gram"]
    assert np.allclose(d[:gram], 8 / 7, rtol=0, atol=1e-12)
    assert np.allclose(d[gram:], 4 / 7, rtol=0, atol=1e-12)


def _no_witness() -> sdp.SdpInstance:
    """max 2 Re Z[0, 1] with Z[0, 0] + 2 Re Z[0, 1] = 1 and Z[1, 1] = 1, of
    value 2 (sqrt 2 - 1): no weights of its one diagonal row, Z[1, 1] = 1,
    sum to a positive diagonal."""
    return sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": np.array([[0.0, 1.0], [1.0, 0.0]])},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j), ("z", 0, 1, 1.0 + 0.0j)), rhs=1.0),
            sdp.SdpConstraint(entries=(("z", 1, 1, 1.0 + 0.0j),), rhs=1.0),
        ),
    )


def test_instances_whose_rows_do_not_bound_the_trace_are_refused():
    zero_trace = sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=0.0)
    cases = {
        "no_witness": _no_witness(),
        "no_rows": replace(_scalar_instance(), constraints=()),
        "zero_trace": replace(_scalar_instance(), constraints=(zero_trace,)),  # only Z = 0
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
    inst = sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": np.array([[0.0, 1.0], [1.0, 0.0]])},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j), ("z", 1, 1, 1e-6 + 0.0j)), rhs=1.0),
        ),
    )
    d = np.diag(_witness_diagonal(inst)).real
    assert d[1] / d[0] == pytest.approx(1e-6, rel=1e-12)
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(1000.0, rel=1e-5)
    assert sol.dual_value == pytest.approx(1000.0, rel=1e-5)
    assert certify(inst, sol).passed


def _two_blocks() -> sdp.SdpInstance:
    """max 6 Re A[0, 1] + B[0, 0] with A[0, 0] = A[1, 1] = 2, 2 Im A[0, 1] = 0
    and Tr B = 1, of value 13: two blocks, an objective entry and a rhs
    above 1, and a purely imaginary row with rhs 0 between real ones."""
    return sdp.SdpInstance(
        blocks=(("a", 2), ("b", 2)),
        objective={"a": np.array([[0.0, 3.0], [3.0, 0.0]]), "b": np.diag([1.0, 0.0])},
        constraints=(
            sdp.SdpConstraint(entries=(("a", 0, 0, 1.0 + 0.0j),), rhs=2.0),
            sdp.SdpConstraint(entries=(("a", 0, 1, 1.0j),), rhs=0.0),
            sdp.SdpConstraint(entries=(("a", 1, 1, 1.0 + 0.0j),), rhs=2.0),
            sdp.SdpConstraint(entries=(("b", 0, 0, 1.0 + 0.0j), ("b", 1, 1, 1.0 + 0.0j)), rhs=1.0),
        ),
    )


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
        assert all(z.dtype == np.float64 for z in sol.blocks.values()), name
        assert certify(inst, sol).passed, name
        assert sol.y.shape == (len(inst.constraints),), name
        assert np.linalg.eigvalsh(_dual_slack(inst, sol.y))[0] >= -1e-9, name
        b = np.array([con.rhs for con in inst.constraints])
        assert sol.dual_value == pytest.approx(b @ sol.y, rel=1e-12), name
        bound = sdp.DEFAULT_TOL * max(1.0, abs(sol.primal_value))
        assert 0 <= b @ sol.y - sol.primal_value <= bound, name


def _phase_row(rhs: float) -> sdp.SdpInstance:
    """max 2 Re Z[0, 1] with Z[0, 0] = Z[1, 1] = 1 and 2 Im Z[0, 1] = rhs: a
    purely imaginary row, which no real Z meets when rhs != 0."""
    return sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)},
        constraints=tuple(
            sdp.SdpConstraint(entries=(("z", i, i, 1.0 + 0.0j),), rhs=1.0) for i in (0, 1)
        )
        + (sdp.SdpConstraint(entries=(("z", 0, 1, 1.0j),), rhs=rhs),),
    )


def test_instances_that_are_not_real_stay_complex():
    two = _two_by_two(1.0, 1.0)
    assert sdp._Program(two).dtype is float
    mixed_row = sdp.SdpConstraint(entries=(("z", 0, 1, 0.5 + 0.5j),), rhs=0.0)
    cases = {
        "random_game": (relaxations.beta_nc_instance(random_game(2, 7)), None),
        "complex_objective": (replace(
            two, objective={"z": np.array([[0.0, 1.0 + 1.0j], [1.0 - 1.0j, 0.0]])}
        ), 2 * math.sqrt(2)),
        "mixed_row": (replace(two, constraints=two.constraints + (mixed_row,)), None),
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
        assert all(z.dtype == np.complex128 for z in sol.blocks.values()), name
        assert sol.y.shape == (len(inst.constraints),), name
        if value is not None:
            assert sol.primal_value == pytest.approx(value, rel=1e-6), name


def test_size_cap_counts_the_rows_solved(monkeypatch):
    # beta_os of a real game has fewer rows than that of a complex one of
    # the same size, and the cap counts the rows the instance has.
    real = relaxations.beta_os_instance(games.t_game(2))
    full = relaxations.beta_os_instance(random_game(games.t_game(2).n, 7))
    side = sum(d for _, d in real.blocks)
    m = len(real.constraints)
    assert side < m < len(full.constraints)
    monkeypatch.setattr(errors, "DENSE_AMPLITUDE_CAP", m**2)
    assert certify(real, sdp.solve(real, sdp.DEFAULT_TOL)).passed

    def no_solve(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(sdp, "_solve", no_solve)
    with pytest.raises(TooLargeError, match="dense cap"):
        sdp.solve(full, sdp.DEFAULT_TOL)
    # Two blocks each under the cap, held as one matrix of side 6000.
    two = sdp.SdpInstance(blocks=(("a", 3000), ("b", 3000)), objective={}, constraints=())
    with pytest.raises(TooLargeError, match="side 6000"):
        sdp.solve(two, sdp.DEFAULT_TOL)


def _two_by_two(c: float, rhs: float) -> sdp.SdpInstance:
    """max 2 c Re Z[0, 1] with Z[0, 0] = Z[1, 1] = rhs: the value is 2 c rhs."""
    return sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": np.array([[0.0, c], [c, 0.0]], dtype=complex)},
        constraints=tuple(
            sdp.SdpConstraint(entries=(("z", i, i, 1.0 + 0.0j),), rhs=rhs) for i in (0, 1)
        ),
    )


def test_instances_leave_the_callers_data_alone():
    z = np.array([[1.0, 2.0], [2.0, 1.0]])
    d = {"z": z}
    inst = sdp.SdpInstance(blocks=(("z", 2),), objective=d, constraints=())
    assert d["z"] is z and z.dtype == np.float64
    assert np.array_equal(z, [[1.0, 2.0], [2.0, 1.0]])
    assert inst.objective["z"].dtype == np.complex128
    for inst in (_two_blocks(), _phase_row(0.0)):  # two blocks, and an imaginary row
        objective = {label: c.copy() for label, c in inst.objective.items()}
        constraints = deepcopy(inst.constraints)
        sdp.solve(inst, sdp.DEFAULT_TOL)
        assert inst.objective.keys() == objective.keys()
        assert all(np.array_equal(inst.objective[k], c) for k, c in objective.items())
        assert inst.constraints == constraints


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
    inst = sdp.SdpInstance(
        blocks=(("z", 1),),
        objective={"z": np.eye(1, dtype=complex)},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=1.0),
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=2.0),
        ),
    )
    sol = sdp.solve(inst, 1e-8)
    assert sol.status == "stalled" and sol.iterations < sdp.MAX_ITERS
    assert "residual" in certify(inst, sol, 1e-8).failures()


def test_iteration_cap_returns_its_best_iterate(monkeypatch):
    monkeypatch.setattr(sdp, "MAX_ITERS", 2)
    sol = sdp.solve(_random_instance(4), 1e-8)
    assert sol.status == "max_iterations" and sol.iterations == len(sol.trace) == 2
    assert np.isfinite(sol.blocks["z"]).all() and np.isfinite(sol.y).all()


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
    inst = replace(_two_by_two(c, 1.0), constraints=tuple(
        sdp.SdpConstraint(entries=(("z", r, col, 1.0 + 0.0j),), rhs=rhs) for (r, col), rhs in rows
    ))
    sol = sdp.solve(inst, sdp.DEFAULT_TOL)
    best = int(np.argmin(_merits(sol)))
    assert sol.status == "stalled" and sol.iterations <= best + sdp.STALL_ITERS + 1
    assert np.isfinite(sol.blocks["z"]).all() and np.isfinite(sol.y).all()
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
    assert np.isfinite(sol.blocks["z"]).all() and np.isfinite(sol.y).all()
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
    # solve with the identity (the inverse of Z's factor) leaves at most 6
    # times scipy's residual; without the refinement step it leaves up to 20
    # times, and the real cond-1e12 cases of sides 63, 64, 65 and 200 fail.
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

    def residual(mat, sol, rhs):
        return np.linalg.norm(mat @ sol - rhs)

    got = tri.solve(tri.solve(b), adjoint=True)
    want = scipy.linalg.cho_solve((l, True), b)
    assert residual(m, got, b) <= 10 * residual(m, want, b)
    for mat, rhs, adjoint in ((l, b, False), (l.conj().T, b, True), (l, eye, False)):
        got = tri.solve(rhs, adjoint=adjoint)
        want = scipy.linalg.solve_triangular(l, rhs, lower=True, trans="C" if adjoint else "N")
        assert residual(mat, got, rhs) <= 10 * residual(mat, want, rhs), (adjoint, rhs.ndim)


def test_non_finite_newton_step_returns_the_best_iterate(monkeypatch):
    solve_one, calls = sdp._Triangular.solve, []

    def solve(self, rhs, adjoint=False):  # NaN from the seventh Newton solve on
        x = solve_one(self, rhs, adjoint)
        if not adjoint:  # Z's inverse, or the first pass of a Newton solve
            return x
        calls.append(1)
        return x * np.nan if len(calls) > 6 else x

    inst = _random_instance(4)
    want = sdp.solve(inst, 1e-8)
    monkeypatch.setattr(sdp._Triangular, "solve", solve)
    sol = sdp.solve(inst, 1e-8)
    assert sol.status == "stalled" and 2 <= sol.iterations < want.iterations
    assert (sol.trace[-1].alpha_p, sol.trace[-1].alpha_d) == (0.0, 0.0)  # no step taken
    assert all(rec.alpha_p > 0 for rec in sol.trace[:-1])
    assert np.isfinite(sol.blocks["z"]).all() and np.isfinite(sol.y).all()


def _mixed_rows(c: float, a: float) -> sdp.SdpInstance:
    """max 2 c Re Z[0, 1] with Z[0, 0] - Z[1, 1] = 2, Z[0, 0] + 2 Re Z[0, 1]
    = a and Z[0, 0] = -a: infeasible for a > 0. The diagonal rows weighted by
    u = (-1, 2) sum to the identity with u^T b = -2 - 2a < 0."""
    rows = (
        ((("z", 0, 0, 1.0 + 0.0j), ("z", 1, 1, -1.0 + 0.0j)), 2.0),
        ((("z", 0, 1, 1.0 + 0.0j), ("z", 0, 0, 1.0 + 0.0j)), a),
        ((("z", 0, 0, 1.0 + 0.0j),), -a),
    )
    return replace(
        _two_by_two(c, 1.0),
        constraints=tuple(sdp.SdpConstraint(entries=e, rhs=r) for e, r in rows),
    )


def test_solver_determinism():
    inst = _random_instance(9)
    s1 = sdp.solve(inst, 1e-8)
    s2 = sdp.solve(inst, 1e-8)
    assert s1.primal_value == s2.primal_value
    assert np.array_equal(s1.blocks["z"], s2.blocks["z"])
