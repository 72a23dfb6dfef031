import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from xorq import games, relaxations, sdp
from xorq.errors import BadArgsError, InfeasibleError, UnboundedError

from conftest import random_game
from doubling import double_instance, undouble_matrix


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
    assert sdp.certify(_scalar_instance(), sol, 1e-6).passed


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
    inst = relaxations.beta_sdp_instance(games.chsh())
    sol = sdp.solve(inst, 1e-8)
    assert abs(sol.primal_value - math.sqrt(2) / 2) <= 1e-6
    assert sdp.certify(inst, sol, 1e-6).passed


def test_weak_duality_and_certify_on_random(rng):
    for seed in range(8):
        inst = _random_instance(seed)
        sol = sdp.solve(inst, 1e-8)
        assert sol.dual_value >= sol.primal_value - 1e-7 * max(1.0, abs(sol.primal_value))
        report = sdp.certify(inst, sol, 1e-6)
        assert report.passed, report.failures()


def test_certify_rejects_corrupted_solution():
    inst = _scalar_instance()
    sol = sdp.solve(inst, 1e-8)
    bad = sdp.SdpSolution(
        blocks={"z": sol.blocks["z"] + 0.5},
        y=sol.y,
        primal_value=sol.primal_value,
        dual_value=sol.dual_value,
        gap=sol.gap,
        iterations=sol.iterations,
        status=sol.status,
    )
    report = sdp.certify(inst, bad, 1e-6)
    assert not report.passed
    assert "residual" in report.failures()


def test_certify_recomputes_the_objective():
    inst = relaxations.beta_nc_instance(games.h_game(1))
    sol = sdp.solve(inst)
    assert sdp.certify(inst, sol).passed
    # Both values shifted alike: the gap checks alone cannot see it.
    shifted = replace(sol, primal_value=sol.primal_value + 0.1, dual_value=sol.dual_value + 0.1)
    report = sdp.certify(inst, shifted)
    assert report.failures() == ["objective"]


def test_certify_zero_instance():
    inst = sdp.SdpInstance(blocks=(("z", 2),), objective={}, constraints=())
    sol = sdp.solve(inst, 1e-6)
    assert abs(sol.primal_value) <= 1e-6
    assert sdp.certify(inst, sol, 1e-6).passed


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
        got = sdp.constraint_value(inst, con, blocks)
        assert abs(got - con.rhs) <= 1e-8 * max(1.0, abs(con.rhs))
    for z in blocks.values():
        assert np.linalg.eigvalsh((z + z.conj().T) / 2)[0] >= -1e-8


def test_complex_core_feasibility_against_doubling():
    for seed in range(10):
        inst = _random_instance(seed + 50)
        sol = sdp._solve(inst, 1e-8)
        _assert_feasible_psd(inst, sol.blocks)
        doubled = sdp._solve(double_instance(inst), 1e-8)
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


def _random_pd(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return x @ x.conj().T / d + 0.1 * np.eye(d)


def test_schur_matches_dense_oracle():
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
    inst = sdp.SdpInstance(
        blocks=tuple(dims.items()), objective={}, constraints=tuple(cons)
    )
    bounded, _ = sdp._with_trace_bound(inst)  # adds the trace-cap row
    offsets, side = {}, 0
    for label, d in bounded.blocks:  # the blocks on one diagonal, in order
        offsets[label], side = side, side + d
    prog = sdp._Program(bounded)
    assert prog.dim == side
    w = _random_pd(rng, side)  # full, not block-diagonal
    got = sdp._schur(prog, w)

    dense = []
    for con in bounded.constraints:
        f = np.zeros((side, side), dtype=complex)
        for b, r, c, v in con.entries:
            r, c = r + offsets[b], c + offsets[b]
            f[r, c] += v
            if r != c:
                f[c, r] += np.conj(v)
        dense.append(f)
    want = np.array(
        [[np.trace(fp @ w @ fq @ w).real for fq in dense] for fp in dense]
    )
    assert np.abs(got - np.triu(want)).max() <= 1e-12 * np.abs(want).max()


def _dense_constraints(inst: sdp.SdpInstance) -> list[np.ndarray]:
    """Every F_q as one dense Hermitian matrix, the blocks on one diagonal."""
    offsets, side = {}, 0
    for label, d in inst.blocks:
        offsets[label], side = side, side + d
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


@pytest.mark.parametrize("group_cap", [None, 3])
@pytest.mark.parametrize(
    "make",
    [
        lambda: relaxations.beta_os_instance(random_game(2, 5)),
        lambda: relaxations.beta_nc_instance(games.h_game(1)),
    ],
    ids=["beta_os_random_n2", "beta_nc_h1"],
)
def test_schur_groups_match_dense_oracle(monkeypatch, make, group_cap):
    bounded, _ = sdp._with_trace_bound(make())
    side = sum(d for _, d in bounded.blocks)
    if group_cap:  # at most group_cap constraints per stacked matmul
        width = max(side * side, sum(len(con.entries) for con in bounded.constraints))
        monkeypatch.setattr(sdp, "SCHUR_GROUP_ENTRIES", group_cap * width)
    prog = sdp._Program(bounded)
    sizes = [stop - start for start, stop in prog.groups]
    counts = np.diff(prog.q_ptr)
    assert len(set(counts)) > 1 and len(prog.groups) > 1 and max(sizes) > 1
    if group_cap:
        assert max(sizes) == group_cap
    w = _random_pd(np.random.default_rng(3), side)
    got = sdp._schur(prog, w)

    dense = _dense_constraints(bounded)
    want = np.array([[np.trace(fp @ w @ fq @ w).real for fq in dense] for fp in dense])
    upper = np.triu_indices(prog.m)
    assert np.abs(got[upper] - want[upper]).max() <= 1e-12 * np.abs(want).max()
    assert not np.tril(got, -1).any()


def _paper_table_instances() -> dict[str, sdp.SdpInstance]:
    """The 15 solves of the paper's value table and criterion 4."""
    insts = {"CHSH/beta_sdp": relaxations.beta_sdp_instance(games.chsh())}
    named = [(f"T{n}", games.t_game(n)) for n in range(1, 5)] + [("H1", games.h_game(1))]
    for name, g in named:
        insts[f"{name}/beta_nc"] = relaxations.beta_nc_instance(g)
        insts[f"{name}/beta_os"] = relaxations.beta_os_instance(g)
    for n in range(2, 5):
        insts[f"C{n}/beta_os"] = relaxations.beta_os_instance(games.c_game(n))
    insts["H2/beta_nc"] = relaxations.beta_nc_instance(games.h_game(2))
    return insts


def test_paper_table_solves_take_few_iterations():
    # The second-order corrector's iteration counts; the centering-only
    # corrector took 15 on beta_os(T3) and 155 in total.
    iterations = {}
    for name, inst in _paper_table_instances().items():
        sol = sdp.solve(inst)
        assert sdp.certify(inst, sol).passed, name
        iterations[name] = sol.iterations
    assert len(iterations) == 15
    assert iterations["T3/beta_os"] <= 11
    assert sum(iterations.values()) <= 140


def _two_by_two(c: float, rhs: float) -> sdp.SdpInstance:
    """max 2 c Re Z[0, 1] with Z[0, 0] = Z[1, 1] = rhs: the value is 2 c rhs."""
    return sdp.SdpInstance(
        blocks=(("z", 2),),
        objective={"z": np.array([[0.0, c], [c, 0.0]], dtype=complex)},
        constraints=tuple(
            sdp.SdpConstraint(entries=(("z", i, i, 1.0 + 0.0j),), rhs=rhs) for i in (0, 1)
        ),
    )


@pytest.mark.parametrize("c, rhs", [(1e200, 1.0), (1.0, 1e150), (3e100, 5e99), (-1e300, 1e-3)])
def test_huge_coefficients_solve(c, rhs):
    inst = _two_by_two(c, rhs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = sdp.solve(inst)
        report = sdp.certify(inst, sol)
    assert report.passed, report.failures()
    assert sol.status == "optimal"
    assert sol.primal_value == pytest.approx(2.0 * abs(c) * rhs, rel=1e-6)


def test_unit_instances_are_not_scaled():
    for inst in _paper_table_instances().values():
        assert sdp._scaled(inst) == (inst, 0, 0)
    scaled, ec, eb = sdp._scaled(_two_by_two(3.0, 0.5))
    assert (ec, eb) == (2, 0)
    assert scaled.objective["z"][0, 1] == 0.75


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
    inst = sdp.SdpInstance(
        blocks=(("z", 1),),
        objective={"z": np.eye(1, dtype=complex)},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=1.0),
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=2.0),
        ),
    )
    with pytest.raises(InfeasibleError) as err:
        sdp.solve(inst, 1e-8)
    cert = err.value.certificate
    assert cert is not None


def test_unbounded_detected():
    inst = sdp.SdpInstance(
        blocks=(("z", 1),), objective={"z": np.eye(1, dtype=complex)}, constraints=()
    )
    with pytest.raises(UnboundedError):
        sdp.solve(inst, 1e-8)


def test_instance_validation():
    with pytest.raises(BadArgsError):
        sdp.SdpInstance(
            blocks=(("z", 1),),
            objective={"z": np.array([[1.0j]])},
            constraints=(),
        )
    with pytest.raises(BadArgsError):
        sdp.SdpInstance(
            blocks=(("z", 2),),
            objective={},
            constraints=(
                sdp.SdpConstraint(entries=(("z", 1, 0, 1.0 + 0.0j),), rhs=0.0),
            ),
        )


def test_instance_serialization_round_trip(tmp_path):
    inst = relaxations.beta_nc_instance(games.t_game(1))
    data = sdp.instance_to_dict(inst)
    assert data["format"] == "xorq-sdp-v1"
    back = sdp.instance_from_dict(data)
    assert back.blocks == inst.blocks
    v1 = sdp.solve(inst, 1e-7).primal_value
    v2 = sdp.solve(back, 1e-7).primal_value
    assert abs(v1 - v2) <= 1e-7
    path = tmp_path / "inst.json"
    import json

    path.write_text(json.dumps(data))
    assert sdp.load_instance(path).blocks == inst.blocks


def test_solver_determinism():
    inst = _random_instance(9)
    s1 = sdp.solve(inst, 1e-8)
    s2 = sdp.solve(inst, 1e-8)
    assert s1.primal_value == s2.primal_value
    assert np.array_equal(s1.blocks["z"], s2.blocks["z"])
