"""The equality-cap relaxations against the slack oracle of tests/slack.py,
and the slack instances, a Gram block and slack blocks on one diagonal,
solved end to end."""

import numpy as np
import pytest

import slack
from certify import certify
from conftest import random_game
from dense import vvm_products
from table import dense_objective
from witness import dense_z, families
from xorq import games, relaxations, sdp

# The equality-cap relaxations and their slack oracles. beta_sdp is compiled
# as beta_nc of the diagonal embedding, so its oracle, the unit-vector
# program with slacks, is checked against it in test_relaxations.py.
EQUALITY_CASES = {
    f"{name}/{kind}": (build, kind)
    for name, build in (
        ("T2", lambda: games.t_game(2)),
        ("H1", lambda: games.h_game(1)),
        ("C2", lambda: games.c_game(2)),
        ("R2", lambda: random_game(2, seed=81)),
        ("R3", lambda: random_game(3, seed=82)),
    )
    for kind in ("nc", "os")
}
CASES = {"CHSH/sdp": (lambda: games.from_classical(games.chsh()), "sdp"), **EQUALITY_CASES}


def _slack_instance(case: str) -> sdp.SdpInstance:
    build, kind = CASES[case]
    return getattr(slack, f"beta_{kind}_instance")(build())


def _slack_first(inst: sdp.SdpInstance, gram: int) -> sdp.SdpInstance:
    """The same program with its indices permuted: the slack indices, which
    follow the first gram indices (the Gram block), moved to the front."""
    new = np.roll(np.arange(inst.side), gram)  # index i moves to new[i]
    r, c = new[inst.rows], new[inst.cols]
    swap = r > c  # an entry below the diagonal stores its transpose
    return sdp.SdpInstance(
        inst.side,
        np.where(swap, c, r),
        np.where(swap, r, c),
        np.where(swap, inst.vals.conj(), inst.vals),
        inst.owner,
        inst.constraints,
    )


@pytest.mark.parametrize("case", sorted(EQUALITY_CASES))
def test_equality_caps_match_slack_oracle(case):
    build, kind = EQUALITY_CASES[case]
    equal = getattr(relaxations, f"beta_{kind}_instance")(build())
    inst = _slack_instance(case)
    assert inst.side > equal.side  # the slack indices after the Gram ones
    # beta_nc leaves out one implied column-cap row per family, and the
    # relaxation of a real game leaves out every imaginary-part row, which
    # the oracle keeps.
    g = build()
    row = inst.owner >= 0
    im_rows = np.bincount(inst.owner[row], inst.vals[row].real != 0, len(inst.constraints)) == 0
    left_out = (2 if kind == "nc" else 0) + (0 if g.m.imag.any() else int(im_rows.sum()))
    assert len(inst.constraints) == len(equal.constraints) + left_out
    want = sdp.solve(inst, 1e-7).primal_value
    got = getattr(relaxations, f"beta_{kind}")(build(), 1e-7).value
    assert abs(got - want) <= 2e-6


@pytest.mark.parametrize("case", sorted(CASES) + ["H1/nc:slack-first"])
def test_multi_block_instances_solve(case):
    inst = _slack_instance(case.split(":")[0])
    if case.endswith(":slack-first"):
        build, kind = CASES[case.split(":")[0]]
        gram = getattr(relaxations, f"beta_{kind}_instance")(build()).side
        want = sdp.solve(inst, 1e-7).primal_value
        inst = _slack_first(inst, gram)
        assert not dense_objective(inst)[:-gram].any()  # C lives on the Gram block, now last
    sol = sdp.solve(inst, 1e-7)
    assert certify(inst, sol, 1e-6).passed
    value = np.vdot(dense_objective(inst), dense_z(sol, inst.side)).real
    assert abs(value - sol.primal_value) <= 1e-9 * max(1.0, abs(value))
    if case.endswith(":slack-first"):
        assert abs(sol.primal_value - want) <= 1e-6


def test_beta_nc_h1_witness_is_unitary():
    g = games.h_game(1)
    witness = families("nc", g.n, sdp.solve(relaxations.beta_nc_instance(g), 1e-7))
    for v in (witness["x"], witness["y"]):
        left, right = vvm_products(v)
        assert np.abs(left - np.eye(v.shape[1])).max() <= 1e-6
        assert np.abs(right - np.eye(v.shape[1])).max() <= 1e-6
