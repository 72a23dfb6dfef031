"""The single-block equality-cap relaxations against the slack-block oracle
of tests/slack.py, and the multi-block instances solved end to end."""

import json

import numpy as np
import pytest

import slack
from conftest import random_game
from xorq import cli, games, relaxations, sdp

CASES = {
    "CHSH/sdp": (games.chsh, "sdp"),
    **{
        f"{name}/{kind}": (build, kind)
        for name, build in (
            ("T2", lambda: games.t_game(2)),
            ("H1", lambda: games.h_game(1)),
            ("C2", lambda: games.c_game(2)),
            ("R2", lambda: random_game(2, seed=81)),
            ("R3", lambda: random_game(3, seed=82)),
        )
        for kind in ("nc", "os")
    },
}


def _slack_instance(case: str) -> sdp.SdpInstance:
    build, kind = CASES[case]
    return getattr(slack, f"beta_{kind}_instance")(build())


def _gram_last(inst: sdp.SdpInstance) -> sdp.SdpInstance:
    """The same instance with the objective's block declared last."""
    return sdp.SdpInstance(
        blocks=inst.blocks[1:] + inst.blocks[:1],
        objective=dict(inst.objective),
        constraints=inst.constraints,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_equality_caps_match_slack_oracle(case):
    build, kind = CASES[case]
    equal = getattr(relaxations, f"beta_{kind}_instance")(build())
    assert [label for label, _ in equal.blocks] == ["gram"]
    inst = _slack_instance(case)
    assert len(inst.blocks) > 1
    # beta_nc leaves out one implied column-cap row per family.
    assert len(inst.constraints) == len(equal.constraints) + (2 if kind == "nc" else 0)
    want = sdp.solve(inst, 1e-7).primal_value
    got = getattr(relaxations, f"beta_{kind}")(build(), 1e-7).value
    assert abs(got - want) <= 2e-6


@pytest.mark.parametrize("case", sorted(CASES) + ["H1/nc:gram-last"])
def test_multi_block_instances_solve(case):
    inst = _slack_instance(case.split(":")[0])
    if case.endswith(":gram-last"):
        inst = _gram_last(inst)
        assert inst.blocks[0][0] != "gram"
    sol = sdp.solve(inst, 1e-7)
    assert sdp.certify(inst, sol, 1e-6).passed
    assert {label: z.shape for label, z in sol.blocks.items()} == {
        label: (d, d) for label, d in inst.blocks
    }
    value = sum(np.vdot(c, sol.blocks[label]).real for label, c in inst.objective.items())
    assert abs(value - sol.primal_value) <= 1e-9 * max(1.0, abs(value))


@pytest.mark.parametrize("case", ["CHSH/sdp", "H1/nc:gram-last"])
def test_cmd_sdp_solve_multi_block(tmp_path, capsys, case):
    inst = _slack_instance(case.split(":")[0])
    if case.endswith(":gram-last"):
        inst = _gram_last(inst)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(sdp.instance_to_dict(inst)))
    assert cli.main(["sdp", "solve", str(path), "--tol", "1e-7"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["certify"]["passed"] is True
    assert {label: len(z) for label, z in payload["blocks"].items()} == {
        label: d * d for label, d in inst.blocks
    }
    want = sdp.solve(inst, 1e-7).primal_value
    assert abs(payload["primal_value"] - want) <= 1e-9 * max(1.0, abs(want))


def test_beta_nc_h1_witness_is_unitary():
    res = relaxations.beta_nc(games.h_game(1), 1e-7)
    for v in (res.witness["x"], res.witness["y"]):
        left, right = relaxations.vvm_products(v)
        assert np.abs(left - np.eye(v.n)).max() <= 1e-6
        assert np.abs(right - np.eye(v.n)).max() <= 1e-6
