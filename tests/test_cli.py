import json
import math

import numpy as np
import pytest

from conftest import decreasing_sign_step
from xorq import cli, games, heuristics, relaxations, sdp


def run(argv):
    return cli.main(argv)


def test_cmd_game_matches_generator(tmp_path, capsys):
    out = tmp_path / "t3.json"
    assert run(["game", "--name", "tn", "--param", "3", "--out", str(out)]) == 0
    g = games.load_game(out)
    assert np.allclose(g.m, games.t_game(3).m, atol=1e-10)


def test_cmd_game_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["game", "--name", "hn", "--param", "1", "--out", str(a)])
    run(["game", "--name", "hn", "--param", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cmd_game_chsh_is_classical_embedding(tmp_path):
    out = tmp_path / "chsh.json"
    assert run(["game", "--name", "chsh", "--out", str(out)]) == 0
    g = games.load_game(out)
    assert np.allclose(np.diag(g.m), [0.25, 0.25, 0.25, -0.25])


def test_cmd_game_tensor(tmp_path):
    c2 = tmp_path / "c2.json"
    run(["game", "--name", "cn", "--param", "2", "--out", str(c2)])
    out = tmp_path / "c2c2.json"
    assert run(
        ["game", "--name", "tensor", "--file", str(c2), "--file2", str(c2),
         "--out", str(out)]
    ) == 0
    g = games.load_game(out)
    want = games.tensor_games(games.c_game(2), games.c_game(2))
    assert np.allclose(g.m, want.m, atol=1e-10)


def test_cmd_game_requires_param():
    assert run(["game", "--name", "tn"]) == cli.EXIT_ARGS


def test_cmd_game_invalid_name_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["game", "--name", "nope"])
    assert err.value.code == 2


def test_cmd_bias_json_payload(tmp_path, capsys):
    path = tmp_path / "t2.json"
    run(["game", "--name", "tn", "--param", "2", "--out", str(path)])
    code = run(
        ["bias", str(path), "--quantities", "omega,beta-nc,beta-os,chains",
         "--restarts", "8", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["omega_lower"] - 1 / math.sqrt(2)) <= 1e-3
    assert abs(payload["beta_nc"] - 1 / math.sqrt(2)) <= 1e-3
    assert abs(payload["beta_os"] - 1.0) <= 1e-3
    assert all(c["passed"] for c in payload["chains"] if c["hard"])


def test_cmd_bias_beta_sdp_only_classical(tmp_path, capsys):
    path = tmp_path / "t2.json"
    run(["game", "--name", "tn", "--param", "2", "--out", str(path)])
    assert run(["bias", str(path), "--quantities", "beta-sdp"]) == cli.EXIT_ARGS
    chsh = tmp_path / "chsh.json"
    run(["game", "--name", "chsh", "--out", str(chsh)])
    code = run(
        ["bias", str(chsh), "--quantities", "beta-sdp", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["beta_sdp"] - math.sqrt(2) / 2) <= 1e-4


def test_cmd_bias_zero_game(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"format": "xorq-game-v1", "n": 2, "entries": []}))
    code = run(
        ["bias", str(path), "--quantities", "omega,omega-c,beta-nc,beta-os",
         "--restarts", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("omega_lower", "omega_c_lower", "beta_nc", "beta_os"):
        assert abs(payload[key]) <= 1e-6


def test_cmd_bias_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["bias", str(bad)]) == cli.EXIT_ARGS
    missing = tmp_path / "missing.json"
    assert run(["bias", str(missing)]) == cli.EXIT_ARGS


def test_cmd_bias_byte_stable_output(tmp_path):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["bias", str(path), "--quantities", "omega,beta-nc", "--restarts",
            "4", "--format", "json"]
    run(args + ["--out", str(out1)])
    run(args + ["--out", str(out2)])
    data = json.loads(out1.read_text())
    assert "runtimes" in data
    d1 = {k: v for k, v in data.items() if k != "runtimes"}
    d2 = {k: v for k, v in json.loads(out2.read_text()).items() if k != "runtimes"}
    assert d1 == d2


def test_cmd_sdp_solve(tmp_path, capsys):
    inst = sdp.SdpInstance(
        blocks=(("z", 1),),
        objective={"z": np.eye(1, dtype=complex)},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=1.0),
        ),
    )
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(sdp.instance_to_dict(inst)))
    assert run(["sdp", "solve", str(path), "--tol", "1e-8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["primal_value"] - 1.0) <= 1e-6
    assert payload["certify"]["passed"] is True


def test_cmd_sdp_solve_chsh_instance(tmp_path, capsys):
    inst = relaxations.beta_sdp_instance(games.chsh())
    path = tmp_path / "chsh_sdp.json"
    path.write_text(json.dumps(sdp.instance_to_dict(inst)))
    assert run(["sdp", "solve", str(path), "--tol", "1e-8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["primal_value"] - math.sqrt(2) / 2) <= 1e-6


def test_cmd_sdp_solve_corrupted_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    assert run(["sdp", "solve", str(bad)]) == cli.EXIT_ARGS


def test_cmd_sdp_solve_infeasible_exits_4(tmp_path, capsys):
    inst = sdp.SdpInstance(
        blocks=(("z", 1),),
        objective={"z": np.eye(1, dtype=complex)},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=1.0),
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=2.0),
        ),
    )
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(sdp.instance_to_dict(inst)))
    assert run(["sdp", "solve", str(path)]) == cli.EXIT_SOLVER


def test_no_partial_file_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.json"

    def boom(path, data):
        raise RuntimeError("disk full")

    # _atomic_write is exercised elsewhere; here ensure a failing compute
    # leaves nothing behind because writes happen only at the end
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = run(["bias", str(bad), "--out", str(target)])
    assert code == cli.EXIT_ARGS
    assert not target.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cmd_sdp_solve_non_finite_exits_2(tmp_path, bad):
    inst = sdp.SdpInstance(
        blocks=(("z", 1),),
        objective={"z": np.eye(1, dtype=complex)},
        constraints=(
            sdp.SdpConstraint(entries=(("z", 0, 0, 1.0 + 0.0j),), rhs=1.0),
        ),
    )
    data = sdp.instance_to_dict(inst)
    data["constraints"][0]["rhs"] = bad
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert run(["sdp", "solve", str(path)]) == cli.EXIT_ARGS


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_cmd_bias_non_finite_game_exits_2(tmp_path, bad):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    data = json.loads(path.read_text())
    data["entries"][0]["re"] = bad
    path.write_text(json.dumps(data))
    assert run(["bias", str(path), "--quantities", "beta-nc"]) == cli.EXIT_ARGS


def test_cmd_bias_witness_drift_exits_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    monkeypatch.setattr(relaxations, "nc_objective", lambda g, x, y: 123.0)
    assert run(["bias", str(path), "--quantities", "beta-nc"]) == cli.EXIT_SOLVER
    assert "drifted from solver value" in capsys.readouterr().err


def test_cmd_bias_seesaw_decrease_exits_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "h1.json"
    run(["game", "--name", "hn", "--param", "1", "--out", str(path)])
    monkeypatch.setattr(heuristics, "_sign_step", decreasing_sign_step())
    assert run(["bias", str(path), "--quantities", "omega"]) == cli.EXIT_SOLVER
    assert "see-saw failure: half-step decreased" in capsys.readouterr().err


def _nan_like(x):
    return np.full_like(x, np.nan)


@pytest.mark.parametrize(
    "target,name,wrap,message",
    [
        (sdp, "_a_of", lambda real: lambda *a: _nan_like(real(*a)),
         "non-finite residual or mu"),
        (sdp.scipy.linalg, "cho_solve",
         lambda real: lambda *a, **k: _nan_like(real(*a, **k)), "non-finite Newton step"),
    ],
    ids=["residual", "newton-step"],
)
def test_cmd_bias_non_finite_iterate_exits_4(
    tmp_path, monkeypatch, capsys, target, name, wrap, message
):
    path = tmp_path / "t2.json"
    run(["game", "--name", "tn", "--param", "2", "--out", str(path)])
    monkeypatch.setattr(target, name, wrap(getattr(target, name)))
    assert run(["bias", str(path), "--quantities", "beta-nc"]) == cli.EXIT_SOLVER
    assert f"solver failure: {message}" in capsys.readouterr().err
