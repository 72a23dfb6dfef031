import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from conftest import decreasing_sign_step
from xorq import cli, games, heuristics, relaxations, sdp
from xorq.errors import FormatError


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


def test_cmd_game_classical_file(tmp_path):
    path = tmp_path / "chsh_r.json"
    path.write_text(json.dumps({"r": games.chsh().r.tolist()}))
    out = tmp_path / "chsh.json"
    assert run(["game", "--name", "classical-file", "--file", str(path),
                "--out", str(out)]) == 0
    assert np.array_equal(games.load_game(out).m, games.from_classical(games.chsh()).m)


@pytest.mark.parametrize(
    "text",
    ['{"r": [[NaN, 0], [0, 0]]}', '{"r": [[0.5, 0], [0]]}', '{"x": 1}'],
    ids=["nan", "ragged", "no-r"],
)
def test_cmd_game_bad_classical_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "r.json"
    path.write_text(text)
    assert run(["game", "--name", "classical-file", "--file", str(path)]) == cli.EXIT_ARGS
    assert "error: " in capsys.readouterr().err


def test_cmd_game_oversized_family_exits_2(capsys):
    assert run(["game", "--name", "tn", "--param", "400"]) == cli.EXIT_ARGS
    assert "entries (> 2^24)" in capsys.readouterr().err


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


@pytest.mark.parametrize("quantity", ["me:x", "ent:2xy", "ent:x"])
def test_cmd_bias_bad_dimension_exits_2(tmp_path, capsys, quantity):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    capsys.readouterr()
    assert run(["bias", str(path), "--quantities", quantity]) == cli.EXIT_ARGS
    err = capsys.readouterr().err
    assert "bad dimension" in err and "Traceback" not in err


def test_cmd_bias_oversized_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": "xorq-game-v1", "n": 400, "entries": []}))
    assert run(["bias", str(path), "--quantities", "omega"]) == cli.EXIT_ARGS
    t1 = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(t1)])
    for quantity in ("me:5000", "ent:2x9000"):
        assert run(["bias", str(t1), "--quantities", quantity]) == cli.EXIT_ARGS
    assert "dense cap" in capsys.readouterr().err
    # beta_os(H2) has 20,400 constraints: a 20,401^2 Schur matrix.
    h2 = tmp_path / "h2.json"
    run(["game", "--name", "hn", "--param", "2", "--out", str(h2)])
    assert run(["bias", str(h2), "--quantities", "beta-os"]) == cli.EXIT_ARGS
    # Two blocks each under the cap, held as one matrix of side 6000.
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({
        "format": "xorq-sdp-v1",
        "blocks": [{"label": "a", "dim": 3000}, {"label": "b", "dim": 3000}],
        "objective": [],
        "constraints": [],
    }))
    assert run(["sdp", "solve", str(raw)]) == cli.EXIT_ARGS
    err = capsys.readouterr().err
    assert err.count("dense cap") == 2 and "Traceback" not in err


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


def test_cmd_report_paper_table(tmp_path, monkeypatch, capsys):
    h2 = tuple(r for r in cli.PAPER_TABLE if r.game == "H2")
    assert [r.quantity for r in h2] == ["closed_form_omega", "closed_form_beta_nc"]
    monkeypatch.setattr(cli, "PAPER_TABLE", h2)
    written = []
    for name in ("a", "b"):
        base = tmp_path / name
        assert run(["report", "paper-table", "--out", str(base)]) == 0
        assert capsys.readouterr().out == (
            f"paper-table: 2/2 rows pass; wrote {base}.json and {base}.csv\n"
        )
        written.append((tmp_path / f"{name}.json").read_bytes())
        written.append((tmp_path / f"{name}.csv").read_bytes())
    assert written[:2] == written[2:]
    rows = json.loads(written[0])["rows"]
    assert [(r["quantity"], r["pass"]) for r in rows] == [
        ("closed_form_omega", True), ("closed_form_beta_nc", True)
    ]

    monkeypatch.setattr(cli, "PAPER_TABLE", (dataclasses.replace(h2[0], expected=0.3), h2[1]))
    base = tmp_path / "c"
    assert run(["report", "paper-table", "--out", str(base)]) == cli.EXIT_CHECK
    rows = json.loads((tmp_path / "c.json").read_text())["rows"]
    assert [r["pass"] for r in rows] == [False, True]


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


def test_cmd_sdp_solve_huge_coefficients(tmp_path, capsys):
    # max 2e200 Re Z[0, 1] with a unit diagonal: solved scaled, mapped back.
    data = {
        "format": "xorq-sdp-v1",
        "blocks": [{"label": "z", "dim": 2}],
        "objective": [{"b": "z", "r": 0, "c": 1, "re": 1e200, "im": 0.0}],
        "constraints": [
            {"entries": [{"b": "z", "r": i, "c": i, "re": 1.0, "im": 0.0}], "rhs": 1.0}
            for i in (0, 1)
        ],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["sdp", "solve", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["primal_value"] == pytest.approx(2e200, rel=1e-6)
    assert payload["certify"]["passed"] is True


def test_cmd_sdp_solve_corrupted_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    assert run(["sdp", "solve", str(bad)]) == cli.EXIT_ARGS


@pytest.mark.parametrize("r", [1, -1])
def test_cmd_sdp_solve_objective_index_out_of_range_exits_2(tmp_path, capsys, r):
    data = {
        "format": "xorq-sdp-v1",
        "blocks": [{"label": "z", "dim": 1}],
        "objective": [{"b": "z", "r": r, "c": 0, "re": 1.0, "im": 0.0}],
        "constraints": [],
    }
    with pytest.raises(FormatError, match="out of range"):
        sdp.instance_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["sdp", "solve", str(path)]) == cli.EXIT_ARGS
    assert "Traceback" not in capsys.readouterr().err


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
