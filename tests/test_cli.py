import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import decreasing_sign_step, random_game
import xorq
from without_scipy import RefuseScipy
from xorq import cli, games, heuristics, relaxations, report, sdp


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


def test_cmd_game_invalid_name_exits_2(capsys):
    # An unknown game name, and the `sdp` command, which no longer exists.
    for argv in (["game", "--name", "nope"], ["sdp", "solve", "x.json"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2, argv
        assert "Traceback" not in capsys.readouterr().err, argv


def test_cmd_game_classical_file(tmp_path):
    path = tmp_path / "chsh_r.json"
    path.write_text(json.dumps({"r": games.chsh().tolist()}))
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


@pytest.mark.parametrize("param", ["8000", str(10**1200)], ids=["8000", "10^1200"])
@pytest.mark.parametrize("name", ["tn", "cn", "hn"])
def test_cmd_game_huge_family_index_exits_2(capsys, name, param):
    # No power or binomial of the index is formed: C(16001, 8000) and
    # 10^4800 have too many digits to print, and C(2 10^1200 + 1, 10^1200)
    # overflows.
    assert run(["game", "--name", name, "--param", param]) == cli.EXIT_ARGS
    assert "dense cap" in capsys.readouterr().err


def test_cmd_bias_restarts_beyond_the_dense_cap_exit_2(tmp_path, capsys, monkeypatch):
    def never(*args):  # without the check, fail here rather than draw 10^12 starts
        raise AssertionError("omega_lower ran")

    monkeypatch.setattr(heuristics, "omega_lower", never)
    path = tmp_path / "chsh.json"
    run(["game", "--name", "chsh", "--out", str(path)])
    argv = ["bias", str(path), "--quantities", "omega", "--restarts", "1000000000000"]
    assert run(argv) == cli.EXIT_ARGS
    assert "dense cap" in capsys.readouterr().err


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


def _count_factorizations(monkeypatch) -> list:
    """Record (name, shape) of every np.linalg.eigh, eigvalsh and svd call."""
    calls = []

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_bias_decomposes_the_game_by_components(tmp_path, monkeypatch):
    # Validation's trace-norm cap and the report's trace norm both read
    # GameMatrix.eigenvalues. C3xC3 splits into blocks of side at most 2, so
    # nothing factors its 256 x 256 M.
    path = tmp_path / "c3xc3.json"
    path.write_text(json.dumps(games.game_to_dict(
        games.tensor_games(games.c_game(3), games.c_game(3))
    )))
    calls = _count_factorizations(monkeypatch)
    g = games.load_game(path)
    assert calls and all(name == "eigvalsh" and shape[-1] <= 2 for name, shape in calls)
    cli.compute_report(g, [("omega", None), ("chains", None)], 1e-6, 2, 0, "c3xc3")
    assert not [c for c in calls if 256 in c[1]]


def test_one_component_game_takes_one_eigh_of_m(monkeypatch):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m = (m + m.conj().T) / 2
    m /= np.sum(np.abs(np.linalg.eigvalsh(m)))
    calls = _count_factorizations(monkeypatch)
    g = games.validate(m, 3)
    assert g.trace_norm <= 1.0 + games.TRACE_NORM_SLACK
    assert calls == [("eigvalsh", (9, 9))]


def test_scipy_stays_off_the_start_up_path(tmp_path):
    # No package path imports SciPy: under a finder that refuses it, the
    # three SDP relaxations, real and complex, and every heuristic class run.
    t2, chsh, random3 = (str(tmp_path / f"{name}.json") for name in ("t2", "chsh", "random3"))
    assert run(["game", "--name", "tn", "--param", "2", "--out", t2]) == 0
    assert run(["game", "--name", "chsh", "--out", chsh]) == 0
    Path(random3).write_text(json.dumps(games.game_to_dict(random_game(3, seed=7))))
    src = str(Path(xorq.__file__).resolve().parents[1])
    script = str(Path(__file__).with_name("without_scipy.py"))
    with pytest.raises(ModuleNotFoundError, match="scipy is refused"):
        RefuseScipy().find_spec("scipy.linalg")
    assert RefuseScipy().find_spec("scipyx") is None
    for argv in (
        ["bias", chsh, "--quantities", "beta-sdp"],
        ["bias", t2, "--quantities", "beta-nc,beta-os"],
        ["bias", random3, "--quantities", "beta-nc,beta-os"],
        ["bias", random3, "--quantities", "omega,omega-c,me:2,ent:2x2,chains", "--restarts", "2"],
    ):
        proc = subprocess.run(
            [sys.executable, script, *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, (argv, proc.stderr)


def test_cmd_bias_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["bias", str(bad)]) == cli.EXIT_ARGS
    missing = tmp_path / "missing.json"
    assert run(["bias", str(missing)]) == cli.EXIT_ARGS


@pytest.mark.parametrize("argv", [
    ["bias", "{dir}"],
    ["game", "--name", "matrix-file", "--file", "{dir}"],
    ["bias", "{game}", "--quantities", "beta-nc", "--out", "{dir}"],
], ids=["bias-game", "game-file", "bias-out"])
def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys, argv):
    game = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(game)])
    folder = tmp_path / "folder"
    folder.mkdir()
    capsys.readouterr()
    assert run([a.format(dir=folder, game=game) for a in argv]) == cli.EXIT_ARGS
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    # No .xorq-tmp-* file is left behind by the refused write.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "t1.json"]
    assert not any(folder.iterdir())


@pytest.mark.parametrize("quantity", ["me:x", "ent:2xy", "ent:x", "ent:2x"])
def test_cmd_bias_bad_dimension_exits_2(tmp_path, capsys, quantity):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    capsys.readouterr()
    assert run(["bias", str(path), "--quantities", quantity]) == cli.EXIT_ARGS
    err = capsys.readouterr().err
    assert "bad dimension" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "quantities, computed, code",
    [
        ("beta-nc,beta-nc", {"beta_nc": 1}, cli.EXIT_OK),
        ("me:2,beta-nc,me:2", {"me_lower": 1, "beta_nc": 1}, cli.EXIT_OK),
        ("ent:2,ent:2x2", {"me_lower": 1, "entangled_lower": 1}, cli.EXIT_OK),
        ("me:2,me:3,beta-nc", {}, cli.EXIT_ARGS),
        ("beta-nc,ent:2x1,ent:1x2", {}, cli.EXIT_ARGS),
    ],
)
def test_cmd_bias_computes_each_quantity_once(tmp_path, monkeypatch, capsys, quantities,
                                              computed, code):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    capsys.readouterr()
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(relaxations, "beta_nc", counting("beta_nc", relaxations.beta_nc))
    for name in ("me_lower", "entangled_lower"):
        monkeypatch.setattr(heuristics, name, counting(name, getattr(heuristics, name)))
    argv = ["bias", str(path), "--quantities", quantities, "--restarts", "2", "--format", "json"]
    assert run(argv) == code
    assert {name: calls.count(name) for name in set(calls)} == computed
    out, err = capsys.readouterr()
    if code == cli.EXIT_ARGS:
        assert "two dimensions" in err and "Traceback" not in err
    else:
        payload = json.loads(out)
        assert payload["me_d"] == (2 if quantities.startswith("me:") else None)


def test_cmd_bias_oversized_inputs_exit_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"format": "xorq-game-v1", "n": 400, "entries": []}))
    assert run(["bias", str(path), "--quantities", "omega"]) == cli.EXIT_ARGS
    t1 = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(t1)])
    for quantity in ("me:5000", "ent:2x9000"):
        assert run(["bias", str(t1), "--quantities", quantity]) == cli.EXIT_ARGS
    assert "dense cap" in capsys.readouterr().err
    # beta_os(T32) has side 4 * 33^2 = 4,356, above the cap's 4,096; beta_os
    # of a random game with n = 8 keeps every one of its 8,448 rows.
    t32, r8 = tmp_path / "t32.json", tmp_path / "r8.json"
    run(["game", "--name", "tn", "--param", "32", "--out", str(t32)])
    r8.write_text(json.dumps(games.game_to_dict(random_game(8, seed=3))))
    for path, what in ((t32, "side 4356"), (r8, "8448 rows kept")):
        assert run(["bias", str(path), "--quantities", "beta-os"]) == cli.EXIT_ARGS
        err = capsys.readouterr().err
        assert "dense cap" in err and what in err and "Traceback" not in err


def test_cmd_bias_byte_stable_output(tmp_path):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["bias", str(path), "--quantities", "omega,beta-nc", "--restarts",
            "4", "--format", "json"]
    run(args + ["--out", str(out1)])
    run(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_cmd_bias_text_and_csv_list_every_populated_field(tmp_path, capsys, fmt):
    path = tmp_path / "t2.json"
    run(["game", "--name", "tn", "--param", "2", "--out", str(path)])
    capsys.readouterr()
    argv = ["bias", str(path), "--quantities", "omega,me:2,ent:2x1,beta-nc", "--restarts", "2"]
    assert run(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert run(argv + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["quantity", "value"]
        values = dict(rows[1:])
        names = [name for name, _ in rows[1:] if not name.startswith("chain:")]
    else:
        head, _, chains = out.partition("chain checks:\n")
        assert head.splitlines()[0] == f"game: t2.json (n = {payload['n']})"
        values = dict(line.split(None, 1) for line in head.splitlines()[1:])
        names = [line.split()[0] for line in head.splitlines()[1:]]
        assert len(chains.splitlines()) == len(payload["chains"])
    # Field order; seed, restarts and tol are under cfg in the payload.
    populated = [f.name for f in dataclasses.fields(report.BiasReport)
                 if payload.get(f.name) is not None and f.name != "chains"]
    if fmt == "text":
        populated = populated[2:]  # game and n make the header line
    assert names == populated
    assert populated[-5:] == ["me_lower", "me_d", "entangled_lower", "entangled_dims", "beta_nc"]
    assert values["me_d"] == "2" and values["entangled_dims"] == "2x1"
    for name in ("trace_norm", "omega_lower", "me_lower", "entangled_lower", "beta_nc"):
        # 12 significant digits: each value reads back as the payload's.
        assert float(values[name]) == payload[name]
    if fmt == "csv":
        assert [values[f"chain:{c['label']}"] for c in payload["chains"]] == [
            "pass" if c["passed"] else "fail" for c in payload["chains"]
        ]


def test_schema_tables_name_report_fields():
    fields = {f.name for f in dataclasses.fields(report.BiasReport)}
    assert set(report.QUANTITY_FIELDS.values()) <= fields
    for lhs, factor, rhs, label, hard in report.CHAINS:
        assert {lhs, rhs} <= fields and factor > 0 and isinstance(hard, bool)
        assert label.startswith(f"{lhs}<=") and label.endswith(rhs)
    assert len({label for *_, label, _ in report.CHAINS}) == len(report.CHAINS)


def test_cmd_report_paper_table(tmp_path, monkeypatch, capsys):
    h2 = tuple(r for r in cli.PAPER_TABLE if r.game == "H2" and r.exact)
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


@pytest.mark.parametrize(
    "argv",
    [["bias", "{t1}", "--seed", "-1", "--restarts", "2"],
     ["report", "paper-table", "--seed", "-1", "--out", "{out}"]],
    ids=["bias", "paper-table"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    t1 = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(t1)])
    out = tmp_path / "table"
    argv = [a.format(t1=t1, out=out) for a in argv]
    assert run(argv) == cli.EXIT_ARGS
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "table.json").exists()


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
def test_cmd_bias_non_finite_game_exits_2(tmp_path, bad):
    path = tmp_path / "t1.json"
    run(["game", "--name", "tn", "--param", "1", "--out", str(path)])
    data = json.loads(path.read_text())
    data["entries"][0]["re"] = bad
    path.write_text(json.dumps(data))
    assert run(["bias", str(path), "--quantities", "beta-nc"]) == cli.EXIT_ARGS


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("quantities", ["beta-nc,chains", "omega,chains"])
def test_cmd_bias_non_finite_tol_exits_2(tmp_path, capsys, tol, quantities):
    # An infinite tol once stopped beta_nc(T2) at 0.0249 and passed every
    # chain on its 4 * tol slack; a report without SDPs uses tol as that slack.
    path = tmp_path / "t2.json"
    run(["game", "--name", "tn", "--param", "2", "--out", str(path)])
    argv = ["bias", str(path), "--quantities", quantities, "--restarts", "1", "--tol", tol]
    assert run(argv) == cli.EXIT_ARGS
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_cmd_bias_seesaw_decrease_exits_4(tmp_path, monkeypatch, capsys):
    path = tmp_path / "h1.json"
    run(["game", "--name", "hn", "--param", "1", "--out", str(path)])
    monkeypatch.setattr(heuristics, "_sign_step", decreasing_sign_step())
    assert run(["bias", str(path), "--quantities", "omega"]) == cli.EXIT_SOLVER
    assert "see-saw failure: half-step decreased" in capsys.readouterr().err


def _nan_like(x):
    return np.full_like(x, np.nan)


def _nan_newton_step(real):
    """sdp._Triangular.solve with NaN from every call: every Newton solve
    (the Schur factor is its only user)."""

    def solve(self, rhs):
        return _nan_like(real(self, rhs))

    return solve


def _not_positive_definite(x):
    raise np.linalg.LinAlgError("matrix not positive definite")


# A non-finite iterate at the start leaves nothing to return. One after the
# start, or a failed factorization of Z, ends the solve with its best iterate
# (tests/test_sdp.py), which is no value of the relaxation: beta_nc(T2) once
# printed that iterate, 0, for 1/sqrt(2).
@pytest.mark.parametrize(
    "target,name,wrap,message",
    [
        (sdp, "_a_of", lambda real: lambda *a: _nan_like(real(*a)),
         "non-finite residual or mu at the start"),
        (sdp._Triangular, "solve", _nan_newton_step,
         "beta_nc solve ended with status 'stalled' at iteration 1"),
        (sdp, "_chol_psd", lambda real: _not_positive_definite,
         "beta_nc solve ended with status 'stalled' at iteration 1"),
    ],
    ids=["residual", "newton-step", "z-factor"],
)
def test_cmd_bias_non_finite_iterate_exits_4(
    tmp_path, monkeypatch, capsys, target, name, wrap, message
):
    path = tmp_path / "t2.json"
    run(["game", "--name", "tn", "--param", "2", "--out", str(path)])
    monkeypatch.setattr(target, name, wrap(getattr(target, name)))
    assert run(["bias", str(path), "--quantities", "beta-nc"]) == cli.EXIT_SOLVER
    assert f"solver failure: {message}" in capsys.readouterr().err
