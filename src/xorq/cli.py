"""Command-line front end.

Subcommands:

  xorq game --name tn --param 3 --out t3.json       write a game file
  xorq bias t3.json --quantities omega,beta-nc      compute quantities
  xorq report paper-table --out table               reproduce the value table
  xorq sdp solve inst.json --tol 1e-8               raw solver access

Progress goes to stderr; stdout carries exactly the report payload. Output
files are written via temp-and-rename, with floats fixed to 12 significant
digits so identical inputs give identical bytes. Exit codes: 0 success,
2 argument/parse errors, 3 chain-check or table failures, 4 solver
failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import games, heuristics, relaxations, sdp, strategies
from .errors import FormatError, SdpError, SeesawError, XorqError
from .linalg import trace_norm
from .report import BiasReport

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_CHECK = 3
EXIT_SOLVER = 4


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def _json_bytes(obj) -> bytes:
    return (json.dumps(_round12(obj), sort_keys=True, indent=2) + "\n").encode()


def _atomic_write(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".xorq-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(payload: bytes, out: str | None):
    if out:
        _atomic_write(out, payload)
    else:
        sys.stdout.write(payload.decode())


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


# --- game construction ----------------------------------------------------------


def _build_game(args) -> games.GameMatrix:
    name = args.name
    if name == "chsh":
        return games.from_classical(games.chsh())
    if name in ("tn", "hn", "cn"):
        if args.param is None:
            raise FormatError(f"--name {name} requires --param")
        n = int(args.param)
        return {"tn": games.t_game, "hn": games.h_game, "cn": games.c_game}[name](n)
    if name == "classical-file":
        if not args.file:
            raise FormatError("--name classical-file requires --file")
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        r = np.asarray(data["r"] if isinstance(data, dict) else data, dtype=float)
        return games.from_classical(games.ClassicalGame(n=r.shape[0], r=r))
    if name == "matrix-file":
        if not args.file:
            raise FormatError("--name matrix-file requires --file")
        return games.load_game(args.file)
    if name == "tensor":
        if not (args.file and args.file2):
            raise FormatError("--name tensor requires --file and --file2")
        return games.tensor_games(games.load_game(args.file), games.load_game(args.file2))
    raise FormatError(f"unknown game name {name!r}")


def cmd_game(args) -> int:
    g = _build_game(args)
    payload = _json_bytes(games.game_to_dict(g))
    _emit(payload, args.out)
    return EXIT_OK


# --- bias reports ----------------------------------------------------------------


def _classical_from_diagonal(g: games.GameMatrix) -> games.ClassicalGame:
    off = g.m - np.diag(np.diag(g.m))
    if np.linalg.norm(off) > 1e-10 or np.linalg.norm(np.imag(np.diag(g.m))) > 1e-10:
        raise FormatError("beta-sdp requires a diagonal (classical) game matrix")
    r = np.real(np.diag(g.m)).reshape(g.n, g.n)
    return games.ClassicalGame(n=g.n, r=r)


def _parse_quantities(spec: str):
    out = []
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("me:"):
            out.append(("me", int(raw[3:])))
        elif raw.startswith("ent:"):
            da, _, db = raw[4:].partition("x")
            out.append(("ent", (int(da), int(db or da))))
        elif raw in ("omega", "omega-c", "beta-sdp", "beta-nc", "beta-os", "chains"):
            out.append((raw, None))
        else:
            raise FormatError(f"unknown quantity {raw!r}")
    return out


def compute_report(
    g: games.GameMatrix,
    quantities,
    tol: float,
    restarts: int,
    seed: int,
    name: str = "game",
) -> BiasReport:
    ladder = heuristics.Ladder(g, heuristics.OptimizerConfig(restarts=restarts, seed=seed))
    rep = BiasReport(
        game=name, n=g.n, seed=seed, restarts=restarts, tol=tol,
        trace_norm=trace_norm(g.m),
    )
    for kind, param in quantities:
        t0 = time.monotonic()
        if kind == "omega":
            rep.omega_lower = ladder.omega().value
        elif kind == "omega-c":
            rep.omega_c_lower = ladder.omega_c().value
        elif kind == "me":
            rep.me_d = param
            rep.me_lower = ladder.me(param).value
        elif kind == "ent":
            rep.entangled_dims = param
            rep.entangled_lower = ladder.entangled(*param).value
        elif kind == "beta-sdp":
            rep.beta_sdp = relaxations.beta_sdp(_classical_from_diagonal(g), tol).value
        elif kind == "beta-nc":
            rep.beta_nc = relaxations.beta_nc(g, tol).value
        elif kind == "beta-os":
            rep.beta_os = relaxations.beta_os(g, tol).value
        elif kind == "chains":
            continue  # always evaluated below
        rep.runtimes[_quantity_label(kind, param)] = time.monotonic() - t0
        _log(f"{name}: {_quantity_label(kind, param)} done in {rep.runtimes[_quantity_label(kind, param)]:.2f}s")
    rep.chains = relaxations.check_chains(g, rep, tol)
    return rep


def _quantity_label(kind, param) -> str:
    if kind == "me":
        return f"me:{param}"
    if kind == "ent":
        return f"ent:{param[0]}x{param[1]}"
    return kind


def _report_text(rep: BiasReport) -> str:
    buf = io.StringIO()
    print(f"game: {rep.game} (n = {rep.n})", file=buf)
    print(f"trace_norm      {rep.trace_norm:.12g}", file=buf)
    rows = [
        ("omega_lower", rep.omega_lower),
        ("omega_c_lower", rep.omega_c_lower),
        (f"me_lower(d={rep.me_d})" if rep.me_d else "me_lower", rep.me_lower),
        ("entangled_lower", rep.entangled_lower),
        ("beta_sdp", rep.beta_sdp),
        ("beta_nc", rep.beta_nc),
        ("beta_os", rep.beta_os),
    ]
    for label, val in rows:
        if val is not None:
            print(f"{label:<15} {val:.12g}", file=buf)
    if rep.chains:
        print("chain checks:", file=buf)
        for c in rep.chains:
            mark = "ok" if c.passed else "FAIL"
            kind = "hard" if c.hard else "soft"
            print(
                f"  [{mark}] ({kind}) {c.label}: {c.lhs:.9g} vs {c.rhs:.9g}", file=buf
            )
    return buf.getvalue()


def _report_csv(rep: BiasReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "value"])
    data = rep.to_dict()
    for key in (
        "game", "n", "trace_norm", "omega_lower", "omega_c_lower", "me_lower",
        "entangled_lower", "beta_sdp", "beta_nc", "beta_os",
    ):
        val = data[key]
        if val is not None:
            writer.writerow([key, _round12(val) if isinstance(val, float) else val])
    for c in rep.chains:
        writer.writerow(
            [f"chain:{c.label}", "pass" if c.passed else "fail"]
        )
    return buf.getvalue()


def cmd_bias(args) -> int:
    g = games.load_game(args.game)
    quantities = _parse_quantities(args.quantities)
    rep = compute_report(
        g, quantities, args.tol, args.restarts, args.seed,
        name=os.path.basename(args.game),
    )
    if args.format == "json":
        payload = _json_bytes(rep.to_dict())
    elif args.format == "csv":
        payload = _report_csv(rep).encode()
    else:
        payload = _report_text(rep).encode()
    _emit(payload, args.out)
    hard_failures = [c for c in rep.chains if c.hard and not c.passed]
    if hard_failures:
        for c in hard_failures:
            _log(f"hard chain check failed: {c.label} ({c.lhs:.9g} vs {c.rhs:.9g})")
        return EXIT_CHECK
    return EXIT_OK


# --- paper value table --------------------------------------------------------------


def paper_table_rows(tol: float, restarts: int, seed: int) -> list[dict]:
    """Computed-versus-expected rows for the named families.

    Comparison "abs" checks |computed - expected| <= tolerance; "ge" checks
    computed >= expected - tolerance.
    """
    cfg = heuristics.OptimizerConfig(restarts=restarts, seed=seed)
    rows = []

    def row(game, quantity, computed, expected, tolerance, compare="abs"):
        if compare == "abs":
            ok = abs(computed - expected) <= tolerance
        else:
            ok = computed >= expected - tolerance
        rows.append(
            {
                "game": game,
                "quantity": quantity,
                "computed": float(computed),
                "expected": float(expected),
                "tolerance": tolerance,
                "compare": compare,
                "pass": bool(ok),
            }
        )
        _log(f"paper-table {game} {quantity}: {computed:.8f} vs {expected:.8f} "
             f"({'pass' if ok else 'FAIL'})")

    chsh = heuristics.Ladder(games.from_classical(games.chsh()), cfg)
    row("CHSH", "beta_sdp", relaxations.beta_sdp(games.chsh(), tol).value,
        math.sqrt(2) / 2, 1e-4)
    row("CHSH", "omega_lower", chsh.omega().value, 0.5, 1e-6)
    row("CHSH", "omega_c_lower", chsh.omega_c().value, math.sqrt(2) / 2, 1e-3)

    for n in range(1, 5):
        tg = games.t_game(n)
        row(f"T{n}", "omega_lower", heuristics.omega_lower(tg, cfg).value,
            1 / math.sqrt(n), 1e-3)
        row(f"T{n}", "beta_nc", relaxations.beta_nc(tg, tol).value,
            1 / math.sqrt(n), 1e-4)
        row(f"T{n}", "beta_os", relaxations.beta_os(tg, tol).value, 1.0, 1e-3)

    hg = games.h_game(1)
    h1 = heuristics.Ladder(hg, cfg)
    row("H1", "omega_lower", h1.omega().value, 0.4, 1e-3)
    row("H1", "omega_c_lower", h1.omega_c().value, 0.4, 1e-3)
    row("H1", "me_lower(d=3)", h1.me(3).value, 5 / 9, 1e-3, compare="ge")
    row("H1", "explicit_5_9_bias", strategies.bias(hg, strategies.h1_me_strategy()),
        5 / 9, 1e-9)
    row("H1", "beta_nc", relaxations.beta_nc(hg, tol).value, 0.6, 1e-4)
    row("H1", "beta_os", relaxations.beta_os(hg, tol).value, 0.6, 1e-4)

    for n in range(2, 5):
        cg = games.c_game(n)
        row(f"C{n}", "beta_os", relaxations.beta_os(cg, tol).value, 1 / n, 1e-4)
        doubled = games.tensor_games(cg, cg)
        row(f"C{n}xC{n}", "omega_lower", heuristics.omega_lower(doubled, cfg).value,
            1 / (2 * n), 1e-3, compare="ge")

    om2, nc2 = relaxations.h_n_closed_forms(2)
    row("H2", "closed_form_omega", float(om2), float(Fraction(2, 7)), 0.0)
    row("H2", "closed_form_beta_nc", float(nc2), float(Fraction(10, 21)), 0.0)
    return rows


def cmd_report_paper_table(args) -> int:
    rows = paper_table_rows(args.tol, args.restarts, args.seed)
    base = args.out or "paper_table"
    json_payload = _json_bytes({"format": "xorq-paper-table-v1", "rows": rows})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["game", "quantity", "computed", "expected", "tolerance",
                     "compare", "pass"])
    for r in rows:
        writer.writerow([
            r["game"], r["quantity"], f"{r['computed']:.12g}",
            f"{r['expected']:.12g}", f"{r['tolerance']:.12g}", r["compare"],
            "pass" if r["pass"] else "fail",
        ])
    _atomic_write(base + ".json", json_payload)
    _atomic_write(base + ".csv", buf.getvalue().encode())
    n_fail = sum(1 for r in rows if not r["pass"])
    sys.stdout.write(
        f"paper-table: {len(rows) - n_fail}/{len(rows)} rows pass; "
        f"wrote {base}.json and {base}.csv\n"
    )
    return EXIT_OK if n_fail == 0 else EXIT_CHECK


# --- raw solver access ----------------------------------------------------------------


def cmd_sdp_solve(args) -> int:
    inst = sdp.load_instance(args.instance)
    sol = sdp.solve(inst, args.tol)
    report = sdp.certify(inst, sol, args.tol)
    payload = {
        "primal_value": sol.primal_value,
        "dual_value": sol.dual_value,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "status": sol.status,
        "certify": {
            "passed": report.passed,
            "checks": [
                {"name": name, "value": value, "bound": bound, "ok": ok}
                for name, value, bound, ok in report.checks
            ],
        },
        "blocks": {
            label: [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
            for label, mat in sorted(sol.blocks.items())
        },
        "y": list(map(float, sol.y)),
    }
    _emit(_json_bytes(payload), args.out)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorq",
        description="Quantum XOR games: generators, bias heuristics, SDP relaxations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_game = sub.add_parser("game", help="generate a game file")
    p_game.add_argument("--name", required=True,
                        choices=["chsh", "tn", "hn", "cn", "classical-file",
                                 "matrix-file", "tensor"])
    p_game.add_argument("--param", type=int, help="family index n")
    p_game.add_argument("--file", help="input file (classical-file/matrix-file/tensor)")
    p_game.add_argument("--file2", help="second input file (tensor)")
    p_game.add_argument("--out", help="output path (default: stdout)")

    p_bias = sub.add_parser("bias", help="compute bias bounds and relaxations")
    p_bias.add_argument("game", help="xorq-game-v1 JSON file")
    p_bias.add_argument("--quantities",
                        default="omega,omega-c,beta-nc,beta-os,chains",
                        help="comma list: omega,omega-c,me:<d>,ent:<dA>x<dB>,"
                             "beta-sdp,beta-nc,beta-os,chains")
    _common_flags(p_bias)
    p_bias.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_bias.add_argument("--out", help="output path (default: stdout)")

    p_report = sub.add_parser("report", help="reproducible value tables")
    report_sub = p_report.add_subparsers(dest="report_kind", required=True)
    p_table = report_sub.add_parser("paper-table", help="named-family value table")
    _common_flags(p_table)
    p_table.add_argument("--out", help="output base path (default: paper_table)")

    p_sdp = sub.add_parser("sdp", help="raw solver access")
    sdp_sub = p_sdp.add_subparsers(dest="sdp_kind", required=True)
    p_solve = sdp_sub.add_parser("solve", help="solve an xorq-sdp-v1 instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--tol", type=float, default=1e-6)
    p_solve.add_argument("--out", help="output path (default: stdout)")
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "game":
            return cmd_game(args)
        if args.command == "bias":
            return cmd_bias(args)
        if args.command == "report":
            return cmd_report_paper_table(args)
        if args.command == "sdp":
            return cmd_sdp_solve(args)
        parser.error(f"unknown command {args.command!r}")
    except (FormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return EXIT_ARGS
    except SdpError as exc:
        _log(f"solver failure: {exc}")
        cert = getattr(exc, "certificate", None)
        if cert is not None:
            _log(f"certificate: {np.array2string(np.asarray(cert), precision=6)}")
        return EXIT_SOLVER
    except SeesawError as exc:
        _log(f"see-saw failure: {exc}")
        return EXIT_SOLVER
    except XorqError as exc:
        _log(f"error: {exc}")
        return EXIT_ARGS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
