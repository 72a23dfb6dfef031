"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with `pytest -s` to see them inline). Criteria follow the named game
families; the property criterion uses seeded random games.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import random_game
from constructions import (
    max_bias_upper_bound_tn,
    rank_one_to_xor,
    t_rank_one,
    trace_norm,
    xor_to_rank_one,
)
from dense import random_strategy
import rounding
from xorq import cli, games, heuristics, linalg, relaxations, strategies

CFG50 = heuristics.OptimizerConfig(restarts=50, seed=0)
TOL = 1e-6


def _criterion(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _paper_rows(*names):
    """The rows of the paper's value table for the named games, computed as
    `xorq report paper-table` computes them; each checks itself."""
    rows = [
        row
        for name in names
        for row in cli.paper_game_rows(name, TOL, CFG50.restarts, CFG50.seed)
    ]
    ok = all(row["pass"] for row in rows)
    detail = "; ".join(f"{r['game']} {r['quantity']}={r['computed']:.7f}" for r in rows)
    return ok, detail


def test_criterion_1_chsh():
    t0 = time.monotonic()
    ok, detail = _paper_rows("CHSH")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _criterion("criterion 1 (CHSH)", ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_2_t_family():
    t0 = time.monotonic()
    ok, detail = _paper_rows("T1", "T2", "T3", "T4")
    details = [detail]
    want = 1.0 / math.sqrt(5)
    nc = relaxations.beta_nc(games.t_game(5), TOL).value
    om = heuristics.omega_lower(games.t_game(5), CFG50).value
    ok &= abs(nc - want) <= 1e-4 and abs(om - want) <= 1e-3
    details.append(f"T5: nc={nc:.6f} om={om:.6f}")
    for n in range(1, 5):
        me = heuristics.Ladder(games.t_game(n), CFG50).me(n).value
        ok &= me <= 1.0 / math.sqrt(n) + 1e-4
        details.append(f"T{n}: me(d={n})={me:.6f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 180.0
    _criterion(
        "criterion 2 (T family)", ok, "; ".join(details) + f" ({elapsed:.1f}s)"
    )


def test_criterion_3_h1():
    t0 = time.monotonic()
    ok, detail = _paper_rows("H1")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    _criterion("criterion 3 (H1)", ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_4_h2():
    t0 = time.monotonic()
    ok, detail = _paper_rows("H2")
    om, nc_exact = relaxations.h_n_closed_forms(2)
    ok &= om == Fraction(2, 7) and nc_exact == Fraction(10, 21)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    _criterion(
        "criterion 4 (H2)",
        ok,
        f"{detail}; closed forms {om}, {nc_exact} exact; beta_os excluded at "
        f"this size ({elapsed:.1f}s)",
    )


def test_criterion_5_c_family():
    t0 = time.monotonic()
    ok, detail = _paper_rows(*(f"C{n}{x}" for n in range(2, 5) for x in ("", f"xC{n}")))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 180.0
    _criterion("criterion 5 (C family)", ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_6_normalization():
    corpus = (
        [(f"T{n}", games.t_game(n)) for n in range(1, 6)]
        + [(f"H{n}", games.h_game(n)) for n in (1, 2)]
        + [(f"C{n}", games.c_game(n)) for n in range(1, 5)]
        + [("CHSH", games.from_classical(games.chsh()))]
    )
    worst = max(abs(trace_norm(g.m) - 1.0) for _, g in corpus)
    ok = worst <= 1e-8
    _criterion("criterion 6 (normalization)", ok, f"max |trace_norm - 1| = {worst:.2e}")


def test_criterion_7_property_suite():
    t0 = time.monotonic()
    quantities = cli._parse_quantities("omega,omega-c,me:2,ent:2x2,beta-nc,beta-os,chains")
    ok = True
    worst_gap = 0.0
    bias_checks = 0
    for idx in range(50):
        n = 2 + (idx % 2)
        g = random_game(n, seed=4000 + idx)
        rep = cli.compute_report(g, quantities, TOL, restarts=4, seed=0, name=f"rand{idx}")
        ok &= all(c.passed for c in rep.chains if c.hard)
        ok &= rep.beta_os >= rep.beta_nc - 2e-4
        ok &= rep.beta_nc <= 1.0 + 1e-6 and rep.beta_os <= 1.0 + 1e-6
        slack = 4.0 * TOL
        ok &= rep.omega_lower <= rep.beta_nc + slack
        ok &= rep.omega_c_lower <= rep.beta_nc + slack
        ok &= rep.me_lower <= rep.beta_nc + slack
        ok &= rep.entangled_lower <= rep.beta_os + slack
        worst_gap = max(worst_gap, rep.beta_nc - rep.beta_os)
        for kind, dims in [
            ("unentangled", None),
            ("complex", None),
            ("maxent", 2),
            ("entangled", (2, 2)),
        ]:
            s = random_strategy(kind, g, dims, seed=idx)
            ok &= abs(strategies.bias(g, s)) <= rep.trace_norm + 1e-8
            bias_checks += 1
    elapsed = time.monotonic() - t0
    ok &= bias_checks == 200
    _criterion(
        "criterion 7 (property suite)",
        ok,
        f"50 games, {bias_checks} strategy biases, max(beta_nc - beta_os) = "
        f"{worst_gap:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_8_embezzlement():
    t0 = time.monotonic()
    ok = True
    details = []
    rows = {r.quantity: r for r in cli.PAPER_TABLE if r.game == "T2"}
    g = cli.PAPER_GAMES["T2"]()
    for d in (2, 3, 4):
        row = rows[f"embezzlement_bias(d={d})"]
        b = row.exact(g)
        # The strategy's private space: an ancilla qubit and d copies of C^3.
        bound = max_bias_upper_bound_tn(2, 2 * 3**d)
        ok &= row.passes(b) and b <= bound + 1e-9
        details.append(f"d={d}: bias={b:.9f} bound={bound:.6f}")
    elapsed = time.monotonic() - t0
    _criterion(
        "criterion 8 (embezzlement)", ok, "; ".join(details) + f" ({elapsed:.1f}s)"
    )


def test_criterion_9_rank_one_round_trips():
    ok = True
    worst = 0.0
    for seed in range(20):
        g = random_game(2, seed=7000 + seed)
        s_vals = np.linalg.svd(g.m, compute_uv=False)
        back = rank_one_to_xor(xor_to_rank_one(g))
        w = np.linalg.eigvalsh(back.m)
        pad = np.zeros(back.m.shape[0] - 2 * s_vals.size)
        want = np.sort(np.concatenate([s_vals / 2, -s_vals / 2, pad]))
        got = np.sort(w)
        err = float(np.max(np.abs(got - want)))
        worst = max(worst, err)
        ok &= err <= 1e-8
    for n in range(1, 5):
        w = np.linalg.eigvalsh(rank_one_to_xor(t_rank_one(n)).m)
        nonzero = np.sort(w[np.abs(w) > 1e-10])
        ok &= np.allclose(nonzero, [-0.5, 0.5], atol=1e-8)
        tw = np.linalg.eigvalsh(games.t_game(n).m)
        ok &= np.allclose(np.sort(tw[np.abs(tw) > 1e-10]), nonzero, atol=1e-8)
    _criterion(
        "criterion 9 (rank-one round trips)", ok, f"max spectrum error {worst:.2e}"
    )


def test_criterion_10_linalg_suite():
    rng = np.random.default_rng(31337)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(n, n + 3))
        a1 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        a2 = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        res = rounding.gsvd(a1, a2)
        pad = np.zeros((res.k, d - res.k))
        scale = max(1.0, np.linalg.norm(a1), np.linalg.norm(a2))
        ok &= np.linalg.norm(a1 @ res.u1 - res.r @ np.hstack([res.d1, pad])) <= 1e-7 * scale
        ok &= np.linalg.norm(a2 @ res.u2 - res.r @ np.hstack([res.d2, pad])) <= 1e-7 * scale
        ok &= np.linalg.norm(res.d1**2 + res.d2**2 - np.eye(res.k)) <= 1e-7

    from test_linalg import _check_proportional, _random_feasible_quad

    for _ in range(100):
        a1, a2, b1, b2 = _random_feasible_quad(rng)
        v1, v2 = rounding.proportionality_isometries(a1, a2, b1, b2)
        _check_proportional(a1, a2, b1, b2, v1, v2)

    def inversion_sign(perm):
        inv = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        return -1 if inv % 2 else 1

    for _ in range(1000):
        m = int(rng.integers(1, 10))
        perm = list(rng.permutation(m) + 1)
        ok &= linalg.permutation_sign(perm) == inversion_sign(perm)
    _criterion("criterion 10 (linear algebra suite)", ok, "100+100+1000 instances")


def test_criterion_11_documented_limits():
    # Exact omega*(H1) and the upper-bound certification of the maximally
    # entangled T value are out of desk scope. The suite asserts only the
    # sandwich: see-saw lower bounds meet the nc upper bound 1/sqrt(n).
    ok = True
    for n in (2, 3):
        nc = relaxations.beta_nc(games.t_game(n), TOL).value
        me = heuristics.Ladder(
            games.t_game(n), heuristics.OptimizerConfig(restarts=8, seed=0)
        ).me(n).value
        ok &= me <= nc + 4e-6 and nc - me <= 1e-3  # the sandwich pins the value
    _criterion(
        "criterion 11 (documented limits)",
        ok,
        "omega*(H1) and the maximally entangled T upper bound are recorded "
        "as externally known; sandwich assertions only",
    )
