"""The benchmark's workloads: items, input files and correctness references.

An item is one `xorq bias <game.json> --quantities ... --format json` call.
A plan is the ordered list of items one run executes; it depends only on
the workload name, the seed and the run length, never on how fast the
machine is, so two commits given the same arguments do the same work.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from xorq import games

WORKLOADS = ("paper-table", "random-ladder", "seesaw-large")

# Every report runs at the CLI's default gap tolerance. SLACK is the 4 * tol
# slack that check_chains and acceptance criterion 7 allow between values.
REPORT_TOL = 1e-6
SLACK = 4.0 * REPORT_TOL

LOWER_FIELDS = ("omega_lower", "omega_c_lower", "me_lower", "entangled_lower")
UPPER_FIELDS = ("beta_sdp", "beta_nc", "beta_os")

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


@dataclass(frozen=True)
class Item:
    """One report request. `ref` names its correctness reference."""

    ref: str
    game: str
    quantities: str
    restarts: int
    seed: int

    def argv(self, game_path: str, out_path: str) -> list[str]:
        return [
            "bias", game_path, "--quantities", self.quantities,
            "--restarts", str(self.restarts), "--seed", str(self.seed),
            "--tol", repr(REPORT_TOL), "--format", "json", "--out", out_path,
        ]


# --- paper-table ------------------------------------------------------------------
# Expected values, tolerances and comparison rules copied from
# cli.paper_table_rows and acceptance criterion 4 (beta_nc of H2). "abs" means
# |computed - expected| <= tolerance; "ge" means computed >= expected - tolerance.
# Rows that `xorq bias` cannot produce (the explicit 5/9 strategy of H1 and the
# closed forms of H2) are not part of this workload.

_R2 = math.sqrt(2.0) / 2.0
PAPER_ROWS = (
    ("CHSH", "beta_sdp", _R2, 1e-4, "abs"),
    ("CHSH", "omega_lower", 0.5, 1e-6, "abs"),
    ("CHSH", "omega_c_lower", _R2, 1e-3, "abs"),
    *(
        row
        for n in range(1, 5)
        for row in (
            (f"T{n}", "omega_lower", 1.0 / math.sqrt(n), 1e-3, "abs"),
            (f"T{n}", "beta_nc", 1.0 / math.sqrt(n), 1e-4, "abs"),
            (f"T{n}", "beta_os", 1.0, 1e-3, "abs"),
        )
    ),
    ("H1", "omega_lower", 0.4, 1e-3, "abs"),
    ("H1", "omega_c_lower", 0.4, 1e-3, "abs"),
    ("H1", "me_lower", 5.0 / 9.0, 1e-3, "ge"),
    ("H1", "beta_nc", 0.6, 1e-4, "abs"),
    ("H1", "beta_os", 0.6, 1e-4, "abs"),
    *((f"C{n}", "beta_os", 1.0 / n, 1e-4, "abs") for n in range(2, 5)),
    *((f"C{n}xC{n}", "omega_lower", 1.0 / (2 * n), 1e-3, "ge") for n in range(2, 5)),
    ("H2", "beta_nc", 10.0 / 21.0, 5e-4, "abs"),
)

_FIELD_QUANTITY = {
    "beta_sdp": "beta-sdp",
    "omega_lower": "omega",
    "omega_c_lower": "omega-c",
    "me_lower": "me:3",  # only H1 asks for it, at d = 3
    "beta_nc": "beta-nc",
    "beta_os": "beta-os",
}
PAPER_RESTARTS = 50  # the CLI default, as `xorq report paper-table` uses
PAPER_PASS_S = 16.0  # one pass at the first recorded commit, 1 BLAS thread


def _paper_games() -> dict:
    out = {"CHSH": lambda: games.from_classical(games.chsh())}
    for n in range(1, 5):
        out[f"T{n}"] = lambda n=n: games.t_game(n)
    out["H1"] = lambda: games.h_game(1)
    for n in range(2, 5):
        out[f"C{n}"] = lambda n=n: games.c_game(n)
        out[f"C{n}xC{n}"] = lambda n=n: games.tensor_games(games.c_game(n), games.c_game(n))
    out["H2"] = lambda: games.h_game(2)
    return out


def _paper_items() -> list[Item]:
    fields: dict[str, list[str]] = {}
    for game, field, *_ in PAPER_ROWS:
        fields.setdefault(game, []).append(field)
    items = []
    for game, fs in fields.items():
        quantities = ",".join([_FIELD_QUANTITY[f] for f in fs] + ["chains"])
        items.append(Item(f"paper/{game}", game, quantities, PAPER_RESTARTS, 0))
    return items


# --- random-ladder ----------------------------------------------------------------
# A fixed pool of seeded random games; a run draws its games from the pool, so
# every game it can meet has a value recorded in references.json. As in
# acceptance criterion 7, n alternates between 2 and 3, and a run draws as
# many games of each size.

LADDER = "omega,omega-c,me:2,ent:2x2,beta-nc,beta-os,chains"
LADDER_RESTARTS = 4  # as acceptance criterion 7
POOL_SIZE = 45
POOL_SEED = 4000
LADDER_ITEMS_PER_S = 2.0


def pool_n(j: int) -> int:
    return 2 + j % 2


def random_game_matrix(n: int, seed: int) -> np.ndarray:
    """Random Hermitian n^2 x n^2 matrix with trace norm 1 (the generator
    of the acceptance tests, kept here so the benchmark owns its inputs)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    m = (z + z.conj().T) / 2
    return m / float(np.sum(np.linalg.svd(m, compute_uv=False)))


def _pool_games() -> dict:
    return {
        f"pool{j:03d}": lambda j=j: games.validate(
            random_game_matrix(pool_n(j), POOL_SEED + j), pool_n(j)
        )
        for j in range(POOL_SIZE)
    }


def _pool_item(j: int) -> Item:
    return Item(f"random-ladder/pool{j:03d}", f"pool{j:03d}", LADDER, LADDER_RESTARTS, 0)


# --- seesaw-large -----------------------------------------------------------------
# Heuristic quantities only, each game at restart seeds 0, 1, ...; the values
# for restart seeds 0..SEESAW_SEEDS-1 are recorded. Two restarts per report
# keep a report near a second, so a run holds enough distinct reports for a
# tail percentile with ten reports beyond it.

SEESAW_GAMES = (
    ("C2xC2", "omega,omega-c,me:2,ent:2x2"),
    ("C3xC3", "omega,omega-c,me:2,ent:2x1"),
    ("T5", "omega,omega-c,me:4,ent:3x3"),
    ("H1", "omega,omega-c,me:3,ent:3x3"),
)
SEESAW_RESTARTS = 2
SEESAW_SEEDS = 8
SEESAW_PASS_S = 1.8  # all four games once, 1 BLAS thread


def _seesaw_games() -> dict:
    return {
        "C2xC2": lambda: games.tensor_games(games.c_game(2), games.c_game(2)),
        "C3xC3": lambda: games.tensor_games(games.c_game(3), games.c_game(3)),
        "T5": lambda: games.t_game(5),
        "H1": lambda: games.h_game(1),
    }


def _seesaw_item(game: str, quantities: str, r: int) -> Item:
    return Item(f"seesaw-large/{game}/r{r}", game, quantities, SEESAW_RESTARTS, r)


# --- plans ------------------------------------------------------------------------

# Every item runs REPEATS times, once per pass, and each pass has its own seeded
# order, so the repeats of an item are far apart in time. The machine's speed
# varies by tens of percent over seconds when other load shares it; the
# fastest repeat is the least disturbed one.
REPEATS = 2


@dataclass(frozen=True)
class Plan:
    workload: str
    builders: dict  # game name -> zero-argument builder of a GameMatrix
    warmup: Item  # the fixed first call of set-up; never measured
    items: list  # the distinct items, each run once per pass
    passes: list  # REPEATS orderings of `items`


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    """The items of one run, ordered by `seed` and sized by `seconds`."""
    rng = np.random.default_rng(seed)
    if workload == "paper-table":
        items = _paper_items()
        builders, warmup = _paper_games(), items[0]
    elif workload == "random-ladder":
        n_items = min(POOL_SIZE, max(12, round(seconds * LADDER_ITEMS_PER_S / REPEATS)))
        by_n = {n: [j for j in range(POOL_SIZE) if pool_n(j) == n] for n in (2, 3)}
        n3 = n_items // 2
        chosen = list(rng.choice(by_n[2], n_items - n3, replace=False))
        chosen += list(rng.choice(by_n[3], n3, replace=False))
        items = [_pool_item(int(j)) for j in chosen]
        warmup = _pool_item(0)
        builders = {k: v for k, v in _pool_games().items()
                    if k in {it.game for it in items} | {warmup.game}}
    elif workload == "seesaw-large":
        # The restart seeds are fixed, not drawn: the C2xC2 report alone
        # ranges from 0.18 s to 0.48 s across seeds, which would swamp the spread.
        n_seeds = min(SEESAW_SEEDS, max(2, round(seconds / (REPEATS * SEESAW_PASS_S))))
        items = [_seesaw_item(g, q, r) for r in range(n_seeds) for g, q in SEESAW_GAMES]
        builders, warmup = _seesaw_games(), _seesaw_item(*SEESAW_GAMES[-1], 0)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    passes = [[items[i] for i in rng.permutation(len(items))] for _ in range(REPEATS)]
    return Plan(workload, builders, warmup, items, passes)


def reference_set(workload: str) -> tuple[dict, list]:
    """Every game and every recorded item a run of `workload` can meet."""
    if workload == "paper-table":
        return _paper_games(), []
    if workload == "random-ladder":
        return _pool_games(), [_pool_item(j) for j in range(POOL_SIZE)]
    if workload == "seesaw-large":
        items = [_seesaw_item(g, q, r) for g, q in SEESAW_GAMES for r in range(SEESAW_SEEDS)]
        return _seesaw_games(), items
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(plan: Plan, directory: str) -> tuple[dict, dict]:
    """Build every game of the plan and write it as an xorq-game-v1 file.
    Returns ({game: path}, {game: sha256 of the file})."""
    os.makedirs(directory, exist_ok=True)
    paths, hashes = {}, {}
    for name in sorted(plan.builders):
        data = json.dumps(games.game_to_dict(plan.builders[name]()), sort_keys=True).encode()
        path = os.path.join(directory, f"{name}.json")
        with open(path, "wb") as fh:
            fh.write(data)
        paths[name] = path
        hashes[name] = hashlib.sha256(data).hexdigest()
    return paths, hashes


def inputs_digest(hashes: dict) -> str:
    """One sha256 over every input file of a run, for comparing two commits."""
    digest = hashlib.sha256()
    for name in sorted(hashes):
        digest.update(f"{name}\0{hashes[name]}\n".encode())
    return digest.hexdigest()


# --- correctness ------------------------------------------------------------------


def load_references() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_report(item: Item, rep: dict, refs: dict) -> list[str]:
    """Reasons the report `rep` of `item` is wrong; empty when it is right."""
    problems = [
        f"hard chain failed: {c['label']}"
        for c in rep.get("chains", [])
        if c.get("hard") and not c.get("passed")
    ]
    if item.ref.startswith("paper/"):
        for game, field, expected, tolerance, compare in PAPER_ROWS:
            if game != item.game:
                continue
            got = rep.get(field)
            if got is None:
                problems.append(f"{field} missing")
            elif compare == "abs" and not abs(got - expected) <= tolerance:
                problems.append(f"{field}={got!r} not within {tolerance} of {expected!r}")
            elif compare == "ge" and not got >= expected - tolerance:
                problems.append(f"{field}={got!r} below {expected!r} - {tolerance}")
        return problems
    ref = refs.get(item.ref)
    if ref is None:
        return problems + [f"no recorded reference for {item.ref}"]
    for field in LOWER_FIELDS + UPPER_FIELDS:
        want = ref.get(field)
        if want is None:
            continue
        got = rep.get(field)
        if got is None:
            problems.append(f"{field} missing")
        elif field in LOWER_FIELDS and not got >= want - SLACK:
            problems.append(f"lower bound {field}={got!r} dropped below recorded {want!r}")
        elif field in UPPER_FIELDS and not abs(got - want) <= SLACK:
            problems.append(f"{field}={got!r} differs from recorded {want!r} by more than {SLACK}")
    return problems
