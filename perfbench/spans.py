"""Spans for the traced run, recorded by wrapping xorq's public functions.

Each traced function is replaced, in every xorq module that holds it, by a
wrapper that appends a span (name, start, end, parent, item, info) to an
in-memory list. Calls that a module makes to its own globals, such as
me_lower -> omega_lower, go through the replaced name and are caught too.
A function that no longer exists is listed in `Recorder.missing` and every
metric that needs it is reported missing; the run goes on.

Spans are written out only when the run ends (`Recorder.dump`).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# Span name -> (module, attribute). The span name is the layer metric prefix.
TRACED = {
    f"{mod}.{fn}": (f"xorq.{mod}", fn)
    for mod, fns in (
        ("games", ("chsh", "from_classical", "t_game", "h_game", "c_game",
                   "tensor_games", "validate", "game_to_dict", "load_game")),
        ("relaxations", ("beta_sdp", "beta_nc", "beta_os", "beta_sdp_instance",
                         "beta_nc_instance", "beta_os_instance", "check_chains")),
        ("sdp", ("solve",)),
        ("heuristics", ("omega_lower", "omega_c_lower", "me_lower", "entangled_lower",
                        "effective_operator_for_a", "effective_operator_for_b")),
        ("linalg", ("sign_of_hermitian", "polar_unitary", "permute_systems")),
        ("cli", ("compute_report",)),
    )
    for fn in fns
}

GAME_BUILD = ("games.chsh", "games.from_classical", "games.t_game", "games.h_game",
              "games.c_game", "games.tensor_games", "games.validate", "games.game_to_dict")
GAME_LOAD = ("games.load_game",)
BETAS = ("relaxations.beta_sdp", "relaxations.beta_nc", "relaxations.beta_os")
INSTANCES = ("relaxations.beta_sdp_instance", "relaxations.beta_nc_instance",
             "relaxations.beta_os_instance")
LOWERS = ("heuristics.omega_lower", "heuristics.omega_c_lower", "heuristics.me_lower",
          "heuristics.entangled_lower")
HALFSTEPS = ("heuristics.effective_operator_for_a", "heuristics.effective_operator_for_b")

ITEM = "bench.item"
SETUP = "bench.setup"

# Span fields.
NAME, START, END, PARENT, ITEM_ID, INFO = range(6)


def _info(name: str, result):
    """The counts a span keeps from its function's return value, or None
    when the result no longer has the expected fields."""
    if name == "sdp.solve":
        iters, status = getattr(result, "iterations", None), getattr(result, "status", None)
        return None if iters is None or status is None else (int(iters), status == "optimal")
    if name in INSTANCES:
        cons = getattr(result, "constraints", None)
        return None if cons is None else len(cons)
    if name in LOWERS:
        iters = getattr(result, "iterations_used", None)
        values = getattr(result, "restart_values", None)
        if iters is None or not values:
            return None
        best = max(values)
        return int(iters), len(values), sum(1 for v in values if v >= best - 1e-9)
    return True


class Recorder:
    """Installs the wrappers and keeps the spans of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.item = None
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self._wrapped = self._resolve()

    def _resolve(self) -> dict:
        wrapped = {}
        for name, (mod_name, attr) in TRACED.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if callable(fn):
                wrapped[name] = (fn, self._wrap(name, fn))
            else:
                self.missing.append(name)
        return wrapped

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[INFO] = _info(name, result)
            return result

        return traced

    def install(self):
        """Replace each traced function wherever an xorq module binds it."""
        originals = {id(fn): wrapper for fn, wrapper in self._wrapped.values()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xorq" or mod_name.startswith("xorq.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def span(self, name: str, item):
        return _Span(self, name, item)

    def dump(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "item": s[ITEM_ID],
                                     "info": s[INFO]}) + "\n")


class _Span:
    def __init__(self, rec: Recorder, name: str, item):
        self.rec, self.name, self.item = rec, name, item

    def __enter__(self):
        rec = self.rec
        rec.item = self.item
        self.span = [self.name, 0.0, 0.0, rec._open[-1] if rec._open else -1, self.item, True]
        rec._open.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.span[END] = time.perf_counter()
        self.rec._open.pop()
        self.rec.item = None
        return False


# --- per-layer metrics ---------------------------------------------------------------

PER_LAYER_UNITS = {
    "games.build_s": "s",
    "games.load_s": "s",
    "relaxations.compile_s": "s",
    "relaxations.constraints": "count",
    "relaxations.witness_s": "s",
    "sdp.solve_s": "s",
    "sdp.solves": "count",
    "sdp.iterations": "count",
    "sdp.uncertified": "count",
    "heuristics.lower_s": "s",
    "heuristics.omega_calls": "count",
    "heuristics.omega_c_calls": "count",
    "heuristics.me_calls": "count",
    "heuristics.ent_calls": "count",
    "heuristics.halfsteps": "count",
    "heuristics.halfstep_s": "s",
    "heuristics.iterations": "count",
    "heuristics.restart_yield": "ratio",
    "linalg.sign_s": "s",
    "linalg.sign_calls": "count",
    "linalg.polar_s": "s",
    "linalg.permute_s": "s",
    "relaxations.chains_s": "s",
    "cli.report_s": "s",
    "cli.io_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

# The traced functions each metric is computed from.
_NEEDS = {
    "games.build_s": GAME_BUILD + GAME_LOAD,
    "games.load_s": GAME_LOAD,
    "relaxations.compile_s": INSTANCES,
    "relaxations.constraints": INSTANCES,
    "relaxations.witness_s": BETAS + INSTANCES + ("sdp.solve",),
    "sdp.solve_s": ("sdp.solve",),
    "sdp.solves": ("sdp.solve",),
    "sdp.iterations": ("sdp.solve",),
    "sdp.uncertified": ("sdp.solve",),
    "heuristics.lower_s": LOWERS,
    "heuristics.omega_calls": ("heuristics.omega_lower",),
    "heuristics.omega_c_calls": ("heuristics.omega_c_lower",),
    "heuristics.me_calls": ("heuristics.me_lower",),
    "heuristics.ent_calls": ("heuristics.entangled_lower",),
    "heuristics.halfsteps": HALFSTEPS,
    "heuristics.halfstep_s": HALFSTEPS,
    "heuristics.iterations": LOWERS,
    "heuristics.restart_yield": LOWERS,
    "linalg.sign_s": ("linalg.sign_of_hermitian",),
    "linalg.sign_calls": ("linalg.sign_of_hermitian",),
    "linalg.polar_s": ("linalg.polar_unitary",),
    "linalg.permute_s": ("linalg.permute_systems",),
    "relaxations.chains_s": ("relaxations.check_chains",),
    "cli.report_s": ("cli.compute_report",),
    "cli.io_s": ("cli.compute_report",),
}


def layer_metrics(spans: list, missing: list) -> tuple[dict, list]:
    """Per-layer metrics over `spans`; returns (values, names not measurable).

    A layer's time is the duration of its outermost spans, so nested calls
    such as me_lower -> omega_lower are not counted twice. A self time is a
    span's duration minus the durations of its direct children.
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def has_ancestor(i: int, names) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def outer_time(names, exclude_under=()) -> float:
        within = set(names) | set(exclude_under)
        return sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if s[NAME] in names and not has_ancestor(i, within)
        )

    def of(names):
        return [s for s in spans if s[NAME] in names]

    solves = of(("sdp.solve",))
    lowers = of(LOWERS)
    instances = of(INSTANCES)
    values = {
        "games.build_s": outer_time(GAME_BUILD, exclude_under=GAME_LOAD),
        "games.load_s": outer_time(GAME_LOAD),
        "relaxations.compile_s": outer_time(INSTANCES),
        "relaxations.constraints": _total(instances, lambda info: info),
        "relaxations.witness_s": sum(
            (s[END] - s[START]) - child_time[i]
            for i, s in enumerate(spans)
            if s[NAME] in BETAS
        ),
        "sdp.solve_s": outer_time(("sdp.solve",)),
        "sdp.solves": len(solves),
        "sdp.iterations": _total(solves, lambda info: info[0]),
        "sdp.uncertified": _total(solves, lambda info: 0 if info[1] else 1),
        "heuristics.lower_s": outer_time(LOWERS),
        "heuristics.omega_calls": len(of(("heuristics.omega_lower",))),
        "heuristics.omega_c_calls": len(of(("heuristics.omega_c_lower",))),
        "heuristics.me_calls": len(of(("heuristics.me_lower",))),
        "heuristics.ent_calls": len(of(("heuristics.entangled_lower",))),
        "heuristics.halfsteps": len(of(HALFSTEPS)),
        "heuristics.halfstep_s": outer_time(HALFSTEPS),
        "heuristics.iterations": _total(lowers, lambda info: info[0]),
        "heuristics.restart_yield": _ratio(
            _total(lowers, lambda info: info[2]), _total(lowers, lambda info: info[1])
        ),
        "linalg.sign_s": outer_time(("linalg.sign_of_hermitian",)),
        "linalg.sign_calls": len(of(("linalg.sign_of_hermitian",))),
        "linalg.polar_s": outer_time(("linalg.polar_unitary",)),
        "linalg.permute_s": outer_time(("linalg.permute_systems",)),
        "relaxations.chains_s": outer_time(("relaxations.check_chains",)),
        "cli.report_s": outer_time(("cli.compute_report",)),
        "cli.io_s": sum(s[END] - s[START] for s in of((ITEM,))) - sum(
            s[END] - s[START]
            for s in of(("cli.compute_report",))
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == ITEM
        ),
    }
    gone = set(missing)
    unmeasurable = [
        name for name, needs in _NEEDS.items()
        if gone.intersection(needs) or values[name] is None
    ]
    for name in unmeasurable:
        values.pop(name, None)
    return values, unmeasurable


def _total(spans: list, field):
    """Sum of `field(info)`; None when any span lacks its info."""
    total = 0
    for s in spans:
        if s[INFO] is None:
            return None
        total += field(s[INFO])
    return total


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0
