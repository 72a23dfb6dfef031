"""Fuzz tests for the game and classical game file readers: on any small
JSON-like value, a reader returns or raises an XorqError, never another
exception."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from xorq import cli, errors, games  # noqa: E402
from xorq.errors import FormatError, XorqError  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=400, deadline=None, database=None)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)
    ),
    max_leaves=6,
)
# Numbers a reader must tell apart: in range, huge, tiny, non-finite.
numbers = st.one_of(
    st.floats(-1, 1),
    st.integers(-2, 2),
    st.sampled_from([1e308, -1.7e308, 1e-320, float("nan"), float("inf"), "0.5"]),
)
indices = st.integers(-2, 5)


def mostly(good):
    """`good` in about nine draws of ten, any JSON value otherwise."""
    return st.integers(0, 9).flatmap(lambda i: good if i else values)


def entry(**fields):
    return mostly(st.fixed_dictionaries({k: mostly(v) for k, v in fields.items()}))


game_dicts = mostly(
    st.fixed_dictionaries(
        {
            "format": mostly(st.just(games.GAME_FORMAT)),
            "n": mostly(st.sampled_from([2, 1, 3, 0])),
            "entries": mostly(
                st.lists(entry(r=indices, c=indices, re=numbers, im=numbers), max_size=6)
            ),
        }
    )
)

coefficients = mostly(st.lists(mostly(st.lists(numbers, max_size=3)), max_size=3))
classical_dicts = mostly(st.one_of(st.fixed_dictionaries({"r": coefficients}), coefficients))

@FUZZ
@given(game_dicts)
def test_game_reader_returns_or_raises_xorq_error(data):
    try:
        g = games.game_from_dict(data)
    except XorqError:
        return
    assert g.m.shape == (g.n * g.n, g.n * g.n) and np.all(np.isfinite(g.m))


@FUZZ
@given(classical_dicts)
def test_classical_reader_returns_or_raises_xorq_error(data):
    try:
        g = games.classical_game_from_dict(data)
    except XorqError:
        return
    assert g.m.shape == (g.n * g.n, g.n * g.n) and np.all(np.isfinite(g.m))


def _game(n=2, r=0, c=0):
    return {"format": games.GAME_FORMAT, "n": n,
            "entries": [{"r": r, "c": c, "re": 0.5, "im": 0.0}]}


# A fractional or boolean index was once truncated by int(): n = 2.9 read
# as n = 2, an entry at (0.5, 3.7) as one at (0, 3), (true, true) as (1, 1).
@pytest.mark.parametrize("data", [
    _game(n=2.9), _game(n=2.0), _game(n=True), _game(n="2"),
    _game(r=0.5, c=3.7), _game(r=0, c=3.0), _game(r=True, c=0), _game(r=None),
], ids=["n-fraction", "n-float", "n-bool", "n-string", "rc-fraction", "c-float",
        "r-bool", "r-null"])
def test_game_reader_refuses_non_integer_indices(data):
    with pytest.raises(FormatError, match="expected an integer"):
        games.game_from_dict(data)


def test_readers_take_integer_indices():
    assert games.game_from_dict(_game(r=3, c=3)).m[3, 3] == 0.5


# json.load raises a plain ValueError, not a JSONDecodeError, on an integer
# literal beyond Python's int-string limit (4,300 digits).
@pytest.mark.parametrize("command, data", [
    (["bias"], _game(n=12345)),
    (["game", "--name", "classical-file", "--file"], {"r": [[12345]]}),
], ids=["game-n", "classical-r"])
def test_readers_refuse_integer_literals_beyond_the_int_string_limit(
    tmp_path, capsys, command, data
):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data).replace("12345", "9" * 5001))
    assert cli.main(command + [str(path)]) == cli.EXIT_ARGS
    assert "invalid JSON" in capsys.readouterr().err


# Neither failure is a JSONDecodeError: the first is a UnicodeDecodeError,
# the second a RecursionError.
@pytest.mark.parametrize("raw", [b"\xff\xfe", b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
def test_readers_refuse_files_that_do_not_decode(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert cli.main(["bias", str(path)]) == cli.EXIT_ARGS
    assert "invalid JSON" in capsys.readouterr().err


def _game_value(re, im):
    return {"format": games.GAME_FORMAT, "n": 1,
            "entries": [{"r": 0, "c": 0, "re": re, "im": im}]}


# float() once read a JSON true as 1.0 and a string "0.5" as 0.5.
NOT_NUMBERS = [True, False, "0", "0.5", None, [0.5], {"x": 1}, float("nan"),
               float("inf"), 10**400]
NOT_NUMBER_IDS = ["true", "false", "string-0", "string-half", "null", "list", "dict",
                  "nan", "inf", "huge-int"]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_game_reader_refuses_values_that_are_not_json_numbers(bad):
    for re, im in ((bad, 0.0), (0.0, bad), (bad, "0")):
        with pytest.raises(FormatError):
            games.game_from_dict(_game_value(re, im))


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_classical_reader_refuses_values_that_are_not_json_numbers(bad):
    for data in ([[bad, 0.0], [0, 0]], {"r": [[0, 0], [0.0, bad]]}):
        with pytest.raises(FormatError):
            games.classical_game_from_dict(data)


def test_readers_take_json_integers_and_floats_as_values():
    assert games.game_from_dict(_game_value(1, 0)).m[0, 0] == 1.0
    assert games.game_from_dict(_game_value(-0.5, 0)).m[0, 0] == -0.5
    g = games.classical_game_from_dict([[1, 0], [0, 0]])
    assert g.m[0, 0] == 1.0 and g.m.dtype == complex
    assert errors.json_float(7) == 7.0 and type(errors.json_float(7)) is float
