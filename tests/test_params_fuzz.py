"""Grammar fuzzing of the ``--params`` file of ``rbkit verify`` and ``contact``.

Each draw starts from a valid parameter file with 2 <= n <= 5 and breaks it
in one way: JSON that is not an object, a missing key, a value of the wrong
type, a bad rational literal, a list of the wrong length, n < 2, rho = 0,
bytes that are not UTF-8, broken JSON syntax, JSON nested beyond the
recursion limit, or an integer literal beyond the int conversion limit.
Every draw must exit 64 with empty stdout and a ``parse error:`` line on
stderr, before any check runs.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from rbkit.cli import EXIT_PASS, EXIT_USAGE, main

KEYS = ("n", "a", "b", "c", "rho")
NOT_OBJECTS = ([], [1, 2], "params", 3, 2.5, None, True)
NOT_INTEGERS = ("3", 3.0, None, [3], {"n": 3}, 2.5)
NOT_LISTS = ("1,2", 1, None, {"0": "1"})
NOT_LITERALS = (1, 0.5, None, ["1"], {"p": 1}, True)
BAD_LITERALS = (
    "", " 1", "1 ", "+1", "--1", "1/0", "1/-2", "1/", "/2", "1.5", "1e3", "0x10",
    "1_000", "a", "nan", "inf", "٣", "1//2", "9" * 5000, "1/" + "7" * 5000,
)
ZERO_RHO = ("0", "-0", "0/7")
BAD_BYTES = (
    b"\xff\xfe{}",
    b'{"n": 3, "a": ["1", "0"], "b": "\xe9", "c": ["0", "1"], "rho": "1"}',
    b"\x80",
)
BAD_SYNTAX = (b"", b"{", b'{"n": 3,}', b"{'n': 3}", b'{"n": 3} {"n": 3}', b"[" * 100000)


def _rationals():
    return st.sampled_from(("0", "1", "-1", "1/2", "-3/4", "7"))


@st.composite
def valid_params(draw):
    n = draw(st.integers(2, 5))
    return {
        "n": n,
        "a": [draw(_rationals()) for _ in range(n - 1)],
        "b": draw(_rationals()),
        "c": [draw(_rationals()) for _ in range(n - 1)],
        "rho": draw(st.sampled_from(("1", "-2", "1/3"))),
    }


@st.composite
def malformed_file(draw) -> bytes:
    """The bytes of a parameter file that is wrong in exactly one way."""
    raw = draw(valid_params())
    n = raw["n"]
    kind = draw(st.sampled_from(
        ("not_object", "missing", "wrong_type", "bad_literal", "length", "small_n", "zero_rho",
         "bytes", "syntax", "huge_int")
    ))
    if kind == "not_object":
        raw = draw(st.sampled_from(NOT_OBJECTS))
    elif kind == "missing":
        del raw[draw(st.sampled_from(KEYS))]
    elif kind == "wrong_type":
        key = draw(st.sampled_from(KEYS + ("a[i]", "c[i]")))
        if key == "n":
            raw["n"] = draw(st.sampled_from(NOT_INTEGERS))
        elif key in ("a", "c"):
            raw[key] = draw(st.sampled_from(NOT_LISTS))
        elif key in ("b", "rho"):
            raw[key] = draw(st.sampled_from(NOT_LITERALS))
        else:
            raw[key[0]][draw(st.integers(0, n - 2))] = draw(st.sampled_from(NOT_LITERALS))
    elif kind == "bad_literal":
        literal = draw(st.sampled_from(BAD_LITERALS))
        key = draw(st.sampled_from(("a", "b", "c", "rho")))
        if key in ("a", "c"):
            raw[key][draw(st.integers(0, n - 2))] = literal
        else:
            raw[key] = literal
    elif kind == "length":
        key = draw(st.sampled_from(("a", "c")))
        length = draw(st.integers(0, 6).filter(lambda k: k != n - 1))
        raw[key] = ["1"] * length
    elif kind == "small_n":
        raw["n"] = draw(st.integers(-3, 1))
        raw["a"] = raw["c"] = ["1"] * max(raw["n"] - 1, 0)
    elif kind == "zero_rho":
        raw["rho"] = draw(st.sampled_from(ZERO_RHO))
    elif kind == "bytes":
        return draw(st.sampled_from(BAD_BYTES))
    elif kind == "syntax":
        return draw(st.sampled_from(BAD_SYNTAX))
    else:  # an integer literal beyond Python's int conversion limit
        return json.dumps(raw).replace(f'"n": {n}', '"n": ' + "1" * 5000).encode()
    return json.dumps(raw).encode()


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(malformed_file(), st.sampled_from((["verify", "--trials", "1"], ["contact"])))
def test_malformed_param_file_exits_64(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "params.json"
        path.write_bytes(data)
        code, out, err = _run(command + ["--params", str(path)])
    assert code == EXIT_USAGE, (data[:200], err)
    assert out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err


@settings(max_examples=10, deadline=None, derandomize=True)
@given(valid_params())
def test_unbroken_param_file_is_accepted(raw):
    # the fuzzer's starting point is valid, so each draw breaks one thing
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "params.json"
        path.write_text(json.dumps(raw))
        code, out, err = _run(["verify", "--params", str(path), "--trials", "0"])
    assert code == EXIT_PASS and err == ""
    assert len(out.splitlines()) == (5 if raw["n"] % 2 else 4)
