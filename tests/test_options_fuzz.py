"""Grammar fuzzing of the ``rbkit verify`` and ``rbkit algebra`` options.

Each draw builds an argument vector for one of the two commands from
``--params``, ``--trials``, ``--seed``, ``--n`` and ``--timings``, plus
unknown options, options of the other command, abbreviations, repeated
options, options left without their value, and values that are negative,
huge or not integers.  Every draw must exit 0, 1 or 64 without a traceback;
exit 64 leaves stdout empty and prints one ``usage error:`` or
``parse error:`` line.  A draw that can succeed keeps n <= 5 and at most
two trials, so the file runs in about two seconds.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from rbkit.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, MAX_PARAMS_N, MAX_TRIALS, main

TRIALS = ("0", "1", "2")
SEEDS = ("0", "7", "-3", "12345678901234567890")
ALGEBRA_N = ("2", "3", "4", "5")
BAD_INTEGERS = ("", "x", "1.5", "1e3", "0x10", "--", "nan")
BAD_TRIALS = ("-1", str(MAX_TRIALS + 1), "10" * 20)
BAD_ALGEBRA_N = ("1", "0", "-2", "10", "10" * 20)
UNKNOWN = ("--frob", "-x", "--trial=1", "--t", "--timings=1", "extra")


@st.composite
def options_argv(draw):
    """Each choice is bad in about one draw of eight, so both exit codes are reached."""

    def bad():
        return draw(st.integers(0, 7)) == 0

    command = draw(st.sampled_from(("verify", "algebra")))
    if command == "verify":
        # --trials is always given: its default of 25 would dwarf the rest
        options = [
            ("--params", "{missing}" if bad() else "{params}"),
            ("--trials", draw(st.sampled_from(BAD_TRIALS + BAD_INTEGERS if bad() else TRIALS))),
        ]
        if draw(st.booleans()):
            options.append(("--seed", draw(st.sampled_from(BAD_INTEGERS if bad() else SEEDS))))
        if bad():
            options.append(("--n", draw(st.sampled_from(ALGEBRA_N))))
    else:
        options = [("--n", draw(st.sampled_from(BAD_ALGEBRA_N + BAD_INTEGERS if bad() else ALGEBRA_N)))]
        if bad():
            options.append((draw(st.sampled_from(("--trials", "--seed", "--params"))), "1"))
    if draw(st.booleans()):
        options.append(("--timings", None))
    if bad():  # repeat one option; argparse keeps the last value
        options.append(draw(st.sampled_from(options)))
    argv = [command]
    for option, value in draw(st.permutations(options)):
        if value is None:
            argv.append(option)
        elif bad():  # the value is left out
            argv.append(option)
        elif draw(st.booleans()):
            argv.append(f"{option}={value}")
        else:
            argv += [option, value]
    if bad():
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(UNKNOWN)))
    return argv


@st.composite
def params_file(draw):
    n = MAX_PARAMS_N + 1 if draw(st.integers(0, 7)) == 0 else draw(st.integers(2, 5))
    return {
        "n": n,
        "a": [draw(st.sampled_from(("0", "1", "-1/2"))) for _ in range(n - 1)],
        "b": draw(st.sampled_from(("0", "1"))),
        "c": [draw(st.sampled_from(("0", "2", "1/3"))) for _ in range(n - 1)],
        "rho": "1",
    }


@settings(max_examples=120, deadline=None, derandomize=True)
@given(options_argv(), params_file())
def test_verify_and_algebra_argv_never_raise(argv, params):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "params.json"
        path.write_text(json.dumps(params))
        argv = [arg.format(params=path, missing=path.with_name("missing.json")) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE), (argv, err)
    if code == EXIT_USAGE:
        assert out == "", argv
        assert err.startswith(("usage error: ", "parse error: ")) and err.count("\n") == 1, (argv, err)
    else:
        assert err == "" and out, argv
        assert all(json.loads(line)["status"] in ("pass", "fail", "degenerate") for line in out.splitlines())
