"""Grammar fuzzing of ``rbkit flow``: no argument vector ends in a traceback.

Each draw picks a generator name (valid or not), a dimension, a start point
of any arity with signed, zero, huge, non-finite and non-numeric entries, a
horizon and a step (each possibly missing, negative, non-finite or too
many steps), and a writable or unwritable ``--out``.  Options come in any
order, written as ``--opt value`` or ``--opt=value``.  Every draw must exit
0, 2 or 64; exit 64 leaves stdout empty and writes no CSV.  The valid
horizon and step pairs take at most 1000 RK4 steps.
"""

import contextlib
import io
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbkit.cli import EXIT_ESCAPE, EXIT_PASS, EXIT_USAGE, main

BAD_NAMES = ("T0", "T9", "Q7", "")
COORDS = ("0", "-0", "1", "-1", "0.5", "-2.5", "4")
LAST_COORDS = ("0", "-0", "1", "0.5", "4")  # on or above the boundary plane
BAD_COORDS = ("1e-300", "1e308", "-1e308", "nan", "inf", "-inf", "x")
T_MAX = ("0", "0.1", "0.5")
DT = ("1e-3", "0.01", "0.5")
BAD_T_MAX = ("-1", "1e300", "nan", "inf", "-inf")
BAD_DT = ("0", "-1e-3", "1e-300", "nan", "inf", "-inf")


@st.composite
def flow_argv(draw):
    """Each field is bad in about one draw of six, so every exit code is reached."""

    def bad():
        return draw(st.integers(0, 5)) == 0

    n = draw(st.integers(-1, 1) if bad() else st.integers(2, 6))
    valid = ["D", *(f"{kind}{k}" for kind in "TG" for k in range(1, n))] + (["G"] if n == 2 else [])
    arity = draw(st.integers(0, max(n, 0) + 1)) if bad() else max(n, 0)
    pool, last = (COORDS, LAST_COORDS) if not bad() else (COORDS + BAD_COORDS,) * 2
    point = [draw(st.sampled_from(pool)) for _ in range(arity - 1)]
    point += [draw(st.sampled_from(last))] if arity else []
    options = [
        ("--gen", draw(st.sampled_from(BAD_NAMES if bad() else valid))),
        ("--n", str(n)),
        ("--point", ",".join(point)),
        ("--out", draw(st.sampled_from(("{missing}", "{directory}"))) if bad() else "{file}"),
    ]
    for option, good, wrong in (("--t-max", T_MAX, BAD_T_MAX), ("--dt", DT, BAD_DT)):
        if not bad():  # left out, the default applies: 1000 steps when both are
            options.append((option, draw(st.sampled_from(wrong if bad() else good))))
    argv = []
    for option, value in draw(st.permutations(options)):
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    return argv


def _pole(gen, n, point):
    return example(["--gen", gen, "--n", n, "--point", point, "--t-max", "0.5", "--dt", "0.5", "--out", "{file}"])


# boundary-plane starts whose closed form reaches its pole exactly at a step:
# x' = x^2 (rotation) from 2 and x' = x^2 / 2 (boost) from 4 blow up at t = 1/2
@settings(max_examples=150, deadline=None, derandomize=True)
@given(flow_argv())
@_pole("G", "2", "2,0")
@_pole("G1", "3", "4,0,0")
@_pole("G2", "4", "0,4,0,-0")
def test_flow_argv_never_raises(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        csv = tmp / "t.csv"
        outs = {"file": csv, "missing": tmp / "missing" / "t.csv", "directory": tmp}
        argv = ["flow"] + [arg.format(**outs) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (EXIT_PASS, EXIT_ESCAPE, EXIT_USAGE), (argv, stderr.getvalue())
        if code == EXIT_USAGE:
            assert stdout.getvalue() == "" and not csv.exists(), argv
            assert stderr.getvalue().startswith(("usage error:", "parse error:")), stderr.getvalue()
        else:
            assert stdout.getvalue().startswith("convention: "), argv
        if code == EXIT_PASS:
            assert stdout.getvalue().splitlines()[-1].startswith("max_deviation_vs_closed_form: ")
            assert csv.exists()
