"""How an rbkit process ends: ``main()`` against ``main(argv)``, in fresh interpreters.

``main()`` (the ``rbkit`` script, ``python -m rbkit.cli``) runs the
``atexit`` callbacks, flushes stdout and stderr and ends the process with
``os._exit``; it keeps the normal exit under a tracer, a profiler or
``python -i``.  ``main(argv)`` returns the code.  Both must give the same
exit code and bytes, and a write that fails exits 74 with one stderr line.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import rbkit

SRC = str(pathlib.Path(rbkit.__file__).resolve().parents[1])
SCRIPT = "import sys; from rbkit.cli import main; sys.exit(main())"  # the `rbkit` script
IN_PROCESS = "import sys; from rbkit.cli import main; sys.exit(main(sys.argv[1:]))"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")


def run_python(args, cwd, stdout=subprocess.PIPE, unbuffered=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE)


# one case of each exit code the command line reaches
EXIT_CASES = [
    (0, ["algebra", "--n", "3"]),
    (2, ["flow", "--gen", "D", "--n", "2", "--point", "1.7e308,1", "--t-max", "0.001", "--dt", "0.001",
         "--out", "escape.csv"]),
    (64, ["algebra", "--n", "10"]),
    pytest.param(74, ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--out", "/dev/full"],
                 marks=needs_dev_full),
]


@pytest.mark.parametrize("code, argv", EXIT_CASES)
def test_script_and_in_process_main_agree(code, argv, tmp_path):
    seen = []
    for name, entry in (("script", SCRIPT), ("in_process", IN_PROCESS)):
        work = tmp_path / name
        work.mkdir()
        done = run_python(["-c", entry, *argv], work)
        csv = work / "escape.csv"
        seen.append((done.returncode, done.stdout, done.stderr, csv.read_bytes() if csv.exists() else None))
    assert seen[0] == seen[1]
    assert seen[0][0] == code, seen[0][2]


def test_atexit_callbacks_run_and_keep_the_code(tmp_path):
    probe = ("import atexit, sys; atexit.register(sys.stderr.write, 'callback ran\\n'); "
             "from rbkit.cli import main; sys.exit(main())")
    done = run_python(["-c", probe, "algebra", "--n", "10"], tmp_path)
    assert done.returncode == 64
    assert done.stderr.endswith(b"\ncallback ran\n"), done.stderr


def test_cprofile_still_prints_its_stats(tmp_path):
    # a profile function up to Python 3.11, a sys.monitoring tool from 3.12
    done = run_python(["-m", "cProfile", "-m", "rbkit.cli", "algebra", "--n", "2"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert b'"name": "sl2_fingerprint"' in done.stdout
    assert b"function calls" in done.stdout


@pytest.mark.parametrize("flag", [[], ["-i"]])
def test_a_trace_function_or_inspect_mode_gets_the_code_back(flag, tmp_path):
    probe = "import sys; from rbkit.cli import main\n"
    if not flag:
        probe += "sys.settrace(lambda frame, event, arg: None)\n"
    probe += "code = main()\nprint('main returned', code)\n"
    done = run_python([*flag, "-c", probe, "algebra", "--n", "10"], tmp_path)
    assert done.returncode == 0
    assert done.stdout.startswith(b"main returned 64\n"), done.stdout


@needs_dev_full
@pytest.mark.parametrize("entry", [SCRIPT, IN_PROCESS], ids=["script", "in_process"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_exits_74(entry, unbuffered, tmp_path):
    # buffered, the write fails at the flush; unbuffered, in the write itself.
    # A help that cannot be written ends so too, not in argparse's exit 0.
    for argv in (["algebra", "--n", "3"], ["--help"], ["flow", "--help"]):
        with open("/dev/full", "wb") as full:
            done = run_python(["-c", entry, *argv], tmp_path, stdout=full, unbuffered=unbuffered)
        assert done.returncode == 74, (argv, done.stderr)
        assert done.stderr.startswith(b"io error: stdout: [Errno 28]"), (argv, done.stderr)
        assert done.stderr.count(b"\n") == 1 and b"Traceback" not in done.stderr, (argv, done.stderr)


def test_stdout_to_a_closed_pipe_exits_74(tmp_path):
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_python(["-c", SCRIPT, "algebra", "--n", "6"], tmp_path, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 74, done.stderr
    assert done.stderr.startswith(b"io error: stdout: [Errno 32]"), done.stderr
    assert done.stderr.count(b"\n") == 1
