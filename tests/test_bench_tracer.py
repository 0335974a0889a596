"""The benchmark tracer's hooks on ``flow``, ``verify`` and ``algebra``.

``bench/tracer.py`` wraps the public functions of rbkit and counts work
through hooks on ``flows.integrate`` (``len(states)``) and
``flows.write_trajectory_csv`` (the size of the file named by its first
argument).  These runs check that a traced command prints and writes the
bytes of the untraced one and that the hooks count what ran.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
ENTRY = "import sys; from rbkit.cli import main; sys.exit(main())"


def _run(cmd, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def _traced_and_plain(tmp_path, argv, csv=None):
    """(trace, CSV size) of a traced run whose exit code, stdout and CSV equal the untraced run's."""
    outcomes = []
    for name in ("plain", "traced"):
        work = tmp_path / name
        work.mkdir()
        (work / "params.json").write_text(json.dumps({"n": 3, "a": ["1", "0"], "b": "0", "c": ["0", "1"], "rho": "1"}))
        if name == "plain":
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(TRACER), str(work / "trace.json"), "0.0", "--", *argv]
        code, stdout = _run(cmd, work)
        outcomes.append((code, stdout, (work / csv).read_bytes() if csv else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0
    trace = json.loads((tmp_path / "traced" / "trace.json").read_text())
    return trace, len(outcomes[0][2]) if csv else None


def test_tracer_counts_the_flow_steps_and_csv_bytes(tmp_path):
    argv = ["flow", "--gen", "G2", "--n", "5", "--point", "1,0.5,0.2,0.1,1.5", "--t-max", "0.5", "--dt", "0.001"]
    trace, size = _traced_and_plain(tmp_path, [*argv, "--out", "traj.csv"], csv="traj.csv")
    assert trace["counts"]["flows.rk4_steps"] == 500
    assert trace["counts"]["flows.csv_bytes"] == size > 0
    assert trace["calls"]["flows.integrate"] == trace["calls"]["flows.write_trajectory_csv"] == 1


def test_tracer_counts_the_polynomials_of_verify(tmp_path):
    trace, _ = _traced_and_plain(tmp_path, ["verify", "--params", "params.json", "--trials", "1"])
    assert trace["calls"]["ratlaurent.init"] > 0
    assert trace["counts"]["flows.rk4_steps"] == 0


def test_tracer_counts_the_brackets_of_the_closure(tmp_path):
    trace, _ = _traced_and_plain(tmp_path, ["algebra", "--n", "3"])
    # the closure brackets each pair of the 6-dimensional so(3,1) once, through lie_bracket
    assert trace["calls"]["solitons.lie_bracket"] == 15
    # each of the 14 distinct component objects of the basis builds its 3 partials
    # through LaurentPoly.deriv, the method the tracer wraps
    assert trace["calls"]["ratlaurent.deriv"] == 42
