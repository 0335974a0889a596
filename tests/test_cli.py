"""Command-line interface: records, exit codes, determinism, files."""

import json
import math

import pytest

from rbkit.cli import EXIT_ESCAPE, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, _emit, main


def write_params(tmp_path, name="params.json", **overrides):
    data = {"n": 3, "a": ["1", "0"], "b": "0", "c": ["0", "1"], "rho": "1"}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out):
    return [json.loads(line) for line in out.strip().split("\n")]


def test_verify_odd_dimension(tmp_path, capsys):
    path = write_params(tmp_path)
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", "3"])
    assert code == EXIT_PASS
    recs = records_of(out)
    assert [r["name"] for r in recs] == [
        "killing_residual",
        "rb_residual",
        "dual_form_not_closed",
        "dual_form_preserved",
        "contact_consistency",
    ]
    assert all(r["status"] == "pass" for r in recs)
    assert all(r["timing"] is None for r in recs)
    by_name = {r["name"]: r for r in recs}
    assert "lambda = 4" in by_name["rb_residual"]["witness"]
    assert "dw = " in by_name["dual_form_not_closed"]["witness"]
    assert "Pf = 1" in by_name["contact_consistency"]["witness"]


def test_verify_even_dimension_has_no_contact_check(tmp_path, capsys):
    path = write_params(tmp_path, **{"n": 2, "a": ["1"], "c": ["1"], "b": "1"})
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", "2"])
    assert code == EXIT_PASS
    assert [r["name"] for r in records_of(out)] == [
        "killing_residual",
        "rb_residual",
        "dual_form_not_closed",
        "dual_form_preserved",
    ]


def test_verify_zero_field_reports_degenerate(tmp_path, capsys):
    path = write_params(
        tmp_path, **{"n": 2, "a": ["0"], "b": "0", "c": ["0"], "rho": "1"}
    )
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", "0"])
    assert code == EXIT_PASS  # degenerate is not a failure
    by_name = {r["name"]: r for r in records_of(out)}
    assert by_name["dual_form_not_closed"]["status"] == "degenerate"


def test_verify_is_deterministic(tmp_path, capsys):
    path = write_params(tmp_path)
    _, out1, _ = run(capsys, ["verify", "--params", path, "--seed", "7"])
    _, out2, _ = run(capsys, ["verify", "--params", path, "--seed", "7"])
    assert out1 == out2


def test_verify_thread_cap_keeps_output_identical(tmp_path, capsys, monkeypatch):
    path = write_params(tmp_path)
    _, serial, _ = run(capsys, ["verify", "--params", path, "--trials", "6"])
    monkeypatch.setenv("RBKIT_THREADS", "4")
    _, threaded, _ = run(capsys, ["verify", "--params", path, "--trials", "6"])
    assert serial == threaded


def test_verify_timings_flag(tmp_path, capsys):
    path = write_params(tmp_path)
    _, out, _ = run(capsys, ["verify", "--params", path, "--trials", "0", "--timings"])
    assert all(isinstance(r["timing"], float) for r in records_of(out))


@pytest.mark.parametrize(
    "overrides",
    [
        {"a": ["0.5", "0"]},  # not a rational literal
        {"a": ["1"]},  # wrong length
        {"rho": "0"},  # zero rho
        {"n": 1, "a": [], "c": []},
        {"b": None},
    ],
)
def test_verify_param_file_errors(tmp_path, capsys, overrides):
    path = write_params(tmp_path, **overrides)
    code, out, err = run(capsys, ["verify", "--params", path])
    assert code == EXIT_USAGE
    assert "error" in err


def test_verify_missing_field(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "a": ["1"], "b": "0", "c": ["0"]}')
    code, out, err = run(capsys, ["verify", "--params", str(path)])
    assert code == EXIT_USAGE
    assert "rho" in err


def test_verify_json_syntax_error_reports_line(tmp_path, capsys):
    path = tmp_path / "syntax.json"
    path.write_text('{"n": 2,\n  "a": [}')
    code, out, err = run(capsys, ["verify", "--params", str(path)])
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_contact_command(tmp_path, capsys):
    path = write_params(tmp_path)
    code, out, err = run(capsys, ["contact", "--params", path])
    assert code == EXIT_PASS
    by_name = {r["name"]: r for r in records_of(out)}
    assert by_name["contact_matrix"]["witness"].startswith("M[i][j] = a_i*c_j - a_j*c_i")
    assert by_name["pfaffian"]["witness"] == "Pf = 1; det = 1"
    assert by_name["contact_verdict"]["witness"] == "contact = true"


def test_contact_rejects_even_dimension(tmp_path, capsys):
    path = write_params(tmp_path, **{"n": 2, "a": ["1"], "c": ["1"]})
    code, out, err = run(capsys, ["contact", "--params", path])
    assert code == EXIT_USAGE


def test_flow_command_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "G1", "--n", "3", "--point", "0,1,0",
         "--t-max", "1", "--dt", "0.001", "--out", str(out_path)],
    )
    assert code == EXIT_PASS
    assert "convention: boost" in out
    deviation = float(out.split("max_deviation_vs_closed_form: ")[1].split()[0])
    assert deviation <= 1e-8
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,cx1,cx2,cx3,err"
    assert len(lines) == 1002  # header + 1001 states
    last = [float(v) for v in lines[-1].split(",")]
    assert last[-1] <= 1e-8


def test_flow_dilation_final_point(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "D", "--n", "2", "--point", "0,1",
         "--t-max", "1", "--dt", "0.001", "--out", str(out_path)],
    )
    assert code == EXIT_PASS
    last = [float(v) for v in out_path.read_text().strip().split("\n")[-1].split(",")]
    assert abs(last[1]) < 1e-12 and abs(last[2] - math.e) < 1e-7


def test_flow_zero_time_single_row(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "T1", "--n", "2", "--point", "0,1",
         "--t-max", "0", "--dt", "0.001", "--out", str(out_path)],
    )
    assert code == EXIT_PASS
    assert len(out_path.read_text().strip().split("\n")) == 2


def test_flow_escape_exit_code_and_partial_file(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "G", "--n", "2", "--point", "2,0.00001",
         "--t-max", "1", "--dt", "0.001", "--out", str(out_path)],
    )
    assert code == EXIT_ESCAPE
    assert "escape" in out
    assert out_path.exists()
    assert len(out_path.read_text().strip().split("\n")) > 100


def test_flow_usage_errors(tmp_path, capsys):
    out_path = str(tmp_path / "t.csv")
    cases = [
        ["flow", "--gen", "Q7", "--n", "3", "--point", "0,0,1", "--out", out_path],
        ["flow", "--gen", "T1", "--n", "3", "--point", "0,1", "--out", out_path],
        ["flow", "--gen", "T1", "--n", "2", "--point", "0,-1", "--out", out_path],
        ["flow", "--gen", "G9", "--n", "3", "--point", "0,0,1", "--out", out_path],
        ["flow", "--gen", "T1", "--n", "2", "--point", "zero,1", "--out", out_path],
    ]
    for bad in ("nan", "inf", "-inf"):
        cases += [
            ["flow", "--gen", "G1", "--n", "2", f"--point={bad},1", "--out", out_path],
            ["flow", "--gen", "G1", "--n", "2", f"--point=0,{bad}", "--out", out_path],
            ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", f"--t-max={bad}", "--out", out_path],
            ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", f"--dt={bad}", "--out", out_path],
        ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == EXIT_USAGE, argv


def test_algebra_plane(capsys):
    code, out, err = run(capsys, ["algebra", "--n", "2"])
    assert code == EXIT_PASS
    by_name = {r["name"]: r for r in records_of(out)}
    assert "dimension = 3" in by_name["closure"]["witness"]
    assert "already_closed = true" in by_name["closure"]["witness"]
    assert by_name["sl2_fingerprint"]["status"] == "pass"


def test_algebra_three_dim_reports_escaping_bracket(capsys):
    code, out, err = run(capsys, ["algebra", "--n", "3"])
    assert code == EXIT_PASS
    by_name = {r["name"]: r for r in records_of(out)}
    closure = by_name["closure"]["witness"]
    assert "dimension = 6" in closure and "cap = 6" in closure
    assert "[T2,G1] = (-x2, x1, 0)" in closure
    assert "[T2,G1] = (-x2, x1, 0)" in by_name["bracket_table"]["witness"]
    assert "structure_constants" in by_name


def test_algebra_four_dim_seed_count_and_cap(capsys):
    code, out, err = run(capsys, ["algebra", "--n", "4"])
    assert code == EXIT_PASS
    by_name = {r["name"]: r for r in records_of(out)}
    assert len(by_name["generators"]["witness"].split("; ")) == 7  # 2n-1 seeds
    assert "cap = 10" in by_name["closure"]["witness"]


def test_algebra_range_checked(capsys):
    for n in ("1", "7"):
        code, _, err = run(capsys, ["algebra", "--n", n])
        assert code == EXIT_USAGE


def test_usage_error_on_unknown_command(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == EXIT_USAGE


def test_emit_flags_failures(capsys):
    records = [
        {"name": "a", "status": "pass", "witness": "", "timing": None},
        {"name": "b", "status": "fail", "witness": "boom", "timing": None},
    ]
    assert _emit(records) == EXIT_FAIL
    capsys.readouterr()
