"""Command-line interface: records, exit codes, determinism, files."""

import json
import math
import os
import time

import pytest

from rbkit import LaurentPoly, cli, exterior, flows, halfspace, ratlaurent, solitons
from rbkit.cli import (
    EXIT_ESCAPE,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_ALGEBRA_N,
    MAX_PARAMS_N,
    MAX_TRIALS,
    _emit,
    main,
)
from rbkit.flows import MAX_FLOW_N


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


CHECK_NAMES = [
    "killing_residual",
    "rb_residual",
    "dual_form_not_closed",
    "dual_form_preserved",
    "contact_consistency",
]


def test_verify_odd_dimension(tmp_path, capsys):
    path = write_params(tmp_path)
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", "3"])
    assert code == EXIT_PASS
    recs = records_of(out)
    assert [r["name"] for r in recs] == CHECK_NAMES
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
    assert [r["name"] for r in records_of(out)] == CHECK_NAMES[:-1]


def test_verify_rb_residual_fail_witness_at_a_shifted_lambda(tmp_path, capsys, monkeypatch):
    # the real check and its SymTensor2 witness, with lambda one above the forced 4
    forced = halfspace.soliton_lambda
    monkeypatch.setattr(halfspace, "soliton_lambda", lambda n, rho: forced(n, rho) + 1)
    path = write_params(tmp_path)
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", "0"])
    assert code == EXIT_FAIL
    by_name = {r["name"]: r for r in records_of(out)}
    assert by_name["killing_residual"]["status"] == "pass"
    assert by_name["rb_residual"]["status"] == "fail"
    assert by_name["rb_residual"]["witness"] == (
        "params: residual = [1,1] -2*x3^-2; [2,2] -2*x3^-2; [3,3] -2*x3^-2 at lambda = 5"
    )


def _verify_by_name(tmp_path, capsys, **params):
    code, out, err = run(capsys, ["verify", "--params", write_params(tmp_path, **params), "--trials", "2"])
    assert code == EXIT_FAIL and err == ""
    return {r["name"]: r for r in records_of(out)}


def test_verify_killing_residual_fail_witness(tmp_path, capsys, monkeypatch):
    # L_X g replaced by g itself: the Killing check fails with the tensor's text
    monkeypatch.setattr(halfspace, "lie_derivative_metric", lambda field: halfspace.metric(field.n))
    by_name = _verify_by_name(tmp_path, capsys)
    assert by_name["killing_residual"]["status"] == "fail"
    assert by_name["killing_residual"]["witness"] == "params: L_X g = [1,1] x3^-2; [2,2] x3^-2; [3,3] x3^-2"
    assert by_name["rb_residual"]["status"] == "fail"


def test_verify_dual_form_not_closed_fail_on_a_non_degenerate_field(tmp_path, capsys, monkeypatch):
    # dw replaced by the zero 2-form for a nonzero field; the Lie derivative
    # still gets the true dw, so only the closedness check fails
    true_lie_derivative, true_d = exterior.lie_derivative_form, exterior.ext_d

    def zero_dw(alpha):  # d of the 0-form i_X w, inside the Lie derivative, stays true
        return exterior.KForm(alpha.n, alpha.grade + 1) if alpha.grade == 1 else true_d(alpha)

    monkeypatch.setattr(exterior, "ext_d", zero_dw)
    monkeypatch.setattr(
        exterior, "lie_derivative_form", lambda X, alpha, _: true_lie_derivative(X, alpha, true_d(alpha))
    )
    by_name = _verify_by_name(tmp_path, capsys, n=4, a=["1", "0", "0"], c=["0", "0", "1"])
    assert by_name["dual_form_not_closed"]["status"] == "fail"
    assert by_name["dual_form_not_closed"]["witness"] == "params: dw = 0"
    assert [r["status"] for r in by_name.values()].count("fail") == 1


def test_verify_dual_form_preserved_fail_witness(tmp_path, capsys, monkeypatch):
    # L_X w replaced by w itself: the witness is the text of w = flat(G1 + T2)
    monkeypatch.setattr(exterior, "lie_derivative_form", lambda X, alpha, d_alpha: alpha)
    by_name = _verify_by_name(tmp_path, capsys)
    assert by_name["dual_form_preserved"]["status"] == "fail"
    assert by_name["dual_form_preserved"]["witness"] == (
        "params: L_X w = (1/2*x1^2*x3^-2 - 1/2*x2^2*x3^-2 - 1/2)*dx1"
        " + (x1*x2*x3^-2 + x3^-2)*dx2 + (x1*x3^-1)*dx3"
    )
    assert [r["status"] for r in by_name.values()].count("fail") == 1


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


RECORD_KEYS = ["name", "status", "witness", "timing"]


def record_argv(command, tmp_path):
    if command == "algebra":
        return ["algebra", "--n", "2"]
    path = write_params(tmp_path)
    return [command, "--params", path] + (["--trials", "2"] if command == "verify" else [])


@pytest.mark.parametrize("command", ["verify", "contact", "algebra"])
def test_records_keep_their_key_order_and_null_timings(command, tmp_path, capsys):
    code, out, _ = run(capsys, record_argv(command, tmp_path))
    assert code == EXIT_PASS
    records = records_of(out)
    assert records and all(list(r) == RECORD_KEYS for r in records)
    assert all(line.endswith(', "timing": null}') for line in out.splitlines())


@pytest.mark.parametrize("command", ["verify", "contact", "algebra"])
def test_timings_fill_only_the_timing_field(command, tmp_path, capsys):
    argv = record_argv(command, tmp_path)
    _, plain, _ = run(capsys, argv)
    code, timed, _ = run(capsys, argv + ["--timings"])
    assert code == EXIT_PASS
    records = records_of(timed)
    assert all(list(r) == RECORD_KEYS for r in records)
    assert [dict(r, timing=None) for r in records] == records_of(plain)
    times = [r["timing"] for r in records]
    assert all(type(t) is float and t >= 0 and round(t, 3) == t for t in times)
    if command == "verify":  # one time per check, summed over the instances
        assert len(times) == 5
    if command == "contact":  # one total, shared by the four records
        assert len(times) == 4 and len(set(times)) == 1
    if command == "algebra":  # cumulative since the command started
        assert len(times) == 5 and times == sorted(times)


def scripted_verify(monkeypatch, scripts, trials, n=3):
    """Run cmd_verify with each check replaced by a script of per-instance outcomes.

    ``scripts`` maps a check name to {instance: (status, witness)}, where
    instance 0 is the file's parameter set and k the k-th trial; an
    instance missing from a script passes with the witness "ok <k>".  The
    fields are the instance numbers, the scripted ``cli._checks`` reads the
    number from the field it is given and yields the checks of n in record
    order, and ``calls`` records every build and check in call order.
    """
    calls, built = [], iter(range(trials + 1))

    def build(params):
        k = next(built)
        calls.append(("build", k))
        return k

    def scripted(params, k):
        for name in CHECK_NAMES[: 4 + params.n % 2]:
            calls.append((name, k))
            yield (name, *scripts.get(name, {}).get(k, ("pass", f"ok {k}")))

    monkeypatch.setattr(solitons, "build_field", build)
    monkeypatch.setattr(cli, "_checks", scripted)
    params = halfspace.SolitonParams(n=n, a=(1,) * (n - 1), b=0, c=(0,) * (n - 1), rho=1)
    records = cli.cmd_verify(params, trials, seed=0)
    return [(name, status, witness) for name, status, witness, _ in records], calls


def test_verify_first_fail_wins_over_an_earlier_degenerate(monkeypatch):
    scripts = {"rb_residual": {1: ("degenerate", "flat"), 3: ("fail", "boom"), 4: ("fail", "late")}}
    records, _ = scripted_verify(monkeypatch, scripts, trials=5)
    assert records[1] == ("rb_residual", "fail", "trial 3: boom")
    assert all(status == "pass" for name, status, _ in records if name != "rb_residual")


def test_verify_keeps_the_first_of_two_degenerates(monkeypatch):
    scripts = {"killing_residual": {2: ("degenerate", "first"), 4: ("degenerate", "second")}}
    records, _ = scripted_verify(monkeypatch, scripts, trials=4)
    assert records[0] == ("killing_residual", "degenerate", "trial 2: first")


def test_verify_passing_file_keeps_its_unlabelled_witness(monkeypatch):
    records, _ = scripted_verify(monkeypatch, {}, trials=3)
    assert [r[1:] for r in records] == [("pass", "ok 0")] * 5
    records, _ = scripted_verify(monkeypatch, {}, trials=0)
    assert [r[1:] for r in records] == [("pass", "ok 0")] * 5


def test_verify_non_passing_file_is_labelled_params(monkeypatch):
    scripts = {
        "dual_form_not_closed": {0: ("degenerate", "dw = 0"), 2: ("degenerate", "later")},
        "contact_consistency": {0: ("fail", "bad"), 1: ("fail", "worse")},
    }
    records, _ = scripted_verify(monkeypatch, scripts, trials=2)
    assert records[2] == ("dual_form_not_closed", "degenerate", "params: dw = 0")
    assert records[4] == ("contact_consistency", "fail", "params: bad")


@pytest.mark.parametrize(
    "slowed, charged, spared",
    [
        ("lie_derivative_metric", "killing_residual", "rb_residual"),
        ("flat", "dual_form_not_closed", "dual_form_preserved"),
    ],
)
def test_verify_timings_charge_a_shared_object_to_its_first_reader(tmp_path, capsys, monkeypatch, slowed, charged, spared):
    # L_X g is read by the Killing and RB checks, w by every dual-form check:
    # each is built once per instance, in the time of the first check that reads it
    original = getattr(halfspace, slowed)

    def slow(*args):
        time.sleep(0.05)
        return original(*args)

    monkeypatch.setattr(halfspace, slowed, slow)
    instances = 3
    path = write_params(tmp_path)
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", str(instances - 1), "--timings"])
    assert code == EXIT_PASS
    timing = {r["name"]: r["timing"] for r in records_of(out)}
    assert timing[charged] >= 50.0 * instances
    assert timing[spared] < 50.0


def test_verify_checks_one_instance_at_a_time(monkeypatch):
    # build, every check, build, every check: no instance outlives its checks
    for n, names in ((3, CHECK_NAMES), (4, CHECK_NAMES[:-1])):
        records, calls = scripted_verify(monkeypatch, {}, trials=2, n=n)
        assert [r[0] for r in records] == names
        assert calls == [c for k in range(3) for c in [("build", k)] + [(nm, k) for nm in names]]


def test_verify_builds_each_field_once(tmp_path, capsys, monkeypatch):
    # at odd n the contact check reuses the field cmd_verify built
    calls, build = [], solitons.build_field

    def counted(params):
        calls.append(params)
        return build(params)

    monkeypatch.setattr(solitons, "build_field", counted)
    for n, trials in ((3, 4), (5, 2), (4, 3)):
        params = {"n": n, "a": ["1"] * (n - 1), "c": ["0"] * (n - 2) + ["1"]}
        path = write_params(tmp_path, **params)
        calls.clear()
        code, _, _ = run(capsys, ["verify", "--params", path, "--trials", str(trials)])
        assert code == EXIT_PASS
        assert len(calls) == trials + 1


def test_verify_derives_each_object_once_per_instance(tmp_path, capsys, monkeypatch):
    # one w = flat(X), one L_X g and two ext_d (dw, and d(i_X w) in the
    # Lie derivative) per instance, whichever module calls them; the
    # metric's derivative table once per n
    counts = {}
    for home, name in ((halfspace, "flat"), (halfspace, "lie_derivative_metric"), (exterior, "ext_d")):
        original = getattr(home, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in (exterior, halfspace, solitons):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    halfspace._metric_table.cache_clear()
    for built, (n, trials) in enumerate(((3, 4), (4, 3), (5, 2)), 1):
        params = {"n": n, "a": ["1"] * (n - 1), "c": ["0"] * (n - 2) + ["1"]}
        path = write_params(tmp_path, **params)
        counts.update(flat=0, lie_derivative_metric=0, ext_d=0)
        code, _, _ = run(capsys, ["verify", "--params", path, "--trials", str(trials)])
        assert code == EXIT_PASS
        assert counts == {"flat": trials + 1, "lie_derivative_metric": trials + 1, "ext_d": 2 * (trials + 1)}
        assert halfspace._metric_table.cache_info().misses == built


def test_verify_formats_only_the_witnesses_it_keeps(tmp_path, capsys, monkeypatch):
    # every instance passes, so only the file's instance keeps its witness:
    # one dw text, and at odd n one text of the cleared top form
    texts = []
    for cls in (exterior.KForm, LaurentPoly):
        original = cls.text

        def counted(self, original=original):
            texts.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(cls, "text", counted)
    for n, trials in ((3, 6), (4, 6), (5, 3)):
        params = {"n": n, "a": ["1"] * (n - 1), "c": ["0"] * (n - 2) + ["1"]}
        texts.clear()
        code, out, _ = run(capsys, ["verify", "--params", write_params(tmp_path, **params), "--trials", str(trials)])
        assert code == EXIT_PASS
        # the KForm text of dw formats each of its coefficients
        dw = [json.loads(line) for line in out.splitlines()][2]
        assert dw["name"] == "dual_form_not_closed" and dw["witness"].startswith("dw = (")
        assert texts.count("KForm") == 1
        assert texts.count("LaurentPoly") == dw["witness"].count(")*dx") + n % 2


def test_verify_builds_the_zero_polynomial_at_most_once(tmp_path, capsys, monkeypatch):
    # every missing coefficient or metric entry is the one shared LaurentPoly.zero(n)
    zeros, init = [], LaurentPoly.__init__

    def counted(self, n, terms=None):
        init(self, n, terms)
        if not self._terms:
            zeros.append(n)

    monkeypatch.setattr(LaurentPoly, "__init__", counted)
    params = {"n": 6, "a": ["1", "2", "0", "-1", "1"], "b": "1", "c": ["0", "1", "3", "1", "2"]}
    code, _, _ = run(capsys, ["verify", "--params", write_params(tmp_path, **params), "--trials", "25"])
    assert code == EXIT_PASS
    assert len(zeros) <= 1


def count_generator_calls(monkeypatch) -> list:
    """Record every (name, n) built by solitons.generator, from any module."""
    calls, build = [], solitons.generator

    def counted(name, n):
        calls.append((name, n))
        return build(name, n)

    monkeypatch.setattr(solitons, "generator", counted)
    monkeypatch.setattr(flows, "generator", counted)
    solitons.generators.cache_clear()
    return calls


def test_verify_builds_the_basis_once(tmp_path, capsys, monkeypatch):
    calls = count_generator_calls(monkeypatch)
    params = {"n": 5, "a": ["1"] * 4, "c": ["0"] * 3 + ["1"]}
    code, _, _ = run(capsys, ["verify", "--params", write_params(tmp_path, **params), "--trials", "4"])
    assert code == EXIT_PASS
    # the 9 basis fields, once each, for 5 parameter sets
    assert calls == [(name, 5) for name in solitons.generator_names(5)]


def test_flow_builds_its_field_once(tmp_path, capsys, monkeypatch):
    calls = count_generator_calls(monkeypatch)
    assert flows.FlowSpec("G1", 1000) == ("G1", 1000)
    assert calls == []
    argv = ["flow", "--gen", "G2", "--n", "3", "--point", "0.1,0.2,1", "--t-max", "0.1",
            "--dt", "0.01", "--out", str(tmp_path / "t.csv")]
    code, _, _ = run(capsys, argv)
    assert code == EXIT_PASS
    assert calls == [("G2", 3)]


def test_flow_reads_its_generator_name_a_fixed_number_of_times(tmp_path, capsys, monkeypatch):
    # the closed form reads the name once per trajectory, not once per state
    calls, parse = [], solitons._parse_generator

    def counted(name, n):
        calls.append((name, n))
        return parse(name, n)

    monkeypatch.setattr(solitons, "_parse_generator", counted)
    monkeypatch.setattr(flows, "_parse_generator", counted)
    counts = []
    for t_max in ("0.1", "1"):
        calls.clear()
        argv = ["flow", "--gen", "G2", "--n", "3", "--point", "0.1,0.2,1", "--t-max", t_max,
                "--dt", "0.01", "--out", str(tmp_path / "t.csv")]
        code, _, _ = run(capsys, argv)
        assert code == EXIT_PASS
        assert set(calls) == {("G2", 3)}
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_flow_generator_index_takes_ascii_digits_only(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    for gen in ("T\u0661", "T\u00b2", "G\u0661"):
        code, out, err = run(capsys, ["flow", "--gen", gen, "--n", "3", "--point", "0,0,1", "--out", str(out_path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: unknown generator name {gen!r}\n"
        assert not out_path.exists()


def test_verify_trials_cap_checked_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a parameter set was built")

    monkeypatch.setattr(halfspace, "random_params", refuse)
    monkeypatch.setattr(solitons, "build_field", refuse)
    path = write_params(tmp_path)
    for trials in (MAX_TRIALS + 1, 10**12):
        code, out, err = run(capsys, ["verify", "--params", path, "--trials", str(trials)])
        assert code == EXIT_USAGE
        assert out == ""
        assert f"exceeds the limit of {MAX_TRIALS}" in err
    code, out, err = run(capsys, ["verify", "--params", path, "--trials", "-1"])
    assert (code, out) == (EXIT_USAGE, "")


def test_params_n_cap_checked_before_any_work(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran above the n limit")

    for module, name in (
        (ratlaurent, "parse_rational"),
        (halfspace, "SolitonParams"),
        (halfspace, "random_params"),
        (solitons, "build_field"),
        (solitons, "contact_report"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert MAX_PARAMS_N == 15
    for n in (MAX_PARAMS_N + 1, 10**6):
        # the lists are far too short: n is refused before they are read
        path = write_params(tmp_path, n=n)
        for command in (["verify", "--trials", "0"], ["contact"]):
            start = time.perf_counter()
            code, out, err = run(capsys, command + ["--params", path])
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"parse error: {path}: field 'n': {n} exceeds the limit of {MAX_PARAMS_N}\n"
    path = write_params(tmp_path, n=1)
    code, out, err = run(capsys, ["contact", "--params", path])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"parse error: {path}: field 'n': must be an integer >= 2\n"


def test_params_n_cap_admits_the_limit(tmp_path):
    n = MAX_PARAMS_N
    path = write_params(tmp_path, n=n, a=["1"] * (n - 1), c=["0"] * (n - 2) + ["1"])
    params = cli.load_params(path)
    assert params.n == n and params.a == (1,) * (n - 1)


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


def test_param_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"n": 3}'.encode("utf-16-le"))
    for command in ("verify", "contact"):
        code, out, err = run(capsys, [command, "--params", str(path)])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("parse error:") and "UTF-8" in err


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
    assert out == "" and "odd ambient dimension" in err


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
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) > 100
    # the partial trajectory still carries the closed-form columns
    assert lines[0] == "t,x1,x2,cx1,cx2,err"
    assert all(cell for line in lines[1:] for cell in line.split(","))


def test_flow_overflow_in_a_step_is_an_escape(tmp_path, capsys):
    # one step whose RK4 stage overflows float x**e; the start row is still written
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "G1", "--n", "2", "--point", "1e8,1",
         "--t-max", "1e150", "--dt", "1e150", "--out", str(out_path)],
    )
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: float overflow in the RK4 step from t=0.0"
    assert out_path.read_text().splitlines() == ["t,x1,x2,cx1,cx2,err", "0.0,100000000.0,1.0,100000000.0,1.0,0.0"]


def test_flow_non_finite_coordinates_are_an_escape(tmp_path, capsys):
    # the RK4 step of D sums its stages to inf without raising; the start row is still written
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "D", "--n", "2", "--point", "1.7e308,1",
         "--t-max", "0.001", "--dt", "0.001", "--out", str(out_path)],
    )
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: non-finite coordinates at t=0.001"
    assert out_path.read_text().splitlines() == ["t,x1,x2,cx1,cx2,err", "0.0,1.7e+308,1.0,1.7e+308,1.0,0.0"]


def test_flow_overflow_after_valid_steps_keeps_them(tmp_path, capsys):
    # the state at t=1e52 and its closed form are finite; the next step overflows
    out_path = tmp_path / "o.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "G2", "--n", "3", "--point", "1e-50,1e-50,1e-50",
         "--t-max", "4e52", "--dt", "1e52", "--out", str(out_path)],
    )
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: float overflow in the RK4 step from t=1e+52"
    rows = out_path.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.0", "1e+52"]
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


def test_flow_escape_overwrites_a_stale_csv(tmp_path, capsys):
    # the first RK4 step overflows; the CSV holds the start row
    out_path = tmp_path / "o.csv"
    out_path.write_text("stale")
    argv = ["flow", "--gen", "G1", "--n", "2", "--point", "1e300,1",
            "--t-max", "1", "--dt", "0.1", "--out"]
    code, out, err = run(capsys, [*argv, str(out_path)])
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: float overflow in the RK4 step from t=0.0"
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.0,1e+300,1.0,")
    # a directory at --out is left as it is, and is a usage error
    code, out, err = run(capsys, [*argv, str(tmp_path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: --out:")
    assert tmp_path.is_dir()


def test_flow_boost_start_row_survives_a_radius_overflow(tmp_path, capsys):
    # r0^2 = 1e400 passes the float limit; r0 falls back to hypot, so the
    # closed form is finite at t=0 and the start row is written
    out_path = tmp_path / "o.csv"
    argv = ["flow", "--gen", "G1", "--n", "2", "--point", "1,1e200", "--t-max", "0.001", "--dt", "0.001"]
    code, out, err = run(capsys, [*argv, "--out", str(out_path)])
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: float overflow in the RK4 step from t=0.0"
    assert out_path.read_text().splitlines() == ["t,x1,x2,cx1,cx2,err", "0.0,1.0,1e+200,0.0,1e+200,1.0"]


def test_flow_boost_start_row_survives_a_radius_past_the_float_limit(tmp_path, capsys):
    # hypot(1.7e308, 1.7e308) is inf as well; the closed form scales the
    # start by a power of two instead, so the start row is written
    out_path = tmp_path / "o.csv"
    argv = ["flow", "--gen", "G1", "--n", "3", "--point", "1,1.7e308,1.7e308", "--t-max", "0.001", "--dt", "0.001"]
    code, out, err = run(capsys, [*argv, "--out", str(out_path)])
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: float overflow in the RK4 step from t=0.0"
    header, start = out_path.read_text().splitlines()
    assert header == "t,x1,x2,x3,cx1,cx2,cx3,err"
    row = [float(v) for v in start.split(",")]
    assert row[:4] == [0.0, 1.0, 1.7e308, 1.7e308]
    assert row[5:7] == [1.7e308, 1.7e308] and abs(row[4] - 1.0) < 1e-15 and row[7] < 1e-15


def test_flow_gap_whose_square_overflows_is_finite(tmp_path, capsys):
    # at x1 = 1e300 the closed form of G1 is off by about 1e284 in the last
    # bit; that gap is finite although its square is not
    out_path = tmp_path / "o.csv"
    argv = ["flow", "--gen", "G1", "--n", "2", "--point", "1e300,1", "--t-max", "0", "--dt", "1"]
    code, out, err = run(capsys, [*argv, "--out", str(out_path)])
    assert code == EXIT_PASS
    worst = float(out.splitlines()[1].split(": ")[1])
    assert 1e283 < worst < 1e285
    assert float(out_path.read_text().splitlines()[1].split(",")[-1]) == worst


def test_flow_step_overflow_outranks_the_closed_form_pole(tmp_path, capsys, monkeypatch):
    # the rows before a step overflow may reach a closed-form pole; the
    # overflow is still the escape reported
    def no_closed_form(spec, p0):
        def pole(t):
            raise ZeroDivisionError("pole")

        return pole

    monkeypatch.setattr(flows, "_reference", no_closed_form)
    out_path = tmp_path / "o.csv"
    argv = ["flow", "--gen", "G1", "--n", "2", "--point", "1e300,1", "--t-max", "1", "--dt", "0.1"]
    code, out, err = run(capsys, [*argv, "--out", str(out_path)])
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: float overflow in the RK4 step from t=0.0"
    assert out_path.read_text().splitlines() == ["t,x1,x2,cx1,cx2,err"]


def test_flow_n_cap_checked_before_any_field(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a field was built above the n limit")

    monkeypatch.setattr(solitons, "generator", refuse)
    monkeypatch.setattr(flows, "generator", refuse)
    assert MAX_FLOW_N == 1000
    out_path = tmp_path / "o.csv"
    for n in (MAX_FLOW_N + 1, 10**6):
        argv = ["flow", "--gen", "G1", "--n", str(n), "--point", "0,1", "--out", str(out_path)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: n = {n} exceeds the limit of {MAX_FLOW_N}\n"
    assert not out_path.exists()
    monkeypatch.undo()
    point = ",".join(["0"] * (MAX_FLOW_N - 1) + ["1"])
    argv = ["flow", "--gen", "T1", "--n", str(MAX_FLOW_N), "--point", point, "--t-max", "0.01", "--dt", "0.01"]
    code, out, err = run(capsys, [*argv, "--out", str(out_path)])
    assert code == EXIT_PASS and len(out_path.read_text().splitlines()) == 3


def test_flow_boost_at_the_n_cap_runs_two_steps(tmp_path, capsys):
    # component 1 of the boost G1 has n terms, the widest of any generator,
    # so this compiles and runs the generated RK4 loop at its largest size.
    # It compiles because no generated expression nests once per coordinate
    # or per term: abs(y0) + ... + abs(y2999) alone exhausts the compiler of
    # Python 3.10 to 3.12.
    out_path = tmp_path / "o.csv"
    point = ",".join(["0.001"] * (MAX_FLOW_N - 1) + ["1"])
    argv = ["flow", "--gen", "G1", "--n", str(MAX_FLOW_N), "--point", point, "--t-max", "0.002", "--dt", "0.001",
            "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (EXIT_PASS, "")
    rows = [row.split(",") for row in out_path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0.0", "0.001", "0.002"]
    assert all(len(row) == 2 * MAX_FLOW_N + 2 for row in rows)
    assert float(out.splitlines()[-1].removeprefix("max_deviation_vs_closed_form: ")) < 1e-12


def test_flow_stored_coordinate_cap_exits_64(tmp_path, capsys):
    # each would store more than 10^7 coordinates, up to 10^9 (about 37 GB)
    out_path = tmp_path / "o.csv"
    for n, t_max, stored in ((1000, "10001", 10002000), (1000, "1000000", 1000001000), (10, "1000000", 10000010)):
        point = ",".join(["0"] * (n - 1) + ["1"])
        argv = ["flow", "--gen", "T1", "--n", str(n), "--point", point, "--t-max", t_max, "--dt", "1",
                "--out", str(out_path)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"usage error: (steps + 1) * n = {stored} exceeds the limit of 10000000 stored coordinates\n"
        assert not out_path.exists()


def test_flow_printed_deviation_is_max_csv_err(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, out, err = run(
        capsys,
        ["flow", "--gen", "G2", "--n", "3", "--point", "1,0.5,1",
         "--t-max", "1", "--dt", "0.02", "--out", str(out_path)],
    )
    assert code == EXIT_PASS
    printed = out.split("max_deviation_vs_closed_form: ")[1].strip()
    errs = [line.split(",")[-1] for line in out_path.read_text().splitlines()[1:]]
    assert float(printed) > 0.0
    assert printed == max(errs, key=float)


def test_flow_from_origin_stays_fixed(tmp_path, capsys):
    out_path = str(tmp_path / "traj.csv")
    for gen, point in (("G1", "0,0"), ("G", "0,0"), ("G1", "0,0,0")):
        n = str(len(point.split(",")))
        code, out, err = run(capsys, ["flow", "--gen", gen, "--n", n, "--point", point, "--out", out_path])
        assert code == EXIT_PASS, (gen, point, err)
        assert out.endswith("max_deviation_vs_closed_form: 0.0\n")


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
    # integrate rejects these before cmd_flow prints or writes anything
    for arg in ("--dt=0", "--dt=-1e-3", "--t-max=-1"):
        argv = ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", arg, "--out", out_path]
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE and out == "", argv
        assert not (tmp_path / "t.csv").exists()
    # step counts above the cap are rejected before any step runs
    for t_max, dt in (("1e300", "1e-300"), ("1e3", "1e-9")):
        argv = ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--t-max", t_max, "--dt", dt, "--out", out_path]
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE and out == "", argv
        assert "limit of 1000000 steps" in err


def test_flow_unwritable_out(tmp_path, capsys):
    # a missing directory, and a directory in place of the file
    for out_path in (tmp_path / "missing" / "t.csv", tmp_path):
        for point in ("0,1", "1e9,1"):  # a full trajectory, and an escape after one state
            argv = ["flow", "--gen", "T1", "--n", "2", "--point", point, "--out", str(out_path)]
            code, out, err = run(capsys, argv)
            assert code == EXIT_USAGE and out == "", argv
            assert err.startswith("usage error: --out:"), err
    assert not (tmp_path / "missing").exists()


def test_flow_unwritable_out_is_reported_before_any_field_is_built(tmp_path, capsys, monkeypatch):
    # the longest horizon MAX_STEPS admits; building the field or the RK4 loop fails the test
    def boom(*args):
        raise AssertionError("built a field or loop for an unwritable --out")

    monkeypatch.setattr(flows, "generator", boom)
    monkeypatch.setattr(flows, "_compile_loop", boom)
    out_path = tmp_path / "missing" / "x.csv"
    with pytest.raises(OSError) as info:
        open(out_path, "w")
    argv = ["flow", "--gen", "G2", "--n", "5", "--point", "1,0.5,0.2,0.1,1.5",
            "--t-max", "1000", "--dt", "0.001", "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"usage error: --out: {info.value}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_flow_out_that_fails_while_written(capsys):
    # the open succeeds and the rows fail: still a usage error, before any line of stdout
    argv = ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--out", "/dev/full"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: --out: [Errno 28]"), err


def test_flow_bad_dt_keeps_a_stale_out_file(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    out_path.write_bytes(b"stale,bytes\n")
    argv = ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--dt", "0", "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: dt must be positive and finite\n")
    assert out_path.read_bytes() == b"stale,bytes\n"


def test_flow_bad_dt_is_reported_before_an_unwritable_out(tmp_path, capsys):
    argv = ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", "--dt", "0",
            "--out", str(tmp_path / "missing" / "t.csv")]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: dt must be positive and finite\n")


def test_flow_negative_option_values(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    for argv in (["--point", "-1,1"], ["--point=-1,1"]):
        code, out, err = run(capsys, ["flow", "--gen", "T1", "--n", "2", *argv, "--out", str(out_path)])
        assert code == EXIT_PASS, err
        assert out_path.read_text().splitlines()[1].startswith("0.0,-1.0,1.0,")
    out_path.unlink()
    for argv, message in (
        (["--dt", "-1e-3"], "dt must be positive"),
        (["--dt=-1e-3"], "dt must be positive"),
        (["--t-max", "-1"], "t_max must be nonnegative"),
    ):
        code, out, err = run(capsys, ["flow", "--gen", "T1", "--n", "2", "--point", "0,1", *argv, "--out", str(out_path)])
        assert code == EXIT_USAGE and out == "", argv
        assert message in err, err
    assert not out_path.exists()


def test_flow_closed_form_pole_is_an_escape(tmp_path, capsys):
    # the boundary-plane rotation x' = x^2 from x = 2 has its pole at t = 1/2,
    # which the step dt = 1/2 hits exactly
    out_path = tmp_path / "t.csv"
    argv = ["flow", "--gen", "G", "--n", "2", "--point", "2,0", "--t-max", "1", "--dt", "0.5", "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_ESCAPE
    assert out.splitlines()[1] == "escape: the closed form has no finite value at t=0.5"
    assert len(out_path.read_text().splitlines()) == 2  # header and the start row


def test_flow_rotation_from_a_start_near_the_origin(tmp_path, capsys):
    # -1/z0 overflows this close to the origin; the closed form z0 / (1 - t z0) does not
    out_path = tmp_path / "t.csv"
    argv = ["flow", "--gen", "G", "--n", "2", "--point", "1e-320,1e-320", "--t-max", "0.01", "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PASS, err
    assert out.splitlines()[1] == "max_deviation_vs_closed_form: 0.0"
    assert len(out_path.read_text().splitlines()) == 12  # header and 11 rows
    # a closed form with no finite value at the start still writes the header alone
    argv[6] = "1e308,1e308"
    code, out, err = run(capsys, argv)
    assert code == EXIT_ESCAPE
    assert len(out_path.read_text().splitlines()) == 1


def test_flow_dilation_from_a_start_near_the_origin(tmp_path, capsys):
    # e^t overflows past t = 709.78, but the closed form 1e-320 e^740, about 23.9, is finite
    out_path = tmp_path / "t.csv"
    argv = ["flow", "--gen", "D", "--n", "2", "--point", "1e-320,1e-320", "--t-max", "740", "--dt", "0.5",
            "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PASS, out
    header, *rows = out_path.read_text().splitlines()
    assert len(rows) == 1481
    cx = [i for i, name in enumerate(header.split(",")) if name.startswith("cx")]
    assert all(math.isfinite(float(row.split(",")[i])) for row in rows for i in cx)
    assert math.isclose(float(rows[-1].split(",")[cx[0]]), 1e-320 * math.exp(370) * math.exp(370))


def test_flow_error_is_finite_when_only_the_sum_of_squares_overflows(tmp_path, capsys):
    # at t=1099 each squared coordinate gap, about 9.3e307, is finite, but their sum is not
    out_path = tmp_path / "d.csv"
    argv = ["flow", "--gen", "D", "--n", "2", "--point", "5e-324,5e-324", "--t-max", "1450", "--dt", "0.5",
            "--out", str(out_path)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PASS, out
    assert "max_deviation_vs_closed_form: 3.726476736953142e+306\n" in out
    rows = {row.split(",")[0]: row.split(",") for row in out_path.read_text().splitlines()[1:]}
    assert rows["1099.0"][-1] == "1.361241767934375e+154"
    assert not any(row[-1] == "inf" for row in rows.values())


def test_verify_differentiates_each_field_once(monkeypatch):
    fields, calls = [], []
    build, deriv = solitons.build_field, LaurentPoly.deriv

    def built(params):
        fields.append(build(params))
        return fields[-1]

    def counted(poly, i):
        calls.append(poly)
        return deriv(poly, i)

    monkeypatch.setattr(solitons, "build_field", built)
    monkeypatch.setattr(LaurentPoly, "deriv", counted)
    for n in (3, 4):
        params = halfspace.SolitonParams(n=n, a=(1,) * (n - 1), b=1, c=(1,) * (n - 1))
        fields.clear()
        calls.clear()
        cli.cmd_verify(params, 2, 0)
        assert len(fields) == 3
        for field in fields:
            assert len(field.terms) == n  # every component is nonzero, so each is one object
            on_field = [p for p in calls if any(p is comp for comp in field.terms.values())]
            # L_X g and the direct L_X w share each component's partials: n^2 derivatives, not 2 n^2
            assert len(on_field) == n * n


def test_verify_differentiates_each_dual_form_once(monkeypatch):
    # dw and the direct L_X w both read the partials of w's coefficients,
    # built once per instance: n^2 derivatives of w, not n(n-1) + n^2
    forms, calls = [], []
    flat, deriv = halfspace.flat, LaurentPoly.deriv

    def made(field):
        forms.append(flat(field))
        return forms[-1]

    def counted(poly, i):
        calls.append(poly)
        return deriv(poly, i)

    monkeypatch.setattr(halfspace, "flat", made)
    monkeypatch.setattr(LaurentPoly, "deriv", counted)
    for n in (3, 4, 6):
        params = halfspace.SolitonParams(n=n, a=(1,) * (n - 1), b=1, c=(1,) * (n - 1))
        forms.clear()
        calls.clear()
        cli.cmd_verify(params, 2, 0)
        assert len(forms) == 3
        for omega in forms:
            assert len(omega.terms) == n  # every coefficient is nonzero, so each is one object
            on_form = [p for p in calls if any(p is coeff for coeff in omega.terms.values())]
            assert len(on_form) == n * n


def test_algebra_plane(capsys):
    code, out, err = run(capsys, ["algebra", "--n", "2"])
    assert code == EXIT_PASS
    by_name = {r["name"]: r for r in records_of(out)}
    assert "dimension = 3" in by_name["closure"]["witness"]
    assert "already_closed = true" in by_name["closure"]["witness"]
    assert by_name["sl2_fingerprint"]["status"] == "pass"


def test_algebra_sl2_fingerprint_fail_witness(capsys, monkeypatch):
    monkeypatch.setattr(solitons, "sl2_check", lambda: False)
    code, out, err = run(capsys, ["algebra", "--n", "2"])
    assert code == EXIT_FAIL
    by_name = {r["name"]: r for r in records_of(out)}
    assert by_name["sl2_fingerprint"]["status"] == "fail"
    assert by_name["sl2_fingerprint"]["witness"] == "sl2 bracket table not satisfied"
    assert [r["status"] for r in by_name.values()].count("fail") == 1


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


def test_algebra_brackets_each_basis_pair_once(monkeypatch):
    from rbkit import solitons
    from rbkit.cli import cmd_algebra

    calls = []
    bracket = solitons.lie_bracket  # the one bracket, which the closure calls too

    def counted(A, B):
        calls.append((A, B))
        return bracket(A, B)

    monkeypatch.setattr(solitons, "lie_bracket", counted)
    for n in range(2, 7):
        calls.clear()
        cmd_algebra(n)
        dim = n * (n + 1) // 2  # dim so(n,1)
        # the n=2 sl2 fingerprint brackets its own three pairs
        assert len(calls) == math.comb(dim, 2) + (3 if n == 2 else 0)


def test_algebra_range_checked(capsys):
    assert MAX_ALGEBRA_N == 9
    for n in ("1", "10"):
        code, out, err = run(capsys, ["algebra", "--n", n])
        assert code == EXIT_USAGE
        assert out == "" and f"got {n}" in err


@pytest.mark.parametrize("n", [8, 9])
def test_algebra_closes_up_to_the_limit(n, capsys):
    code, out, err = run(capsys, ["algebra", "--n", str(n)])
    assert code == EXIT_PASS
    by_name = {r["name"]: r for r in records_of(out)}
    closure = by_name["closure"]["witness"]
    assert f"dimension = {n * (n + 1) // 2}; seed_dimension = {2 * n - 1}" in closure
    assert "cap_exceeded = false" in closure
    assert by_name["structure_constants"]["status"] == "pass"


def test_help_is_written_for_users(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("verify", "contact", "flow", "algebra"):
        assert f"    {command} " in out
    for code, meaning in ((0, "every check passed"), (1, "some check failed"), (2, "escaped"), (64, "usage")):
        assert any(line.split()[:1] == [str(code)] and meaning in line for line in out.splitlines())
    assert "``" not in out and "_emit" not in out


def test_usage_error_on_unknown_command(capsys):
    # the parser rejects the command before main dispatches on it
    code, _, err = run(capsys, ["frobnicate"])
    assert code == EXIT_USAGE
    assert err.startswith("usage error:")
    assert "'frobnicate'" in err


def test_emit_flags_failures(capsys):
    records = [("a", "pass", "", 1.23456), ("b", "fail", "boom", 2.0)]
    assert _emit(records, True) == EXIT_FAIL
    assert capsys.readouterr().out == (
        '{"name": "a", "status": "pass", "witness": "", "timing": 1.235}\n'
        '{"name": "b", "status": "fail", "witness": "boom", "timing": 2.0}\n'
    )
    assert _emit(records[:1], False) == EXIT_PASS
    assert capsys.readouterr().out == '{"name": "a", "status": "pass", "witness": "", "timing": null}\n'
