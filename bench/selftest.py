"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Input generation is deterministic, every output check rejects corrupted
output, and two traced runs count the same work.  Runs real rbkit
operations from the checkout's src/ (about twenty seconds).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from dataclasses import replace

import checks
import run
import workloads
from checks import CheckError, Outcome

SEED = 3


def _op(workload: str, label: str):
    return next(op for op in workloads.build(workload, SEED) if op.label == label)


def _run(op) -> Outcome:
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    for name, text in op.files.items():
        (work / name).write_text(text, encoding="utf-8")
    return run.run_op(op, work, run.child_env())[0]


def _records(outcome: Outcome) -> list:
    return [json.loads(line) for line in outcome.stdout.decode().splitlines()]


def _with_records(outcome: Outcome, records: list) -> Outcome:
    return replace(outcome, stdout="".join(json.dumps(r) + "\n" for r in records).encode())


def _edit_witness(outcome: Outcome, name: str, old: str, new: str) -> Outcome:
    records = _records(outcome)
    for record in records:
        if record["name"] == name:
            assert old in record["witness"], (old, record["witness"])
            record["witness"] = record["witness"].replace(old, new, 1)
    return _with_records(outcome, records)


class InputGeneration(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in workloads.WORKLOADS:
            first = [(op.label, op.argv, op.files) for op in workloads.build(workload, 11)]
            second = [(op.label, op.argv, op.files) for op in workloads.build(workload, 11)]
            self.assertEqual(first, second, workload)

    def test_other_seed_gives_other_inputs_and_same_operations(self):
        for workload in ("verify_sweep", "contact_ladder", "flow_long"):
            first, second = workloads.build(workload, 11), workloads.build(workload, 12)
            self.assertEqual([op.label for op in first], [op.label for op in second])
            self.assertNotEqual([(op.argv, op.files) for op in first], [(op.argv, op.files) for op in second])

    def test_n3_contact_sets_cover_both_verdicts(self):
        for seed in range(20):
            pfs = []
            for op in workloads.build("contact_ladder", seed)[: workloads.CONTACT_SETS]:
                params = json.loads(next(iter(op.files.values())))
                a, c = ([checks.Fraction(v) for v in params[k]] for k in ("a", "c"))
                pfs.append(a[0] * c[1] - a[1] * c[0])
            self.assertTrue(all(pfs[:-1]) and pfs[-1] == 0, pfs)


class OutputChecks(unittest.TestCase):
    """Each check passes the real output and rejects a corrupted copy."""

    def assertRejects(self, op, outcome):
        with self.assertRaises(CheckError):
            op.check(outcome)

    def test_verify(self):
        op = _op("verify_sweep", "verify n=3")
        good = _run(op)
        op.check(good)
        lam = re.search(r"lambda = (\S+)", good.stdout.decode())[1]
        self.assertRejects(op, _edit_witness(good, "rb_residual", f"lambda = {lam}", f"lambda = {lam}1"))
        records = _records(good)
        self.assertRejects(op, _with_records(good, records[:-1]))
        records[0]["status"] = "fail"
        self.assertRejects(op, _with_records(good, records))
        self.assertRejects(op, replace(good, returncode=1))

    def test_contact(self):
        for label in ("contact n=3 set 0", "contact n=3 set 2", "contact n=5 set 0"):
            op = _op("contact_ladder", label)
            good = _run(op)
            op.check(good)
            pf = re.search(r"Pf = (\S+);", good.stdout.decode())[1]
            self.assertRejects(op, _edit_witness(good, "pfaffian", f"Pf = {pf};", f"Pf = {checks.Fraction(pf) + 1};"))
            self.assertRejects(op, _edit_witness(good, "pfaffian", "; det = ", "; det = 1"))
            verdict = "true" if checks.Fraction(pf) else "false"
            other = "false" if verdict == "true" else "true"
            self.assertRejects(op, _edit_witness(good, "contact_verdict", verdict, other))
            self.assertRejects(op, _edit_witness(good, "contact_matrix", "M = [0,", "M = [1,"))

    def test_algebra_rejects_every_dropped_or_changed_constant(self):
        for n in (2, 3):
            op = _op("algebra_ladder", f"algebra n={n}")
            good = _run(op)
            op.check(good)
            records = _records(good)
            entries = next(r for r in records if r["name"] == "structure_constants")["witness"].split("; ")
            for k, entry in enumerate(entries):
                for variant in (entries[:k] + entries[k + 1 :], entries[:k] + [entry + "1"] + entries[k + 1 :]):
                    for r in records:
                        if r["name"] == "structure_constants":
                            r["witness"] = "; ".join(variant)
                    self.assertRejects(op, _with_records(good, records))
            self.assertRejects(op, _edit_witness(good, "closure", f"dimension = {n * (n + 1) // 2};", "dimension = 1;"))

    def test_flow(self):
        op = _op("flow_long", "flow G1 n=3")
        good = _run(op)
        op.check(good)
        rows = good.csv.decode().splitlines()
        last = rows[-1].split(",")
        last[1] = repr(float(last[1]) + 1e-6)
        self.assertRejects(op, replace(good, csv="\n".join(rows[:-1] + [",".join(last)]).encode() + b"\n"))
        self.assertRejects(op, replace(good, csv="\n".join(rows[:-2] + rows[-1:]).encode() + b"\n"))
        far = re.sub(rb"max_deviation_vs_closed_form: .*", b"max_deviation_vs_closed_form: 0.001", good.stdout)
        self.assertRejects(op, replace(good, stdout=far))

    def test_closed_forms_agree_at_time_zero_and_compose(self):
        point = (0.3, -0.2, 0.8)
        for gen in ("T1", "D", "G1", "G2"):
            self.assertEqual(checks.closed_form(gen, point, 0.0), point)
            once = checks.closed_form(gen, point, 0.7)
            twice = checks.closed_form(gen, checks.closed_form(gen, point, 0.3), 0.4)
            self.assertTrue(all(abs(u - v) < 1e-12 for u, v in zip(once, twice)), gen)

    def test_usage_error(self):
        checks.check_usage_error(Outcome(64, b"", b"usage error: --point: not finite\n"))
        for label, _ in workloads.NONFINITE_FLOWS:
            op = _op("flow_long", f"flow {label}")
            bad = Outcome(1, b"", b"Traceback (most recent call last):\n")
            self.assertRejects(op, bad)


class TracedRuns(unittest.TestCase):
    def _traced(self):
        cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", "algebra_ladder", "--seed", "1",
               "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_two_traced_runs_count_the_same_work(self):
        first, second = self._traced(), self._traced()
        self.assertTrue(first["correct"] and second["correct"])
        spec = run.load_spec()
        self.assertEqual(sorted(first["metrics"]), sorted(m["name"] for m in spec["per_layer"]))
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bits", "bytes")]
        self.assertEqual({k: first["metrics"][k] for k in counts}, {k: second["metrics"][k] for k in counts})
        self.assertGreater(first["metrics"]["solitons.lie_bracket.calls"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
