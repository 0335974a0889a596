#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rbkit command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                       # every workload once
    python3 bench/run.py --repeat 10 [--workload NAME]   # spread of each metric

Each workload is one closed-loop client: every operation is one `rbkit`
invocation in a fresh Python process, started after the previous one ended,
with RBKIT_THREADS unset.  A run builds the inputs from the seed, then makes
passes over the operations until ``--seconds`` have gone by (at least two
passes), checks every output, and prints one JSON object as its last line.

With ``--trace 0`` it reports the end-to-end metrics: set-up time (median of
several set-ups), pass wall time and heaviest-operation time (medians over
passes), and the peak resident set of any operation; times are normalised
to the CPU's speed while they were taken (see ``SpeedProbe``).  With
``--trace 1`` it alternates untraced passes with passes in which each
operation runs under bench/tracer.py, checks that both give the same bytes,
and reports the per-layer metrics.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from checks import CheckError, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH / "tracer.py"
ENTRY = "import sys; from rbkit.cli import main; sys.exit(main())"  # the `rbkit` script
SETUP_REPEATS = 5
MIN_PASSES = 2
OP_TIMEOUT_S = 120.0
# Times are normalised to the machine's speed while they were taken:
# seconds * REF_NOMINAL_S / (median time of a fixed probe loop meanwhile).
# On a shared host the raw speed drifts by a third within minutes.
REF_LOOP = 10_000
REF_NOMINAL_S = 0.001
PROBE_INTERVAL_S = 0.05
MB = 1024.0  # ru_maxrss is in KiB on Linux


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RBKIT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_op(op, work: Path, env: dict, trace_path: Path | None = None):
    """Run one operation to completion: (Outcome, seconds, peak RSS in KiB)."""
    if op.csv:
        (work / op.csv).unlink(missing_ok=True)
    out_path, err_path = work / "op.stdout", work / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        if trace_path is None:
            cmd = [sys.executable, "-c", ENTRY, *op.argv]
        else:
            cmd = [sys.executable, str(TRACER), str(trace_path), repr(start), "--", *op.argv]
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    csv_path = work / op.csv if op.csv else None
    outcome = Outcome(
        returncode=proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        csv=csv_path.read_bytes() if csv_path and csv_path.exists() else None,
    )
    return outcome, seconds, usage.ru_maxrss


def setup(workload: str, seed: int, work: Path, env: dict):
    """Generate and write the inputs, then start one fresh `import rbkit.cli`."""
    start = time.perf_counter()
    ops = workloads.build(workload, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for op in ops:
        for name, text in op.files.items():
            (work / name).write_text(text, encoding="utf-8")
    subprocess.run([sys.executable, "-c", "import rbkit.cli"], cwd=work, env=env, check=True)
    return ops, time.perf_counter() - start


def digest(outcome: Outcome) -> tuple:
    return hashlib.sha256(outcome.stdout).hexdigest(), outcome.csv and hashlib.sha256(outcome.csv).hexdigest()


class Judge:
    """Checks outputs and counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # op index -> digest of the first untraced outcome

    def untraced(self, index: int, op, outcome: Outcome):
        self.attempted += 1
        seen = digest(outcome)
        if op.expect_usage_error:
            try:
                op.check(outcome)
            except CheckError:
                self.failed += 1
        elif index not in self.reference:
            try:
                op.check(outcome)
            except CheckError as exc:
                self.problems.append(f"{op.label}: {exc}")
        if self.reference.setdefault(index, seen) != seen:
            self.problems.append(f"{op.label}: output differs between repeats")

    def traced(self, index: int, op, outcome: Outcome):
        if digest(outcome) != self.reference[index]:
            self.problems.append(f"{op.label}: traced output differs from the untraced output")


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the CPU's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Times the probe loop before, and from a thread all through, a step.

    The step's processes share this process's single CPU, so the samples
    see the speed that CPU ran at meanwhile; the thread costs about 2% of it.
    """

    def __enter__(self):
        self.samples = [probe() for _ in range(3)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            self.samples.append(probe())

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def normalise(self, seconds: float) -> float:
        return seconds * REF_NOMINAL_S / statistics.median(self.samples)


def untraced_pass(ops, work, env, judge):
    """Run every operation once: (normalised seconds, raw seconds, peak RSS KiB) per op."""
    times, raw, rss = [], [], []
    for index, op in enumerate(ops):
        with SpeedProbe() as speed:
            outcome, seconds, rss_kb = run_op(op, work, env)
        judge.untraced(index, op, outcome)
        times.append(speed.normalise(seconds))
        raw.append(seconds)
        rss.append(rss_kb)
    return times, raw, rss


def traced_pass(ops, work, env, judge):
    trace_dir = work / "trace"
    trace_dir.mkdir(exist_ok=True)
    per_op = []
    wall = 0.0
    for index, op in enumerate(ops):
        path = trace_dir / f"op{index}.json"
        path.unlink(missing_ok=True)
        outcome, seconds, _ = run_op(op, work, env, path)
        wall += seconds
        judge.traced(index, op, outcome)
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        record["label"] = op.label
        record["stdout_bytes"] = len(outcome.stdout)
        per_op.append(record)
    return wall, per_op


def layer_summary(per_op: list, names: list) -> dict:
    """Per-layer metrics of one traced pass, summed over its operations.

    ``<layer>.<function>.calls`` and ``<layer>.<function>.s`` (self time)
    come straight from the tracer; the others are derived here.
    """
    self_s, calls = {}, {}
    for record in per_op:
        for name, value in record["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in record["calls"].items():
            calls[name] = calls.get(name, 0) + value
    steps = sum(r["counts"]["flows.rk4_steps"] for r in per_op)
    derived = {
        "ratlaurent.peak_terms": max(r["counts"]["ratlaurent.peak_terms"] for r in per_op),
        "ratlaurent.peak_coeff_bits": max(r["counts"]["ratlaurent.peak_coeff_bits"] for r in per_op),
        "flows.rk4_steps": steps,
        "flows.rk4_step_us": self_s.get("flows.integrate", 0.0) / steps * 1e6 if steps else 0.0,
        "flows.csv_bytes": sum(r["counts"]["flows.csv_bytes"] for r in per_op),
        "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in per_op),
        "cli.process_start_s": statistics.median(r["ready_s"] for r in per_op),
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".s"):
            values[name] = self_s.get(name[: -len(".s")], 0.0)
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # one CPU for the speed probe and every operation, so that the probe
    # measures the speed the operations ran at; children inherit the mask
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / workload
    env = child_env()
    setups = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as speed:
            ops, elapsed = setup(workload, seed, work, env)
        setups.append(speed.normalise(elapsed))
    judge = Judge()
    deadline = time.perf_counter() + seconds
    walls, raw_walls, top_times, peaks = [], [], [], []
    traced_walls, traced_passes = [], []
    while True:
        start = time.perf_counter()
        times, raw, rss = untraced_pass(ops, work, env, judge)
        walls.append(sum(times))
        raw_walls.append(sum(raw))
        top_times += [t for op, t in zip(ops, times) if op.top]
        peaks.append(max(rss) / MB)
        if trace:
            traced_wall, per_op = traced_pass(ops, work, env, judge)
            traced_walls.append(traced_wall)
            traced_passes.append(per_op)
        # stop rather than start a pass that would end after the deadline
        now = time.perf_counter()
        if (trace or len(walls) >= MIN_PASSES) and now + (now - start) > deadline:
            break

    if trace:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        summaries = [layer_summary(per_op, names) for per_op in traced_passes]
        values = {}
        for name in names:
            samples = [summary[name] for summary in summaries]
            if units[name] in ("s", "us"):
                values[name] = statistics.median(samples)
            elif any(v != samples[0] for v in samples):
                judge.problems.append(f"{name} differs between traced passes: {samples}")
            else:
                values[name] = samples[0]
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(raw_walls)
        with open(work / "trace.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "seed": seed, "metrics": values, "operations": traced_passes[0]}, handle)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "top_op_s": statistics.median(top_times),
            "peak_rss_mb": statistics.median(peaks),
        }
        print(f"passes {len(walls)}; unnormalised wall_s median {statistics.median(raw_walls):.6g} s")
    for problem in judge.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())},
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def all_workloads(seed: int, seconds: int) -> int:
    """One run of every workload; the last line combines their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        result = run_child(workload, seed, seconds)
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            combined["metrics"][f"{workload}.{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def repeat(selected: list, count: int, seed: int, seconds: int) -> int:
    """Run each workload ``count`` times on successive seeds; print the spread."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    summary = {}
    correct = True
    for workload in selected:
        results = [run_child(workload, seed + i, seconds) for i in range(count)]
        correct = correct and all(r["correct"] for r in results)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        print(f"{workload}: {count} runs, failed/attempted {', '.join(shares)}")
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(name)
            print(f"  {name}: median {median:.6g} {results[0]['metrics'][name]['unit']}, "
                  f"quartiles {q1:.6g}..{q3:.6g}, spread {spread:.3f}"
                  + (f" (bound {bound}, {spread / bound:.2f} of it)" if bound else ""))
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    print(json.dumps({"correct": correct, "repeat": count, "workloads": summary}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="runs per workload, each with the next seed")
    args = parser.parse_args(argv)
    if args.repeat is not None and args.repeat < 2:
        parser.error("--repeat needs at least 2 runs to give quartiles")
    if not (SRC / "rbkit" / "cli.py").is_file():
        print(f"rbkit sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.repeat:
        return repeat([args.workload] if args.workload else list(workloads.WORKLOADS), args.repeat, args.seed, seconds)
    if args.workload is None:
        return all_workloads(args.seed, seconds)
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
