"""Output checks for the benchmark operations.

Each check recomputes what it can from the benchmark's own inputs, with its
own formulas, instead of comparing against earlier output of the program:
the soliton constant from rho, the Pfaffian and contact verdict from (a, c),
the dimension of so(n,1), the generator brackets and the Jacobi identity
from the printed structure constants, and the flow endpoints from the
special-conformal form of the boost.  A check raises ``CheckError`` with a
message naming what is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

EXIT_USAGE = 64
FLOW_TOLERANCE = 1e-8


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Outcome:
    """What one operation left behind."""

    returncode: int
    stdout: bytes
    stderr: bytes
    csv: bytes | None = None


def _require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def _records(out: Outcome) -> list:
    _require(out.returncode == 0, f"exit {out.returncode}: {out.stderr.decode(errors='replace')[-300:]}")
    try:
        return [json.loads(line) for line in out.stdout.decode().splitlines()]
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON lines: {exc}") from exc


def _by_name(records: list, expected: list) -> dict:
    names = [r.get("name") for r in records]
    _require(names == expected, f"records {names}, expected {expected}")
    for r in records:
        _require(r.get("status") == "pass", f"{r['name']}: status {r.get('status')!r}")
        _require(r.get("timing") is None, f"{r['name']}: timing should be null without --timings")
    return {r["name"]: r["witness"] for r in records}


def _match(pattern: str, text: str, what: str) -> re.Match:
    found = re.search(pattern, text)
    _require(found is not None, f"{what}: no match for {pattern!r} in {text[:200]!r}")
    return found


# -- verify ------------------------------------------------------------------

VERIFY_CHECKS = [
    "killing_residual",
    "rb_residual",
    "dual_form_not_closed",
    "dual_form_preserved",
    "contact_consistency",
]


def check_verify(n: int, rho: Fraction, out: Outcome):
    expected = VERIFY_CHECKS if n % 2 else VERIFY_CHECKS[:-1]
    witness = _by_name(_records(out), expected)
    found = _match(r"^residual = 0 at lambda = (\S+) \(rho = (\S+)\)$", witness["rb_residual"], "rb_residual")
    lam = (n - 1) * (n * rho - 1)
    _require(Fraction(found[2]) == rho, f"rb_residual: rho {found[2]}, expected {rho}")
    _require(Fraction(found[1]) == lam, f"rb_residual: lambda {found[1]}, expected {lam}")


# -- contact -----------------------------------------------------------------

CONTACT_RECORDS = ["contact_matrix", "pfaffian", "top_form", "contact_verdict"]


def _rational(text: str, what: str) -> Fraction:
    _require(re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text) is not None, f"{what}: {text!r} is not a rational")
    return Fraction(text)


def check_contact(n: int, a: tuple, c: tuple, out: Outcome):
    witness = _by_name(_records(out), CONTACT_RECORDS)
    size = n - 1
    matrix = [[a[i] * c[j] - a[j] * c[i] for j in range(size)] for i in range(size)]
    rows = _match(r"; M = \[(.*)\]$", witness["contact_matrix"], "contact_matrix")[1].split("; ")
    printed = [[_rational(v, "contact_matrix") for v in row.split(",")] for row in rows]
    _require(printed == matrix, "contact_matrix: entries differ from a_i*c_j - a_j*c_i")

    # M = a c^T - c a^T has rank <= 2, so its Pfaffian vanishes beyond size 2
    pf = a[0] * c[1] - a[1] * c[0] if n == 3 else Fraction(0)
    found = _match(r"^Pf = (\S+); det = (\S+)$", witness["pfaffian"], "pfaffian")
    _require(_rational(found[1], "Pf") == pf, f"pfaffian: Pf = {found[1]}, expected {pf}")
    _require(_rational(found[2], "det") == pf * pf, f"pfaffian: det = {found[2]}, expected {pf * pf}")

    m = (n - 1) // 2
    found = _match(rf"; times xn\^{n} = (.+); \|cleared\|/2\^{m} == \|Pf\|: true$", witness["top_form"], "top_form")
    cleared = _rational(found[1], "top_form cleared coefficient")
    _require(abs(cleared) == 2**m * abs(pf), f"top_form: |cleared| = {abs(cleared)}, expected {2**m * abs(pf)}")

    verdict = "true" if pf else "false"
    _require(witness["contact_verdict"] == f"contact = {verdict}", f"contact_verdict: expected contact = {verdict}")


# -- algebra -----------------------------------------------------------------


def _basis_names(n: int) -> list:
    seeds = [f"T{k}" for k in range(1, n)] + ["D"] + [f"G{k}" for k in range(1, n)]
    return seeds + [f"B{i}" for i in range(len(seeds) + 1, n * (n + 1) // 2 + 1)]


def _bracket(table: dict, x: dict, y: dict) -> dict:
    """Bracket of two elements given as sparse coordinate maps."""
    out: dict = {}
    for i, u in x.items():
        for j, v in y.items():
            for k, w in table.get((i, j), {}).items():
                out[k] = out.get(k, 0) + u * v * w
    return {k: v for k, v in out.items() if v}


def check_algebra(n: int, out: Outcome):
    expected = ["generators", "bracket_table", "closure", "structure_constants"]
    witness = _by_name(_records(out), expected + (["sl2_fingerprint"] if n == 2 else []))
    dim = n * (n + 1) // 2
    found = _match(
        r"^dimension = (\d+); seed_dimension = (\d+); cap = \d+; already_closed = (\w+); cap_exceeded = (\w+);",
        witness["closure"],
        "closure",
    )
    _require(int(found[1]) == dim, f"closure: dimension {found[1]}, expected n(n+1)/2 = {dim}")
    _require(int(found[2]) == 2 * n - 1, f"closure: seed_dimension {found[2]}, expected 2n-1 = {2 * n - 1}")
    _require(found[4] == "false", "closure: cap_exceeded should be false")

    names = _basis_names(n)
    index = {name: i for i, name in enumerate(names)}
    table: dict = {}
    for entry in witness["structure_constants"].split("; "):
        parts = re.fullmatch(r"c\[(\w+),(\w+),(\w+)\] = (\S+)", entry)
        _require(parts is not None and all(p in index for p in parts.groups()[:3]), f"structure constant {entry!r}")
        i, j, k = (index[p] for p in parts.groups()[:3])
        _require(i < j and k not in table.get((i, j), {}), f"structure constant {entry!r} out of order or repeated")
        value = _rational(parts[4], entry)
        table.setdefault((i, j), {})[k] = value
        table.setdefault((j, i), {})[k] = -value

    # brackets every convention of the generators must satisfy:
    # [T_k, D] = T_k, [D, G_k] = G_k, [T_k, G_k] = D
    for k in range(1, n):
        t, g, d = index[f"T{k}"], index[f"G{k}"], index["D"]
        _require(table.get((t, d)) == {t: 1}, f"[T{k},D] should be T{k}")
        _require(table.get((d, g)) == {g: 1}, f"[D,G{k}] should be G{k}")
        _require(table.get((t, g)) == {d: 1}, f"[T{k},G{k}] should be D")

    unit = [{i: 1} for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total: dict = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for key, v in _bracket(table, unit[x], _bracket(table, unit[y], unit[z])).items():
                        total[key] = total.get(key, 0) + v
                _require(not any(total.values()), f"Jacobi identity fails on {names[i]}, {names[j]}, {names[k]}")


# -- flow ----------------------------------------------------------------------


def closed_form(gen: str, point: tuple, t: float) -> tuple:
    """Endpoint of the generator flow from ``point`` after time ``t``.

    Boosts are special conformal maps x -> (x - s|x|^2 e_k) / (1 - 2 s x_k +
    s^2 |x|^2): s = t/2 for the half-coefficient boosts G_k, s = t for the
    plane rotation G (k = 1).
    """
    x = list(point)
    if gen == "D":
        return tuple(math.exp(t) * v for v in x)
    k = int(gen[1:] or 1)
    if gen.startswith("T"):
        x[k - 1] += t
        return tuple(x)
    s = t if gen == "G" else t / 2.0
    sq = sum(v * v for v in x)
    denom = 1.0 - 2.0 * s * x[k - 1] + s * s * sq
    x[k - 1] -= s * sq
    return tuple(v / denom for v in x)


def check_flow(gen: str, point: tuple, t_max: float, dt: float, out: Outcome):
    _require(out.returncode == 0, f"exit {out.returncode}: {out.stderr.decode(errors='replace')[-300:]}")
    lines = out.stdout.decode().splitlines()
    _require(len(lines) == 2 and lines[0].startswith("convention: "), f"stdout {lines!r}")
    found = _match(r"^max_deviation_vs_closed_form: (\S+)$", lines[1], "flow stdout")
    _require(float(found[1]) < FLOW_TOLERANCE, f"max deviation {found[1]} exceeds {FLOW_TOLERANCE}")
    _require(out.csv is not None, "no trajectory CSV")
    rows = list(csv.reader(io.StringIO(out.csv.decode())))
    n = len(point)
    header = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [f"cx{i}" for i in range(1, n + 1)] + ["err"]
    _require(rows[0] == header, f"CSV header {rows[0]}")
    steps = round(t_max / dt)
    _require(len(rows) == steps + 2, f"CSV has {len(rows) - 1} rows, expected {steps + 1}")
    first = [float(v) for v in rows[1][1 : n + 1]]
    _require(first == list(point), f"first CSV row {first}, expected the start point {list(point)}")
    last = [float(v) for v in rows[-1]]
    _require(abs(last[0] - t_max) < 1e-9, f"final time {last[0]}, expected {t_max}")
    expected = closed_form(gen, point, t_max)
    gap = max(abs(u - v) for u, v in zip(last[1 : n + 1], expected))
    _require(gap < FLOW_TOLERANCE, f"final point {last[1:n + 1]} is {gap:.3g} from the closed form {expected}")


def check_usage_error(out: Outcome):
    """Malformed or non-finite arguments: exit 64 with a message, no traceback."""
    _require(
        out.returncode == EXIT_USAGE and b"Traceback" not in out.stderr,
        f"exit {out.returncode}, expected {EXIT_USAGE}: {out.stderr.decode(errors='replace').strip()[-200:]}",
    )
