"""Command-line entry point: verification suites, contact reports, flows.

Reports are line-oriented JSON, one check per line, so suites can be diffed
and streamed.  ``verify``, ``contact`` and ``algebra`` return
``(name, status, witness, ms)`` tuples; ``_emit`` alone writes them as
records and picks the exit code.  Identical inputs (including the random
seed) produce byte-identical output: ``_emit`` writes the ``timing`` field
as null unless ``--timings`` is passed.  Exit codes: 0 all checks pass,
1 some check failed, 2 a trajectory escaped at runtime, 64 usage or parse
error.

``flow`` streams its trajectory CSV row by row, comparing each state with the
closed form in the same pass; the largest gap is the printed deviation, and
the ``convention:`` line is printed once the CSV is written.  Each input is
checked by the type that owns it, and this module only maps the error to
exit 64: the generator name and n by ``FlowSpec``, the start point (finite,
last coordinate nonnegative) by ``FlowState``, and ``dt``, ``t_max``, the
step count (at most ``flows.MAX_STEPS``), the arity and the stored
coordinates (steps + 1) * n (at most ``flows.MAX_STORED_COORDS``) by
``flows._step_sizes``, the check ``integrate`` runs first.  Only then is
``--out`` opened for writing, so a usage error leaves a stale file there
as it was.  An ``--out`` that cannot be opened exits 64 before any field
is built, and one whose rows cannot be written exits 64 too.  Values of
``--point``, ``--dt`` and ``--t-max`` may start with "-".
A start at the origin, a zero of D, of every boost and of the plane
rotation, stays fixed, at any horizon.  A state at which the closed form
has no finite value (its pole, or a dilation x e^t beyond the float range)
ends the CSV and exits 2, like an escape;
if an RK4 step also overflowed, that overflow is the escape printed.  An
RK4 escape writes the rows before it, at least the start row; a closed
form with no finite value at the start writes the header alone.

``verify`` builds each instance's field once and runs its checks in one
pass (``_checks``), which builds L_X g, the dual form w and dw just before
the first check that reads them and keeps them for the later ones.  Under
``--timings`` a shared object's time counts toward the first check that
builds it.  A witness is formatted only for the record that keeps it (the
file's instance, or a more severe status), and that formatting is not
part of the check's ms.  ``verify --trials`` is at most ``MAX_TRIALS``, checked before any
parameter set is built; a larger count exits 64.  The ``n`` of a
``--params`` file is at most ``MAX_PARAMS_N``, checked as soon as it is
read; a larger n exits 64 with a parse error, and so does a numerator or
denominator longer than (L - 1) // 8 digits, L the int-string conversion
limit of ``sys.get_int_max_str_digits`` (none when L is 0), since a
printed determinant has up to 8 times their digits.  ``algebra --n`` runs for
2 <= n <= ``MAX_ALGEBRA_N`` (the closure has dimension n(n+1)/2, 45 at
n = 9); any other n exits 64.  ``flow --n`` is at most
``flows.MAX_FLOW_N``, checked by ``FlowSpec`` before any field is built;
a larger n exits 64.

This module binds the layer modules, not their names, and reads each name
when a command runs (``halfspace.flat(field)``).  The layers load lazily
(see the package docstring), so a call compiles and runs only the layers
of its command: ``algebra`` ratlaurent, exterior and solitons; ``contact``
and ``verify`` those three and halfspace; ``flow`` those three and flows.
To replace one of those functions (in a test, say), patch it on its layer.

Rational values travel as strings like "3" or "-1/2" so that exact inputs
never pass through floats.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import exterior, flows, halfspace, ratlaurent, solitons
from .errors import FlowEscape, NonFinite, OddSize, ParseError, RBKitError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ESCAPE = 2
EXIT_USAGE = 64
MAX_TRIALS = 10**4  # a time budget: one n = 15 instance takes about 0.09 s, so about 15 minutes
MAX_ALGEBRA_N = 9  # the closure brackets every pair of its n(n+1)/2 basis fields
MAX_PARAMS_N = 15  # contact's top form w ^ (dw)^m: about 0.08 s at n = 15, 0.5 s at n = 21


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def load_params(path: str) -> halfspace.SolitonParams:
    """Read a parameter file: {"n": int, "a": [...], "b": str, "c": [...], "rho": str}."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal beyond the int conversion limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("n", "a", "b", "c", "rho"):
        if key not in raw:
            raise ParseError(f"{path}: missing field '{key}'")
    n = raw["n"]
    if not isinstance(n, int) or n < 2:
        raise ParseError(f"{path}: field 'n': must be an integer >= 2")
    if n > MAX_PARAMS_N:
        raise ParseError(f"{path}: field 'n': {n} exceeds the limit of {MAX_PARAMS_N}")
    limit = sys.get_int_max_str_digits()  # 0 means no limit
    # the longest printed value, det = Pf^2 at n = 3, has up to 8D + 1 digits for D-digit parts
    digits = (limit - 1) // 8

    def rat(value, where: str) -> Fraction:
        try:
            x = ratlaurent.parse_rational(value)
        except ValueError as exc:
            raise ParseError(f"{path}: field '{where}': {exc}") from exc
        if limit and max(abs(x.numerator), x.denominator) >= 10**digits:
            raise ParseError(
                f"{path}: field '{where}': numerator or denominator longer than {digits} digits"
            )
        return x

    for key in ("a", "c"):
        if not isinstance(raw[key], list) or len(raw[key]) != n - 1:
            raise ParseError(f"{path}: field '{key}': expected a list of length n-1 = {n - 1}")
    a = tuple(rat(v, f"a[{i}]") for i, v in enumerate(raw["a"]))
    c = tuple(rat(v, f"c[{i}]") for i, v in enumerate(raw["c"]))
    b = rat(raw["b"], "b")
    rho = rat(raw["rho"], "rho")
    try:
        return halfspace.SolitonParams(n=n, a=a, b=b, c=c, rho=rho)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# -- verify ------------------------------------------------------------------


def _checks(params: halfspace.SolitonParams, field):
    """Yield (name, status, witness) for each check of one instance, in record order.

    L_X g, the dual form w and dw are built just before the first check
    that reads them and kept for the later ones.  A witness may be a
    function that formats it, for ``cmd_verify`` to call only when a record
    keeps it.  The contact check runs at odd n only.
    """
    lie_g = halfspace.lie_derivative_metric(field)
    if lie_g.is_zero():
        yield "killing_residual", "pass", "L_X g = 0"
    else:
        yield "killing_residual", "fail", lambda: f"L_X g = {lie_g.text()}"

    lam = halfspace.soliton_lambda(params.n, params.rho)
    residual = halfspace.rb_residual(lie_g, params)
    if residual.is_zero():
        yield "rb_residual", "pass", f"residual = 0 at lambda = {lam} (rho = {params.rho})"
    else:
        yield "rb_residual", "fail", lambda: f"residual = {residual.text()} at lambda = {lam}"

    omega = halfspace.flat(field)
    domega = exterior.ext_d(omega)
    if not domega.is_zero():
        yield "dual_form_not_closed", "pass", lambda: f"dw = {domega.text()}"
    elif params.degenerate:
        yield "dual_form_not_closed", "degenerate", "dw = 0 (constant field)"
    else:
        yield "dual_form_not_closed", "fail", "dw = 0"

    result = exterior.lie_derivative_form(field, omega, domega)
    if result.is_zero():
        yield "dual_form_preserved", "pass", "L_X w = 0 (homotopy identity and direct formula agree)"
    else:
        yield "dual_form_preserved", "fail", lambda: f"L_X w = {result.text()}"

    if params.n % 2:
        report = solitons.contact_report(params, omega, domega)
        yield "contact_consistency", ("pass" if report.consistent else "fail"), lambda: (
            f"Pf = {report.pf}; det = {report.det}; "
            f"top*xn^{params.n} = {report.cleared.text()}; "
            f"contact = {'true' if report.is_contact else 'false'}; {solitons.MATRIX_CONVENTION}"
        )


# a running status gives way only to a more severe one: the first fail is
# kept, else the first degenerate, else the file's unlabelled witness
_SEVERITY = {"pass": 0, "degenerate": 1, "fail": 2}


def cmd_verify(params: halfspace.SolitonParams, trials: int, seed: int):
    """Check the file's parameters, then each trial, one instance at a time.

    Each check keeps one running record, its ms summed over the instances:
    the time of the ``next`` of ``_checks`` that yields it.  A witness
    given as a function is called only when the record keeps it, outside
    the timed interval.
    """
    rng = random.Random(seed)
    records = {}  # name -> [status, witness, ms]
    for k in range(trials + 1):
        label = f"trial {k}" if k else "params"
        instance = halfspace.random_params(rng, params.n) if k else params
        checks = _checks(instance, solitons.build_field(instance))
        start = time.perf_counter()
        for name, status, witness in checks:
            ms = _ms_since(start)
            record = records.setdefault(name, ["pass", None, 0.0])
            record[2] += ms
            if k == 0 or _SEVERITY[status] > _SEVERITY[record[0]]:
                witness = witness() if callable(witness) else witness
                record[:2] = status, witness if status == "pass" else f"{label}: {witness}"
            start = time.perf_counter()
    return [(name, *record) for name, record in records.items()]


# -- contact -----------------------------------------------------------------


def cmd_contact(params: halfspace.SolitonParams):
    start = time.perf_counter()
    omega = halfspace.flat(solitons.build_field(params))
    try:
        report = solitons.contact_report(params, omega, exterior.ext_d(omega))
    except OddSize as exc:
        raise _UsageError(str(exc)) from exc
    ms = _ms_since(start)  # one total, shared by the four records
    consistent = "true" if report.consistent else "false"
    verdict = "true" if report.is_contact else "false"
    rows = "; ".join(",".join(map(str, row)) for row in report.matrix)
    top_form = (
        f"coefficient = {report.top_coeff.text()}; times xn^{params.n} = {report.cleared.text()}; "
        f"|cleared|/2^{(params.n - 1) // 2} == |Pf|: {consistent}"
    )
    return [
        ("contact_matrix", "pass", f"{solitons.MATRIX_CONVENTION}; M = [{rows}]", ms),
        ("pfaffian", "pass", f"Pf = {report.pf}; det = {report.det}", ms),
        ("top_form", "pass" if report.consistent else "fail", top_form, ms),
        ("contact_verdict", "pass", f"contact = {verdict}", ms),
    ]


# -- flow --------------------------------------------------------------------


def cmd_flow(gen: str, n: int, point, t_max: float, dt: float, out_path: str) -> int:
    # every usage error comes before --out is opened, so a stale file is kept
    # on one; the start is checked here, not in the try below: a non-finite
    # start is a usage error, a non-finite step is an escape
    try:
        spec, p0 = flows.FlowSpec(kind=gen, n=n), flows.FlowState(tuple(point))
        flows._step_sizes(spec.n, p0, t_max, dt)
        open(out_path, "w", encoding="utf-8").close()
    except OSError as exc:
        raise _UsageError(f"--out: {exc}") from exc
    except (ValueError, RBKitError) as exc:
        raise _UsageError(str(exc)) from exc
    try:
        states, escape = flows.integrate(spec.field(), p0, t_max, dt), None
    except FlowEscape as exc:
        states, escape = exc.trajectory, exc
    try:
        worst = flows.write_trajectory_csv(out_path, states, spec)
    except OSError as exc:
        raise _UsageError(f"--out: {exc}") from exc
    except NonFinite as exc:
        # the closed form reached its pole; the CSV stops there.  An overflow
        # in the steps is still the escape reported.
        if not isinstance(escape, NonFinite):
            escape = exc
    print(f"convention: {spec.convention()}")
    if escape is not None:
        print(f"escape: {escape}")
        return EXIT_ESCAPE
    print(f"max_deviation_vs_closed_form: {worst!r}")
    return EXIT_PASS


# -- algebra -----------------------------------------------------------------


def cmd_algebra(n: int):
    if not 2 <= n <= MAX_ALGEBRA_N:
        raise _UsageError(f"algebra command supports 2 <= n <= {MAX_ALGEBRA_N}, got {n}")
    start = time.perf_counter()
    names, seeds = solitons.generator_names(n), solitons.generators(n)
    span = solitons.algebra_closure(seeds)
    dimension = len(span.basis)
    basis_names = list(names) + [f"B{i}" for i in range(len(names) + 1, dimension + 1)]
    brackets = {pair: field for pair, field, _ in span.brackets}
    table = "; ".join(
        f"[{names[i]},{names[j]}] = {brackets[i, j].text()}"
        for j in range(len(seeds))
        for i in range(j)
    )
    added = "; ".join(
        f"[{basis_names[i]},{basis_names[j]}] = {field.text()}" for (i, j), field in span.added
    )
    already_closed = not span.added and not span.cap_exceeded
    closure_witness = (
        f"dimension = {dimension}; seed_dimension = {span.seed_dimension}; "
        f"cap = {span.cap}; already_closed = {'true' if already_closed else 'false'}; "
        f"cap_exceeded = {'true' if span.cap_exceeded else 'false'}; "
        f"adjoined = [{added}]"
    )
    gens = "; ".join(f"{nm} = {f.text()}" for nm, f in zip(names, seeds))
    closure_status = "degenerate" if span.cap_exceeded else "pass"
    # each time is cumulative since the command started
    records = [
        ("generators", "pass", gens, _ms_since(start)),
        ("bracket_table", "pass", table, _ms_since(start)),
        ("closure", closure_status, closure_witness, _ms_since(start)),
    ]
    if not span.cap_exceeded:
        constants = solitons.structure_constants(span)
        text = "; ".join(
            f"c[{basis_names[i - 1]},{basis_names[j - 1]},{basis_names[k - 1]}] = {v}"
            for (i, j, k), v in sorted(constants.items())
            if i < j
        )
        records.append(("structure_constants", "pass", text, _ms_since(start)))
    if n == 2:
        ok = solitons.sl2_check()
        witness = "e = T1, f = -G, h = -2D satisfy [h,e]=2e, [h,f]=-2f, [e,f]=h"
        if not ok:
            witness = "sl2 bracket table not satisfied"
        records.append(("sl2_fingerprint", "pass" if ok else "fail", witness, _ms_since(start)))
    return records


# -- entry point ---------------------------------------------------------------


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _emit(records, timings: bool) -> int:
    """Write each (name, status, witness, ms) record as one JSON line."""
    failed = False
    for name, status, witness, ms in records:
        timing = round(ms, 3) if timings else None
        record = {"name": name, "status": status, "witness": witness, "timing": timing}
        sys.stdout.write(json.dumps(record) + "\n")
        failed = failed or status == "fail"
    return EXIT_FAIL if failed else EXIT_PASS


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="rbkit",
        description="Exact checks of the Killing fields that make hyperbolic space H^n a\n"
        "Ricci-Bourguignon soliton, and float flows of its generators.",
        epilog="exit codes:\n"
        f"  {EXIT_PASS:<3} every check passed\n"
        f"  {EXIT_FAIL:<3} some check failed\n"
        f"  {EXIT_ESCAPE:<3} a flow trajectory escaped at runtime\n"
        f"  {EXIT_USAGE:<3} usage or parse error",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check the soliton identities of a parameter file")
    p_verify.add_argument("--params", required=True, help="JSON parameter file")
    p_verify.add_argument("--trials", type=int, default=25, help="random parameter sets to sweep")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the random sweep")
    p_verify.add_argument("--timings", action="store_true", help="include wall-clock timings")

    p_contact = sub.add_parser("contact", help="decide if the dual 1-form of an odd-n field is contact")
    p_contact.add_argument("--params", required=True)
    p_contact.add_argument("--timings", action="store_true")

    p_flow = sub.add_parser("flow", help="RK4 flow of a generator beside its closed form, as CSV")
    p_flow.add_argument("--gen", required=True, help="generator name: D, Tk, Gk, or G (n=2)")
    p_flow.add_argument("--n", type=int, required=True)
    p_flow.add_argument("--point", required=True, help="comma-separated start coordinates")
    p_flow.add_argument("--t-max", type=float, default=1.0)
    p_flow.add_argument("--dt", type=float, default=1e-3)
    p_flow.add_argument("--out", required=True, help="trajectory CSV path")

    p_algebra = sub.add_parser("algebra", help="bracket table and closure report of the Killing generators")
    p_algebra.add_argument("--n", type=int, required=True)
    p_algebra.add_argument("--timings", action="store_true")
    return parser


# options whose value may start with "-": argparse reads "-1,1" or "-1e-3"
# as an unknown option unless it is joined to its option name
_SIGNED_OPTIONS = ("--point", "--dt", "--t-max")


def _join_signed_values(argv) -> list:
    """Rewrite each "--opt value" of _SIGNED_OPTIONS as "--opt=value"."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _SIGNED_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
        if args.command == "verify":
            if args.trials < 0:
                raise _UsageError("--trials must be nonnegative")
            if args.trials > MAX_TRIALS:
                raise _UsageError(f"--trials {args.trials} exceeds the limit of {MAX_TRIALS}")
            params = load_params(args.params)
            return _emit(cmd_verify(params, args.trials, args.seed), args.timings)
        if args.command == "contact":
            return _emit(cmd_contact(load_params(args.params)), args.timings)
        if args.command == "flow":
            try:
                point = [float(x) for x in args.point.split(",")]
            except ValueError as exc:
                raise _UsageError(f"--point: {exc}") from exc
            return cmd_flow(args.gen, args.n, point, args.t_max, args.dt, args.out)
        # the parser admits no command but the four, so this one is "algebra"
        return _emit(cmd_algebra(args.n), args.timings)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
