"""Command-line front end: subcommands stringy, covers, verify, and suite.

All reports are exact: rationals are serialized as strings like "5/3" and
motivic values as {"scale": r, "num": [[k, c], ...], "den": [[k, c], ...]}.
Output is deterministic for a fixed invocation (including --seed); colors
only ever appear on the stderr progress stream and honor NO_COLOR.

Exit codes: 0 success, 1 internal error, 2 precondition violation
(gf.PreconditionError: NotStringilyKLT, NotKLT, invalid flags and
values), 3 verification failure.

Every command, subcommand and option is one entry of the COMMANDS table.
A plain call (a command path, then each of its options once, by its exact
flag) is read straight from the table by `parse`; any other argv, with
help and every parse error, goes to the argparse parser that
`build_parser` builds from the same table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .gf import GF, PreconditionError, prime_power_decomposition, require_prime

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3

def schema_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "schema.json")


def _rat(x) -> str:
    from fractions import Fraction

    return str(Fraction(x))


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"expected a rational like 3 or -1/2, got {text!r}")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PreconditionError(f"expected comma-separated dimensions like 2,2,1, got {text!r}")


def _parse_series(field, text: str) -> dict[int, int]:
    """Parse 'exp:coeff,exp:coeff' with int or polynomial coefficients
    into {exponent: code}; like terms add up, and a zero sum stays."""
    coeffs, add = {}, field.codes[0]
    text = text.strip()
    if text:
        for chunk in text.split(","):
            exp_s, _, coeff_s = chunk.partition(":")
            if not coeff_s:
                raise PreconditionError(f"malformed series term {chunk!r}; expected exp:coeff")
            try:
                e, c = int(exp_s), field.parse(coeff_s)
            except ValueError as exc:
                raise PreconditionError(f"malformed series term {chunk!r}: {exc}") from None
            coeffs[e] = add(coeffs.get(e, 0), c)
    return coeffs


def _degree(p: int, q: int) -> int:
    """e with q = p^e; no field is built."""
    pe = prime_power_decomposition(q)
    if pe is None or pe[0] != p:
        raise PreconditionError(f"--q must be a power of --p (got q={q}, p={p})")
    return pe[1]


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(obj)))


def _emit(report, fmt: str) -> None:
    if fmt == "tsv":
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        for key, value in rows:
            sys.stdout.write(f"{key}\t{value}\n")
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=False))
        sys.stdout.write("\n")


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _progress(line: str, ok: bool) -> None:
    if _use_color():
        code = "32" if ok else "31"
        line = f"\x1b[{code}m{line}\x1b[0m"
    sys.stderr.write(line + "\n")


# -- subcommand handlers ------------------------------------------------------
# Each handler imports the modules it uses, so a call compiles only those.


def _cmd_stringy_invariant(args) -> int:
    from . import stringy

    rep = stringy.RepType(args.p, _parse_dims(args.dims))
    e_st = stringy.stringy_euler(rep)  # raises NotStringilyKLT when D < p
    crepant = stringy.crepant_diagnostic(rep)
    m = crepant["stringy_invariant"]
    w = stringy.projectivized_invariant(rep)
    report = {
        "p": rep.p,
        "dims": list(rep.dims),
        "D_V": stringy.shift_slope(rep),
        "sht": [[s, sht] for s, sht in enumerate(stringy.shift_numbers(rep), 1)],
        "M_st": m.to_json(),
        "M_st_display": str(m),
        "e_st": _rat(e_st),
        "crepant": {
            "dv_equals_p": crepant["dv_equals_p"],
            "polynomial_class": crepant["polynomial_class"],
            "euler_is_p": crepant["euler_is_p"],
            "candidate_class_of_Y": (
                crepant["candidate_class_of_Y"].to_json()
                if crepant["candidate_class_of_Y"] is not None
                else None
            ),
        },
        "E0": stringy.origin_fiber_class(rep).to_json(),
        "projectivized": w.to_json(),
        "duality_ok": w.dual(rep.dim) == w,
    }
    _emit(report, args.format)
    return EXIT_OK


def _cmd_stringy_pair(args) -> int:
    from . import stringy

    a = _parse_fraction(args.a)
    if args.stack:
        value = stringy.stack_pair_invariant(args.p, a)
    else:
        require_prime(args.p)  # the smooth model does not depend on p
        value = stringy.smooth_pair_invariant(2, a)
    _emit(value.to_json(), args.format)
    return EXIT_OK


def _cmd_stringy_pointcount(args) -> int:
    from . import stringy

    rep = stringy.RepType(args.p, _parse_dims(args.dims))
    count = stringy.origin_fiber_point_count(rep, args.q)
    _emit(_rat(count), args.format)
    return EXIT_OK


def _cmd_covers_reduce(args) -> int:
    from . import covers

    F = GF(args.p, _degree(args.p, args.q))
    cls = covers.reduce(F, _parse_series(F, args.series))
    _emit(cls.to_json(), args.format)
    return EXIT_OK


def _cmd_covers_census(args) -> int:
    from . import covers

    _degree(args.p, args.q)
    report = covers.enumerate_covers(args.q, args.max_exp, guard=args.max_enum)
    _emit(report.to_json(list_forms=args.list_forms), args.format)
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


def _cmd_covers_count(args) -> int:
    from . import covers

    _degree(args.p, args.q)
    if args.extensions:
        n = covers.count_extensions(args.q, args.jump)
    else:
        n = covers.count_rep_covers(args.q, args.jump)
    _emit(n, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import invariant_rings

    if args.relation == "v3":
        result = invariant_rings.verify_dim3_relation(args.p)
        report = {
            "relation": "v3",
            "p": args.p,
            "ok": result["ok"],
            "details": {"residual": str(result["residual"])},
        }
        ok = result["ok"]
    elif args.relation == "v2v2":
        result = invariant_rings.verify_dim22_relation()
        ok = result["ok"] and result["invariance_ok"]
        report = {
            "relation": "v2v2",
            "ok": result["ok"],
            "details": {
                "invariance_ok": result["invariance_ok"],
                "residual": str(result["residual"]),
            },
        }
    else:
        result = invariant_rings.reflection_jacobian_check(args.p, args.d)
        ok = result["invariance_ok"] and result["det_ok"]
        report = {
            "relation": "reflection",
            "p": args.p,
            "d": args.d,
            "ok": ok,
            "details": {
                "invariance_ok": result["invariance_ok"],
                "det_ok": result["det_ok"],
                "determinant": str(result["determinant"]),
            },
        }
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_suite(args) -> int:
    from . import acceptance

    results = acceptance.run_suite(seed=args.seed, only=args.only)
    if not results:
        known = ", ".join(name for name, _ in acceptance.CRITERIA)
        raise PreconditionError(f"--only {args.only!r} matches no criterion (known: {known})")
    for r in results:
        _progress(r.line, r.ok)
    report = {
        "seed": args.seed,
        "criteria": [r.to_json() for r in results],
        "all_ok": all(r.ok for r in results),
    }
    _emit(report, args.format)
    return EXIT_OK if report["all_ok"] else EXIT_VERIFICATION


# -- command table -------------------------------------------------------------

REQUIRED = object()  # the default of an option that must be given


def _opt(flag, kind=int, default=REQUIRED, help=None):
    """A leaf's option (flag, kind, default, help); kind is int, str, or bool
    for a switch, whose default is False."""
    return flag, kind, False if kind is bool else default, help


# Every command path, in help order: a group is (help, dest of its
# subcommand), a leaf is (help, handler, options).
COMMANDS = {
    ("stringy",): ("stringy invariants of quotient singularities", "subcommand"),
    ("stringy", "invariant"): ("full invariant report for a representation type", _cmd_stringy_invariant, (
        _opt("--p"), _opt("--dims", str, help="comma-separated summand dimensions"))),
    ("stringy", "pair"): ("pair invariant for the 2-dimensional reflection case", _cmd_stringy_pair, (
        _opt("--p"), _opt("--a", str, help="boundary coefficient, e.g. -1/2"),
        _opt("--stack", bool, help="stack-side invariant instead of the smooth model"))),
    ("stringy", "pointcount"): ("weighted extension count of the origin fiber", _cmd_stringy_pointcount, (
        _opt("--p"), _opt("--dims", str), _opt("--q"))),
    ("covers",): ("Artin-Schreier covers of the formal disk", "subcommand"),
    ("covers", "reduce"): ("normal form of a cover class", _cmd_covers_reduce, (
        _opt("--p"), _opt("--q"), _opt("--series", str, help='comma-separated "exp:coeff" pairs; write '
                                       "--series=-2:1,... when the first exponent is negative"))),
    ("covers", "census"): ("brute-force reduction census", _cmd_covers_census, (
        _opt("--p"), _opt("--q"), _opt("--max-exp"),
        _opt("--max-enum", default=10 ** 7, help="enumeration guard on q^max_exp"),
        _opt("--list-forms", bool, help="include the normal forms in the report"))),
    ("covers", "count"): ("stratum counting formulas", _cmd_covers_count, (
        _opt("--p"), _opt("--q"), _opt("--jump"),
        _opt("--extensions", bool, help="count field extensions instead of representative polynomials"))),
    ("verify",): ("invariant-ring relation oracles", "relation"),
    ("verify", "v3"): ("degree-3 indecomposable hypersurface equation", _cmd_verify, (_opt("--p"),)),
    ("verify", "v2v2"): ("two 2-dimensional summands at p = 2", _cmd_verify, ()),
    ("verify", "reflection"): ("reflection-case Jacobian determinant", _cmd_verify, (_opt("--p"), _opt("--d"))),
    ("suite",): ("run the full verification battery", _cmd_suite, (
        _opt("--seed", default=0), _opt("--only", str, None, "run only criteria whose name contains this"))),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of COMMANDS, source of all help and error text."""
    parser = argparse.ArgumentParser(
        prog="wildmckay",
        description="Exact invariants of wild Z/p quotient singularities and "
        "Artin-Schreier covers of the formal disk.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (text, *rest) in COMMANDS.items():
        node = groups[path[:-1]].add_parser(path[-1], help=text)
        if len(rest) == 1:
            groups[path] = node.add_subparsers(dest=rest[0], required=True)
            continue
        handler, options = rest
        for flag, kind, default, hint in options:
            if kind is bool:
                node.add_argument(flag, action="store_true", help=hint)
            else:
                node.add_argument(flag, type=kind, required=default is REQUIRED,
                                  default=None if default is REQUIRED else default, help=hint)
        node.set_defaults(handler=handler)
    return parser


def parse(argv):
    """What build_parser().parse_args(argv) returns for a plain call, read
    straight from COMMANDS: argv[:2] names a leaf, then each of its options
    appears at most once, by its exact flag, as --flag=value or as --flag
    value with a value not starting with "-".  Any other argv (help, a
    leading --format, abbreviations, repeats, a missing required option, an
    unreadable int) gives None and is left to argparse."""
    path = tuple(argv[:2])
    if path not in COMMANDS:
        path = path[:1]
    entry = COMMANDS.get(path, ())
    if len(entry) != 3:
        return None
    values = {"format": "json", "command": path[0], "handler": entry[1]}
    if len(path) == 2:
        values[COMMANDS[path[:1]][1]] = path[1]
    options = {flag: (flag[2:].replace("-", "_"), kind, default) for flag, kind, default, _ in entry[2]}
    tokens = iter(argv[len(path):])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:  # unknown, abbreviated or repeated
            return None
        dest, kind, _ = options.pop(flag)
        if kind is bool:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")  # a missing value reads as a flag
            if value.startswith("-"):
                return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[dest] = value
    for dest, _, default in options.values():
        if default is REQUIRED:
            return None
        values[dest] = default
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse(argv) or build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # reports print exact integers of any size
    try:
        return args.handler(args)
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


def __getattr__(name):
    # `wildmckay.cli.acceptance` stays readable for perfbench/run.py, which
    # reads CRITERIA through it when tracing; ROADMAP item 2 points that
    # reader at wildmckay.acceptance, and then this hook can go.
    if name == "acceptance":
        from . import acceptance

        return acceptance
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
