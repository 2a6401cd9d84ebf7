"""Command-line front end: subcommands stringy, covers, verify, and suite.

All reports are exact: rationals are serialized as strings like "5/3" and
motivic values as {"scale": r, "num": [[k, c], ...], "den": [[k, c], ...]}.
Output is deterministic for a fixed invocation (including --seed); colors
only ever appear on the stderr progress stream and honor NO_COLOR.

Exit codes: 0 success, 1 internal error, 2 precondition violation
(gf.PreconditionError: NotStringilyKLT, NotKLT, invalid flags and
values), 3 verification failure.

A call builds only the parser of its own subcommand, the one that argv's
first two words name; help and every parse error come from the full
parser, built only then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from . import acceptance, covers, stringy
from .gf import GF, PreconditionError, prime_power_decomposition
from .laurent import LaurentSeries

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3

def schema_path() -> str:
    return str(resources.files("wildmckay").joinpath("schema.json"))


def _rat(x) -> str:
    return str(Fraction(x))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"expected a rational like 3 or -1/2, got {text!r}")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PreconditionError(f"expected comma-separated dimensions like 2,2,1, got {text!r}")


def _parse_series(field, text: str) -> LaurentSeries:
    """Parse 'exp:coeff,exp:coeff' with int or polynomial coefficients."""
    coeffs = {}
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
            coeffs[e] = coeffs.get(e, field.zero) + c
    return LaurentSeries(field, coeffs)


def _field_for(p: int, q: int):
    pe = prime_power_decomposition(q)
    if pe is None or pe[0] != p:
        raise PreconditionError(f"--q must be a power of --p (got q={q}, p={p})")
    return GF(p, pe[1])


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


def _cmd_stringy_invariant(args) -> int:
    rep = stringy.RepType(args.p, _parse_dims(args.dims))
    e_st = stringy.stringy_euler(rep)  # raises NotStringilyKLT when D < p
    crepant = stringy.crepant_diagnostic(rep)
    m = crepant["stringy_invariant"]
    w = stringy.projectivized_invariant(rep)
    report = {
        "p": rep.p,
        "dims": list(rep.dims),
        "D_V": stringy.shift_slope(rep),
        "sht": [[s, stringy.shift_number(rep, s)] for s in range(1, rep.p)],
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
    a = _parse_fraction(args.a)
    if args.stack:
        value = stringy.stack_pair_invariant(args.p, a)
    else:
        value = stringy.smooth_pair_invariant(2, a)
    _emit(value.to_json(), args.format)
    return EXIT_OK


def _cmd_stringy_pointcount(args) -> int:
    rep = stringy.RepType(args.p, _parse_dims(args.dims))
    count = stringy.origin_fiber_point_count(rep, args.q)
    _emit(_rat(count), args.format)
    return EXIT_OK


def _cmd_covers_reduce(args) -> int:
    field = _field_for(args.p, args.q)
    f = _parse_series(field, args.series)
    cls = covers.reduce(f)
    _emit(cls.to_json(), args.format)
    return EXIT_OK


def _cmd_covers_census(args) -> int:
    _field_for(args.p, args.q)
    report = covers.enumerate_covers(args.q, args.max_exp, guard=args.max_enum)
    _emit(report.to_json(list_forms=args.list_forms), args.format)
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


def _cmd_covers_count(args) -> int:
    _field_for(args.p, args.q)
    if args.extensions:
        n = covers.count_extensions(args.q, args.jump)
    else:
        n = covers.count_rep_covers(args.q, args.jump)
    _emit(n, args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import invariant_rings  # imported on use: stringy and covers calls never load it

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


# -- parser -------------------------------------------------------------------


class _Fallback(Exception):
    """The leaf parser would print or exit; the full parser takes over."""


class _LeafParser(argparse.ArgumentParser):
    """A parser that hands every output and exit to the full parser; its
    subparsers inherit the class through `parser_class`."""

    def error(self, message):
        raise _Fallback

    def exit(self, status=0, message=None):
        raise _Fallback

    def print_help(self, file=None):
        raise _Fallback

    def print_usage(self, file=None):
        raise _Fallback


def build_parser(path=None) -> argparse.ArgumentParser:
    """The full parser or, given `path` (argv[:2]), a `_LeafParser` holding
    only the command and subcommand that `path` names."""

    def on_path(*names) -> bool:
        return path is None or tuple(path[:len(names)]) == names

    parser = (argparse.ArgumentParser if path is None else _LeafParser)(
        prog="wildmckay",
        description="Exact invariants of wild Z/p quotient singularities and "
        "Artin-Schreier covers of the formal disk.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    if on_path("stringy"):
        s = sub.add_parser("stringy", help="stringy invariants of quotient singularities")
        ssub = s.add_subparsers(dest="subcommand", required=True)

        if on_path("stringy", "invariant"):
            inv = ssub.add_parser("invariant", help="full invariant report for a representation type")
            inv.add_argument("--p", type=int, required=True)
            inv.add_argument("--dims", required=True, help="comma-separated summand dimensions")
            inv.set_defaults(handler=_cmd_stringy_invariant)

        if on_path("stringy", "pair"):
            pair = ssub.add_parser("pair", help="pair invariant for the 2-dimensional reflection case")
            pair.add_argument("--p", type=int, required=True)
            pair.add_argument("--a", required=True, help="boundary coefficient, e.g. -1/2")
            pair.add_argument("--stack", action="store_true", help="stack-side invariant instead of the smooth model")
            pair.set_defaults(handler=_cmd_stringy_pair)

        if on_path("stringy", "pointcount"):
            pc = ssub.add_parser("pointcount", help="weighted extension count of the origin fiber")
            pc.add_argument("--p", type=int, required=True)
            pc.add_argument("--dims", required=True)
            pc.add_argument("--q", type=int, required=True)
            pc.set_defaults(handler=_cmd_stringy_pointcount)

    if on_path("covers"):
        c = sub.add_parser("covers", help="Artin-Schreier covers of the formal disk")
        csub = c.add_subparsers(dest="subcommand", required=True)

        if on_path("covers", "reduce"):
            red = csub.add_parser("reduce", help="normal form of a cover class")
            red.add_argument("--p", type=int, required=True)
            red.add_argument("--q", type=int, required=True)
            red.add_argument("--series", required=True,
                             help='comma-separated "exp:coeff" pairs; write --series=-2:1,... '
                                  "when the first exponent is negative")
            red.set_defaults(handler=_cmd_covers_reduce)

        if on_path("covers", "census"):
            cen = csub.add_parser("census", help="brute-force reduction census")
            cen.add_argument("--p", type=int, required=True)
            cen.add_argument("--q", type=int, required=True)
            cen.add_argument("--max-exp", type=int, required=True, dest="max_exp")
            cen.add_argument("--max-enum", type=int, default=10 ** 7, dest="max_enum",
                             help="enumeration guard on q^max_exp")
            cen.add_argument("--list-forms", action="store_true", dest="list_forms",
                             help="include the normal forms in the report")
            cen.set_defaults(handler=_cmd_covers_census)

        if on_path("covers", "count"):
            cnt = csub.add_parser("count", help="stratum counting formulas")
            cnt.add_argument("--p", type=int, required=True)
            cnt.add_argument("--q", type=int, required=True)
            cnt.add_argument("--jump", type=int, required=True)
            cnt.add_argument("--extensions", action="store_true",
                             help="count field extensions instead of representative polynomials")
            cnt.set_defaults(handler=_cmd_covers_count)

    if on_path("verify"):
        v = sub.add_parser("verify", help="invariant-ring relation oracles")
        vsub = v.add_subparsers(dest="relation", required=True)

        if on_path("verify", "v3"):
            v3 = vsub.add_parser("v3", help="degree-3 indecomposable hypersurface equation")
            v3.add_argument("--p", type=int, required=True)
            v3.set_defaults(handler=_cmd_verify)

        if on_path("verify", "v2v2"):
            v22 = vsub.add_parser("v2v2", help="two 2-dimensional summands at p = 2")
            v22.set_defaults(handler=_cmd_verify)

        if on_path("verify", "reflection"):
            refl = vsub.add_parser("reflection", help="reflection-case Jacobian determinant")
            refl.add_argument("--p", type=int, required=True)
            refl.add_argument("--d", type=int, required=True)
            refl.set_defaults(handler=_cmd_verify)

    if on_path("suite"):
        su = sub.add_parser("suite", help="run the full verification battery")
        su.add_argument("--seed", type=int, default=0)
        su.add_argument("--only", default=None, help="run only criteria whose name contains this")
        su.set_defaults(handler=_cmd_suite)

    return parser


def main(argv=None) -> int:
    # Whatever the leaf parser would print or exit on (help, every parse
    # error, a path it does not hold) is parsed again from scratch by the
    # full parser, so all usage, help and error text comes from it.
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[:2]).parse_args(argv)
    except _Fallback:
        args = build_parser().parse_args(argv)
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
