"""Command-line front end.

Exit codes: 0 verdict true / success, 1 verdict false (certificate included
in the output), 2 usage or parse error, 3 hypothesis violation (NotInImage,
DepthOverflow, NotVariational), 4 internal error (VerificationFailed or any
other unexpected exception), so a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .calculus import lie_bracket
from .corpus import builtin_names, load_operator
from .errors import (DepthOverflow, DiffAlgError, NotInImage, NotVariational,
                     ParseError, VerificationFailed)
from .grammar import format_poly, parse_function
from .hierarchy import Hierarchy, conserved_densities, density_report
from .integrability import is_hereditary, is_integrable_wnl
from .nonlocal_ops import lie_derivative, nl_power, operator_to_json
from .operators import helmholtz_residual

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_INTERNAL = 4


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")


def cmd_parse(args) -> int:
    poly = parse_function(args.expr)
    _emit({"expr": args.expr, "canonical": format_poly(poly)}, args.format)
    return EXIT_TRUE


def cmd_bracket(args) -> int:
    left = parse_function(args.left)
    right = parse_function(args.right)
    result = lie_bracket(left, right)
    _emit({"bracket": format_poly(result), "zero": result.is_zero()}, args.format)
    return EXIT_TRUE


def cmd_check(args) -> int:
    operator, _ = load_operator(args.op)
    verdict = args.decide(operator)
    data = {args.verdict: verdict.result}
    if not verdict.result:
        data["reason"] = verdict.certificate.reason
        data["residual"] = repr(verdict.certificate.residual)
    _emit(data, args.format)
    return EXIT_TRUE if verdict.result else EXIT_FALSE


def cmd_check_recursion(args) -> int:
    operator, _ = load_operator(args.op)
    f = parse_function(args.seed)
    defect = lie_derivative(operator, f)
    ok = defect.is_zero()
    data = {"recursion": ok, "function": format_poly(f)}
    if not ok:
        data["lie_derivative"] = repr(defect)
    _emit(data, args.format)
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_hierarchy(args) -> int:
    operator, grading = load_operator(args.op)
    seed = parse_function(args.seed) if args.seed else None
    h = Hierarchy.from_operator(operator, seed=seed, grading=grading)
    h.extend(args.steps)
    report = None
    if args.verify:
        report = h.verify_commuting()
    _emit(h.report(report), args.format)
    if args.verify and not report.all_zero:
        return EXIT_FALSE
    return EXIT_TRUE


def cmd_densities(args) -> int:
    operator, grading = load_operator(args.op)
    seed = parse_function(args.seed) if args.seed else None
    chain = []
    if args.steps:
        h = Hierarchy.from_operator(operator, seed=seed, grading=grading)
        h.extend(args.steps)
        chain = h.chain
    records = conserved_densities(operator, args.power, chain=chain)
    _emit(density_report(records), args.format)
    return EXIT_TRUE


def cmd_power(args) -> int:
    operator, grading = load_operator(args.op)
    lk = nl_power(operator, args.power)
    data = {"power": args.power, "operator": operator_to_json(lk, grading)}
    if args.verify:
        # structure facts of the power: weak non-locality is enforced by
        # nl_power itself; check every tail slot is a variational derivative
        failing = [i for i, (_, q) in enumerate(lk.depth1) if helmholtz_residual(q)]
        data["weakly_nonlocal"] = True
        data["qs_variational"] = not failing
        if failing:
            data["failing_q_indices"] = failing
    _emit(data, args.format)
    if args.verify and not data.get("qs_variational", True):
        return EXIT_FALSE
    return EXIT_TRUE


def count(text: str) -> int:
    """A non-negative integer option value; argparse names the option."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Exact recursion-operator calculus: hereditariness and "
                    "integrability tests, Lenard-Magri hierarchies, conserved "
                    "densities.",
        epilog="builtin operators: " + ", ".join(builtin_names()))
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its canonical form")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("bracket", help="Lie bracket of two functions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_bracket)

    for name, decide, verdict, help_text in (
            ("check-hereditary", is_hereditary, "hereditary",
             "decide the Nijenhuis identity"),
            ("check-integrable", is_integrable_wnl, "integrable",
             "decide weakly non-local integrability"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--op", required=True, metavar="PATH_OR_NAME")
        p.set_defaults(func=cmd_check, decide=decide, verdict=verdict)

    p = sub.add_parser("check-recursion", help="is the operator recursion for a function")
    p.add_argument("--op", required=True, metavar="PATH_OR_NAME")
    p.add_argument("--seed", required=True, metavar="EXPR")
    p.set_defaults(func=cmd_check_recursion)

    p = sub.add_parser("hierarchy", help="generate and certify a symmetry chain")
    p.add_argument("--op", required=True, metavar="PATH_OR_NAME")
    p.add_argument("--seed", metavar="EXPR")
    p.add_argument("--steps", type=count, default=3)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("densities", help="conserved densities of a power of the operator")
    p.add_argument("--op", required=True, metavar="PATH_OR_NAME")
    p.add_argument("--seed", metavar="EXPR")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--steps", type=count, default=0,
                   help="verify against this many chain extensions")
    p.set_defaults(func=cmd_densities)

    p = sub.add_parser("power", help="compute a power of the operator")
    p.add_argument("--op", required=True, metavar="PATH_OR_NAME")
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_power)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OverflowError, OSError, json.JSONDecodeError,
            ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (NotInImage, DepthOverflow, NotVariational) as exc:
        print(json.dumps({"hypothesis_violation": str(exc)}), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except VerificationFailed as exc:
        return _internal_error(exc)
    except DiffAlgError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    # imported here: traceback brings in linecache, tokenize and textwrap,
    # which no other exit needs
    import traceback
    print(json.dumps({"internal_error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()}), file=sys.stderr)
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
