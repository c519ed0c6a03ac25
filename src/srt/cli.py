"""
Command-line front door: parse flags, dispatch to the library modules, and
serialize deterministic reports.

Exit codes: 0 for success / affirmative verdicts, 2 for runs that complete
with a mathematical-contradiction verdict (obstructions, violated identities,
proper subgroups, non-powers), 1 for usage errors and tool failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import MissingLabel, ResourceLimit, SrtError, UsageError
from .graph import (
    ReductionTree,
    check_monotonic,
    check_vanishing_cycles,
    enumerate_tail_configs,
    propagate_differents,
    validate_tree,
)
from .groups import (
    MatrixElement,
    element_order,
    generation_check,
    solve_trace_system,
    standard_generators,
    sylow_data,
)
from .pipeline import run_wild_monodromy
from .ramification import (
    Filtration,
    compositum_conductor,
    conductor_case,
    cyclotomic_filtration,
    herbrand,
)
from .series import CoverParams, maclaurin_g, scaled_coefficient_valuations
from .torsor import (
    insep_tail_catalog,
    splitting_obstruction,
    tail_center,
    tail_radius,
)
from .valuation import ExtendedRational, check_p, to_jsonable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRADICTION = 2

_CONTRADICTION_VERDICTS = {
    "ObstructedByConditionI",
    "ObstructedByConditionII",
    "Violated",
    "Violation",
    "Contradiction",
    "ProperSubgroup",
    "trivial",
    "inconclusive",
}


def _odd_prime(text):
    """argparse type of every --p flag."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    try:
        check_p(p)
    except SrtError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def _fraction(text):
    """Fraction(text), refused in one line when it is no rational or has too
    many digits to print. Its digits plus its decimal exponent bound the
    digits of numerator and denominator; they are counted on the text, so
    1e1000000000 is refused before Fraction builds 10^1000000000."""
    limit = sys.get_int_max_str_digits()
    written = str(text)
    mantissa, _, exponent = written.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    size = sum(c.isdecimal() for c in mantissa)
    if exponent.isdecimal():
        # an exponent with more digits than the limit is past it anyway
        size += limit if len(exponent) > len(str(limit)) else int(exponent)
    if limit and size >= limit:
        shown = written if len(written) <= 20 else written[:20] + "..."
        raise ResourceLimit(
            f"rational {shown!r} has {limit} or more digits with its exponent, "
            f"too many to print; write it with fewer digits or a smaller exponent"
        )
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(
            f"could not parse {text!r} as a rational; write it as 'a/b'"
        ) from exc


_VALS_REMEDY = "--vals must be a JSON array of rationals like '[\"3/2\", \"inf\"]'"


def _ext_fraction(text):
    if isinstance(text, bool):  # Fraction would read true as 1
        raise UsageError(_VALS_REMEDY)
    if str(text).lower() in ("inf", "infinity", "oo"):
        return ExtendedRational(None)
    return ExtendedRational(_fraction(text))


def _answer(args):
    """(stdout, exit code) of a parsed request. The whole stdout is built
    before any of it is printed, so a refusal leaves stdout empty. A value
    that the request reads or derives with more digits than Python's
    int-to-str limit is refused with ResourceLimit; any other ValueError is a
    bug and propagates."""
    try:
        report, code = args.handler(args)
        obj = to_jsonable(report)
        if args.format == "json":
            return json.dumps(obj, separators=(",", ":")) + "\n", code
        return "".join(line + "\n" for line in _text_lines(obj, "")), code
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ResourceLimit(
            f"a value of the answer has more than {sys.get_int_max_str_digits()} "
            f"digits, too many to print; give inputs with fewer digits"
        ) from None


def _text_lines(obj, prefix):
    """The text lines of a dict or a list: every handler reports one of the
    two, and only they are descended into."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                yield f"{prefix}{k}:"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}{k}: {v}"
    else:
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)):
                yield f"{prefix}- [{i}]"
                yield from _text_lines(v, prefix + "  ")
            else:
                yield f"{prefix}- {v}"


def _verdict_exit(kind):
    return EXIT_CONTRADICTION if kind in _CONTRADICTION_VERDICTS else EXIT_OK


# --- subcommand handlers (each returns (report object, exit code)) ---


def _cmd_expand(args):
    sqrt1ma = args.sqrt1ma
    if sqrt1ma is None:
        if args.r == 0:
            raise UsageError("--r must be nonzero; the default --sqrt1ma is -s/r")
        sqrt1ma = Fraction(-args.s, args.r)
    params = CoverParams(args.p, args.nu, args.r, args.s, sqrt1ma)
    series = maclaurin_g(params, args.T)
    _refuse_unprintable(series.coefficients)
    return {
        "p": args.p,
        "order": series.order,
        "coefficients": series.coefficients,
        "valuations": scaled_coefficient_valuations(series, args.p, 0),
    }, EXIT_OK


def _refuse_unprintable(coefficients):
    """Refuse a rational coefficient beyond Python's int-to-str digit limit
    before any other work, by converting the largest numerator and the
    largest denominator."""
    numerators = (abs(c.numerator) for c in coefficients)
    denominators = (c.denominator for c in coefficients)
    for ints in (numerators, denominators):
        try:
            str(max(ints))
        except ValueError:
            raise ResourceLimit(
                f"a coefficient has more than {sys.get_int_max_str_digits()} "
                f"digits, too many to print; lower --T or --p"
            ) from None


def _cmd_split_check(args):
    try:
        # a JSON number is read as the exact rational, so 0.1 is 1/10, and
        # its digits are bounded before it is built
        raw = json.loads(args.vals, parse_float=_fraction, parse_int=_fraction)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{_VALS_REMEDY} ({exc})") from exc
    if not isinstance(raw, list):
        raise UsageError(_VALS_REMEDY)
    vals = [_ext_fraction(v) for v in raw]
    verdict = splitting_obstruction(vals, args.p, args.level)
    return verdict, _verdict_exit(verdict.kind)


def _cmd_tail_center(args):
    center = tail_center(args.p, args.nu, args.r, args.s, args.case)
    return {"center": center}, EXIT_OK


def _cmd_tail_radius(args):
    return tail_radius(args.p, args.nu, args.case, args.extra), EXIT_OK


def _cmd_insep_tails(args):
    return insep_tail_catalog(args.p, args.nu, args.case, args.extra), EXIT_OK


def _load_tree(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
        raise UsageError(
            f"tree file {path!r} unreadable ({exc}); expected the JSON schema "
            f"with 'vertices' and 'edges'"
        ) from exc
    # OverflowError: json reads 1e400 as inf, which no int or Fraction takes
    try:
        return ReductionTree.from_json(data)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise UsageError(f"malformed tree JSON: {exc}") from exc


def _cmd_tree_check(args):
    tree = _load_tree(args.tree)
    problems = validate_tree(tree, args.p)
    out = {"problems": problems}
    code = EXIT_CONTRADICTION if problems else EXIT_OK
    try:
        cycles = check_vanishing_cycles(tree)
        out["vanishing_cycles"] = cycles
        code = max(code, _verdict_exit(cycles.kind))
    except MissingLabel as exc:  # report, not fail
        out["vanishing_cycles"] = {"skipped": str(exc)}
    mono = check_monotonic(tree)
    out["monotonicity"] = mono
    return out, max(code, _verdict_exit(mono.kind))


def _cmd_tree_solve(args):
    tree = _load_tree(args.tree)
    result = propagate_differents(tree, args.p, args.root_delta)
    return result, _verdict_exit(result.status)


def _cmd_enum_tails(args):
    return enumerate_tail_configs(args.tau, args.p), EXIT_OK


def _cmd_conductor(args):
    if args.compositum:
        if args.shape is not None or args.p is not None or args.nu is not None:
            raise UsageError("give --compositum alone, or --shape with --nu (and --p)")
        values = [_fraction(x) for x in args.compositum.split(",")]
        return {"conductor": compositum_conductor(values)}, EXIT_OK
    if args.shape is None:
        raise UsageError("provide --shape or --compositum 'a/b,c/d'")
    if args.nu is None or (args.p is None and args.shape == "kummer-tower"):
        raise UsageError("--shape needs --nu, and kummer-tower also --p")
    return {"conductor": conductor_case(args.p, args.nu, args.shape)}, EXIT_OK


def _cmd_herbrand(args):
    if args.filtration:
        if args.p is not None or args.nu is not None:
            raise UsageError("give --filtration FILE or --p and --nu, not both")
        # OverflowError: an order or jump of 1e400, read by json as inf
        try:
            with open(args.filtration) as handle:
                filtration = Filtration.from_json(json.load(handle))
        except (OSError, KeyError, OverflowError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise UsageError(
                f"filtration file {args.filtration!r} unreadable ({exc}); "
                f"expected {{\"breaks\": [{{\"jump\": ..., \"order\": ...}}]}}"
            ) from exc
    elif args.p is not None and args.nu is not None:
        filtration = cyclotomic_filtration(args.p, args.nu)
    else:
        raise UsageError("provide --filtration FILE or both --p and --nu")
    return {
        "direction": args.direction,
        "x": args.x,
        "value": herbrand(filtration, args.direction, _fraction(args.x)),
        "conductor": filtration.conductor(),
    }, EXIT_OK


def _cmd_group(args):
    q = args.q
    if (args.tau is None) != (args.rho is None):
        raise UsageError("give --tau and --rho together, or neither and --p")
    if args.tau is None and args.p is None:
        raise UsageError("provide --p (for the standard pair) or --tau/--rho")
    if args.tau is not None:
        beta = solve_trace_system(q, args.tau, args.rho)
        alpha = MatrixElement(1, 1, 0, 1, q)
    else:
        alpha, beta = standard_generators(q, args.p)
    verdict = generation_check([alpha, beta], q, mode=args.mode)
    out = {
        "q": q,
        "alpha": alpha.entries(),
        "beta": beta.entries(),
        "orders": {
            "alpha": element_order(alpha),
            "beta": element_order(beta),
            "alpha*beta": element_order(alpha * beta),
        },
        "generation": verdict,
    }
    if args.p is not None:
        out["sylow"] = sylow_data(q, args.p)
    return out, _verdict_exit(verdict.kind)


def _cmd_wild_monodromy(args):
    report = run_wild_monodromy(args.q, args.p, args.r)
    report = dataclasses.replace(report, verdict=report.verdict.lower())
    return report, _verdict_exit(report.verdict)


# --- parser ---


# flag -> its argparse keywords; every flag of every subcommand is declared
# here once, and its type= callable does its conversion
FLAGS = {
    "--p": dict(type=_odd_prime, help="an odd prime p"),
    "--nu": dict(type=int, help="exponent nu >= 1 of the p-power p^nu"),
    "--r": dict(type=int, help="integer r of the cover"),
    "--s": dict(type=int, help="integer s of the cover"),
    "--sqrt1ma": dict(type=_fraction, help="chosen square root of 1-a (default -s/r)"),
    "--T": dict(type=int, help="truncation order (default 3p+2)"),
    "--level": dict(type=int, help="torsor level n"),
    "--vals": dict(help="JSON array of v(c_i), i = 1..T, as 'a/b'"),
    "--case": dict(help="generic | a=0 | a=1"),
    "--extra": dict(type=_fraction, help="v(a) for a=0, v(sqrt(1-a)) for a=1"),
    "--tree": dict(help="tree JSON file"),
    "--root-delta": dict(type=_fraction, help="override the root effective different"),
    "--tau": dict(type=int, help="enum-tails: number of primitive tails; "
                  "group: prescribed trace of beta"),
    "--shape": dict(choices=("tame-over-cyclotomic", "kummer-tower")),
    "--compositum": dict(help="comma-separated conductors to combine"),
    "--filtration": dict(help="filtration JSON file"),
    "--direction": dict(choices=("phi", "psi")),
    "--x": dict(help="rational point of the transform"),
    "--q": dict(type=int, help="the prime q of SL2(F_q), the cover's degree"),
    "--rho": dict(type=int, help="prescribed trace of alpha*beta"),
    "--mode": dict(choices=("criterion", "bfs"), default="criterion"),
}

# the flags whose value is read as rationals: those of FLAGS typed _fraction,
# and the strings that their handlers parse with _fraction (herbrand echoes
# its --x as given, so that flag keeps no type)
_RATIONAL_FLAGS = frozenset(
    flag for flag, keywords in FLAGS.items() if keywords.get("type") is _fraction
) | {"--x", "--compositum"}

REQUIRED = object()

# subcommand -> (handler, help, {flag: REQUIRED, None for optional with the
# default of FLAGS, or this subcommand's default}); flags are added in order
COMMANDS = {
    "expand": (_cmd_expand, "Maclaurin expansion of the cover function", {
        "--p": REQUIRED, "--nu": REQUIRED, "--r": REQUIRED, "--s": REQUIRED,
        "--sqrt1ma": None, "--T": None}),
    "split-check": (_cmd_split_check, "torsor splitting criterion", {
        "--p": REQUIRED, "--level": REQUIRED, "--vals": REQUIRED}),
    "tail-center": (_cmd_tail_center, "new etale tail disk center", {
        "--p": REQUIRED, "--nu": REQUIRED, "--r": REQUIRED, "--s": REQUIRED,
        "--case": REQUIRED}),
    "tail-radius": (_cmd_tail_radius, "new etale tail disk radius", {
        "--p": REQUIRED, "--nu": REQUIRED, "--case": REQUIRED, "--extra": None}),
    "insep-tails": (_cmd_insep_tails, "catalog of new inseparable tails", {
        "--p": REQUIRED, "--nu": REQUIRED, "--case": REQUIRED, "--extra": None}),
    "tree-check": (_cmd_tree_check, "reduction tree structural checks", {
        "--p": REQUIRED, "--tree": REQUIRED}),
    "tree-solve": (_cmd_tree_solve, "solve the different/epaisseur laws", {
        "--p": REQUIRED, "--tree": REQUIRED, "--root-delta": None}),
    "enum-tails": (_cmd_enum_tails, "admissible etale tail configurations", {
        "--tau": REQUIRED, "--p": 5}),
    "conductor": (_cmd_conductor, "closed-form conductors", {
        "--p": None, "--nu": None, "--shape": None, "--compositum": None}),
    "herbrand": (_cmd_herbrand, "Herbrand phi/psi transform", {
        "--filtration": None, "--p": None, "--nu": None,
        "--direction": REQUIRED, "--x": REQUIRED}),
    "group": (_cmd_group, "SL2(F_q) generator and Sylow checks", {
        "--q": REQUIRED, "--p": None, "--tau": None, "--rho": None, "--mode": None}),
    "wild-monodromy": (_cmd_wild_monodromy, "end-to-end wild monodromy verification", {
        "--q": REQUIRED, "--p": REQUIRED, "--r": 1}),
}


# one parser per process: parse_args returns a fresh Namespace on every call,
# no default is mutable and every type= callable is pure. The parser keeps
# its subcommand parsers by name in `commands`, so that dispatch can hand a
# request that starts with a subcommand to that parser alone
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="srt",
        description="Exact p-adic analysis of cyclic covers and their "
        "stable reductions.",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    for name, (handler, help_text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag, spec in flags.items():
            keywords = dict(FLAGS[flag])
            if spec is REQUIRED:
                keywords["required"] = True
            elif spec is not None:
                keywords["default"] = spec
            command.add_argument(flag, **keywords)
    return parser


def _join_negative_rationals(argv):
    """argv with each negative value of a rational flag joined to its flag,
    as "--sqrt1ma=-5/9" or "--compositum=-1/2,3/4": argparse reads a
    separate word that starts with "-" as an option unless it is a negative
    int or decimal, so "-5/9" would not reach the flag. A value starts with
    "-" and a digit or "."."""
    out = []
    for arg in argv:
        negative = len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."
        if negative and out and out[-1] in _RATIONAL_FLAGS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse(argv):
    """The Namespace of a request. The top-level parser hands every word after
    the subcommand, unchanged, to that subcommand's parser, so a request that
    starts with a subcommand is read by that parser alone, into the namespace
    the top-level parser would build: --format at its default, and the
    command. A word it leaves over sends the request back to the top-level
    parser, which refuses it; any other request goes there too."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        namespace = argparse.Namespace(
            format=parser.get_default("format"), command=argv[0]
        )
        args, extras = command.parse_known_args(argv[1:], namespace)
        if not extras:
            return args
    return parser.parse_args(argv)


def dispatch(argv):
    # the parse is inside the handler: a type= callable refuses with an
    # SrtError, which argparse does not catch
    try:
        try:
            args = _parse(_join_negative_rationals(argv))
        except SystemExit as exc:  # argparse has printed its usage or help
            return EXIT_USAGE if exc.code not in (0, None) else 0
        out, code = _answer(args)
    except SrtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(out)
    return code


def main():
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again, and report a failed run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)
