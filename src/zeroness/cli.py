"""Command-line front end.

Exit codes: 0 ZERO/EQUIVALENT (or plain success), 1 NONZERO/DIFFER,
2 usage or parse error, 3 ill-posedness or precondition failure,
4 inconclusive under the configured resource caps.
"""

from __future__ import annotations

import argparse
import sys

from . import cdf, formats, species, wbpp
from ._saturation import Outcome
from .errors import (
    ArityMismatch,
    ConstraintError,
    NotComposable,
    NotStandardForm,
    NotWellPosed,
    ParseError,
    ResourceLimitExceeded,
)
from .groebner import GroebnerLimits
from .poly import format_value

EXIT_MATCH = 0
EXIT_DIFFER = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4

_PRECONDITION_ERRORS = (
    NotWellPosed,
    NotComposable,
    NotStandardForm,
    ArityMismatch,
    ConstraintError,
)


def _limits(args) -> GroebnerLimits:
    return GroebnerLimits(
        max_degree=args.max_degree,
        max_basis=args.max_basis,
        max_iterations=args.timeout_iterations,
    )


def _monomial_str(exponent, base_names) -> str:
    parts = [
        f"{base_names[i]}^{e}" if e > 1 else base_names[i]
        for i, e in enumerate(exponent)
        if e
    ]
    return "*".join(parts) if parts else "1"


def _print_verdict(verdict, kind, base_names=None, stats=False, equivalence=False):
    if verdict.outcome is Outcome.ZERO:
        word = "EQUIVALENT" if equivalence else "ZERO"
        print(f"{word} (chain length {verdict.stats.chain_length})")
        code = EXIT_MATCH
    elif verdict.outcome is Outcome.NONZERO:
        word = "DIFFER" if equivalence else "NONZERO"
        if kind == "wbpp":
            witness = verdict.witness if verdict.witness else "eps"
        else:
            witness = _monomial_str(verdict.witness, base_names)
        print(f"{word} (witness {witness}, value {format_value(verdict.value)})")
        code = EXIT_DIFFER
    else:
        print(f"INCONCLUSIVE_RESOURCE_LIMIT ({verdict.detail})")
        code = EXIT_INCONCLUSIVE
    if stats and verdict.stats is not None:
        print(f"chain length: {verdict.stats.chain_length}")
        print(f"basis size: {verdict.stats.basis_size}")
        print(f"max degree: {verdict.stats.max_degree}")
    return code


def _load(path):
    kind, payload, warnings = formats.load_model(path)
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return kind, payload


def _as_cdf(kind, payload):
    if kind == "cdf":
        return payload
    if kind == "spec":
        name, expr, sorts = payload
        return species.compile_species(expr, sorts)
    raise ParseError(f"expected a series model, got a {kind} file")


def cmd_zero(args):
    kind, payload = _load(args.file)
    limits = _limits(args)
    if kind == "wbpp":
        verdict = wbpp.zeroness(payload, limits=limits)
        return _print_verdict(verdict, "wbpp", stats=args.stats)
    series = _as_cdf(kind, payload)
    verdict = cdf.zeroness(series, limits=limits)
    return _print_verdict(
        verdict, "cdf", series.system.base_names, stats=args.stats
    )


def cmd_equiv(args):
    kind1, payload1 = _load(args.file1)
    kind2, payload2 = _load(args.file2)
    limits = _limits(args)
    if kind1 == "wbpp" and kind2 == "wbpp":
        verdict = wbpp.equivalent(payload1, payload2, limits=limits)
        return _print_verdict(verdict, "wbpp", stats=args.stats, equivalence=True)
    if "wbpp" in (kind1, kind2):
        raise ParseError("equiv compares two process files or two series files")
    s1 = _as_cdf(kind1, payload1)
    s2 = _as_cdf(kind2, payload2)
    verdict = cdf.equivalent(s1, s2, limits=limits)
    return _print_verdict(
        verdict, "cdf", s1.system.base_names, stats=args.stats, equivalence=True
    )


def cmd_eval(args):
    kind, payload = _load(args.file)
    if kind != "wbpp":
        raise ParseError("eval works on .wbpp files; use coeffs for series")
    value = wbpp.evaluate(payload, payload.start, args.word)
    print(format_value(value))
    return EXIT_MATCH


def cmd_coeffs(args):
    kind, payload = _load(args.file)
    if kind == "wbpp":
        table = wbpp.coeffs_up_to(payload, payload.start, args.max, _limits(args))
        for word in sorted(table, key=lambda w: (len(w), w)):
            value = table[word]
            if value != 0:
                print(f"{word or 'eps'} {format_value(value)}")
        return EXIT_MATCH
    series = _as_cdf(kind, payload)
    table = cdf.coeff_table(series, args.max, _limits(args))
    names = series.system.base_names
    for n in sorted(table.coeffs, key=lambda n: (sum(n), n)):
        print(f"{_monomial_str(n, names)} {format_value(table.coeffs[n])}")
    return EXIT_MATCH


def cmd_compile_species(args):
    kind, payload = _load(args.file)
    if kind != "spec":
        raise ParseError("compile-species expects a .spec file")
    name, expr, sorts = payload
    series = species.compile_species(expr, sorts)
    text = formats.format_cdf(series)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(f"# compiled from species {name}\n")
        fh.write(text)
    print(
        f"{name}: order {series.system.order}, degree {series.system.degree} "
        f"-> {args.output}"
    )
    return EXIT_MATCH


def cmd_equipotent(args):
    kind1, payload1 = _load(args.file1)
    kind2, payload2 = _load(args.file2)
    if kind1 != "spec" or kind2 != "spec":
        raise ParseError("equipotent expects two .spec files")
    name1, e1, sorts1 = payload1
    name2, e2, sorts2 = payload2
    if sorts1 != sorts2:
        raise ArityMismatch(f"sort counts differ: {sorts1} vs {sorts2}")
    verdict = species.equipotent(e1, e2, sorts1, limits=_limits(args))
    return _print_verdict(
        verdict, "cdf",
        tuple(f"x{i}" for i in range(1, sorts1 + 1)),
        stats=args.stats, equivalence=True,
    )


def _check_one(path):
    lines = [f"== {path}"]
    kind, payload, warnings = formats.load_model(path)
    for w in warnings:
        lines.append(f"  warning: {w}")
    ok = True
    if kind == "wbpp":
        lines.append(f"  parse: ok ({len(payload.nonterminals)} nonterminals, "
                     f"{len(payload.alphabet)} letters)")
        length = wbpp.COMMUTATIVITY_CHECK_LENGTH
        counterexample = wbpp.check_commutative_bounded(payload, length)
        if counterexample is None:
            lines.append(f"  commutativity (bounded, length {length}): no counterexample")
        else:
            u, v = counterexample
            lines.append(
                f"  commutativity (bounded, length {length}): counterexample {u} vs {v}"
            )
    elif kind == "cdf":
        sys_ = payload.system
        lines.append(
            f"  parse: ok (order {sys_.order}, dimension {sys_.dim}, "
            f"degree {sys_.degree})"
        )
    else:
        name, expr, sorts = payload
        problems = _species_check(expr, sorts)
        if problems:
            ok = False
            for p in problems:
                lines.append(f"  not well posed: {p}")
        else:
            series = species.compile_species(expr, sorts)
            lines.append(
                f"  species {name}: compiles (order {series.system.order})"
            )
    lines.append("  OK" if ok else "  FAIL")
    return ok, "\n".join(lines)


def _species_check(expr, sorts):
    """Collect well-posedness diagnostics from every fixpoint block, each
    checked with the binders and slots that enclose it, as compilation
    binds them.  The blocks nested in a block are checked first; a block
    is checked only once they are well posed, since checking it compiles
    its bodies, which solves them, so it would repeat their diagnostic."""
    problems = []

    def walk(e, dim, env):
        if isinstance(e, species.Fix):
            nested = len(problems)
            names = [nm for nm, _ in e.bindings]
            inner = species.bind(env, names, dim)
            for _, body in e.bindings:
                walk(body, dim + len(names), inner)
            if len(problems) == nested:
                ok, diag = species.well_posed(e, dim, env)
                if not ok:
                    problems.extend(diag)
        elif isinstance(e, (species.Sum, species.Prod)):
            walk(e.left, dim, env)
            walk(e.right, dim, env)
        elif isinstance(e, (species.Set, species.Cyc, species.Seq, species.Restrict)):
            walk(e.child, dim, env)
        elif isinstance(e, species.StrongCompose):
            walk(e.outer, dim + len(e.subs), species.bind(env, e.slots, dim))
            for s in e.subs:
                walk(s, dim, env)

    walk(expr, sorts, {})
    return problems


def cmd_check(args):
    all_ok = True
    for path in args.files:
        ok, report = _check_one(path)
        print(report)
        all_ok = all_ok and ok
    return EXIT_MATCH if all_ok else EXIT_PRECONDITION


def _at_least(low):
    """An argparse type: an integer, at least ``low``."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


# the type of every cap and of ``coeffs --max``
_bound = _at_least(0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zeroness",
        description="Exact zeroness and equivalence decisions for weighted "
        "parallel processes, CDF power series, and constructible species.",
        allow_abbrev=False,
    )
    parser.add_argument("--max-degree", type=_bound, default=64,
                        help="cap on intermediate polynomial degree, and on "
                        "the degree of a series' coeffs table")
    parser.add_argument("--max-basis", type=_bound, default=512,
                        help="cap on Groebner basis size")
    parser.add_argument("--timeout-iterations", type=_bound, default=200_000,
                        help="cap on the steps of each Groebner basis "
                        "computation (terms read off until a head is "
                        "irreducible, terms of the final reduced basis, and "
                        "the S-pairs the signature criteria let through), and "
                        "on the words or coefficients that coeffs enumerates")
    parser.add_argument("--stats", action="store_true",
                        help="print saturation statistics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zero", help="decide zeroness of a model's series")
    p.add_argument("file")
    p.set_defaults(func=cmd_zero)

    p = sub.add_parser("equiv", help="decide equivalence of two models")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("eval", help="evaluate a process series at one word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coeffs", help="print nonzero coefficients up to a bound")
    p.add_argument("file")
    p.add_argument("--max", type=_bound, required=True)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("compile-species", help="compile a species to a .cdf file")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile_species)

    p = sub.add_parser("equipotent", help="decide multiplicity equivalence of species")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equipotent)

    p = sub.add_parser("check", help="validate files and report diagnostics")
    p.add_argument("files", nargs="+")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="accepted for compatibility; files are checked one "
                   "after another, in the order given")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ResourceLimitExceeded as exc:
        print(f"INCONCLUSIVE_RESOURCE_LIMIT ({exc})", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
