"""Command-line front end.

Exit codes: 0 on success, 1 when a theorem hypothesis was not (or cannot be)
asserted and the computation was refused, 2 for malformed input.  Output is
deterministic: no timestamps, fixed ordering, sorted JSON keys.  The verbs
are the rows of :data:`VERBS`, and a call builds the parser of the verb it
names only; with no verb, ``--help`` or an unknown one it builds them all.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .abelian import FgAbGroup, PrimeSet, canonical_int, parse_group
from .ahomology import a_homology_range, axiom_checks, render_report, report_to_json
from .chains import cohomology_uct, homology
from .corpus import run_all
from .federer import (
    ABSOLUTE,
    DETERMINED,
    RefusedHypothesis,
    collapse_report,
    federer_e2,
    hopf_whitney,
    load_homotopy_table,
    moore_homotopy_ses,
    page_to_json,
    relative_federer_e2,
    render_exponent,
    render_page,
    torsion_class_check,
)
from .spaces import build, parse_recipe


def _integer(text: str) -> int:
    """An integer option's value; argparse names the option when it is refused."""
    return canonical_int(text, "integer", argparse.ArgumentTypeError)


def _build_complex(recipe_text: str):
    return build(parse_recipe(recipe_text))


def _emit(args, text: Callable[[], str], data: Callable[[], object]) -> None:
    """Print the one form `args.out` asks for.  Each form comes as a
    zero-argument callable, so the other is never built."""
    if args.out == "json":
        print(json.dumps(data(), indent=2, sort_keys=True))
    else:
        print(text())


def _degree_table(args, compute, top: int) -> dict[int, FgAbGroup]:
    if args.degree is not None:
        return {args.degree: compute(args.degree)}
    return {n: compute(n) for n in range(0, top + 1)}


def _cmd_homology(args) -> int:
    c = _build_complex(args.X)
    groups = _degree_table(args, lambda n: homology(c, n), c.top_degree)
    _emit(args, lambda: "\n".join(f"H_{n}({c.name}) = {groups[n]}" for n in sorted(groups)),
          lambda: {str(n): str(g) for n, g in groups.items()})
    return 0


def _cmd_cohomology(args) -> int:
    c = _build_complex(args.X)
    g = parse_group(args.coefficients)
    groups = _degree_table(args, lambda n: cohomology_uct(c, n, g), c.top_degree)
    _emit(args, lambda: "\n".join(f"H^{n}({c.name}; {g}) = {groups[n]}" for n in sorted(groups)),
          lambda: {str(n): str(v) for n, v in groups.items()})
    return 0


def _cmd_ahomology(args) -> int:
    a = _build_complex(args.A)
    x = _build_complex(args.X)
    report = a_homology_range(a, x)
    _emit(args, lambda: render_report(report), lambda: report_to_json(report))
    return 0 if not report.violations else 1


def _page_for(args):
    a = _build_complex(args.A)
    table = load_homotopy_table(args.table)
    if table.variant == ABSOLUTE:
        return federer_e2(a, table)
    return relative_federer_e2(a, table)


def _cmd_federer_e2(args) -> int:
    page = _page_for(args)
    _emit(args, lambda: render_page(page), lambda: page_to_json(page))
    return 0


def _cmd_diagonal(args) -> int:
    verdict = collapse_report(_page_for(args), args.n)

    def text() -> str:
        lines = [f"diagonal n = {verdict.n}", f"verdict = {verdict.verdict}"]
        if verdict.verdict == DETERMINED:
            lines.append(f"group = {verdict.group}")
        if verdict.surviving:
            lines.append("surviving entries:")
            lines.extend(f"  ({p},{q}) = {g} [{status}]"
                         for p, q, g, status in verdict.surviving)
        if verdict.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in verdict.notes)
        return "\n".join(lines)

    _emit(args, text, lambda: {
        "n": verdict.n,
        "verdict": verdict.verdict,
        "group": str(verdict.group) if verdict.group is not None else None,
        "surviving": [{"p": p, "q": q, "group": str(g), "status": status}
                      for p, q, g, status in verdict.surviving],
        "notes": list(verdict.notes),
    })
    return 0


def _cmd_hopf_whitney(args) -> int:
    k = _build_complex(args.K)
    pi_n = parse_group(args.pi)
    result = hopf_whitney(k, pi_n, loop_space=args.loop_space)
    _emit(args, lambda: f"[K,Y] = {result.group}\nstructure = {result.structure}",
          lambda: {"group": str(result.group), "structure": result.structure})
    return 0


def _cmd_moore_ses(args) -> int:
    g = parse_group(args.G)
    table = load_homotopy_table(args.table)
    ses = moore_homotopy_ses(g, args.m, table, args.n)
    _emit(args, lambda: "\n".join([
        f"ext part = {ses.ext_part}",
        f"hom part = {ses.hom_part}",
        f"order product = {render_exponent(ses.order_product)}",
        f"exponent bound = {render_exponent(ses.exponent_bound)}",
    ]), lambda: {
        "ext_part": str(ses.ext_part),
        "hom_part": str(ses.hom_part),
        "order_product": render_exponent(ses.order_product),
        "exponent_bound": render_exponent(ses.exponent_bound),
    })
    return 0


def _parse_primes(text: str) -> PrimeSet:
    values = [canonical_int(tok.strip(), "prime") for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty prime list")
    return PrimeSet.of(*values)


def _cmd_torsion_check(args) -> int:
    a = _build_complex(args.A)
    table = load_homotopy_table(args.table)
    primes = _parse_primes(args.primes)
    report = torsion_class_check(a, table, primes)

    def text() -> str:
        lines = [f"primes = {report.primes}"]
        if report.hypothesis_holds:
            lines.append("hypothesis (all H_j(A), j >= 1, in the torsion class): holds")
        else:
            failing = ", ".join(str(j) for j in report.hypothesis_failures)
            lines.append(f"hypothesis (all H_j(A), j >= 1, in the torsion class): "
                         f"fails at degree(s) {failing}")
        lines.append(f"all page entries in the class: {'yes' if report.entries_in_class else 'no'}")
        for n in sorted(report.diagonal_flags):
            state = "in the class" if report.diagonal_flags[n] else "not concluded"
            lines.append(f"degree {n}: {state}")
        return "\n".join(lines)

    _emit(args, text, lambda: {
        "primes": sorted(report.primes.primes),
        "hypothesis_holds": report.hypothesis_holds,
        "hypothesis_failures": list(report.hypothesis_failures),
        "entries_in_class": report.entries_in_class,
        "diagonals": {str(n): flag for n, flag in report.diagonal_flags.items()},
    })
    return 0


def _cmd_axioms(args) -> int:
    a = _build_complex(args.A)
    x = _build_complex(args.X)
    degrees = [args.n] if args.n is not None else list(range(0, x.top_degree + 2))
    checks = axiom_checks(a, x, [x, x], degrees)
    _emit(args, lambda: "\n".join(c.line() for c in checks),
          lambda: [{"axiom": c.axiom, "holds": c.holds, "detail": c.detail,
                    "left": str(c.left), "right": str(c.right)} for c in checks])
    return 0 if all(c.holds for c in checks) else 1


def _cmd_corpus(args) -> int:
    results = run_all()
    _emit(args, lambda: "\n".join(r.line() for r in results),
          lambda: [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results])
    return 0 if all(r.passed for r in results) else 1


_RECIPE = {"required": True, "metavar": "RECIPE"}
_GROUP = {"required": True, "metavar": "GROUP"}
_PATH = {"required": True, "metavar": "PATH"}
_REQUIRED_INT = {"required": True, "type": _integer}
_OPTIONAL_INT = {"type": _integer}

# verb -> (help, handler, options as (flag, add_argument keywords)), in help order
VERBS = {
    "homology": ("integral homology of a complex", _cmd_homology,
                 [("--X", _RECIPE), ("--degree", _OPTIONAL_INT)]),
    "cohomology": ("cohomology with coefficients in a group", _cmd_cohomology,
                   [("--X", _RECIPE), ("--coefficients", _GROUP), ("--degree", _OPTIONAL_INT)]),
    "ahomology": ("homology of X shaped by the complex A", _cmd_ahomology,
                  [("--A", _RECIPE), ("--X", _RECIPE)]),
    "federer-e2": ("assemble the second page for A and a homotopy table", _cmd_federer_e2,
                   [("--A", _RECIPE), ("--table", _PATH)]),
    "diagonal": ("positional collapse analysis of one total degree", _cmd_diagonal,
                 [("--A", _RECIPE), ("--table", _PATH), ("--n", _REQUIRED_INT)]),
    "hopf-whitney": ("[K,Y] via top cohomology with pi_n(Y) coefficients", _cmd_hopf_whitney,
                     [("--K", _RECIPE), ("--pi", _GROUP),
                      ("--loop-space", {"action": "store_true", "help": "assert that Y is a "
                                        "loop space (upgrades the set to a group)"})]),
    "moore-ses": ("Moore-coefficient bounds on shaped homotopy groups", _cmd_moore_ses,
                  [("--G", _GROUP), ("--m", _REQUIRED_INT), ("--table", _PATH),
                   ("--n", _REQUIRED_INT)]),
    "torsion-check": ("torsion-class propagation report", _cmd_torsion_check,
                      [("--A", _RECIPE), ("--table", _PATH),
                       ("--primes", {"required": True, "metavar": "P1,P2,..."})]),
    "axioms": ("run the suspension and wedge axiom checks", _cmd_axioms,
               [("--A", _RECIPE), ("--X", _RECIPE), ("--n", _OPTIONAL_INT)]),
    "corpus": ("run the built-in verification corpus", _cmd_corpus, []),
}


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser for `verb` alone when it names one, else for every verb."""
    parser = argparse.ArgumentParser(  # a usage written out lists every verb on every Python
        prog="ahom",
        usage="%(prog)s [-h]\n            {" + ",".join(VERBS) + "}\n            ...",
        description="Exact-arithmetic cellular homology, shaped homology and "
                    "second-page spectral data for CW-complexes.")
    sub = parser.add_subparsers(dest="verb", required=True, prog="ahom")
    for name in [verb] if verb in VERBS else VERBS:
        help_text, func, options = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", choices=("text", "json"), default="text",
                       help="output mode (default: text)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        if argv and argv[0][:1] != "-" and argv[0] not in VERBS:  # worded alike on every Python
            parser.error(f"argument verb: invalid choice: {argv[0]!r} "
                         f"(choose from {', '.join(map(repr, VERBS))})")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except RefusedHypothesis as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # RecipeError, GroupParseError and InvalidComplexError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
