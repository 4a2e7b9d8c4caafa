"""Command-line front end.

Exit codes: 0 on success, 1 when a theorem hypothesis was not (or cannot be)
asserted and the computation was refused, 2 for malformed input.  Output is
deterministic: no timestamps, fixed ordering, sorted JSON keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from .abelian import FgAbGroup, PrimeSet, canonical_int, parse_group
from .ahomology import a_homology_range, check_suspension_axiom, check_wedge_axiom, render_report, report_to_json
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


def _build_complex(recipe_text: str):
    return build(parse_recipe(recipe_text))


def _emit(args, text: str, data) -> None:
    if args.out == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text)


def _degree_table(args, compute, top: int) -> dict[int, FgAbGroup]:
    if args.degree is not None:
        return {args.degree: compute(args.degree)}
    return {n: compute(n) for n in range(0, top + 1)}


def _cmd_homology(args) -> int:
    c = _build_complex(args.X)
    groups = _degree_table(args, lambda n: homology(c, n), c.top_degree)
    text = "\n".join(f"H_{n}({c.name}) = {groups[n]}" for n in sorted(groups))
    _emit(args, text, {str(n): str(g) for n, g in groups.items()})
    return 0


def _cmd_cohomology(args) -> int:
    c = _build_complex(args.X)
    g = parse_group(args.coefficients)
    groups = _degree_table(args, lambda n: cohomology_uct(c, n, g), c.top_degree)
    text = "\n".join(f"H^{n}({c.name}; {g}) = {groups[n]}" for n in sorted(groups))
    _emit(args, text, {str(n): str(v) for n, v in groups.items()})
    return 0


def _cmd_ahomology(args) -> int:
    a = _build_complex(args.A)
    x = _build_complex(args.X)
    report = a_homology_range(a, x)
    _emit(args, render_report(report), report_to_json(report))
    return 0 if not report.violations else 1


def _page_for(args):
    a = _build_complex(args.A)
    table = load_homotopy_table(args.table)
    if table.variant == ABSOLUTE:
        return federer_e2(a, table)
    return relative_federer_e2(a, table)


def _cmd_federer_e2(args) -> int:
    page = _page_for(args)
    _emit(args, render_page(page), page_to_json(page))
    return 0


def _cmd_diagonal(args) -> int:
    page = _page_for(args)
    verdict = collapse_report(page, args.n)
    lines = [f"diagonal n = {verdict.n}", f"verdict = {verdict.verdict}"]
    if verdict.verdict == DETERMINED:
        lines.append(f"group = {verdict.group}")
    if verdict.surviving:
        lines.append("surviving entries:")
        lines.extend(f"  ({p},{q}) = {e.group} [{e.status}]"
                     for p, q, e in verdict.surviving)
    if verdict.notes:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in verdict.notes)
    data = {
        "n": verdict.n,
        "verdict": verdict.verdict,
        "group": str(verdict.group) if verdict.group is not None else None,
        "surviving": [{"p": p, "q": q, "group": str(e.group), "status": e.status}
                      for p, q, e in verdict.surviving],
        "notes": list(verdict.notes),
    }
    _emit(args, "\n".join(lines), data)
    return 0


def _cmd_hopf_whitney(args) -> int:
    k = _build_complex(args.K)
    pi_n = parse_group(args.pi)
    result = hopf_whitney(k, pi_n, loop_space=args.loop_space)
    text = f"[K,Y] = {result.group}\nstructure = {result.structure}"
    _emit(args, text, {"group": str(result.group), "structure": result.structure})
    return 0


def _cmd_moore_ses(args) -> int:
    g = parse_group(args.G)
    table = load_homotopy_table(args.table)
    ses = moore_homotopy_ses(g, args.m, table, args.n)
    text = "\n".join([
        f"ext part = {ses.ext_part}",
        f"hom part = {ses.hom_part}",
        f"order product = {render_exponent(ses.order_product)}",
        f"exponent bound = {render_exponent(ses.exponent_bound)}",
    ])
    data = {
        "ext_part": str(ses.ext_part),
        "hom_part": str(ses.hom_part),
        "order_product": render_exponent(ses.order_product),
        "exponent_bound": render_exponent(ses.exponent_bound),
    }
    _emit(args, text, data)
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
    data = {
        "primes": sorted(report.primes.primes),
        "hypothesis_holds": report.hypothesis_holds,
        "hypothesis_failures": list(report.hypothesis_failures),
        "entries_in_class": report.entries_in_class,
        "diagonals": {str(n): flag for n, flag in report.diagonal_flags.items()},
    }
    _emit(args, "\n".join(lines), data)
    return 0


def _cmd_axioms(args) -> int:
    a = _build_complex(args.A)
    x = _build_complex(args.X)
    degrees = [args.n] if args.n is not None else list(range(0, x.top_degree + 2))
    checks = []
    for n in degrees:
        checks.append(check_suspension_axiom(a, x, n))
        checks.append(check_wedge_axiom(a, [x, x], n))
    text = "\n".join(c.line() for c in checks)
    data = [{"axiom": c.axiom, "holds": c.holds, "detail": c.detail,
             "left": str(c.left), "right": str(c.right)} for c in checks]
    _emit(args, text, data)
    return 0 if all(c.holds for c in checks) else 1


def _cmd_corpus(args) -> int:
    results = run_all()
    text = "\n".join(r.line() for r in results)
    data = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    _emit(args, text, data)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahom",
        description="Exact-arithmetic cellular homology, shaped homology and "
                    "second-page spectral data for CW-complexes.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("text", "json"), default="text",
                        help="output mode (default: text)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("homology", parents=[common],
                       help="integral homology of a complex")
    p.add_argument("--X", required=True, metavar="RECIPE")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("cohomology", parents=[common],
                       help="cohomology with coefficients in a group")
    p.add_argument("--X", required=True, metavar="RECIPE")
    p.add_argument("--coefficients", required=True, metavar="GROUP")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("ahomology", parents=[common],
                       help="homology of X shaped by the complex A")
    p.add_argument("--A", required=True, metavar="RECIPE")
    p.add_argument("--X", required=True, metavar="RECIPE")
    p.set_defaults(func=_cmd_ahomology)

    p = sub.add_parser("federer-e2", parents=[common],
                       help="assemble the second page for A and a homotopy table")
    p.add_argument("--A", required=True, metavar="RECIPE")
    p.add_argument("--table", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_federer_e2)

    p = sub.add_parser("diagonal", parents=[common],
                       help="positional collapse analysis of one total degree")
    p.add_argument("--A", required=True, metavar="RECIPE")
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("hopf-whitney", parents=[common],
                       help="[K,Y] via top cohomology with pi_n(Y) coefficients")
    p.add_argument("--K", required=True, metavar="RECIPE")
    p.add_argument("--pi", required=True, metavar="GROUP")
    p.add_argument("--loop-space", action="store_true",
                   help="assert that Y is a loop space (upgrades the set to a group)")
    p.set_defaults(func=_cmd_hopf_whitney)

    p = sub.add_parser("moore-ses", parents=[common],
                       help="Moore-coefficient bounds on shaped homotopy groups")
    p.add_argument("--G", required=True, metavar="GROUP")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=_cmd_moore_ses)

    p = sub.add_parser("torsion-check", parents=[common],
                       help="torsion-class propagation report")
    p.add_argument("--A", required=True, metavar="RECIPE")
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--primes", required=True, metavar="P1,P2,...")
    p.set_defaults(func=_cmd_torsion_check)

    p = sub.add_parser("axioms", parents=[common],
                       help="run the suspension and wedge axiom checks")
    p.add_argument("--A", required=True, metavar="RECIPE")
    p.add_argument("--X", required=True, metavar="RECIPE")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("corpus", parents=[common],
                       help="run the built-in verification corpus")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
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
