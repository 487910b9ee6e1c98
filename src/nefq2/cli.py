"""Command line front end.

Exit codes: 0 when every requested check passes, 1 when a verification or
internal identity fails or the reader closes stdout early, 2 for usage
errors (bad flags, bad theorem name, parameters a table does not take,
violated input hypotheses).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Any, Sequence

from . import __version__
from .bondal import VARIANT_CURVE, VARIANT_STRUCTURE, E2Page, e2_page, reconstruct
from .catalog import THEOREMS, CaseSpec, certify, list_cases, sweep
from .cohomology import BundleNumerics, cohomology_q2, euler_char
from .errors import NefQ2Error, ReconstructionError
from .ktheory import line_label, ses_quotient_chern, sum_of_lines, to_chern, twist_chern
from .picard import BiDegree


def _bidegree(text: str) -> BiDegree:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a,b' integers, got {text!r}")
    return BiDegree(a, b)


def _line_term(text: str) -> tuple[BiDegree, int]:
    deg, colon, mult = text.partition(":")
    try:
        count = int(mult) if colon else 1
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad multiplicity in {text!r}")
    if count < 0:
        raise argparse.ArgumentTypeError(f"negative multiplicity in {text!r}")
    return (_bidegree(deg), count)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reads every
    token starting with '-' and a digit as a value: '--c1 -1,-1' parses like
    '--c1=-1,-1' instead of being taken for an unknown option."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nefq2",
        description="Exact cohomology, K-theory and classification checks on the quadric surface.",
    )
    parser.add_argument("--version", action="version", version=f"nefq2 {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    parsers: dict[str, argparse.ArgumentParser] = {}
    for name, run, ints, text in (
        ("cohomology", _run_cohomology, "a b", "h^i of the line bundle O(a,b)"),
        ("chi", _run_chi, "rank c1a c1b c2 p q", "Euler characteristic of a twisted bundle"),
        ("twist", _run_twist, "rank c1a c1b c2 la lb", "Chern data of E tensor O(la,lb)"),
        ("ses", _run_ses, "", "quotient Chern data for 0 -> sub -> mid -> Q -> 0 of line bundle sums"),
        ("bondal", _run_bondal, "c2 rank", "second page and module-profile reconstruction"),
    ):
        p = parsers[name] = commands.add_parser(name, help=text)
        p.set_defaults(run=run)
        for arg in ints.split():
            p.add_argument(arg, type=int)
    for flag, part in (("--sub", "sub"), ("--mid", "middle")):
        text = f"line bundle summand of the {part} (repeatable)"
        parsers["ses"].add_argument(
            flag, action="append", default=[], type=_line_term, metavar="A,B[:MULT]", help=text
        )
    parsers["bondal"].add_argument(
        "--variant",
        choices=[VARIANT_CURVE, VARIANT_STRUCTURE],
        help="required meaning for c2=8; omitted there, both variants print",
    )

    p = commands.add_parser("catalog", help="the classification tables")
    catalog_commands = p.add_subparsers(dest="catalog_command", required=True)
    p = catalog_commands.add_parser("list", help="list the cases of a table")
    p.set_defaults(run=_run_catalog_list)
    p.add_argument(
        "--theorem",
        choices=THEOREMS,
        default="all",
        help="table to list ('all' = both parameter-free tables)",
    )
    p.add_argument("--c1", type=_bidegree, metavar="A,B", help="determinant for parametric tables")
    p.add_argument("--b-param", type=int, dest="b_param", help="splitting degree for halfmax")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = commands.add_parser("verify", help="recompute and check a table")
    p.set_defaults(run=_run_verify)
    p.add_argument("theorem", choices=THEOREMS)
    p.add_argument("--rank-min", type=int, default=None)
    p.add_argument("--rank-max", type=int, default=10)
    p.add_argument("--c1", type=_bidegree, metavar="A,B")
    p.add_argument("--b-param", type=int, dest="b_param")
    p.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _case_line(case: CaseSpec) -> str:
    sub = "+".join(line_label(d, m) for d, m in case.sub_terms) or "0"
    mid = "+".join(line_label(d, m) for d, m in case.mid_terms)
    coker = case.coker.label() if case.coker is not None else "0"
    twin = f" twin_of={case.twin_of}" if case.twin_of else ""
    return (
        f"{case.id}: 0 -> {sub} -> {mid} -> E -> {coker} -> 0"
        f"  [min_rank {case.min_rank}, c2 {case.expected_c2}]{twin}"
    )


def _print_page(page: E2Page) -> None:
    print(f"second page for c2={page.c2}, rank r={page.rank}" + (f", variant {page.variant}" if page.variant else ""))
    for pos in ((0, 0), (-1, 1), (-2, 1)):
        entry = page.entries.get(pos)
        label = entry.label if entry is not None else "0"
        print(f"  (p,q)=({pos[0]},{pos[1]}): {label}")
    print("  four-term identity: PASS")
    abutment = to_chern(page.convergence_class())
    print(f"  converges to {abutment}: PASS")


def _run_cohomology(args: argparse.Namespace) -> int:
    v = cohomology_q2(BiDegree(args.a, args.b))
    print(f"h0={v.h0} h1={v.h1} h2={v.h2} chi={v.chi}")
    return 0


def _numerics(args: argparse.Namespace) -> BundleNumerics:
    return BundleNumerics(args.rank, BiDegree(args.c1a, args.c1b), args.c2)


def _run_chi(args: argparse.Namespace) -> int:
    print(euler_char(_numerics(args), args.p, args.q))
    return 0


def _run_twist(args: argparse.Namespace) -> int:
    print(twist_chern(_numerics(args), BiDegree(args.la, args.lb)))
    return 0


def _run_ses(args: argparse.Namespace) -> int:
    if not args.sub or not args.mid:
        _build_parser().error("ses needs at least one --sub and one --mid term")
    print(ses_quotient_chern(to_chern(sum_of_lines(args.sub)), to_chern(sum_of_lines(args.mid))))
    return 0


def _run_bondal(args: argparse.Namespace) -> int:
    variants: list[str | None]
    if args.c2 == 8 and args.variant is None:
        variants = [VARIANT_CURVE, VARIANT_STRUCTURE]
    else:
        variants = [args.variant]
    for variant in variants:
        _print_page(e2_page(args.c2, args.rank, variant))
    rebuilt = reconstruct(BundleNumerics(args.rank, BiDegree(2, 2), args.c2))
    print(f"module-profile reconstruction: {rebuilt}: PASS")
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    hi = args.rank_max
    cases = sweep(args.theorem, args.rank_min, hi, c1=args.c1, b=args.b_param)
    # (case, lo, passed, rows) as Certificate.rows gives them: a proved
    # case's rows are made by row as they are read, an unproved case's are
    # made here, so a rank that raises does so before output
    swept = [(case, lo, *certify(case).rows(lo, hi)) for case, lo in cases]
    passed = sum(count for _, _, count, _ in swept)
    total = sum(hi + 1 - lo for _, lo in cases)
    if args.format == "json":
        from .report_json import write_verify_json  # compiled only for this output

        write_verify_json("nefq2 " + " ".join(args.raw_argv), swept, passed, total, sys.stdout.write)
    else:
        # a case whose every rank passes takes one line whatever the range;
        # the rows of any other case are a list, so they can be read again
        for case, lo, count, rows in swept:
            first, failures = next(iter(rows)), []
            for row in rows if count < hi + 1 - lo else ():
                r, checks = row.rank_tested, row.checks
                failures += [f"    r={r} {name}: {detail}" for name, ok, detail in checks if not ok]
            print(
                f"{case.id}  c2={first.c2}  r={lo}..{hi}  "
                f"weak_fano={'yes' if first.weak_fano else 'no'}  "
                f"{'FAIL' if failures else 'PASS'}"
            )
            for line in failures:
                print(line)
        print(f"summary: {passed}/{total} checks passed, {total - passed} failed")
    return 0 if passed == total else 1


def _run_catalog_list(args: argparse.Namespace) -> int:
    cases = list_cases(args.theorem, c1=args.c1, b=args.b_param)
    if args.format == "json":
        from .report_json import write_catalog_json

        write_catalog_json(cases, sys.stdout.write)
    else:
        for case in cases:
            print(_case_line(case))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(raw_argv)
    args.raw_argv = raw_argv
    try:
        return args.run(args)
    except ReconstructionError as exc:
        print(f"internal identity failed: {exc}", file=sys.stderr)
        return 1
    except (NefQ2Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`): point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
