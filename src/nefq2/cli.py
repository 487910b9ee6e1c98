"""Command line front end.

A well-formed command line is read from the grammar table, _COMMANDS,
without argparse. argparse, and with it gettext and locale, loads only for
any other line: help, ``--version``, usage errors, an abbreviated flag.

Exit codes: 0 when every requested check passes, 1 when a verification or
internal identity fails or the reader closes stdout early, 2 for usage
errors (bad flags, bad theorem name, parameters a table does not take,
violated input hypotheses).
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import __version__
from .bondal import VARIANT_CURVE, VARIANT_STRUCTURE, E2Page, e2_page, reconstruct
from .catalog import THEOREMS, CaseSpec, list_cases, sweep
from .cohomology import BundleNumerics, cohomology_q2, euler_char
from .errors import NefQ2Error, ReconstructionError
from .ktheory import line_label, ses_quotient_chern, sum_of_lines, to_chern, twist_chern
from .picard import BiDegree

if TYPE_CHECKING:
    import argparse


def _type_error(message: str) -> Exception:
    import argparse  # loaded only for a value that argparse reports

    return argparse.ArgumentTypeError(message)


def _bidegree(text: str) -> BiDegree:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise _type_error(f"expected 'a,b' integers, got {text!r}")
    return BiDegree(a, b)


def _line_term(text: str) -> tuple[BiDegree, int]:
    deg, colon, mult = text.partition(":")
    try:
        count = int(mult) if colon else 1
    except ValueError:
        raise _type_error(f"bad multiplicity in {text!r}")
    if count < 0:
        raise _type_error(f"negative multiplicity in {text!r}")
    return (_bidegree(deg), count)


#: A token that is a value though it starts with '-', for argparse and for
#: _read alike: '--c1 -1,-1' parses like '--c1=-1,-1' instead of being taken
#: for an unknown option.
_NEGATIVE = re.compile(r"-\.?\d")


def _case_line(case: CaseSpec) -> str:
    display = case.display
    sub = "+".join(line_label(d, m) for d, m in display.sub) or "0"
    mid = "+".join(line_label(d, m) for d, m in display.mid)
    coker = display.coker.label() if display.coker is not None else "0"
    twin = f" twin_of={case.twin_of}" if case.twin_of else ""
    return (
        f"{case.id}: 0 -> {sub} -> {mid} -> E -> {coker} -> 0"
        f"  [min_rank {display.min_rank}, c2 {case.expected_c2}]{twin}"
    )


def _print_page(page: E2Page) -> None:
    print(f"second page for c2={page.c2}, rank r={page.rank}" + (f", variant {page.variant}" if page.variant else ""))
    entries = page.entries
    for pos in ((0, 0), (-1, 1), (-2, 1)):
        entry = entries.get(pos)
        label = entry.label if entry is not None else "0"
        print(f"  (p,q)=({pos[0]},{pos[1]}): {label}")
    print("  four-term identity: PASS")
    abutment = to_chern(page.convergence_class())
    print(f"  converges to {abutment}: PASS")


def _run_cohomology(args: Any) -> int:
    v = cohomology_q2(BiDegree(args.a, args.b))
    print(f"h0={v.h0} h1={v.h1} h2={v.h2} chi={v.chi}")
    return 0


def _numerics(args: Any) -> BundleNumerics:
    return BundleNumerics(args.rank, BiDegree(args.c1a, args.c1b), args.c2)


def _run_chi(args: Any) -> int:
    print(euler_char(_numerics(args), args.p, args.q))
    return 0


def _run_twist(args: Any) -> int:
    print(twist_chern(_numerics(args), BiDegree(args.la, args.lb)))
    return 0


def _run_ses(args: Any) -> int:
    if not args.sub or not args.mid:
        _build_parser("ses").error("ses needs at least one --sub and one --mid term")
    print(ses_quotient_chern(to_chern(sum_of_lines(args.sub)), to_chern(sum_of_lines(args.mid))))
    return 0


def _run_bondal(args: Any) -> int:
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


def _run_verify(args: Any) -> int:
    from .verify import certify  # compiled only for this command

    hi = args.rank_max
    cases = sweep(args.theorem, args.rank_min, hi, c1=args.c1, b=args.b_param)
    # (case, lo, passed, rows, k) as Certificate.rows gives them: a proved
    # case's rows are made by row as they are read, an unproved case's are
    # made here, so a rank that raises does so before output
    swept = [(case, lo, *certify(case).rows(lo, hi)) for case, lo in cases]
    passed = sum(count for _, _, count, _, _ in swept)
    total = sum(hi + 1 - lo for _, lo in cases)
    if args.format == "json":
        from .report_json import write_verify_json  # compiled only for this output

        write_verify_json("nefq2 " + " ".join(args.raw_argv), swept, passed, total, sys.stdout.write)
    else:
        # a proved case takes one line whatever the range; the rows of any
        # other case are a list, so they can be read again for its failures
        for case, lo, _, rows, k in swept:
            first, failures = next(iter(rows)), []
            for row in rows if k is None else ():
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


def _run_catalog_list(args: Any) -> int:
    cases = list_cases(args.theorem, c1=args.c1, b=args.b_param)
    if args.format == "json":
        from .report_json import write_catalog_json

        write_catalog_json(cases, sys.stdout.write)
    else:
        for case in cases:
            print(_case_line(case))
    return 0


def _ints(names: str) -> tuple[tuple[str, dict[str, Any]], ...]:
    return tuple((name, {"type": int}) for name in names.split())


_SUMMAND = {"action": "append", "default": [], "type": _line_term, "metavar": "A,B[:MULT]"}
_C1 = {"type": _bidegree, "metavar": "A,B"}
_FORMAT = ("--format", {"choices": ["text", "json"], "default": "text"})

#: The grammar, written once for _build_parser and _read: each command (``catalog
#: list`` is ``catalog``'s one child) with its help, its run function and its
#: arguments as ``add_argument`` takes them, in the order of the usage line.
_COMMANDS: tuple[tuple[str, str, Callable[[Any], int], tuple[tuple[str, dict[str, Any]], ...]], ...] = (
    ("cohomology", "h^i of the line bundle O(a,b)", _run_cohomology, _ints("a b")),
    ("chi", "Euler characteristic of a twisted bundle", _run_chi, _ints("rank c1a c1b c2 p q")),
    ("twist", "Chern data of E tensor O(la,lb)", _run_twist, _ints("rank c1a c1b c2 la lb")),
    ("ses", "quotient Chern data for 0 -> sub -> mid -> Q -> 0 of line bundle sums", _run_ses, (
        ("--sub", {**_SUMMAND, "help": "line bundle summand of the sub (repeatable)"}),
        ("--mid", {**_SUMMAND, "help": "line bundle summand of the middle (repeatable)"}),
    )),
    ("bondal", "second page and module-profile reconstruction", _run_bondal, (
        *_ints("c2 rank"),
        ("--variant", {
            "choices": [VARIANT_CURVE, VARIANT_STRUCTURE],
            "help": "required meaning for c2=8; omitted there, both variants print",
        }),
    )),
    ("catalog list", "list the cases of a table", _run_catalog_list, (
        ("--theorem", {
            "choices": THEOREMS, "default": "all", "help": "table to list ('all' = both parameter-free tables)",
        }),
        ("--c1", {**_C1, "help": "determinant for parametric tables"}),
        ("--b-param", {"type": int, "help": "splitting degree for halfmax"}),
        _FORMAT,
    )),
    ("verify", "recompute and check a table", _run_verify, (
        ("theorem", {"choices": THEOREMS}),
        ("--rank-min", {"type": int, "default": None}),
        ("--rank-max", {"type": int, "default": 10}),
        ("--c1", _C1),
        ("--b-param", {"type": int}),
        _FORMAT,
    )),
)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or the subparser of ``command``. Only it
    prints help, ``--version`` and usage errors; main builds it for a line
    that _read leaves."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser, and so each of its subparsers, that reads every
        token _NEGATIVE matches as a value."""

        def __init__(self, **kwargs: Any) -> None:
            super().__init__(**kwargs)
            self._negative_number_matcher = _NEGATIVE

    parser = _Parser(
        prog="nefq2",
        description="Exact cohomology, K-theory and classification checks on the quadric surface.",
    )
    parser.add_argument("--version", action="version", version=f"nefq2 {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text, run, arguments in _COMMANDS:
        if name == "catalog list":
            p = commands.add_parser("catalog", help="the classification tables")
            p = p.add_subparsers(dest="catalog_command", required=True).add_parser("list", help=text)
        else:
            p = commands.add_parser(name, help=text)
        p.set_defaults(run=run)
        for arg, kwargs in arguments:
            p.add_argument(arg, **kwargs)
    return parser if command is None else commands.choices[command]


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of ``argv``, read from _COMMANDS without
    argparse when ``argv`` is a well-formed line of the grammar. None for
    any other line: help, ``--version``, ``--``, an abbreviated or unknown
    flag, a value that does not convert or is not a choice, a missing or
    extra positional. argparse reads that line, and prints what it prints."""
    for name, _, run, arguments in _COMMANDS:
        words = name.split()
        if argv[: len(words)] == words:
            break
    else:
        return None
    fields: dict[str, Any] = {"command": words[0], "run": run}
    if len(words) > 1:
        fields["catalog_command"] = words[1]
    options = {arg: (arg[2:].replace("-", "_"), kwargs) for arg, kwargs in arguments if arg.startswith("-")}
    positionals = [(arg, kwargs) for arg, kwargs in arguments if not arg.startswith("-")]
    for dest, kwargs in options.values():
        fields[dest] = [] if kwargs.get("action") == "append" else kwargs.get("default")
    tokens = iter(argv[len(words) :])
    for token in tokens:
        flag, eq, text = token.partition("=")
        if token in options or (eq and flag in options):
            dest, kwargs = options[flag]
            text = text if eq else next(tokens, "-")  # none left: '-' fails the flag test below
        elif positionals:
            (dest, kwargs), text = positionals.pop(0), token
        else:
            return None
        if text.startswith("-") and not _NEGATIVE.match(text):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse converts the value again and reports or raises the same
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if kwargs.get("action") == "append":
            fields[dest].append(value)
        else:
            fields[dest] = value
    return None if positionals else SimpleNamespace(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = _read(raw_argv) or _build_parser().parse_args(raw_argv)
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
    # A cold process: what the imports built moves to the collector's
    # permanent generation, so neither the command's collections nor
    # interpreter exit walk it; main() and imports leave the collector alone.
    gc.freeze()
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
