"""The certificate engine: every numeric check of a catalog case, at one
rank or at every rank at once.

A case's display class is linear in its multiplicities, each affine in
the rank r, so ``certify(case)`` keeps it as base + r * slope, a
``Certificate``, and each check of a row is an integer polynomial in r.
Its ``row(r)`` is the ``VerificationReport`` of every check at rank r,
made in plain ints; ``proved_from(lo)`` reads the polynomials alone to
decide whether all of them pass at every r >= lo, and ``rows(lo, hi)``
hands a sweep's rows to ``nefq2 verify``.  ``verify_case`` and
``verify_all`` read the rows, and ``case_kclass`` the class.  Only the
``verify`` command loads this module; import its names from here (the
package also has ``verify_all``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, NamedTuple

from ._value import frozen
from .bondal import reconstruct
from .catalog import CaseSpec, sweep
from .cohomology import BundleNumerics, _chi, _weak_fano
from .errors import HypothesisError, ReconstructionError
from .ktheory import KClass, _chern_c2
from .picard import BiDegree
from .quiver import _C1_22


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
    """Outcome of every numeric check of one case at one rank: the case, the
    rank tested, the display's rank, c1 and c2 there, whether c2 < c1^2, the
    checks and whether all of them pass."""

    case: CaseSpec
    rank_tested: int
    rank: int
    c1: BiDegree
    c2: int
    weak_fano: bool
    checks: tuple[CheckResult, ...]
    passed: bool

    @property
    def case_id(self) -> str:
        return self.case.id

    @property
    def computed(self) -> BundleNumerics:
        return BundleNumerics(self.rank, self.c1, self.c2)

    @property
    def flags(self) -> dict[str, Any]:
        return {**self.case.flags(), "weak_fano": self.weak_fano}

    def to_json(self) -> dict[str, Any]:
        return {
            "case_id": self.case.id,
            "rank_tested": self.rank_tested,
            "computed": {"rank": self.rank, "c1": [self.c1.a, self.c1.b], "c2": self.c2},
            "expected_c2": self.case.expected_c2,
            "flags": self.flags,
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in self.checks],
            "passed": self.passed,
        }


def _reconstruction_check(c1: BiDegree, c2: int) -> CheckResult:
    """The reconstruction check of a flagged case: the cached proof at c1
    (2,2) with c2 in 6..8, through the ``reconstruct`` of this module as it
    is at the call, and a failing check anywhere else."""
    if c1.a == 2 and c1.b == 2 and 6 <= c2 <= 8:
        return _reconstruction_proof(c2, reconstruct)
    needs = "the module profile needs c1 (2,2) and 6 <= c2 <= 8"
    return CheckResult("reconstruction", False, f"{needs}, got c1 ({c1.a},{c1.b}) and c2 {c2}")


#: A row's rank, c1, c2, weak_fano, its checks but the reconstruction check,
#: and whether all of those pass.
_Row = tuple[int, BiDegree, int, bool, tuple[CheckResult, ...], bool]


@frozen
class Certificate:
    """A case's display class as base + r * slope, and what follows from it.

    The class is linear in the multiplicities and each of them is affine in
    r, so at rank r it is exactly base + r * slope, and every check of a row
    but the reconstruction check is an integer polynomial in r.  ``row(r)``
    makes every check at r in plain ints, ``proved_from(lo)`` decides from
    the polynomials whether all of them pass at every r >= lo, and
    ``rows(lo, hi)`` counts the ranks of a sweep that pass, with their rows
    and, for a proved sweep, chi at rank 0.  A certificate whose polynomials
    hold from min_rank keeps its row there and k = chi at rank 0: its rank
    is r, its chi k + r, and nothing else moves with r.
    """

    case: CaseSpec
    base: KClass
    slope: KClass

    @functools.cached_property
    def _polynomials(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Every check but the reconstruction check as coefficients of
        (1, r, r^2), from base, slope and the table in plain ints.

        The identities, each 0 where its check passes, are rank - r, c1 - the
        table's c1 (per coordinate) and 2*c2 - 2*expected_c2, where 2*c2 =
        c1^2 - ch2x2.  The inequalities, each >= 0 where its check passes,
        are 2*c2 and 2*(c1^2 - c2) = c1^2 + ch2x2 for the nef bound, 2*chi =
        2*(rank + c1a + c1b) + ch2x2 by Riemann-Roch, and each multiplicity.
        """
        case, base, slope = self.case, self.base, self.slope
        (a0, b0), (a1, b1), (x0, x1) = (base.c1.a, base.c1.b), (slope.c1.a, slope.c1.b), (base.ch2x2, slope.ch2x2)
        c1sq = (2 * a0 * b0, 2 * (a0 * b1 + a1 * b0), 2 * a1 * b1)
        c2x2 = (c1sq[0] - x0, c1sq[1] - x1, c1sq[2])
        rank_id, c1a_id, c1b_id = (base.rank, slope.rank - 1, 0), (a0 - case.c1.a, a1, 0), (b0 - case.c1.b, b1, 0)
        identities = rank_id, c1a_id, c1b_id, (c2x2[0] - 2 * case.expected_c2, c2x2[1], c2x2[2])
        inequalities = (
            c2x2,
            (c1sq[0] + x0, c1sq[1] + x1, c1sq[2]),
            (2 * (base.rank + a0 + b0) + x0, 2 * (slope.rank + a1 + b1) + x1, 0),
            *[(m.const, m.coef, 0) for _, m in case.display.sub + case.display.mid],
        )
        return identities, inequalities

    def _hold_from(self, lo: int) -> bool:
        """Whether every identity is the zero polynomial and no inequality,
        in s with r = lo + s, has a negative coefficient."""
        identities, inequalities = self._polynomials
        return not any(map(any, identities)) and all(
            [min(c0 + (c1 + c2 * lo) * lo, c1 + 2 * c2 * lo, c2) >= 0 for c0, c1, c2 in inequalities]
        )

    @functools.cached_property
    def _kept(self) -> tuple[_Row, int] | None:
        """The row at min_rank without its reconstruction check, and k = chi
        at rank 0, when the polynomials hold from min_rank; else None."""
        case, lo = self.case, self.case.display.min_rank
        return (self._evaluate(lo), _chi(0, case.c1, case.expected_c2)) if self._hold_from(lo) else None

    def _evaluate(self, r: int) -> _Row:
        """Every check at rank r but the reconstruction check, in plain ints;
        a class with no Chern data raises the error of ``ktheory.to_chern``."""
        case, base, slope, table = self.case, self.base, self.slope, self.case.c1
        rank = base.rank + r * slope.rank
        c1 = base.c1 + r * slope.c1 if slope.c1.a or slope.c1.b else base.c1
        c2 = _chern_c2(rank, c1, base.ch2x2 + r * slope.ch2x2)
        a, b, chi = c1.a, c1.b, _chi(rank, c1, c2)
        c1sq = 2 * a * b
        multiplicities_ok = all([m.const + m.coef * r >= 0 for _, m in case.display.sub + case.display.mid])
        checks = (
            CheckResult("rank", rank == r, f"display rank {rank}, requested {r}"),
            # the text of f"display c1 {c1}, table c1 {table}", without two str() calls
            CheckResult("c1", a == table.a and b == table.b, f"display c1 ({a},{b}), table c1 ({table.a},{table.b})"),
            CheckResult("c2", c2 == case.expected_c2, f"computed c2 {c2}, expected {case.expected_c2}"),
            CheckResult("c2_bound", 0 <= c2 <= c1sq, f"c2 {c2} against nef bound 0..{c1sq}"),
            CheckResult("chi_nonnegative", chi >= 0, f"chi = {chi} must be >= 0 for a nef family"),
            CheckResult("multiplicities", multiplicities_ok, "every display multiplicity evaluates >= 0"),
        )
        return rank, c1, c2, _weak_fano(c1, c2), checks, all([passed for _, passed, _ in checks])

    def _check_rank(self, r: int) -> None:
        """Raise TypeError for a rank that is not an int, ValueError for one below min_rank."""
        if type(r) is not int:
            raise TypeError(f"rank must be an integer, got {r!r}")
        if r < self.case.display.min_rank:
            raise ValueError(f"{self.case.id} needs rank >= {self.case.display.min_rank}, got {r}")

    def row(self, r: int) -> VerificationReport:
        """The report of every check at rank r, each a ``CheckResult``, the
        reconstruction check included, made through ``reconstruct`` at every
        call so that a replaced function is seen.  A rank that is not an int
        raises TypeError, one below min_rank ValueError, and a class with no
        Chern data the error of ``ktheory.to_chern``."""
        self._check_rank(r)
        case, kept = self.case, self._kept
        if kept is None:
            rank, c1, c2, weak_fano, checks, passed = self._evaluate(r)
        else:
            (_, c1, c2, weak_fano, (_, c1_check, c2_check, bound, _, multiplicities), passed), k = kept
            rank, rank_check = r, CheckResult("rank", True, f"display rank {r}, requested {r}")
            chi = CheckResult("chi_nonnegative", True, f"chi = {k + r} must be >= 0 for a nef family")
            checks = (rank_check, c1_check, c2_check, bound, chi, multiplicities)
        if case.bondal_reconstructible:
            reconstruction = _reconstruction_check(c1, c2)
            checks += (reconstruction,)
            passed = passed and reconstruction.passed
        return VerificationReport(case, r, rank, c1, c2, weak_fano, checks, passed)

    def proved_from(self, lo: int) -> bool:
        """Whether every check of ``row(r)`` passes at every r >= lo, decided
        without evaluating a row: the polynomials hold from lo, and the
        reconstruction check, made at the table's c1 and c2, passes.  A rank
        that is not an int raises TypeError, one below min_rank ValueError."""
        self._check_rank(lo)
        case = self.case
        return self._hold_from(lo) and (
            not case.bondal_reconstructible or _reconstruction_check(case.c1, case.expected_c2).passed
        )

    def rows(self, lo: int, hi: int) -> tuple[int, Iterable[VerificationReport], int | None]:
        """How many ranks of lo..hi pass every check, ``row(r)`` for each,
        and k = chi at rank 0 when ``proved_from(lo)``, else None.  A bound
        that is not an int raises TypeError, and an empty range
        HypothesisError.  Unless proved, the rows are a list made here, so a
        rank that raises does so at this call.  Proved, every rank passes
        and the rows are ``map(self.row, lo..hi)``, made as they are read."""
        for name, bound in (("lo", lo), ("hi", hi)):
            if type(bound) is not int:
                raise TypeError(f"{name} must be an integer, got {bound!r}")
        ranks = range(lo, hi + 1)
        if not ranks:
            raise HypothesisError(f"empty sweep: no rank in {lo}..{hi}")
        if self.proved_from(lo):
            return len(ranks), map(self.row, ranks), _chi(0, self.case.c1, self.case.expected_c2)
        rows = [self.row(r) for r in ranks]
        return sum(row.passed for row in rows), rows, None


def certify(case: CaseSpec) -> Certificate:
    """The case's certificate, built on first use and kept on the case; a non-CaseSpec raises TypeError."""
    if type(case) is not CaseSpec:
        raise TypeError(f"case must be a CaseSpec, got {case!r}")
    return case._certificate


def case_kclass(case: CaseSpec, r: int) -> KClass:
    """Alternating K-sum of the display at rank r (no honesty checks), exact
    at every r, including the virtual classes below min_rank.  A rank that
    is not an int raises TypeError."""
    if type(r) is not int:
        raise TypeError(f"rank must be an integer, got {r!r}")
    cert = certify(case)
    return cert.base + r * cert.slope


@functools.cache
def _reconstruction_proof(c2: int, rebuild: Callable[[BundleNumerics], KClass]) -> CheckResult:
    """The reconstruction check at determinant (2, 2) and c2 in 6..8, for
    every rank r >= 1 at once.

    At fixed c2 both sides of the identity are affine in r: the module
    profile is hom = (r + 8 - c2, 0, 0, 0), ext1 = (0, c2 - 6, c2 - 6,
    c2 - 4), and the direct class is (r, (2, 2), 8 - 2*c2).  Their
    difference is affine in r, so it vanishes for every r once it vanishes
    at r = 1 and r = 2.  The verdict is cached per c2 and per rebuild
    function, so a replaced ``reconstruct`` is proved afresh.
    """
    try:
        for r in (1, 2):
            rebuild(BundleNumerics(r, _C1_22, c2))
    except ReconstructionError as exc:  # an internal identity failed: a bug, shown as a failing check
        return CheckResult("reconstruction", False, str(exc))
    return CheckResult("reconstruction", True, "module profile rebuilds the K-class")


def verify_case(case: CaseSpec, r: int) -> VerificationReport:
    """Recompute every numeric claim of one case at one rank: ``certify(case).row(r)``."""
    return certify(case).row(r)


def verify_all(
    theorem: str,
    rank_min: int | None = None,
    rank_max: int = 10,
    *,
    c1: BiDegree | None = None,
    b: int | None = None,
) -> list[VerificationReport]:
    """verify_case over the cases of one table x ranks.  Each case is
    swept from max(rank_min, its min_rank) to rank_max; a sweep with no
    rank at all raises HypothesisError."""
    cases = sweep(theorem, rank_min, rank_max, c1=c1, b=b)
    return [verify_case(case, r) for case, lo in cases for r in range(lo, rank_max + 1)]
