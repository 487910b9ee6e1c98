"""The certificate engine: every numeric check of a catalog case, at one
rank or at every rank at once.

A case's display class is linear in its multiplicities, each affine in
the rank r, so ``certify(case)`` keeps it as base + r * slope, a
``Certificate``.  Its ``row(r)`` is the ``VerificationReport`` of every
check at rank r, made in plain ints; ``proved_from(lo)`` decides whether
all of them pass at every r >= lo, and ``rows(lo, hi)`` hands a sweep's
rows to ``nefq2 verify``.  ``verify_case`` and ``verify_all`` read the
rows, and ``case_kclass`` the class.  Only the ``verify`` command loads
this module; import its names from here (the package also has ``verify_all``).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, NamedTuple

from ._value import frozen
from .bondal import reconstruct
from .catalog import CaseSpec, sweep
from .cohomology import BundleNumerics, _chi, _weak_fano
from .errors import HypothesisError, NefQ2Error, ReconstructionError
from .ktheory import KClass, _chern_c2
from .picard import ZERO, BiDegree, intersect
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


#: The class [O] of the trivial line bundle: the slope of every shipped display.
_SLOPE_O = KClass(1, ZERO, 0)


def _reconstruction_check(c1: BiDegree, c2: int) -> CheckResult:
    """The reconstruction check of a flagged case: the cached proof at c1
    (2,2) with c2 in 6..8, through the ``reconstruct`` of this module as it
    is at the call, and a failing check anywhere else."""
    if c1.a == 2 and c1.b == 2 and 6 <= c2 <= 8:
        return _reconstruction_proof(c2, reconstruct)
    needs = "the module profile needs c1 (2,2) and 6 <= c2 <= 8"
    return CheckResult("reconstruction", False, f"{needs}, got c1 ({c1.a},{c1.b}) and c2 {c2}")


#: What ``_steady`` makes: c1, c2, weak_fano, k = chi at rank 0, the c1, c2,
#: c2_bound and multiplicities checks, and whether all four pass.
_Steady = tuple[BiDegree, int, bool, int, tuple[CheckResult, ...], bool]


def _steady(case: CaseSpec, r: int, c1: BiDegree, c2: int) -> _Steady:
    """The part of the row at rank r of a display with this c1 and c2 that
    does not move with r on a flat display: c1, c2, weak_fano, k = chi at
    rank 0, the c1, c2, c2_bound and multiplicities checks, and their
    verdict, decided here in plain ints."""
    a, b, table = c1.a, c1.b, case.c1
    c1sq = intersect(c1, c1)
    c1_ok, c2_ok, bound_ok = a == table.a and b == table.b, c2 == case.expected_c2, 0 <= c2 <= c1sq
    multiplicities_ok = all([m.const + m.coef * r >= 0 for _, m in case.display.sub + case.display.mid])
    checks = (
        # the text of f"display c1 {c1}, table c1 {table}", without two str() calls
        CheckResult("c1", c1_ok, f"display c1 ({a},{b}), table c1 ({table.a},{table.b})"),
        CheckResult("c2", c2_ok, f"computed c2 {c2}, expected {case.expected_c2}"),
        CheckResult("c2_bound", bound_ok, f"c2 {c2} against nef bound 0..{c1sq}"),
        CheckResult("multiplicities", multiplicities_ok, "every display multiplicity evaluates >= 0"),
    )
    return c1, c2, _weak_fano(c1, c2), _chi(0, c1, c2), checks, c1_ok and c2_ok and bound_ok and multiplicities_ok


@frozen
class Certificate:
    """A case's display class as base + r * slope, and what follows from it.

    The class is linear in the multiplicities and each of them is affine in
    r, so at rank r it is exactly base + r * slope.  ``row(r)`` evaluates
    every check of a case from it in plain ints, ``proved_from(lo)``
    decides whether all of them pass at every r >= lo, and ``rows(lo, hi)``
    counts the ranks of a sweep that pass, with their rows and, for a
    proved sweep, chi at rank 0.

    A display is flat when its slope is [O] and no multiplicity falls with
    r.  Then c1 and c2 do not move with r, and neither does the steady part
    of a row at r >= min_rank (c1, c2, weak_fano, k = chi at rank 0 and the
    c1, c2, c2_bound and multiplicities checks): the certificate keeps it,
    from min_rank, unless the class there has no Chern data.  Any other
    display's row makes its steady part at r.  Every row then adds the rank
    check, chi = k + rank (Riemann-Roch has slope 1 in the rank) and the
    reconstruction check, and its verdict is the steady part's verdict and
    theirs, decided in plain ints.  It keeps nothing that depends on
    anything but its fields.
    """

    case: CaseSpec
    base: KClass
    slope: KClass

    @functools.cached_property
    def _fixed(self) -> _Steady | None:
        """The steady part of every row of a flat display, made at min_rank;
        None for any other display, or one with no Chern data there."""
        base, display, lo = self.base, self.case.display, self.case.display.min_rank
        if self.slope != _SLOPE_O or any([m.coef < 0 for _, m in display.sub + display.mid]):
            return None
        try:
            c2 = _chern_c2(base.rank + lo, base.c1, base.ch2x2)
        except NefQ2Error:
            return None
        return _steady(self.case, lo, base.c1, c2)

    def row(self, r: int) -> VerificationReport:
        """The report of every check at rank r, each a ``CheckResult``, the
        reconstruction check included.  A rank that is not an int raises
        TypeError, one below min_rank ValueError, and a class with no Chern
        data the error of ``ktheory.to_chern``.

        The reconstruction check goes through ``reconstruct`` at every call,
        so a replaced function is seen.  The verdict is decided in plain
        ints: the steady part's verdict, kept with it on a flat display,
        and the rank, chi and reconstruction verdicts of this rank."""
        case = self.case
        if type(r) is not int:
            raise TypeError(f"rank must be an integer, got {r!r}")
        if r < case.display.min_rank:
            raise ValueError(f"{case.id} needs rank >= {case.display.min_rank}, got {r}")
        base, slope, fixed = self.base, self.slope, self._fixed
        rank = base.rank + r * slope.rank
        if fixed is None:
            c1 = base.c1 + r * slope.c1 if slope.c1.a or slope.c1.b else base.c1
            fixed = _steady(case, r, c1, _chern_c2(rank, c1, base.ch2x2 + r * slope.ch2x2))
        c1, c2, weak_fano, k, (c1_check, c2_check, bound, multiplicities), steady_ok = fixed
        chi = k + rank
        rank_ok, chi_ok = rank == r, chi >= 0
        checks = (
            CheckResult("rank", rank_ok, f"display rank {rank}, requested {r}"),
            c1_check,
            c2_check,
            bound,
            CheckResult("chi_nonnegative", chi_ok, f"chi = {chi} must be >= 0 for a nef family"),
            multiplicities,
        )
        passed = steady_ok and rank_ok and chi_ok
        if case.bondal_reconstructible:
            reconstruction = _reconstruction_check(c1, c2)
            checks += (reconstruction,)
            passed = passed and reconstruction.passed
        return VerificationReport(case, r, rank, c1, c2, weak_fano, checks, passed)

    def proved_from(self, lo: int) -> bool:
        """Whether every check of ``row(r)`` passes at every r >= lo, for
        lo >= min_rank: exactly when the display is flat and ``row(lo)``
        passes.  A row(lo) that raises NefQ2Error is not proved.

        With the slope [O] = (1, 0, 0) the rank is base.rank + r, so it is r
        at every rank once it is lo at lo, and c1 and twice c2 do not move:
        the c1, c2 and nef bound checks, the parity of twice c2 and the
        reconstruction verdict are those at lo, and chi = const - c2 + rank
        grows with r.  A multiplicity c + k*r >= 0 at lo stays so when
        k >= 0.  Conversely, the rank, c1 and c2 checks pass at every rank
        only if the slope is [O], and a falling multiplicity turns negative.
        A flat row that passes at lo has rank lo, so base.rank is 0 and the
        row at min_rank does not raise: the certificate keeps its checks.
        """
        try:
            passed = self.row(lo).passed
        except NefQ2Error:
            return False
        return passed and self._fixed is not None

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
        fixed = self._fixed
        if fixed is not None and self.proved_from(lo):
            return len(ranks), map(self.row, ranks), fixed[3]
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
