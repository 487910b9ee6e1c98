"""Independent brute-force Chern oracle for the tests.

Total Chern classes are expanded as truncated polynomials in the two
ruling hyperplane classes H1, H2 with H1^2 = H2^2 = 0, so an element is
(x00, x10, x01, x11) meaning x00 + x10*H1 + x01*H2 + x11*H1*H2.  Whitney
products and exact division (constant term 1) are computed directly in
this ring; nothing here imports the package under test.
"""

from __future__ import annotations


class Trunc:
    """Element of Z[H1, H2] / (H1^2, H2^2)."""

    __slots__ = ("x00", "x10", "x01", "x11")

    def __init__(self, x00: int, x10: int = 0, x01: int = 0, x11: int = 0) -> None:
        self.x00, self.x10, self.x01, self.x11 = x00, x10, x01, x11

    def __mul__(self, other: "Trunc") -> "Trunc":
        a, b = self, other
        return Trunc(
            a.x00 * b.x00,
            a.x00 * b.x10 + a.x10 * b.x00,
            a.x00 * b.x01 + a.x01 * b.x00,
            a.x00 * b.x11 + a.x11 * b.x00 + a.x10 * b.x01 + a.x01 * b.x10,
        )

    def __pow__(self, n: int) -> "Trunc":
        """self**n for n >= 0, by repeated squaring, so a multiplicity like
        r = 10**6 costs about forty products."""
        result, square = ONE, self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def inverse(self) -> "Trunc":
        if self.x00 != 1:
            raise ValueError("only constant term 1 is invertible here")
        # (1 + u)^-1 = 1 - u + u^2 with u^3 = 0 in the truncated ring
        u2_11 = 2 * self.x10 * self.x01
        return Trunc(1, -self.x10, -self.x01, -self.x11 + u2_11)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trunc):
            return NotImplemented
        return (self.x00, self.x10, self.x01, self.x11) == (
            other.x00,
            other.x10,
            other.x01,
            other.x11,
        )

    def __repr__(self) -> str:
        return f"Trunc({self.x00}, {self.x10}, {self.x01}, {self.x11})"


ONE = Trunc(1)
POINT = Trunc(1, 0, 0, -1)  # total Chern class of a length-one skyscraper


def chern_of_lines(terms: list[tuple[tuple[int, int], int]]) -> Trunc:
    """Product of (1 + a*H1 + b*H2) over a direct sum of line bundles."""
    total = ONE
    for (a, b), mult in terms:
        total = total * Trunc(1, a, b) ** mult
    return total


def chern_of_coker(coker: tuple | None) -> Trunc:
    """Total Chern class of a cokernel descriptor given in primitive form:
    None, ("point",), ("structure",) or ("curve", (a, b), twist)."""
    if coker is None:
        return ONE
    if coker[0] == "point":
        return POINT
    if coker[0] == "structure":
        return ONE
    if coker[0] == "curve":
        (a, b), twist = coker[1], coker[2]
        result = Trunc(1, -a, -b).inverse()
        for _ in range(abs(twist)):
            result = result * (POINT if twist > 0 else POINT.inverse())
        return result
    raise ValueError(f"unknown cokernel shape {coker!r}")


def coker_rank(coker: tuple | None) -> int:
    if coker is None or coker[0] in ("point", "curve"):
        return 0
    if coker[0] == "structure":
        return 1
    raise ValueError(f"unknown cokernel shape {coker!r}")


def quotient_chern(
    sub: list[tuple[tuple[int, int], int]],
    mid: list[tuple[tuple[int, int], int]],
    coker: tuple | None = None,
) -> tuple[int, tuple[int, int], int]:
    """(rank, c1, c2) of E in 0 -> sub -> mid -> E -> coker -> 0, from
    Whitney's formula alone: c(E) = c(mid) * c(coker) / c(sub)."""
    total = chern_of_lines(mid) * chern_of_coker(coker) * chern_of_lines(sub).inverse()
    rank = (
        sum(m for _, m in mid)
        - sum(m for _, m in sub)
        + coker_rank(coker)
    )
    return (rank, (total.x10, total.x01), total.x11)


def case_chern(case, r: int) -> tuple[int, tuple[int, int], int]:
    """quotient_chern of a catalog case's display at rank r.

    Duck-typed: it reads the sub, mid and coker of the case's display (the
    kind through its ``.value``), so the oracle stays free of imports
    from the package under test."""

    def primitive(terms):
        return [((d.a, d.b), m.evaluate(r)) for d, m in terms]

    display = case.display
    coker = display.coker
    if coker is None:
        shape = None
    elif coker.kind.value == "curve":
        shape = ("curve", (coker.support.a, coker.support.b), coker.twist_degree)
    else:
        shape = (coker.kind.value,)
    return quotient_chern(primitive(display.sub), primitive(display.mid), shape)
