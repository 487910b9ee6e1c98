"""Picard lattice of the smooth quadric surface (the product of two lines).

Divisor classes are pairs of integers ``(a, b)``, the bidegree with respect
to the two rulings.  The intersection form is

    (a1, b1) . (a2, b2) = a1*b2 + b1*a2,

so both rulings square to zero and meet each other once.  A class is
effective iff both coordinates are non-negative, and on this surface the
nef cone equals the effective cone.

All arithmetic is plain Python integer arithmetic, hence arbitrary
precision: results are exact unconditionally and there is no overflow
regime to guard.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BiDegree:
    """A divisor class on the quadric, as a bidegree.

    >>> BiDegree(1, 2) + BiDegree(0, -1)
    BiDegree(a=1, b=1)
    >>> 3 * BiDegree(1, 1)
    BiDegree(a=3, b=3)
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:
            raise TypeError("bidegree coordinates must be integers")

    def __add__(self, other: BiDegree) -> BiDegree:
        if type(other) is not BiDegree:
            return NotImplemented
        return BiDegree(self.a + other.a, self.b + other.b)

    def __sub__(self, other: BiDegree) -> BiDegree:
        if type(other) is not BiDegree:
            return NotImplemented
        return BiDegree(self.a - other.a, self.b - other.b)

    def __neg__(self) -> BiDegree:
        return BiDegree(-self.a, -self.b)

    def __mul__(self, n: int) -> BiDegree:
        if type(n) is not int:
            return NotImplemented
        return BiDegree(n * self.a, n * self.b)

    __rmul__ = __mul__

    def swap(self) -> BiDegree:
        """The image under exchanging the two rulings."""
        return BiDegree(self.b, self.a)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"


ZERO = BiDegree(0, 0)


def intersect(x: BiDegree, y: BiDegree) -> int:
    """Intersection number of two divisor classes.

    Symmetric and bilinear; a class of bidegree (a, b) has
    self-intersection 2ab, always even.

    >>> intersect(BiDegree(1, 1), BiDegree(2, 1))
    3
    >>> intersect(BiDegree(2, 2), BiDegree(2, 2))
    8
    """
    return x.a * y.b + x.b * y.a


def self_intersection(x: BiDegree) -> int:
    return intersect(x, x)


def is_effective(x: BiDegree) -> bool:
    """True iff the class contains an effective divisor, which on this
    surface is the same as being nef."""
    return x.a >= 0 and x.b >= 0
