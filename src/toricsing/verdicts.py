"""The verdict types of `formulas`: the gcd obstruction, the alpha
invariant and the inequality checks.

Each is imported by the function that builds it, so a count, which builds
none, does not pay for their classes; `formulas.<name>` resolves them here
on first use.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .exactalg import _Frozen, _typed

if TYPE_CHECKING:
    from .chow import ScalarExpr


class GcdVerdict(_Frozen):
    _fields = ("chi", "gcd", "forces_singular")

    def __init__(self, chi: Fraction, gcd: int, forces_singular: bool):
        self.__dict__.update(chi=chi, gcd=gcd, forces_singular=forces_singular)


class AlphaInvariant(_Frozen):
    _fields = ("alpha", "chi")

    def __init__(self, alpha: Fraction, chi: Fraction):
        self.__dict__.update(alpha=alpha, chi=chi)

    def divides(self, d: int) -> bool:
        _typed(d, int, "divisor {!r} is not an int")
        if d == 0:
            return self.alpha == 0
        return self.alpha % d == 0


class InequalityVerdict(_Frozen):
    _fields = ("lhs", "rhs", "holds", "slack")

    def __init__(self, lhs: ScalarExpr, rhs: ScalarExpr, holds: bool | None,
                 slack: ScalarExpr):
        # holds is None when either side stays symbolic
        self.__dict__.update(lhs=lhs, rhs=rhs, holds=holds, slack=slack)
