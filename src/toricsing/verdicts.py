"""The verdict types of `formulas`: the gcd obstruction, the alpha
invariant and the inequality checks.

Each is imported by the function that builds it, so a count, which builds
none, does not pay for their classes; `formulas.<name>` resolves them here
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactalg import _typed

if TYPE_CHECKING:
    from .chow import ScalarExpr


@dataclass(frozen=True)
class GcdVerdict:
    chi: Fraction
    gcd: int
    forces_singular: bool


@dataclass(frozen=True)
class AlphaInvariant:
    alpha: Fraction
    chi: Fraction

    def divides(self, d: int) -> bool:
        _typed(d, int, "divisor {!r} is not an int")
        if d == 0:
            return self.alpha == 0
        return self.alpha % d == 0


@dataclass(frozen=True)
class InequalityVerdict:
    lhs: ScalarExpr
    rhs: ScalarExpr
    holds: bool | None  # None when either side stays symbolic
    slack: ScalarExpr
