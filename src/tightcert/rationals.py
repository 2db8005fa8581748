"""Exact surgery coefficients and the coefficient transforms used by the
surgery calculus.

A coefficient is either a reduced rational p/q or the symbol ``inf``
(infinite slope: the knot carries no surgery).  All arithmetic is exact
integer arithmetic; nothing in this module (or the package) touches floats.

The negative continued fraction of a rational r < 0 is the unique expansion

    r = a_1 - 1/(a_2 - 1/(... - 1/a_m))

with a_1 <= -1 and a_i <= -2 for i >= 2.  A leading -1 occurs exactly for
r in [-1, 0); every other coefficient is at most -2.  The expansion drives
the conversion of a negative contact surgery into a chain of (-1)-surgeries,
with stabilization counts |a_1 + 1|, |a_2 + 2|, ..., |a_m + 2|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .errors import CalculusError, ExcludedSlopeError, ParseError


@total_ordering
@dataclass(frozen=True)
class SurgeryCoeff:
    """A surgery coefficient: reduced rational with den > 0, or (1, 0) = inf.

    Construction normalizes sign and gcd, so equal values compare equal.
    Comparisons treat ``inf`` as larger than every finite coefficient.
    Ints and Fractions coerce on either side of arithmetic and
    comparisons, and a coefficient hashes as the equal int or Fraction.
    """

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if not isinstance(num, int) or not isinstance(den, int):
            raise CalculusError("coefficient parts must be integers")
        # Plain ints, so that a bool or another int subclass prints and
        # serializes as a number.
        num, den = int(num), int(den)
        if den == 0:
            if num == 0:
                raise CalculusError("0/0 is not a surgery coefficient")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            if g > 1:
                num, den = num // g, den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- basic queries ---------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    # -- parsing / formatting --------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "SurgeryCoeff":
        """Parse "p/q", "n" or "inf" (exact formats emitted by __str__)."""
        text = text.strip()
        if text == "inf":
            return INF
        head, slash, tail = text.partition("/")
        try:
            if slash:
                return cls(int(head), int(tail))
            return cls(int(head))
        except ValueError:
            raise ParseError(f"not a surgery coefficient: {text!r}") from None

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"SurgeryCoeff({self})"

    # -- comparisons and arithmetic ---------------------------------------

    @staticmethod
    def _coerce(other) -> "SurgeryCoeff":
        if isinstance(other, SurgeryCoeff):
            return other
        if isinstance(other, int):
            return SurgeryCoeff(other)
        if isinstance(other, Fraction):
            return SurgeryCoeff(other.numerator, other.denominator)
        return NotImplemented

    # An int or a coefficient is compared as it stands, with no coefficient
    # built; a bool or a Fraction goes through ``_coerce``.
    def __eq__(self, other) -> bool:
        t = type(other)
        if t is int:
            return self.den == 1 and self.num == other
        o = other if t is SurgeryCoeff else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        # Equal to an int n exactly when den == 1, and to a Fraction of
        # the same parts when finite, so hash as that value.
        if self.den == 1:
            return hash(self.num)
        if self.den:
            return hash(Fraction(self.num, self.den))
        return hash((self.num, self.den))

    def __lt__(self, other):
        t = type(other)
        if t is int:
            return self.den != 0 and self.num < other * self.den
        o = other if t is SurgeryCoeff else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_infinite or o.is_infinite:
            return o.is_infinite and not self.is_infinite
        return self.num * o.den < o.num * self.den

    def __neg__(self) -> "SurgeryCoeff":
        if self.is_infinite:
            return self
        return SurgeryCoeff(-self.num, self.den)

    def __add__(self, other) -> "SurgeryCoeff":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_infinite or o.is_infinite:
            return INF
        return SurgeryCoeff(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__


INF = SurgeryCoeff(1, 0)


def coeff(value) -> SurgeryCoeff:
    """Coerce an int, "p/q" string, Fraction or SurgeryCoeff to SurgeryCoeff."""
    if isinstance(value, SurgeryCoeff):
        return value
    if isinstance(value, int):
        return SurgeryCoeff(value)
    if isinstance(value, Fraction):
        return SurgeryCoeff(value.numerator, value.denominator)
    if isinstance(value, str):
        return SurgeryCoeff.parse(value)
    raise CalculusError(f"cannot interpret {value!r} as a surgery coefficient")


# ---------------------------------------------------------------------------
# Negative continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegContinuedFraction:
    """Coefficients (a_1, ..., a_m) of a negative continued fraction.

    Invariant: a_1 <= -1 and a_i <= -2 for every i >= 2.  The single-term
    expansion (-1,) represents -1 itself; a leading -1 with more terms
    represents a value in (-1, 0).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(a) for a in self.coeffs)
        if not cs:
            raise CalculusError("empty continued fraction")
        if cs[0] > -1 or any(a > -2 for a in cs[1:]):
            raise CalculusError(
                f"not a valid negative continued fraction: {list(cs)}"
            )
        object.__setattr__(self, "coeffs", cs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def value(self) -> SurgeryCoeff:
        return eval_continued_fraction(self.coeffs)

    def stabilization_counts(self) -> tuple[int, ...]:
        """Stabilizations per chain knot: |a_1 + 1| then |a_i + 2|."""
        head = abs(self.coeffs[0] + 1)
        return (head,) + tuple(abs(a + 2) for a in self.coeffs[1:])


def neg_continued_fraction(r) -> NegContinuedFraction:
    """Expand a rational r < 0 as a negative continued fraction.

    The expansion has at most |p| + q terms for r = p/q and evaluates back
    to r exactly.
    """
    r = coeff(r)
    if r.is_infinite or r >= 0:
        raise CalculusError(f"negative continued fraction needs r < 0, got {r}")
    return NegContinuedFraction(tuple(neg_cf_terms(r)))


def neg_cf_terms(r: SurgeryCoeff):
    """The terms a_1, a_2, ... of the negative continued fraction of a
    finite r < 0, one at a time, so a caller may stop early."""
    p, q = r.num, r.den
    while q > 1:
        a = p // q
        yield a
        p, q = -q, p - a * q
    yield p


def eval_continued_fraction(coeffs) -> SurgeryCoeff:
    """Evaluate a_1 - 1/(a_2 - 1/(... - 1/a_m)) exactly."""
    cs = [int(a) for a in coeffs]
    if not cs:
        raise CalculusError("empty continued fraction")
    num, den = cs[-1], 1
    for a in reversed(cs[:-1]):
        if num == 0:
            raise CalculusError("continued fraction hits a zero tail")
        num, den = a * num - den, num
    return SurgeryCoeff(num, den)


# ---------------------------------------------------------------------------
# Coefficient transforms for trefoil surgeries
# ---------------------------------------------------------------------------


def slope_from_pushoff_coeff(rp) -> SurgeryCoeff:
    """Surgery slope on the trefoil presented by companion coefficient rp.

    The map is r = 1/(1 - rp); rp = 1 gives slope inf, rp = inf gives 0.
    """
    rp = coeff(rp)
    if rp.is_infinite:
        return SurgeryCoeff(0)
    if rp == 1:
        return INF
    return SurgeryCoeff(rp.den, rp.den - rp.num)


def pushoff_coeff_from_slope(r) -> SurgeryCoeff:
    """Companion coefficient rp = (r - 1)/r carried by the contact pushoff.

    Slope 0 maps to inf (the pushoff then carries no surgery and is dropped
    from the presentation), slope inf maps to 1, and slope 1 is excluded:
    it would force coefficient 0, which no tight structure extends.
    """
    r = coeff(r)
    if r.is_infinite:
        return SurgeryCoeff(1)
    if r == 1:
        raise ExcludedSlopeError(
            "surgery coefficient 1 is excluded: the companion coefficient "
            "becomes 0, which admits no tight extension"
        )
    if r.num == 0:
        return INF
    return SurgeryCoeff(r.num - r.den, r.num)


def residual_coeff(rp, k: int) -> SurgeryCoeff:
    """Coefficient left on a knot after splitting off k unit (+1) pushoffs.

    The transform is rp'' = rp/(1 - k*rp); the result is infinite exactly
    when rp = 1/k.
    """
    rp = coeff(rp)
    if not isinstance(k, int) or k < 1:
        raise CalculusError(f"split count must be a positive integer, got {k!r}")
    if rp.is_infinite:
        raise CalculusError("cannot split an infinite coefficient")
    return SurgeryCoeff(rp.num, rp.den - k * rp.num)


def min_split_count(rp) -> int:
    """Smallest k >= 1 for which residual_coeff(rp, k) is negative.

    Defined for finite rp > 0; equals floor(q/p) + 1 for rp = p/q.  For a
    unit fraction 1/j this returns j + 1, although splitting exactly j
    pushoffs (infinite residual, knot removed) is also available to callers.
    """
    rp = coeff(rp)
    if rp.is_infinite or rp <= 0:
        raise CalculusError(f"minimal split count needs finite rp > 0, got {rp}")
    return rp.den // rp.num + 1


def split_count(rp: SurgeryCoeff) -> int:
    """Number of unit (+1) pushoffs a finite rp > 0 is split into: j for a
    unit fraction 1/j (infinite residual, the knot is removed), else
    min_split_count(rp) (negative residual)."""
    if rp.num == 1 and rp.den:
        return rp.den
    return min_split_count(rp)
