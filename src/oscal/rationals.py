"""Exact scalar layer: rational parsing/formatting, Gaussian rationals,
integer-square-root brackets, and three-valued comparison verdicts.

Everything downstream of this module computes with `fractions.Fraction`
(or `GaussianRational` for complex values) — no floats anywhere.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, Union

from ._record import record
from .errors import ExactnessError

Rat = Union[Fraction, int]


def rat(value) -> Fraction:
    """Coerce int/str/Fraction into a Fraction. Floats are rejected."""
    if type(value) is Fraction:  # immutable, so it needs no copy
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction or a 'p/q' string")
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    return Fraction(value)


def parse_int(text: str, signs: str = "") -> int | None:
    """int(text) for ASCII digits, optionally after one sign from ``signs``,
    else None.  This is the package's one digit rule: no whitespace, no
    underscores, no non-ASCII digits such as "\u0664" or "\u00b2", and
    nothing past int()'s digit limit."""
    digits = text[1:] if text and text[0] in signs else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past int's digit limit
        return None


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (q > 0 after normalization) into a Fraction.

    This is intentionally stricter than Fraction's own parser: ASCII
    digits only, no decimal points, no exponents, no whitespace.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    p = parse_int(num, signs="+-")
    q = parse_int(den) if slash else 1
    if p is None or q is None:
        raise ValueError(f"malformed rational {text!r}")
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(p, q)


def format_rational(value: Fraction) -> str:
    """Canonical text form: 'p' for integers, 'p/q' otherwise (q > 0)."""
    value = Fraction(value)
    return str(value)


@record
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", rat(self.re))
        object.__setattr__(self, "im", rat(self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return as_gaussian(other) - self

    def __mul__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(rat(value), Fraction(0))
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


def _sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("square root of a negative rational")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def rational_abs(z: GaussianRational) -> Fraction | None:
    """|z| when it is rational, else None."""
    return _sqrt_exact(z.abs_squared())


def require_rational_abs(z: GaussianRational, context: str = "") -> Fraction:
    r = rational_abs(z)
    if r is None:
        where = f" ({context})" if context else ""
        raise ExactnessError(
            f"|{z}| is irrational{where}; exact arithmetic cannot continue"
        )
    return r


def sqrt_bracket(q: Fraction, precision: int = 30) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around sqrt(q) with hi - lo <= 2^-precision.

    Exact roots collapse to a zero-width bracket. Uses integer square roots
    on scaled numerators, so there is never any floating point involved.
    """
    q = rat(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    exact = _sqrt_exact(q)
    if exact is not None:
        return (exact, exact)
    # sqrt(n/d) = sqrt(n*d)/d; bracket sqrt(m) with m = n*d via scaled isqrt.
    m = q.numerator * q.denominator
    scale = 1 << (2 * precision)
    root = math.isqrt(m * scale)
    lo = Fraction(root, (1 << precision) * q.denominator)
    hi = Fraction(root + 1, (1 << precision) * q.denominator)
    return (lo, hi)


class Verdict(enum.Enum):
    """Three-valued result of a comparison that may be undecidable exactly.

    UNDECIDED only ever arises from irrational moduli squeezed by brackets;
    purely rational data always yields TRUE or FALSE.
    """

    TRUE = "true"
    FALSE = "false"
    UNDECIDED = "undecided"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Verdict is three-valued; compare explicitly")


def verdict_all(verdicts: Iterable[Verdict]) -> Verdict:
    """Conjunction: FALSE dominates, then UNDECIDED, else TRUE."""
    out = Verdict.TRUE
    for v in verdicts:
        if v is Verdict.FALSE:
            return Verdict.FALSE
        if v is Verdict.UNDECIDED:
            out = Verdict.UNDECIDED
    return out


class IntervalSum:
    """Accumulates a sum of nonnegative square roots as an exact bracket.

    Rational terms tighten nothing; irrational moduli widen the bracket by
    at most 2^-precision each. Comparisons against rational bounds return
    a Verdict — UNDECIDED when the bracket straddles the bound.
    """

    def __init__(self, precision: int = 30):
        self.precision = precision
        self.lo = Fraction(0)
        self.hi = Fraction(0)

    def add_rational(self, value: Fraction) -> None:
        value = rat(value)
        self.lo += value
        self.hi += value

    def add_sqrt(self, square: Fraction) -> None:
        lo, hi = sqrt_bracket(square, self.precision)
        self.lo += lo
        self.hi += hi

    def add_abs(self, z: GaussianRational) -> None:
        self.add_sqrt(z.abs_squared())

    def less_than(self, bound: Fraction) -> Verdict:
        bound = rat(bound)
        if self.hi < bound:
            return Verdict.TRUE
        if self.lo >= bound:
            return Verdict.FALSE
        return Verdict.UNDECIDED

    def exact(self) -> Fraction:
        if self.lo != self.hi:
            raise ExactnessError("interval sum is not exact")
        return self.lo
