"""Exact scalar layer: rational parsing/formatting, Gaussian rationals,
integer-square-root brackets, and decided comparison verdicts.

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


def require_rational_abs(z: GaussianRational, context: str = "", *args) -> Fraction:
    """|z|, or ``ExactnessError`` when it is irrational; the error names
    ``context % args``, formatted only then."""
    r = rational_abs(z)
    if r is None:
        where = f" ({context % args})" if context else ""
        raise ExactnessError(
            f"|{z}| is irrational{where}; exact arithmetic cannot continue"
        )
    return r


def sqrt_bracket(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around sqrt(q) with hi - lo <= 2^-bits.

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
    root = math.isqrt(m << (2 * bits))
    lo = Fraction(root, q.denominator << bits)
    hi = Fraction(root + 1, q.denominator << bits)
    return (lo, hi)


class Verdict(enum.Enum):
    """A decided comparison, printed as its value; truth tests are refused
    so that a verdict is always compared with ``is``."""

    TRUE = "true"
    FALSE = "false"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("compare a Verdict explicitly")


def verdict(ok: bool) -> Verdict:
    return Verdict.TRUE if ok else Verdict.FALSE


def verdict_all(verdicts: Iterable[Verdict]) -> Verdict:
    """Conjunction: TRUE when every verdict is TRUE."""
    return verdict(all(v is Verdict.TRUE for v in verdicts))


class IntervalSum:
    """A sum of moduli |z| of rationals and Gaussian rationals, kept exactly:
    a rational part, plus the squares q of the irrational moduli sqrt(q).

    ``less_than`` brackets every sqrt(q) with ``sqrt_bracket`` and doubles
    the bits until the bracket of the sum lies wholly below the bound or
    wholly at or above it.  That loop ends.  Write each irrational term
    as r sqrt(s), r > 0 rational and s > 1 a squarefree integer.  Square
    roots of distinct squarefree integers are linearly independent over Q
    (Besicovitch, J. London Math. Soc. 15, 1940), and the coefficients
    gathered on each s are positive, so a sum with an irrational term is
    irrational and never equals the bound.  The brackets close on the
    sum, so one of them clears the bound.
    """

    def __init__(self):
        self.rational = Fraction(0)
        self.squares: list[Fraction] = []

    def add_abs(self, z) -> None:
        if not isinstance(z, GaussianRational):
            self.rational += abs(rat(z))
        elif (root := _sqrt_exact(z.abs_squared())) is not None:
            self.rational += root
        else:
            self.squares.append(z.abs_squared())

    def bracket(self, bits: int) -> tuple[Fraction, Fraction]:
        """[lo, hi] around the sum, each irrational term at most 2^-bits wide."""
        lo = hi = self.rational
        for a, b in (sqrt_bracket(q, bits) for q in self.squares):
            lo, hi = lo + a, hi + b
        return lo, hi

    def less_than(self, bound) -> Verdict:
        bound, bits = rat(bound), 32
        lo, hi = self.bracket(bits)
        while lo < bound <= hi:
            bits *= 2
            lo, hi = self.bracket(bits)
        return verdict(hi < bound)
