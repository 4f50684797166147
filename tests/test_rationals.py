import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import conjugate
from oscal.errors import ExactnessError
from oscal.rationals import (
    GaussianRational,
    IntervalSum,
    Verdict,
    as_gaussian,
    format_rational,
    parse_int,
    parse_rational,
    rat,
    rational_abs,
    require_rational_abs,
    sqrt_bracket,
    verdict_all,
)

fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


@given(fractions)
def test_parse_format_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_accepts_plain_forms():
    assert parse_rational("7") == 7
    assert parse_rational("-7") == -7
    assert parse_rational("+3/6") == Fraction(1, 2)
    assert parse_rational("0") == 0


@pytest.mark.parametrize(
    "text",
    ["", " 1", "1 ", "1.5", "1e3", "1/0", "1/-2", "a", "1/2/3", "--1", "1 / 2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@pytest.mark.parametrize(
    "text", ["\u0664", "\u00b2", "1/\u0662", "\u0664/\u0669", "1_0", "+\u0661"]
)
def test_parse_takes_ascii_digits_only(text):
    # Fraction would read the Arabic-Indic four as 4 and fail on its own
    # terms on the superscript two; both are malformed rationals here
    with pytest.raises(ValueError, match="malformed rational"):
        parse_rational(text)


def test_parse_int_is_the_one_digit_rule():
    assert parse_int("42") == 42
    assert parse_int("007") == 7
    assert parse_int("-3", signs="-") == -3
    assert parse_int("+3", signs="+-") == 3
    for text in ("", "-", "-3", "+3", " 3", "3 ", "1_0", "\u0664", "\u00b2",
                 "\u0663", "3.0", "0x1"):
        assert parse_int(text) is None, text
    assert parse_int("+3", signs="-") is None
    assert parse_int("--3", signs="-") is None
    # past int's digit limit is no number either, not an exception
    assert parse_int("1" * 5000) is None


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


@given(fractions)
def test_rat_returns_a_fraction_itself(q):
    assert rat(q) is q
    assert type(rat(q.numerator)) is Fraction
    assert rat(q.numerator) == q.numerator


def test_gaussian_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(Fraction(2), Fraction(-1))
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(2))
    assert a - b == GaussianRational(Fraction(-3, 2), Fraction(4))
    assert a * b == GaussianRational(Fraction(4), Fraction(11, 2))
    assert (-a).im == Fraction(-3)
    assert conjugate(a).im == Fraction(-3)
    assert as_gaussian(5) == GaussianRational(Fraction(5), Fraction(0))
    assert 1 + b == GaussianRational(Fraction(3), Fraction(-1))


def test_rational_abs():
    assert rational_abs(GaussianRational(Fraction(3), Fraction(4))) == 5
    assert rational_abs(GaussianRational(Fraction(1), Fraction(1))) is None
    assert require_rational_abs(
        GaussianRational(Fraction(-3, 5), Fraction(4, 5))
    ) == Fraction(1)
    with pytest.raises(ExactnessError):
        require_rational_abs(GaussianRational(Fraction(1), Fraction(2)))


@given(st.fractions(min_value=0, max_value=500, max_denominator=50))
def test_sqrt_bracket_contains_root(q):
    lo, hi = sqrt_bracket(q, bits=30)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Fraction(1, 2**30)
    assert lo >= 0


def test_sqrt_bracket_exact_square_collapses():
    assert sqrt_bracket(Fraction(9, 4), bits=30) == (Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        sqrt_bracket(Fraction(-1), bits=30)


def test_verdict_is_two_valued():
    assert [v.value for v in Verdict] == ["true", "false"]
    assert verdict_all([]) is Verdict.TRUE
    assert verdict_all([Verdict.TRUE, Verdict.TRUE]) is Verdict.TRUE
    assert verdict_all([Verdict.TRUE, Verdict.FALSE]) is Verdict.FALSE
    assert verdict_all([Verdict.FALSE, Verdict.TRUE]) is Verdict.FALSE
    with pytest.raises(TypeError):
        bool(Verdict.TRUE)


def test_interval_sum_rational_terms_stay_exact():
    acc = IntervalSum()
    acc.add_abs(Fraction(1, 3))
    acc.add_abs(Fraction(-1, 6))
    acc.add_abs(GaussianRational(Fraction(0), Fraction(0)))
    assert acc.squares == []
    assert acc.bracket(1) == (Fraction(1, 2), Fraction(1, 2))
    assert acc.less_than(Fraction(2, 3)) is Verdict.TRUE
    assert acc.less_than(Fraction(1, 2)) is Verdict.FALSE


def test_interval_sum_brackets_irrationals():
    acc = IntervalSum()
    acc.add_abs(GaussianRational(Fraction(1), Fraction(1)))  # sqrt 2
    acc.add_abs(GaussianRational(Fraction(3), Fraction(4)))  # 5, exact
    lo, hi = acc.bracket(30)
    assert lo < hi
    assert acc.less_than(Fraction(7)) is Verdict.TRUE
    assert acc.less_than(Fraction(6)) is Verdict.FALSE
    # a bound inside the 30-bit bracket is decided by refining it
    mid = (lo + hi) / 2
    assert acc.less_than(mid) is (
        Verdict.TRUE if 2 < (mid - 5) ** 2 else Verdict.FALSE
    )


def adversarial_sums(seed: int, count: int):
    """Sums of 1-6 moduli |a + bi| / c, each with a bound at the midpoint
    of a 200-bit bracket of the sum, far inside any coarse bracket."""
    rng = random.Random(seed)
    for _ in range(count):
        acc = IntervalSum()
        for _ in range(rng.randint(1, 6)):
            c = rng.randint(1, 9)
            acc.add_abs(
                GaussianRational(
                    Fraction(rng.randint(-40, 40), c),
                    Fraction(rng.randint(-40, 40), c),
                )
            )
        lo, hi = acc.bracket(200)
        yield acc, (lo + hi) / 2


def test_interval_sum_decides_adversarial_bounds():
    straddled = 0
    for acc, bound in adversarial_sums(2201, 3000):
        lo, hi = acc.bracket(2000)
        assert hi < bound or lo >= bound  # 2000 bits decide every one
        assert acc.less_than(bound) is (
            Verdict.TRUE if hi < bound else Verdict.FALSE
        )
        lo, hi = acc.bracket(32)
        straddled += lo < bound <= hi
    assert straddled > 2900  # the first bracket rarely decides
