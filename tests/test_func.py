from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import (
    constant_function,
    fmax,
    is_lsc,
    is_usc,
    leq,
    osc_pre_step,
    osc_step,
    qf,
    sup_abs,
)
from oscal.errors import ExactnessError, MismatchError, PreconditionError
from oscal.func import (
    QFunction,
    is_continuous,
    lsc_envelope,
    usc_envelope,
    zero_function,
)
from oscal.rationals import GaussianRational
from oscal.space import chain_space

functions = st.sampled_from(helpers.corpus().functions)


# -- canonical values ----------------------------------------------------------


def test_envelopes_on_the_limit_indicator(k1, f1):
    assert usc_envelope(f1).values == f1.values
    assert lsc_envelope(f1).values == {0: Fraction(0), 1: Fraction(0)}
    assert is_usc(f1)
    assert not is_lsc(f1)
    assert not is_continuous(f1)


def test_envelopes_on_the_copy_indicator(k1):
    g1 = qf(k1, 0, 1)
    assert usc_envelope(g1).values == {0: Fraction(1), 1: Fraction(1)}
    assert lsc_envelope(g1).values == g1.values
    assert is_lsc(g1)
    assert not is_usc(g1)


def test_oscillation_canonical_values(f1, f2):
    z1, z2 = zero_function(f1.space), zero_function(f2.space)
    assert osc_pre_step(f1, z1).values == {0: Fraction(1), 1: Fraction(0)}
    assert osc_step(f1, z1).values == {0: Fraction(1), 1: Fraction(0)}
    assert osc_pre_step(f2, z2).values == {
        0: Fraction(1),
        1: Fraction(1),
        2: Fraction(0),
    }
    assert osc_step(f2, z2).values == osc_pre_step(f2, z2).values
    assert usc_envelope(f2).values == {
        0: Fraction(1),
        1: Fraction(1),
        2: Fraction(0),
    }


def test_constants_are_continuous(k3):
    c = constant_function(k3, Fraction(5, 3))
    assert is_continuous(c)
    assert osc_step(c, zero_function(k3)).values == zero_function(k3).values


# -- envelope laws -------------------------------------------------------------


@given(functions)
def test_upper_envelope_is_an_idempotent_majorant(f):
    uf = usc_envelope(f)
    assert leq(f, uf)
    assert is_usc(uf)
    assert usc_envelope(uf).values == uf.values


@given(functions)
def test_lower_envelope_is_the_reflected_upper(f):
    assert lsc_envelope(f).values == (-usc_envelope(-f)).values
    assert leq(lsc_envelope(f), f)


@given(functions, functions)
def test_upper_envelope_is_minimal(f, h):
    if f.space is not h.space:
        h = QFunction(f.space, {i: Fraction(1) for i in f.space.node_ids()})
    g = usc_envelope(fmax(f, h))  # an arbitrary USC majorant of f
    assert leq(usc_envelope(f), g)


@given(functions)
def test_oscillation_envelope_identity(f):
    uf, lf = usc_envelope(f), lsc_envelope(f)
    local = osc_pre_step(f, zero_function(f.space))
    assert local.values == fmax(uf - f, f - lf).values


@given(functions)
def test_oscillation_is_usc(f):
    z = zero_function(f.space)
    assert is_usc(osc_step(f, z))
    assert leq(osc_pre_step(f, z), osc_step(f, z))


@given(functions)
def test_nonnegative_oscillation_chain(f):
    f = f.abs()
    uf, lf = usc_envelope(f), lsc_envelope(f)
    assert max(osc_step(f, zero_function(f.space)).values.values()) <= max(
        (uf - lf).values.values()
    )
    assert max((uf - lf).values.values()) <= max(f.values.values())


@given(functions)
def test_semicontinuity_detectors_agree_with_envelopes(f):
    assert is_usc(f) == (usc_envelope(f).values == f.values)
    assert is_lsc(f) == (lsc_envelope(f).values == f.values)
    assert is_continuous(f) == (is_usc(f) and is_lsc(f))


# -- complex values ------------------------------------------------------------


def test_complex_parts_and_abs(k1):
    fc = QFunction(
        k1,
        {0: GaussianRational(Fraction(3), Fraction(4)), 1: Fraction(-1)},
    )
    assert fc.is_complex()
    assert fc.re().values == {0: Fraction(3), 1: Fraction(-1)}
    assert fc.im().values == {0: Fraction(4), 1: Fraction(0)}
    assert fc.abs().values == {0: Fraction(5), 1: Fraction(1)}
    assert sup_abs(fc) == Fraction(5)


def test_irrational_modulus_is_refused(k1):
    fc = QFunction(
        k1, {0: GaussianRational(Fraction(1), Fraction(1)), 1: Fraction(0)}
    )
    with pytest.raises(ExactnessError):
        fc.abs()
    with pytest.raises(ExactnessError):
        osc_pre_step(fc, zero_function(k1))
    with pytest.raises(PreconditionError):
        usc_envelope(fc)


def test_complex_oscillation_with_exact_gaps(k1):
    fc = QFunction(
        k1,
        {0: GaussianRational(Fraction(3), Fraction(4)), 1: Fraction(0)},
    )
    local = osc_pre_step(fc, zero_function(k1))
    assert local.values == {0: Fraction(5), 1: Fraction(0)}


def test_mismatched_spaces_are_rejected(f1, f2):
    with pytest.raises(MismatchError):
        f1 + f2
    with pytest.raises(MismatchError):
        f1 <= f2


def test_ordering_against_a_non_function_is_a_type_error(f1):
    with pytest.raises(TypeError):
        f1 <= 3


def test_algebra_round_trip(f2):
    assert (f2.scale(Fraction(-3, 2))).values[1] == Fraction(-3, 2)
    assert (helpers.shift(f2, 2)).values[0] == Fraction(2)
    assert (-f2).abs().values == f2.values
    assert (f2 - f2).values == zero_function(f2.space).values


def test_at_point_follows_the_node(k2, f2):
    from oscal.space import PointRef, RecurringStep

    assert f2.at_point(PointRef(())) == Fraction(0)
    assert f2.at_point(PointRef((RecurringStep(0, 7),))) == Fraction(1)
