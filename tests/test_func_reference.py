"""The cover-edge forms of the envelopes, the semicontinuity and continuity
tests and the final oscillation stage against the acc-pair forms they
replaced (``reference_func``), and the final stage against the stage
iteration as well.  The first oscillation step from the zero weight is
checked against the local oscillation and its upper envelope.

One difference is allowed.  The pair forms take |f(y) − f(x)| for every y
in acc(x), so a complex f whose difference across some pair that is not a
cover edge has an irrational modulus makes them raise ``ExactnessError``.
The cover form takes only the cover-edge moduli and may return the exact
final stage there.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_func
from helpers import (
    constant_function,
    drawn_functions,
    is_lsc,
    is_usc,
    iterated_final_stage,
    osc_pre_step,
    osc_step,
)
from oscal import func
from oscal.errors import ExactnessError, PreconditionError
from oscal.func import QFunction, zero_function
from oscal.rationals import GaussianRational
from oscal.sampling import build_corpus, random_space
from oscal.space import chain_space
from oscal.transfinite import decompose, final_stage


def outcome(call, f):
    """A call's result (its values for a function), or the type of the
    package error it raised."""
    try:
        got = call(f)
    except (ExactnessError, PreconditionError) as exc:
        return type(exc)
    return got.values if isinstance(got, QFunction) else got


def check_final_stage(f):
    got = outcome(final_stage, f)
    want = outcome(reference_func.final_stage, f)
    if want is ExactnessError:
        return got
    assert got == want
    assert got == iterated_final_stage(f).values
    return got


def check_against_reference(f):
    for fn in (func.usc_envelope, func.lsc_envelope, is_usc, is_lsc, func.is_continuous):
        got = outcome(fn, f)
        assert got == outcome(getattr(reference_func, fn.__name__), f), fn.__name__
    for step, name in ((osc_pre_step, "underline_osc"), (osc_step, "osc")):
        got = outcome(lambda h: step(h, zero_function(h.space)), f)
        assert got == outcome(getattr(reference_func, name), f), name
    check_final_stage(f)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_functions_and_their_envelopes(seed):
    corpus = build_corpus(seed)
    seen = set()
    for f in corpus.functions:
        for h in (f, func.usc_envelope(f), func.lsc_envelope(f)):
            check_against_reference(h)
            seen.add((is_usc(h), is_lsc(h), func.is_continuous(h)))
    for sp in corpus.spaces:
        check_against_reference(constant_function(sp, Fraction(-3, 2)))
    # both branches of each test ran
    assert {s[0] for s in seen} == {s[1] for s in seen} == {True, False}
    assert False in {s[2] for s in seen}


@given(drawn_functions())
def test_drawn_real_functions(f):
    check_against_reference(f)


@given(drawn_functions(complex_values=True))
def test_drawn_complex_line_functions(f):
    # every pairwise difference has a rational modulus: no exception
    assert not isinstance(outcome(final_stage, f), type)
    check_against_reference(f)


@st.composite
def gaussian_functions(draw):
    space = random_space(random.Random(draw(st.integers(0, 10**6))), 2, 12)
    parts = st.integers(-3, 3)
    values = draw(
        st.lists(st.tuples(parts, parts), min_size=len(space), max_size=len(space))
    )
    return QFunction(
        space,
        {
            i: GaussianRational(Fraction(re), Fraction(im))
            for i, (re, im) in zip(space.node_ids(), values)
        },
    )


@given(gaussian_functions())
def test_drawn_gaussian_functions(f):
    check_against_reference(f)


def test_cover_form_is_exact_past_an_irrational_pair():
    # |f(1) − f(0)| = 3 and |f(2) − f(1)| = 3 on the cover edges, while the
    # pair (0, 2) has modulus |3 + 3i| = 3·√2
    sp = chain_space(2)
    f = QFunction(
        sp, {0: Fraction(0), 1: Fraction(3), 2: GaussianRational(Fraction(3), Fraction(3))}
    )
    assert outcome(reference_func.final_stage, f) is ExactnessError
    assert check_final_stage(f) == {0: Fraction(6), 1: Fraction(3), 2: Fraction(0)}


@pytest.mark.parametrize("seed", [0, 1])
def test_decomposition_problems_match_the_pair_forms(seed):
    # u, v off a decomposition by a drawn nudge at a few nodes: the problem
    # names against the sign and difference tests, the acc-pair lsc test,
    # and the lowest limit node whose acc holds a smaller value
    rng = random.Random(seed)
    seen = set()
    for f in build_corpus(seed).functions:
        dec = decompose(f)
        sp = f.space
        for _ in range(4):
            u, v = dict(dec.u.values), dict(dec.v.values)
            for i in rng.sample(sp.node_ids(), min(2, len(sp))):
                (u if rng.random() < 0.5 else v)[i] += rng.choice([-2, -1, 1])
            got = func.decomposition_problems(sp, f.values, u, v)
            want = []
            if min(u.values()) < 0 or min(v.values()) < 0:
                want.append("negativity")
            if any(u[i] - v[i] != f(i) for i in sp.nodes):
                want.append("difference")
            qu, qv = QFunction(sp, u), QFunction(sp, v)
            if not (reference_func.is_lsc(qu) and reference_func.is_lsc(qv)):
                low = min(
                    p for p in sp.limit_nodes()
                    if any(u[p] > u[y] or v[p] > v[y] for y in sp.acc(p))
                )
                want.append("monotonicity at %d" % low)
            assert got == want
            seen.update(want)
    assert {"negativity", "difference"} <= seen
    assert any(name.startswith("monotonicity") for name in seen)
