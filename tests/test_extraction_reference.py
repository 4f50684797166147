"""The stage loop of ``build_jump_chain`` against the two hand-written
branches it replaced (``reference_extraction``) at stages 1 and 2, and
against both checkers at every stage up to the index."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_extraction
from oscal.errors import OscalError
from oscal.extraction import (
    FunctionSeq,
    MovingStep,
    WitnessBundle,
    build_jump_chain,
    check_difference_witness,
    check_jump_chain,
    difference_witness_from_chain,
)
from oscal.func import QFunction
from oscal.rationals import Verdict
from oscal.sampling import build_corpus
from oscal.space import chain_space
from oscal.transfinite import iterate

PROFILES = {
    "alternating": lambda i: F(-((i + 1) % 2)),
    "ramp": lambda i: F(i, 2) if i % 2 == 0 else F(-i, 3),
    "sawtooth": lambda i: F(i % 3),
}


def chain_seq(depth, profile):
    sp = chain_space(depth)
    values = {i: profile(i) for i in sp.node_ids()}
    return FunctionSeq(QFunction(sp, values), MovingStep(None))


def growth(seq):
    """(alpha, x) for every strict growth v_{alpha-1}(x) < v_alpha(x)."""
    trace = iterate(seq.phi, "v")
    return [
        (alpha, x)
        for alpha in range(1, len(trace.stages))
        for x in seq.space.node_ids()
        if trace.stage(alpha - 1)(x) < trace.stage(alpha)(x)
    ]


def outcome(build, seq, alpha, x, eta):
    try:
        return build(seq, alpha, x, eta)
    except OscalError as exc:
        return type(exc)


def assert_matches_reference(seq, eta):
    for alpha in (1, 2):
        for x in seq.space.node_ids():
            got = outcome(build_jump_chain, seq, alpha, x, eta)
            want = outcome(
                reference_extraction.build_jump_chain, seq, alpha, x, eta
            )
            assert got == want, (alpha, x)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_stages_one_and_two_match_the_reference_on_chains(name):
    for depth in range(1, 9):
        seq = chain_seq(depth, PROFILES[name])
        for eta in (F(1, 2), F(1, 4)):
            assert_matches_reference(seq, eta)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stage_one_matches_the_reference_on_the_corpus(seed):
    built = 0
    for f in build_corpus(seed).functions:
        seq = FunctionSeq(f, MovingStep(None))
        for x in f.space.node_ids():
            got = outcome(build_jump_chain, seq, 1, x, F(1, 10))
            want = outcome(
                reference_extraction.build_jump_chain, seq, 1, x, F(1, 10)
            )
            assert got == want, x
            built += isinstance(got, WitnessBundle)
    assert built > 250


def assert_verifies(seq, alpha, x, eta):
    """A chain built at eta / 5 has k = alpha, passes the chain checker at
    eta / 5 and reduces to a difference witness at eta."""
    b = build_jump_chain(seq, alpha, x, eta / 5)
    assert (b.k, b.m) == (alpha, tuple(range(1, 2 * alpha + 1)))
    assert check_jump_chain(seq, b).verdict is Verdict.TRUE
    d = difference_witness_from_chain(b)
    assert d.eta == eta
    verdict = check_difference_witness(
        seq, d.indices, d.m, d.t, d.k, d.lam, d.eta
    )
    assert verdict is Verdict.TRUE


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_every_stage_up_to_the_index_verifies_on_chains(name):
    deepest = 0
    for depth in range(1, 9):
        seq = chain_seq(depth, PROFILES[name])
        for alpha, x in growth(seq):
            for eta in (F(1, 2), F(1, 4), F(3, 4)):
                assert_verifies(seq, alpha, x, eta)
            deepest = max(deepest, alpha)
    assert deepest >= 3


def test_stage_six_on_the_depth_twelve_chain():
    seq = chain_seq(12, PROFILES["alternating"])
    b = build_jump_chain(seq, 6, 0, F(1, 2))
    assert (b.k, b.lam, b.deltas) == (6, F(6), (F(1),) * 6)
    assert check_jump_chain(seq, b).verdict is Verdict.TRUE


@given(
    values=st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=2,
        max_size=8,
    ),
    eta=st.sampled_from([F(1, 2), F(1, 4), F(3, 4)]),
)
def test_every_stage_up_to_the_index_verifies_on_drawn_chains(values, eta):
    sp = chain_space(len(values) - 1)
    seq = FunctionSeq(
        QFunction(sp, dict(zip(sp.node_ids(), values))), MovingStep(None)
    )
    for alpha, x in growth(seq):
        assert_verifies(seq, alpha, x, eta)
