import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
import oscal.transfinite
from helpers import (
    constant_function,
    drawn_functions,
    fixpoint_criterion,
    is_usc,
    iterated_final_stage,
    leq,
    osc_step,
    qf,
    semicontinuity_criterion,
    v_step,
)
from oscal.errors import ExactnessError, PreconditionError
from oscal.func import (
    QFunction,
    lsc_envelope,
    usc_envelope,
    zero_function,
)
from oscal.rationals import GaussianRational
from oscal.sampling import build_corpus
from oscal.space import chain_space
from oscal.transfinite import (
    CapExceeded,
    d_index,
    d_norm,
    decompose,
    final_stage,
    iterate,
    level_set_witness,
)

functions = st.sampled_from(helpers.corpus().functions)
pairs = st.sampled_from(helpers.corpus_pairs())


# -- single steps --------------------------------------------------------------


def test_osc_step_canonical(k1, k2, f1, f2):
    assert osc_step(f1, zero_function(k1)).values == {
        0: Fraction(1),
        1: Fraction(0),
    }
    stage1 = iterate(f2, "osc").stage(1)
    assert osc_step(f2, stage1).values == {
        0: Fraction(2),
        1: Fraction(1),
        2: Fraction(0),
    }


@given(functions)
def test_osc_step_of_a_constant_returns_the_weight(f):
    c = constant_function(f.space, Fraction(3, 7))
    w = osc_step(f.abs(), zero_function(f.space))  # an arbitrary USC weight
    assert osc_step(c, w).values == w.values


def test_v_step_canonical(k1, f1):
    z = zero_function(k1)
    assert v_step(f1, z).values == z.values
    assert v_step(-f1, z).values == {0: Fraction(1), 1: Fraction(0)}
    c = constant_function(k1, Fraction(-2))
    w = qf(k1, 1, 0)
    assert v_step(c, w).values == w.values


# -- iteration and stabilization -----------------------------------------------


def test_continuous_functions_stabilize_immediately(k3):
    c = constant_function(k3, Fraction(4, 3))
    tr = iterate(c, "osc")
    assert tr.stabilized_at == 0
    assert tr.stage(1).values == zero_function(k3).values


def test_canonical_traces(f1, f2):
    tr1 = iterate(f1, "osc")
    assert tr1.stabilized_at == 1
    assert tr1.stage(1).values == {0: Fraction(1), 1: Fraction(0)}

    tr2 = iterate(f2, "osc")
    assert tr2.stabilized_at == 2
    assert tr2.stage(1).values == {0: Fraction(1), 1: Fraction(1), 2: Fraction(0)}
    assert tr2.stage(2).values == {0: Fraction(2), 1: Fraction(1), 2: Fraction(0)}
    # beyond stabilization the stage is frozen
    assert tr2.stage(9).values == tr2.stage(2).values


def test_unstabilized_trace_refuses_deep_stages(f2):
    tr = iterate(f2, "osc", steps=1)
    assert tr.stabilized_at is None
    with pytest.raises(PreconditionError, match=r"stage 5 not computed \(1 steps"):
        tr.stage(5)


def test_iterate_takes_at_most_the_steps_asked_for(f2):
    assert [len(iterate(f2, "osc", n).stages) for n in range(5)] == [1, 2, 3, 4, 4]
    assert iterate(f2, "osc", 0).stage(0).values == zero_function(f2.space).values
    with pytest.raises(PreconditionError, match="steps must be nonnegative"):
        iterate(f2, "osc", -1)
    with pytest.raises(PreconditionError, match="unknown iteration kind"):
        iterate(f2, "w")


def test_d_index_canonical(k2, f1, f2):
    assert d_index(constant_function(k2, Fraction(1))) == 0
    assert d_index(f1) == 1
    assert d_index(f2) == 2
    capped = d_index(f2, cap=1)
    assert isinstance(capped, CapExceeded)
    assert capped.cap == 1
    # stabilizing at 2 takes a third step, to see stage 3 equal stage 2
    assert isinstance(d_index(f2, cap=2), CapExceeded)
    assert d_index(f2, cap=3) == 2


def test_d_norm_canonical(k2, f1, f2):
    assert d_norm(f1) == Fraction(2)
    assert d_norm(f2) == Fraction(2)
    c = constant_function(k2, Fraction(-5, 2))
    assert d_norm(c) == Fraction(5, 2)


def test_irrational_moduli_name_their_node(k1):
    # |f(0)| = 5 is rational; |f(1)| = √2 and |f(1) − f(0)| = √13 are not
    f = QFunction(k1, {0: GaussianRational(3, 4), 1: GaussianRational(1, 1)})
    with pytest.raises(ExactnessError, match=r"\(oscillation step at node 0\)"):
        final_stage(f)
    with pytest.raises(ExactnessError, match=r"\(abs at node 1\)"):
        d_norm(f)
    g = QFunction(k1, {0: GaussianRational(3, 4), 1: GaussianRational(0, 0)})
    assert d_norm(g) == 10  # |g(0)| + |g(1) − g(0)|


def test_decompose_canonical(k1, k2, f1, f2):
    dec1 = decompose(f1)
    assert dec1.u.values == {0: Fraction(1), 1: Fraction(1)}
    assert dec1.v.values == {0: Fraction(0), 1: Fraction(1)}
    assert dec1.norm == Fraction(2)
    assert all(dec1.checks.values())

    dec2 = decompose(f2)
    assert dec2.u.values == {0: Fraction(0), 1: Fraction(1), 2: Fraction(1)}
    assert dec2.v.values == {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)}

    z = decompose(zero_function(k2))
    assert z.u.values == z.v.values == zero_function(k2).values


@given(functions)
def test_decompose_is_a_certified_difference(f):
    dec = decompose(f)
    assert (dec.u - dec.v).values == f.values
    assert all(v >= 0 for v in dec.u.values.values())
    assert all(v >= 0 for v in dec.v.values.values())
    assert max((dec.u + dec.v).values.values()) == dec.norm
    assert all(dec.checks.values()), dec.checks


def test_fixpoint_criterion_canonical(k2, f1, f2):
    assert fixpoint_criterion(f1, 1)
    assert not fixpoint_criterion(f2, 1)
    assert fixpoint_criterion(constant_function(k2, Fraction(2)), 0)


@given(functions)
def test_fixpoint_criterion_matches_stage_equality(f):
    tr = iterate(f, "osc", steps=8)
    last = (
        tr.stabilized_at
        if tr.stabilized_at is not None
        else len(tr.stages) - 2
    )
    for alpha in range(0, min(last + 1, 4)):
        same = tr.stage(alpha).values == tr.stage(alpha + 1).values
        assert fixpoint_criterion(f, alpha) == same


# -- stage laws ----------------------------------------------------------------


@given(functions, st.sampled_from(["osc", "v"]))
def test_stages_are_monotone_and_usc(f, kind):
    tr = iterate(f, kind, steps=8)
    for lo, hi in zip(tr.stages, tr.stages[1:]):
        assert leq(lo, hi)
        assert is_usc(hi)


@given(functions, st.sampled_from([Fraction(2), Fraction(-3), Fraction(1, 2)]))
def test_stages_are_absolutely_homogeneous(f, t):
    tr = iterate(f, "osc", steps=5)
    tr_scaled = iterate(f.scale(t), "osc", steps=5)
    for n in range(min(len(tr.stages), len(tr_scaled.stages))):
        assert tr_scaled.stages[n].values == {
            i: abs(t) * v for i, v in tr.stages[n].values.items()
        }


@given(pairs)
def test_stages_are_subadditive(pair):
    f, g = pair
    tf = iterate(f, "osc", steps=5)
    tg = iterate(g, "osc", steps=5)
    tfg = iterate(f + g, "osc", steps=5)
    for n in range(5):
        assert leq(tfg.stage(n), tf.stage(n) + tg.stage(n))


@given(functions)
def test_fixpoints_persist(f):
    tr = iterate(f, "osc")
    assert tr.stabilized_at is not None
    cur = tr.stage(tr.stabilized_at)
    for _ in range(3):
        nxt = osc_step(f, cur)
        assert nxt.values == cur.values
        cur = nxt


@given(functions)
def test_semicontinuous_functions_oscillate_in_one_step(f):
    for h in (usc_envelope(f), lsc_envelope(f)):
        tr = iterate(h, "osc", steps=6)
        target = osc_step(h, zero_function(h.space))
        for n in range(1, 6):
            assert tr.stage(n).values == target.values


@given(pairs)
def test_difference_oscillation_bound(pair):
    # osc stages of u - v against the plain oscillation of u + v,
    # for nonnegative lower semicontinuous u and v
    a, b = pair
    u = lsc_envelope(a.abs())
    v = lsc_envelope(b.abs())
    bound = osc_step(u + v, zero_function(u.space))
    tr = iterate(u - v, "osc", steps=5)
    for stage in tr.stages:
        assert leq(stage, bound)


@given(functions)
def test_positive_oscillation_sandwich(f):
    to = iterate(f, "osc", steps=5)
    tp = iterate(f, "v", steps=5)
    tm = iterate(-f, "v", steps=5)
    for n in range(5):
        pos, neg = tp.stage(n), tm.stage(n)
        full = to.stage(n)
        assert leq(pos, full)
        assert leq(full, pos + neg)


@given(st.integers(min_value=0, max_value=10_000))
def test_real_part_oscillates_no_faster(seed):
    rng = random.Random(seed)
    space = helpers.corpus().spaces[seed % 38]
    fc = helpers.complex_line_function(rng, space)
    tc = iterate(fc, "osc", steps=4)
    for part in (fc.re(), fc.im()):
        tr = iterate(part, "osc", steps=4)
        for n in range(4):
            assert leq(tr.stage(n), tc.stage(n))


# -- the final stage in one pass, against the iteration as its oracle ----------


def assert_final_stages_match_iteration(f):
    assert final_stage(f).values == iterated_final_stage(f).values
    if not f.is_complex():
        for g in (f, -f):
            assert final_stage(g, "v").values == iterated_final_stage(g, "v").values


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_final_stage_matches_iteration_on_corpus(seed):
    for f in build_corpus(seed).functions:
        assert_final_stages_match_iteration(f)
        # the paper's test of a final stage, independent of the iteration
        assert semicontinuity_criterion(f, final_stage(f))


@given(st.one_of(drawn_functions(), drawn_functions(complex_values=True)))
def test_final_stage_matches_iteration_on_drawn_functions(f):
    assert_final_stages_match_iteration(f)


def test_signed_final_stage_needs_a_real_function():
    fc = helpers.complex_line_function(random.Random(0), chain_space(3))
    with pytest.raises(PreconditionError, match="signed oscillation"):
        final_stage(fc, "v")
    with pytest.raises(PreconditionError, match="unknown iteration kind"):
        final_stage(fc, "w")


def test_norm_and_decomposition_do_not_iterate(monkeypatch):
    def no_iteration(*args, **kwargs):
        raise AssertionError("iterate called")

    monkeypatch.setattr(oscal.transfinite, "iterate", no_iteration)
    for f in helpers.corpus().functions:
        assert decompose(f).norm == d_norm(f)


@pytest.mark.parametrize("depth", [80, 160, 400, 10_000])
def test_deep_alternating_chains(depth):
    # past the stage cap of 64, which iterate would stop at
    amp = Fraction(-5, 3)
    sp = chain_space(depth)
    f = QFunction(sp, {i: amp * (i % 2) for i in sp.node_ids()})
    assert d_norm(f) == abs(amp) * depth
    dec = decompose(f)
    assert dec.norm == abs(amp) * depth
    assert dec.checks == {
        "difference": True,
        "nonnegative": True,
        "lower_semicontinuous": True,
        "sup_norm": True,
    }


# -- level-set witnesses ---------------------------------------------------


def test_level_set_witness_canonical(k3, phi3):
    w = level_set_witness(iterate(phi3, "v"), 1, 0, Fraction(1, 6))
    assert w.beta == Fraction(2)
    assert w.lambda_under == Fraction(1)
    assert w.delta == Fraction(1)
    assert w.x1 == 0
    assert w.level_set == frozenset({0, 1, 2})
    # the three advertised conditions, re-checked here
    assert (1 - w.eta) * w.beta < w.lambda_under + w.delta < (1 + w.eta) * w.beta
    assert w.x1 in w.level_set or (set(k3.acc(w.x1)) & w.level_set)
    v1 = iterate(phi3, "v").stage(1)
    jumps = [
        phi3(y) - phi3(w.x1)
        for y in k3.acc(w.x1)
        if y in w.level_set
    ]
    assert max(jumps) == w.delta
    assert v1(w.attainer) == w.lambda_under


def test_level_set_witness_requires_strict_growth(k1, k2, f1, f2):
    # stages that have already stabilized cannot witness a higher level
    with pytest.raises(PreconditionError):
        level_set_witness(iterate(f1, "v"), 1, 0, Fraction(1, 4))
    # rank-two chains stabilize the positive oscillation at stage one,
    # so the analogous probe there fails the same precondition
    with pytest.raises(PreconditionError):
        level_set_witness(iterate(-f2, "v"), 1, 0, Fraction(1, 4))
    # vanishing stage value
    with pytest.raises(PreconditionError):
        level_set_witness(iterate(zero_function(k2), "v"), 1, 0, Fraction(1, 4))


def test_level_set_witness_reads_the_given_v_trace(k3, phi3):
    # the caller's trace is the only source of stages: a trace of the
    # other kind, or one stopped below stage alpha + 1, is refused
    with pytest.raises(PreconditionError):
        level_set_witness(iterate(phi3, "osc"), 1, 0, Fraction(1, 6))
    with pytest.raises(PreconditionError):
        level_set_witness(iterate(phi3, "v", 1), 1, 0, Fraction(1, 6))
    short = level_set_witness(iterate(phi3, "v", 2), 1, 0, Fraction(1, 6))
    assert short == level_set_witness(iterate(phi3, "v"), 1, 0, Fraction(1, 6))


def test_level_set_witness_shrinks_eta(k3, phi3):
    w = level_set_witness(iterate(phi3, "v"), 1, 0, Fraction(9, 10))
    assert w.eta < Fraction(9, 10)
    assert iterate(phi3, "v").stage(1)(0) < (1 - w.eta) * w.beta
