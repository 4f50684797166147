"""Subsequence extraction, witness bundles, and the two checkers."""

import time
from fractions import Fraction as F

import pytest

import helpers
from oscal.errors import PreconditionError, SpaceError
from oscal.extraction import (
    EventuallyLimit,
    FunctionSeq,
    IndexSeq,
    MovingStep,
    WitnessBundle,
    _abs_sum,
    _first_index,
    build_jump_chain,
    check_difference_witness,
    check_jump_chain,
    difference_witness_from_chain,
)
from oscal.func import QFunction, is_continuous
from oscal.rationals import Verdict
from oscal.sampling import build_corpus
from oscal.space import PointRef, RecurringStep, chain_space, point_at
from reference_extraction import tail_bound, uniform_bound

IDENT = IndexSeq()
ROOT = PointRef(())


def leaf(c):
    return PointRef((RecurringStep(0, c),))


def pt(*copies):
    return PointRef(tuple(RecurringStep(0, c) for c in copies))


# --- evaluation semantics ---


def test_eval_against_copy_age(g_seq):
    assert g_seq.eval(3, leaf(5)) == F(-1)  # term too early: cut to root
    assert g_seq.eval(3, leaf(2)) == F(0)
    assert g_seq.eval(7, ROOT) == F(-1)


def test_tail_bounds(g_seq):
    assert tail_bound(g_seq, leaf(5), 2) == F(4)
    assert tail_bound(g_seq, leaf(5), 6) == F(0)
    assert uniform_bound(g_seq) == F(1)
    # f_j at leaf copy 5 is f(root) = -1 for j <= 5 and f(leaf) = 0 after
    assert g_seq.runs(leaf(5)) == ([5], [F(-1), F(0)])


@pytest.mark.parametrize("m", range(1, 8))
def test_tail_terms_sum_to_the_term_by_term_bound(g_seq, h_seq, m):
    points = [ROOT] + [leaf(c) for c in range(1, 8)]
    cases = [(g_seq, x) for x in points] + [(h_seq, pt(1, 2, 3))]
    for seq, x in cases:
        terms = seq.tail_terms(x, m)
        assert all(j >= m and d != 0 for j, d in terms)
        assert sum(abs(d) for _, d in terms) == tail_bound(seq, x, m)


def test_eval_on_alternating_chain(h_seq):
    t = pt(1, 2, 3)
    assert [h_seq.eval(j, t) for j in (1, 2, 3, 4)] == [
        F(-1),
        F(0),
        F(-1),
        F(0),
    ]


def test_eval_walks_all_of_a_malformed_point():
    # the cut for j = 1 comes at the first step, before the path leaves
    # the space at step 3; the walk still reads the whole path
    sp = chain_space(3)
    f = QFunction(sp, {i: F(i) for i in sp.node_ids()})
    seq = FunctionSeq(f, MovingStep(None))
    p = PointRef((RecurringStep(0, 1),) * 5)
    for j in (1, 2, 10**12):
        with pytest.raises(SpaceError):
            seq.eval(j, p)
    for read in (seq.runs, lambda x: seq.tail_terms(x, 1)):
        with pytest.raises(SpaceError):
            read(p)


# --- index sequences ---


def test_index_seq_values():
    n = IndexSeq((2, 5), 7)
    assert [n.value(i) for i in (1, 2, 3, 4)] == [2, 5, 10, 11]
    assert IDENT.value(9) == 9


def test_index_seq_count():
    for n in (IndexSeq((2, 5), 7), IDENT, IndexSeq((1, 3), 1), IndexSeq((), 4)):
        values = [n.value(i) for i in range(1, 40)]
        for j in range(0, 30):
            assert n.count(j) == sum(v <= j for v in values), (n, j)


def test_index_seq_must_increase():
    with pytest.raises(PreconditionError):
        IndexSeq((3, 2), 0)


# --- the first index ---


def step_seq():
    sp = chain_space(3)
    values = dict(zip(sp.node_ids(), (F(0), F(1), F(0), F(2))))
    return FunctionSeq(QFunction(sp, values), MovingStep(None))


def first_index_at(seq, x1, eta):
    """x1's largest jump delta, and n_1 for the tail bound eta * delta."""
    node = seq.space.node_ids()[len(x1.steps)]
    delta = max(seq.phi(y) - seq.phi(node) for y in seq.space.acc(node))
    return delta, _first_index(seq, x1, eta * delta)


@pytest.mark.parametrize("eta", [F(1, 10), F(1, 2), F(9, 10)])
def test_first_index_is_the_least_small_tail(eta):
    # the tail scan that n_1 used to come from: one tail sum per candidate
    seq = step_seq()
    points = [ROOT] + [pt(c) for c in range(1, 6)]
    points += [pt(c, d) for c in range(1, 6) for d in range(1, 8)]
    for x1 in points:
        delta, n1 = first_index_at(seq, x1, eta)
        a = 1
        while tail_bound(seq, x1, a) >= eta * delta:
            a += 1
        assert n1 == a


def test_first_index_takes_one_pass_over_the_tail(monkeypatch):
    seq = step_seq()
    x1 = leaf(1000)
    calls = []
    real_runs = FunctionSeq.runs

    def counted(self, x):
        calls.append(x)
        return real_runs(self, x)

    monkeypatch.setattr(FunctionSeq, "runs", counted)
    _, n1 = first_index_at(seq, x1, F(1, 2))
    assert n1 == 1001
    assert calls == [x1]  # one walk of x1 reads every term


# --- jump chains ---


@pytest.mark.parametrize("eta", [F(1, 2), F(1, 4)])
def test_depth_one_chain(g_seq, eta):
    b = build_jump_chain(g_seq, 1, 0, eta)
    assert (b.k, b.m, b.lam, b.deltas) == (1, (1, 2), F(1), (F(1),))
    assert b.points == (ROOT, leaf(1)) and b.t == leaf(1)
    rep = check_jump_chain(g_seq, b)
    assert rep.verdict is Verdict.TRUE
    assert set(rep.conditions) == {
        "delta_positive",
        "jump_1",
        "sum_window",
        "block_1",
        "tail",
    }


@pytest.mark.parametrize("eta", [F(1, 2), F(1, 4)])
def test_depth_two_chain(h_seq, eta):
    b = build_jump_chain(h_seq, 2, 0, eta)
    assert (b.k, b.m, b.lam) == (2, (1, 2, 3, 4), F(2))
    assert b.deltas == (F(1), F(1))
    assert b.points == (ROOT, pt(1), pt(1, 2), pt(1, 2, 3))
    rep = check_jump_chain(h_seq, b)
    assert rep.verdict is Verdict.TRUE
    assert set(rep.conditions) == {
        "delta_positive",
        "jump_1",
        "jump_2",
        "sum_window",
        "block_1",
        "block_2",
        "block_3",
        "tail",
    }


@pytest.mark.parametrize("eta", [F(1, 2), F(1, 4)])
def test_chain_reduces_to_difference_form(g_seq, h_seq, eta):
    for seq, alpha in ((g_seq, 1), (h_seq, 2)):
        b = build_jump_chain(seq, alpha, 0, eta / 5)
        d = difference_witness_from_chain(b)
        assert d.eta == eta
        assert check_difference_witness(seq, d) is Verdict.TRUE


def ramp_seq(depth):
    sp = chain_space(depth)
    values = {i: F(i, 2) if i % 2 == 0 else F(-i, 3) for i in sp.node_ids()}
    return FunctionSeq(QFunction(sp, values), MovingStep(None))


@pytest.mark.parametrize(
    "seq, x",
    [
        (ramp_seq(8), 2),
        (FunctionSeq(build_corpus(0).functions[10], MovingStep(None)), 0),
    ],
    ids=["ramp", "corpus-10"],
)
def test_reduction_enlarges_eta(seq, x):
    # a chain at 1/2 verifies, yet read at 1/10 its difference form fails:
    # the reduction costs a factor 5 in eta, it does not gain one
    b = build_jump_chain(seq, 1, x, F(1, 2))
    assert check_jump_chain(seq, b).verdict is Verdict.TRUE
    read = WitnessBundle(b.indices, b.m, b.k, b.t, F(1, 10), b.lam)
    assert check_difference_witness(seq, read) is Verdict.FALSE
    with pytest.raises(PreconditionError):
        difference_witness_from_chain(b)
    d = difference_witness_from_chain(build_jump_chain(seq, 1, x, F(1, 10)))
    assert d.eta == F(1, 2)
    assert check_difference_witness(seq, d) is Verdict.TRUE


def test_chain_build_preconditions(g_seq, h_seq):
    with pytest.raises(PreconditionError):
        build_jump_chain(g_seq, 1, 1, F(1, 2))  # leaf: stage vanishes there
    with pytest.raises(PreconditionError):
        build_jump_chain(g_seq, 2, 0, F(1, 2))  # stage 2 adds nothing here
    with pytest.raises(PreconditionError):
        build_jump_chain(h_seq, 0, 0, F(1, 2))
    for alpha in (3, 10**9):  # above the index at the root
        with pytest.raises(PreconditionError):
            build_jump_chain(h_seq, alpha, 0, F(1, 2))


# --- difference-form goldens ---


def test_difference_witness_goldens(g_seq):
    def check(t, lam):
        bundle = WitnessBundle(IDENT, (1, 3), 1, t, F(1, 2), lam)
        return check_difference_witness(g_seq, bundle)

    assert check(leaf(2), F(1)) is Verdict.TRUE
    assert check(leaf(9), F(1)) is Verdict.FALSE
    assert check(leaf(2), F(3)) is Verdict.FALSE


# --- corrupted bundles name the violated condition ---


def rebuild(b, **changes):
    fields = dict(
        indices=b.indices,
        m=b.m,
        k=b.k,
        t=b.t,
        eta=b.eta,
        lam=b.lam,
        points=b.points,
        deltas=b.deltas,
    )
    fields.update(changes)
    return WitnessBundle(**fields)


def test_overstated_total_jump(h_seq):
    b = build_jump_chain(h_seq, 2, 0, F(1, 2))
    rep = check_jump_chain(h_seq, rebuild(b, lam=F(5)))
    assert rep.failed() == ["sum_window"]


def test_stale_terminal_point(h_seq):
    b = build_jump_chain(h_seq, 2, 0, F(1, 2))
    stale = pt(2, 2, 3)  # first cut now lands at the root during block 2
    rep = check_jump_chain(
        h_seq, rebuild(b, t=stale, points=b.points[:3] + (stale,))
    )
    assert rep.failed() == ["block_2"]


def test_deep_terminal_point_fails(h_seq):
    b = build_jump_chain(h_seq, 2, 0, F(1, 2))
    deep = pt(5, 6, 7)
    rep = check_jump_chain(
        h_seq, rebuild(b, t=deep, points=b.points[:3] + (deep,))
    )
    assert rep.verdict is Verdict.FALSE


def test_checker_time_does_not_grow_with_the_block_boundaries(g_seq):
    # f_j(t) is one value on each run of j between t's moving copies, so a
    # block ending at 10^12 or a copy index of 10^12 in t is one term per
    # run, and the off-block sum has one term per run
    far = 10**12
    b = build_jump_chain(g_seq, 1, 0, F(1, 2))
    start = time.perf_counter()
    assert check_jump_chain(g_seq, rebuild(b, m=(1, far))).failed() == ["block_1"]
    d = WitnessBundle(b.indices, (1, far), 1, b.t, F(1, 10), b.lam)
    assert check_difference_witness(g_seq, d) is Verdict.FALSE
    # f_j at leaf copy 2 is f(root) = -1 for j <= 2 and f(leaf) = 0 after
    assert _abs_sum(g_seq, IDENT, leaf(2), F(-1), 1, far).rational == far - 3
    # t at copy 10^12: f_j(t) = -1 = f(x_1) until then, so block 1 holds
    # and the tail has 10^12 - 1 terms |-1 - 0|; in difference form the
    # gain e_2 is 0, and e_i is 0 but at i = 10^12 + 1, where it is 1
    t = leaf(far)
    rep = check_jump_chain(g_seq, rebuild(b, t=t, points=(ROOT, t)))
    assert rep.failed() == ["tail"]
    assert _abs_sum(g_seq, b.indices, t, F(0), 2, None).rational == far - 1
    d = WitnessBundle(b.indices, (1, 2), 1, t, F(1, 2), b.lam)
    assert check_difference_witness(g_seq, d) is Verdict.FALSE
    assert time.perf_counter() - start < 5


# --- bundle shape validation ---


def test_bundle_shape_guards():
    with pytest.raises(PreconditionError):
        WitnessBundle(
            indices=IDENT, m=(1, 2), k=1, t=leaf(1), eta=F(1, 2), lam=F(1),
            points=(ROOT,), deltas=(F(1),),
        )
    with pytest.raises(PreconditionError):
        WitnessBundle(
            indices=IDENT, m=(2, 3), k=1, t=leaf(1), eta=F(1, 2), lam=F(1),
            points=(ROOT, leaf(1)), deltas=(F(1),),
        )
    with pytest.raises(PreconditionError):
        WitnessBundle(
            indices=IDENT, m=(1, 2), k=1, t=leaf(2), eta=F(1, 2), lam=F(1),
            points=(ROOT, leaf(1)), deltas=(F(1),),
        )


# --- eventually-limit sequences ---


def test_eventually_limit_semantics(k2):
    lim = QFunction(k2, {0: F(1), 1: F(1), 2: F(1)})
    pre = QFunction(k2, {0: F(0), 1: F(0), 2: F(0)})
    el = FunctionSeq(lim, EventuallyLimit((pre, pre)))
    p_iso = point_at(k2, 2)
    assert el.eval(2, p_iso) == F(0)
    assert el.eval(3, p_iso) == F(1)
    assert tail_bound(el, p_iso, 1) == F(2)
    assert el.runs(p_iso) == ([1, 2], [F(0), F(0), F(1)])


def test_eventually_limit_guards(k1, k2):
    disc_lim = QFunction(k1, {0: F(-1), 1: F(0)})
    with pytest.raises(PreconditionError):
        FunctionSeq(disc_lim, EventuallyLimit(()))
    lim = QFunction(k2, {0: F(1), 1: F(1), 2: F(1)})
    disc_pre = QFunction(k2, {0: F(0), 1: F(1), 2: F(0)})
    with pytest.raises(PreconditionError):
        FunctionSeq(lim, EventuallyLimit((disc_pre,)))


# --- restricted moving steps ---


def test_restricted_moving_steps(k2):
    lim = QFunction(k2, {0: F(1), 1: F(1), 2: F(1)})
    ms = FunctionSeq(lim, MovingStep(frozenset({1})))
    assert ms.eval(1, point_at(k2, 2)) == F(1)
    with pytest.raises(PreconditionError):
        FunctionSeq(
            QFunction(k2, {0: F(0), 1: F(1), 2: F(1)}),
            MovingStep(frozenset()),
        )
    with pytest.raises(PreconditionError):
        FunctionSeq(
            QFunction(chain_space(1), {0: F(-1), 1: F(0)}),
            MovingStep(frozenset({7})),
        )


# --- terms are continuous node functions ---


@pytest.mark.parametrize("j", [1, 2, 3])
def test_terms_induce_continuous_node_functions(g_seq, h_seq, j):
    for seq in (g_seq, h_seq):
        induced = helpers.induced_node_function(seq, j, 3)
        assert is_continuous(induced)


def test_limit_itself_is_discontinuous(g_seq):
    assert not is_continuous(g_seq.limit)


def test_eventually_limit_terms_are_continuous(k2):
    lim = QFunction(k2, {0: F(1), 1: F(1), 2: F(1)})
    pre = QFunction(k2, {0: F(0), 1: F(0), 2: F(0)})
    el = FunctionSeq(lim, EventuallyLimit((pre,)))
    for j in (1, 2, 3):
        assert is_continuous(helpers.induced_node_function(el, j, 3))
