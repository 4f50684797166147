"""The stage loop of ``build_jump_chain`` against the two hand-written
branches it replaced (``reference_extraction``, which finds its copies
with the scans the closed form replaced) at stages 1 and 2, against both
checkers at every stage up to the index, and its points against the
copies the proof puts them at.  The run-by-run readers (``eval``,
``_abs_sum`` and both checkers) against the per-term scans they replaced,
on perturbed corpus witnesses."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oscal.extraction
import oscal.transfinite
import reference_extraction
from helpers import replace, staged_function
from oscal.errors import OscalError
from oscal.extraction import (
    EventuallyLimit,
    FunctionSeq,
    IndexSeq,
    MovingStep,
    WitnessBundle,
    _abs_sum,
    _realize,
    build_jump_chain,
    check_difference_witness,
    check_jump_chain,
    difference_witness_from_chain,
)
from oscal.func import QFunction, is_continuous
from oscal.rationals import Verdict
from oscal.sampling import build_corpus
from oscal.space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    chain_space,
    point_at,
    resolve,
)
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


STAGED_SEEDS = range(20)


def staged_seq(seed):
    return FunctionSeq(staged_function(seed), MovingStep(None))


def every_seq():
    """The chain profiles at depths 1..8, then the staged sampler."""
    for name in sorted(PROFILES):
        for depth in range(1, 9):
            yield chain_seq(depth, PROFILES[name])
    for seed in STAGED_SEEDS:
        yield staged_seq(seed)


def growth(seq):
    """(alpha, x) for every strict growth v_{alpha-1}(x) < v_alpha(x)."""
    trace = iterate(seq.phi, "v")
    return [
        (alpha, x)
        for alpha in range(1, len(trace.stages))
        for x in seq.space.node_ids()
        if trace.stage(alpha - 1)(x) < trace.stage(alpha)(x)
    ]


def outcome(build, *args):
    try:
        return build(*args)
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


def test_stages_one_and_two_match_the_reference_on_staged_spaces():
    for seed in STAGED_SEEDS:
        assert_matches_reference(staged_seq(seed), F(1, 4))


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
    assert check_difference_witness(seq, d) is Verdict.TRUE


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


def test_the_staged_sampler_grows_past_stage_one_with_prefix_children():
    grown = 0
    for seed in STAGED_SEEDS:
        seq = staged_seq(seed)
        sp = seq.space
        assert any(sp.node(i).prefix for i in sp.node_ids())
        grown += sum(alpha >= 2 for alpha, _ in growth(seq))
    assert grown >= 40


@pytest.mark.parametrize("seed", STAGED_SEEDS)
def test_every_stage_up_to_the_index_verifies_on_staged_spaces(seed):
    seq = staged_seq(seed)
    for alpha, x in growth(seq):
        for eta in (F(1, 2), F(1, 4)):
            assert_verifies(seq, alpha, x, eta)


def assert_proven_copies(seq, bundle):
    """x_1 sits at copy 1 and x_{b+1} adds recurring steps at copy n_b
    only.  The last step's copy is tight: at n_{2k} the tail fails, and at
    n_{2k-1} - 1 the last block does."""
    n, points, k = bundle.indices, bundle.points, bundle.k
    above = ()
    for b, point in enumerate(points):
        assert point.steps[: len(above)] == above
        copies = {
            s.copy for s in point.steps[len(above):]
            if isinstance(s, RecurringStep)
        }
        assert copies <= {n.value(b) if b else 1}, b
        above = point.steps
    target = resolve(seq.space, bundle.t)

    def conditions_at(copy):
        t = _realize(seq, points[-2], target, copy)
        moved = replace(bundle, t=t, points=points[:-1] + (t,))
        return check_jump_chain(seq, moved).conditions

    assert conditions_at(n.value(2 * k))["tail"] is Verdict.FALSE
    if n.value(2 * k - 1) > 1:
        last = conditions_at(n.value(2 * k - 1) - 1)
        assert last["block_%d" % (2 * k - 1)] is Verdict.FALSE


def test_points_sit_at_their_proven_copies():
    built = through_prefix = 0
    for seq in every_seq():
        for alpha, x in growth(seq):
            bundle = build_jump_chain(seq, alpha, x, F(1, 2))
            assert_proven_copies(seq, bundle)
            built += 1
            through_prefix += any(
                isinstance(s, PrefixStep) for s in bundle.t.steps
            )
    assert built > 300 and through_prefix > 20


def test_one_v_trace_per_build(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return iterate(*args, **kwargs)

    monkeypatch.setattr(oscal.transfinite, "iterate", counted)
    build_jump_chain(chain_seq(12, PROFILES["alternating"]), 6, 0, F(1, 2))
    assert calls == [("v",)]


# -- the run-by-run readers against the per-term scans ---------------------------


def perturbed(bundle, rng):
    """``bundle`` with t's copies drawn from 1..8, m increasing from 1 in
    steps of 1..3, and indices a prefix of up to three of 1..9 followed by
    an offset tail; t stays the last point."""
    t = PointRef(tuple(
        RecurringStep(s.pattern, rng.randint(1, 8))
        if isinstance(s, RecurringStep) else s
        for s in bundle.t.steps
    ))
    m = [1]
    for _ in bundle.m[1:]:
        m.append(m[-1] + rng.randint(1, 3))
    prefix = sorted(rng.sample(range(1, 10), rng.randint(0, 3)))
    offset = (prefix[-1] if prefix else 0) - len(prefix) + rng.randint(0, 2)
    return replace(
        bundle, t=t, points=bundle.points[:-1] + (t,), m=tuple(m),
        indices=IndexSeq(tuple(prefix), offset),
    )


def corpus_witnesses(seed, rng):
    """Perturbed jump chains of every discontinuous corpus function's
    ``MovingStep`` sequence, at alpha in {1, 2} from its first two limit
    nodes, three per chain built."""
    for f in build_corpus(seed).functions:
        if is_continuous(f):
            continue
        seq = FunctionSeq(f, MovingStep(None))
        for alpha in (1, 2):
            for x in f.space.limit_nodes()[:2]:
                chain = outcome(build_jump_chain, seq, alpha, x, F(1, 2))
                if isinstance(chain, WitnessBundle):
                    for _ in range(3):
                        yield seq, perturbed(chain, rng)


def summed(acc):
    return acc.rational, acc.squares


@pytest.mark.parametrize("seed", [0, 1])
def test_run_readers_match_the_per_term_scans(seed, monkeypatch):
    rng = random.Random(5 + seed)
    seen = set()
    count = 0
    for seq, w in corpus_witnesses(seed, rng):
        count += 1
        t, f = w.t, seq.limit
        got = check_jump_chain(seq, w).conditions
        with monkeypatch.context() as patched:
            patched.setattr(
                oscal.extraction, "_abs_sum", reference_extraction.abs_sum
            )
            want = check_jump_chain(seq, w).conditions
        assert got == want
        eta = rng.choice([F(1, 10), F(1, 2), F(9, 10)])
        d = WitnessBundle(w.indices, w.m, w.k, t, eta, w.lam)
        verdict = check_difference_witness(seq, d)
        assert verdict is reference_extraction.check_difference_witness(seq, d)
        seen.add((got["tail"], got["block_1"], verdict))
        for ref in {f.at_point(p) for p in w.points}:
            for lo in range(1, w.m[-1] + 2):
                his = [lo + 3, 10**6] + ([None] if ref == f.at_point(t) else [])
                for hi in his:
                    args = (seq, w.indices, t, ref, lo, hi)
                    assert summed(_abs_sum(*args)) == summed(
                        reference_extraction.abs_sum(*args)
                    ), (ref, lo, hi)
        for j in range(1, 45):
            assert seq.eval(j, t) == reference_extraction.eval_term(seq, j, t)
    assert count > 100
    # each condition and verdict came out both ways
    for part in range(3):
        assert {v[part] for v in seen} == {Verdict.TRUE, Verdict.FALSE}


def continuous_function(sp, rng):
    """Drawn values, then each acc(p) set to the value at p, outermost p
    first: constant on {p} ∪ acc(p) at every limit node p."""
    values = {i: F(rng.randint(-3, 3)) for i in sp.node_ids()}
    for p in sorted(sp.limit_nodes(), key=lambda i: len(point_at(sp, i).steps)):
        for y in sp.acc(p):
            values[y] = values[p]
    return QFunction(sp, values)


def test_eventually_limit_runs_match_the_per_term_scan():
    # prefix terms 2f and -f, then f, for a continuous f on each corpus
    # space, read at every node
    rng = random.Random(5)
    read = 0
    for sp in build_corpus(0).spaces:
        f = continuous_function(sp, rng)
        seq = FunctionSeq(f, EventuallyLimit((f + f, -f)))
        for node in sp.node_ids():
            x = point_at(sp, node, 2)
            assert seq.runs(x)[0] == [1, 2]
            for j in range(1, 5):
                assert seq.eval(j, x) == reference_extraction.eval_term(seq, j, x)
            # the points deeper than one step whose value is not their parent's
            parent = PointRef(x.steps[:-1])
            read += len(x.steps) > 1 and f.at_point(x) != f.at_point(parent)
    assert read > 10
