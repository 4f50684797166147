"""The two witness checkers on complex ``MovingStep`` sequences whose
moduli are irrational, against a recomputation at 2000 bits.

``build_corpus`` draws no complex function, so these sequences are drawn
here.  Each case moves one bound to the midpoint of a 200-bit bracket of
an irrational sum it is compared with, inside the first bracket a
checker tries, so every case makes the checker refine.  The difference
cases keep only draws whose other conditions hold, so that the verdict
hangs on that sum.  The recomputation sums each
condition term by term from ``eval`` over every sequence index up to
``SCAN``, past any copy index drawn, where every term vanishes; it
shares no summation code with the checkers.
"""

import itertools
import random
from fractions import Fraction as F

from oscal.extraction import (
    FunctionSeq,
    IndexSeq,
    MovingStep,
    WitnessBundle,
    check_difference_witness,
    check_jump_chain,
)
from oscal.func import QFunction
from oscal.rationals import (
    GaussianRational,
    Verdict,
    as_gaussian,
    sqrt_bracket,
    verdict,
)
from oscal.space import PointRef, RecurringStep, chain_space

SCAN = 40  # copies are drawn from 1..8, so every term past n_i = 40 is 0
CASES = 100


def bracket(terms, bits):
    """[lo, hi] around sum |z| over ``terms``."""
    lo = hi = F(0)
    for z in terms:
        a, b = sqrt_bracket(as_gaussian(z).abs_squared(), bits)
        lo, hi = lo + a, hi + b
    return lo, hi


def adversarial_bound(terms):
    """The midpoint of a 200-bit bracket of sum |z|, which the 32-bit
    bracket straddles; None when the sum is rational."""
    lo, hi = bracket(terms, 200)
    if lo == hi:
        return None
    bound = (lo + hi) / 2
    lo, hi = bracket(terms, 32)
    assert lo < bound <= hi
    return bound


def decided(terms, bound) -> Verdict:
    """sum |z| < bound, decided by a 2000-bit bracket."""
    lo, hi = bracket(terms, 2000)
    assert hi < bound or lo >= bound
    return verdict(hi < bound)


def draw(seed):
    """A complex step sequence on a chain, an index map, and a point
    generator taking bounds on the path length.  Node i is worth a + bi
    with a within 1 of 4i, so the real part rises down the chain, and
    |b| <= 3, which leaves most differences irrational in modulus.  Copies
    rise along a path, so every step moves the cut of a later term."""
    rng = random.Random(seed)
    sp = chain_space(rng.randint(2, 5))
    values = {
        i: GaussianRational(F(4 * i + rng.randint(-1, 1)), F(rng.randint(-3, 3)))
        for i in sp.node_ids()
    }
    seq = FunctionSeq(QFunction(sp, values), MovingStep(None))
    prefix = sorted(rng.sample(range(1, 10), rng.randint(0, 3)))
    offset = max(prefix, default=0) - len(prefix) + rng.randint(0, 2)
    indices = IndexSeq(tuple(prefix), offset)
    depth = len(sp.node_ids()) - 1

    def point(lo=1, hi=depth):
        copies = sorted(rng.sample(range(1, 9), rng.randint(lo, hi)))
        return PointRef(tuple(RecurringStep(0, c) for c in copies))

    return rng, seq, indices, point


def run_cases(base, case):
    """Run ``case(seed)`` on seeds from ``base`` on, until CASES of them
    return the verdict on their irrational sum; a case returns None to
    skip its draw.  Both verdicts must occur."""
    verdicts = []
    for seed in itertools.count(base):
        v = case(seed)
        if v is not None:
            verdicts.append(v)
        if len(verdicts) == CASES:
            assert set(verdicts) == {Verdict.TRUE, Verdict.FALSE}
            return


def positions(indices, lo, hi=None):
    """Positions lo <= i < hi, or every i >= lo with n_i <= SCAN."""
    i = lo
    while (i < hi) if hi is not None else (indices.value(i) <= SCAN):
        yield i
        i += 1


def block(seq, indices, x, ref, lo, hi=None):
    return [seq.eval(indices.value(i), x) - ref for i in positions(indices, lo, hi)]


def test_jump_chain_agrees_at_2000_bits():
    def case(seed):
        rng, seq, n, point = draw(seed)
        k = rng.randint(1, 2)
        points = tuple(point() for _ in range(2 * k))
        t = points[-1]
        m = (1,) + tuple(sorted(rng.sample(range(2, 9), 2 * k - 1)))
        eta = F(rng.randint(1, 9), 10)
        deltas = [F(rng.randint(1, 20), 4) for _ in range(k)]
        f, phi = seq.limit, seq.phi
        sums = {
            "block_%d" % j: block(seq, n, t, f.at_point(points[j - 1]), m[j - 1], m[j])
            for j in range(1, 2 * k)
        }
        sums["tail"] = block(seq, n, t, f.at_point(t), m[2 * k - 1])
        # the jump whose delta bounds each sum
        uses = {name: (int(name[6:]) + 1) // 2 - 1 for name in sums if name != "tail"}
        uses["tail"] = k - 1
        target = rng.choice(sorted(sums))
        bound = adversarial_bound(sums[target])
        if bound is None:
            return None
        deltas[uses[target]] = bound / eta
        lam = F(rng.randint(1, 40), 4)
        bundle = WitnessBundle(n, m, k, t, eta, lam, points, tuple(deltas))
        want = {"delta_positive": Verdict.TRUE}
        for j in range(1, k + 1):
            rise = phi.at_point(points[2 * j - 1]) - phi.at_point(points[2 * j - 2])
            want["jump_%d" % j] = verdict(rise > (1 - eta) * deltas[j - 1])
        total = sum(deltas, F(0))
        want["sum_window"] = verdict((1 - eta) * lam < total < (1 + eta) * lam)
        for name, terms in sums.items():
            want[name] = decided(terms, eta * deltas[uses[name]])
        assert check_jump_chain(seq, bundle).conditions == want, seed
        return want[target]

    run_cases(1000, case)


def test_difference_witness_agrees_at_2000_bits():
    def case(seed):
        rng, seq, n, point = draw(seed)
        t = point(2)
        eta = F(rng.randint(5, 9), 10)

        def e(i):
            b = seq.eval(n.value(i), t)
            return b if i == 1 else b - seq.eval(n.value(i - 1), t)

        # the marked rises m_2 < m_4 sit where Re e_i > 0, m_3 between them
        rising = [i for i in positions(n, 2, SCAN) if as_gaussian(e(i)).re > 0]
        if not rising:
            return None
        k = rng.randint(1, min(2, len(rising)))
        m = [1] + sorted(rng.sample(rising, k))
        if k == 2:
            if m[2] - m[1] < 2:
                return None
            m[2:2] = [rng.randint(m[1] + 1, m[2] - 1)]
        off = [e(i) for i in positions(n, 1, SCAN) if i not in m]
        bound = adversarial_bound(off)
        if bound is None:
            return None
        lam = bound / eta
        rises = [as_gaussian(e(m[2 * j - 1])).re for j in range(1, k + 1)]
        if sum(rises, F(0)) <= (1 - eta) * lam or min(rises) <= 0:
            return None
        want = decided(off, bound)
        bundle = WitnessBundle(n, m, k, t, eta, lam)
        assert check_difference_witness(seq, bundle) is want, seed
        return want

    run_cases(2000, case)
