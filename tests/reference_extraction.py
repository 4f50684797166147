"""The extraction driver with one hand-written branch per stage, as the
package ran it for stages 1 and 2 before ``build_jump_chain`` became one
loop over the stages; kept as the differential oracle for that loop at
alpha in {1, 2}.  The bodies below are the old ones, byte for byte, but
for the level-set call, which now passes the trace it reads, and the
jump witness, which comes from ``scan_witness``.

Both plan their first round with ``extract_subsequence``, which returns
an ``ExtractionPlan``, and check each jump witness with
``check_jump_witness``: the package's own round-1 layer until its first
round became the common round, copied here verbatim.  Both search their
copy indices with ``_scan_copies``, the copy-window scan the package used
before it realized every point at a closed-form copy; ``scan_witness`` is
the search that the closed form of ``ExtractionPlan.witness`` replaced.

``eval_term``, ``support_threshold``, ``abs_sum`` and
``check_difference_witness`` are the per-term readers the package used
before ``FunctionSeq.runs`` read j -> f_j(x) as a step function: one
path walk per term, up to the support threshold of the point.  They are
the differential oracle for ``eval``, ``_abs_sum`` and the difference
checker.  ``tail_pairs`` is ``FunctionSeq.tail_terms`` as it was before
it returned one entry per run: one (j, d) pair per nonzero term.  The
bodies here that call ``_abs_sum`` pass it ``seq.runs`` of the point,
which it now takes in place of the sequence and the point.
``tail_bound`` is the tail sum ``FunctionSeq`` used to offer, summed
term by term from ``eval_term``: the tests check ``tail_terms`` against
it and use it for the n_1 scan that the package replaced with one suffix
sum.  It and ``uniform_bound`` round an irrational modulus up with
``_abs_upper``, the 30-bit rounding that n_1 was once chosen with.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from oscal.errors import InternalCheckError, PreconditionError
from oscal._record import record
from oscal.extraction import (
    EventuallyLimit,
    FunctionSeq,
    IndexSeq,
    WitnessBundle,
    _abs_sum,
    _jump_target,
    _realize,
    check_jump_chain,
)
from oscal.func import QFunction, Scalar
from oscal.rationals import (
    GaussianRational,
    IntervalSum,
    Verdict,
    rat,
    rational_abs,
    sqrt_bracket,
    verdict,
    verdict_all,
)
from oscal.space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    descend_path,
    point_at,
    resolve,
    walk,
)
from oscal.transfinite import iterate, level_set_witness, v_pre_step

# Copies scanned for a jump witness.  Past copy max(T, n_m), T the
# support threshold of x1, every copy puts a term worth at least delta
# into the witness tail, so a scan that gets past it has seen every copy
# that could pass; the tests assert that theirs do.
WITNESS_SCAN_COPIES = range(1, 17)


def _abs_upper(z: Scalar) -> Fraction:
    """Rational upper bound on |z|, exact whenever |z| is rational."""
    if isinstance(z, GaussianRational):
        a = rational_abs(z)
        return a if a is not None else sqrt_bracket(z.abs_squared(), 30)[1]
    return abs(z)


# -- the per-term readers -------------------------------------------------------


def eval_term(seq: FunctionSeq, j: int, x: PointRef) -> Scalar:
    """f_j(x).  Under ``MovingStep``: the limit at the node the path is
    at just before it first enters a moving copy >= j, or at its end
    if it never does, read in one walk that stops there."""
    if j < 1:
        raise PreconditionError("sequence indices start at 1")
    g = seq.generator
    if isinstance(g, EventuallyLimit):
        if j <= len(g.prefix):
            return g.prefix[j - 1].at_point(x)
        return seq.limit.at_point(x)
    node = seq.space.root
    for s, entered in walk(seq.space, x):
        if (isinstance(s, RecurringStep) and s.copy >= j
                and (g.moving is None or entered in g.moving)):
            break
        node = entered
    return seq.limit(node)


def support_threshold(seq: FunctionSeq, x: PointRef) -> int:
    """A threshold T with f_j(x) = limit(x) for every j > T: the
    largest copy index of a moving step of the path (0 if it has none),
    or the prefix length."""
    g = seq.generator
    if isinstance(g, EventuallyLimit):
        return len(g.prefix)
    best = 0
    for s, entered in walk(seq.space, x):
        if (isinstance(s, RecurringStep)
                and (g.moving is None or entered in g.moving)):
            best = max(best, s.copy)
    return best


def abs_sum(
    seq: FunctionSeq,
    indices: IndexSeq,
    pt: PointRef,
    ref: Scalar,
    lo: int,
    hi: Optional[int],
) -> IntervalSum:
    """Exact sum_{lo <= i < hi} |f_{n_i}(pt) - ref|.  Past the support
    threshold T of pt every term is |f(pt) - ref|, so the scan stops at the
    first n_i > T and adds the hi - i terms left as one, (hi - i) (f(pt) -
    ref), exact for Gaussian values too since |c z| = c |z|.  With hi None
    the range is open, and callers summing to infinity pass ref = f(pt),
    whose terms past T are 0."""
    top = support_threshold(seq, pt)
    acc = IntervalSum()
    i = lo
    while (hi is None or i < hi) and indices.value(i) <= top:
        acc.add_abs(eval_term(seq, indices.value(i), pt) - ref)
        i += 1
    if hi is not None and i < hi:
        acc.add_abs((hi - i) * (seq.limit.at_point(pt) - ref))
    return acc


def check_difference_witness(seq: FunctionSeq, bundle: WitnessBundle) -> Verdict:
    """Difference-sequence form: with b_i = f_{n_i}, e_1 = b_1 and
    e_i = b_i - b_{i-1},

      1)  sum_{j<=k} Re e_{m_{2j}}(t) > (1 - eta) lam
      2)  Re e_{m_{2j}}(t) > 0 for each j
      3)  sum over i outside {m_1, ..., m_{2k}} of |e_i(t)| < eta lam

    The sum in 3) ranges over all positive integers, but e_i(t) vanishes
    once n_{i-1} passes the support threshold of t, where b_i and b_{i-1}
    both equal f(t).  The scan stops there, however large m is."""
    indices, m, t, k = bundle.indices, bundle.m, bundle.t, bundle.k
    lam, eta = bundle.lam, bundle.eta
    top = support_threshold(seq, t)

    def b(i: int) -> Scalar:
        return eval_term(seq, indices.value(i), t)

    def e(i: int) -> Scalar:
        return b(i) if i == 1 else b(i) - b(i - 1)

    def re(z: Scalar) -> Fraction:
        return z.re if isinstance(z, GaussianRational) else z

    marked = set(m[: 2 * k])
    main = sum((re(e(m[2 * j - 1])) for j in range(1, k + 1)), Fraction(0))
    positive = all(re(e(m[2 * j - 1])) > 0 for j in range(1, k + 1))
    off = IntervalSum()
    i = 1
    while i == 1 or indices.value(i - 1) <= top:
        if i not in marked:
            off.add_abs(e(i))
        i += 1
    return verdict_all(
        [verdict(main > (1 - eta) * lam), verdict(positive), off.less_than(eta * lam)]
    )


def tail_pairs(seq: FunctionSeq, x: PointRef, m: int) -> list[tuple[int, Scalar]]:
    """All (j, f_j(x) - f(x)) with j >= m and a nonzero difference, one
    pair per term: what ``FunctionSeq.tail_terms`` returned before it gave
    one entry per run."""
    if m < 1:
        raise PreconditionError("tail start must be at least 1")
    breaks, values = seq.runs(x)
    out = []
    for lo, top, v in zip([0] + breaks, breaks, values):
        d = v - values[-1]
        if not (d.is_zero() if isinstance(d, GaussianRational) else d == 0):
            out.extend((j, d) for j in range(max(lo + 1, m), top + 1))
    return out


def uniform_bound(seq: FunctionSeq) -> Fraction:
    """Rational bound on |f_j| over all j and all points."""
    vals = list(seq.limit.values.values())
    if isinstance(seq.generator, EventuallyLimit):
        for g in seq.generator.prefix:
            vals.extend(g.values.values())
    return max(_abs_upper(v) for v in vals)


def tail_bound(seq: FunctionSeq, x: PointRef, m: int) -> Fraction:
    """Rational B >= sum_{j>=m} |f_j(x) - f(x)|; exact when every
    difference has rational modulus (always, for real sequences).  Terms
    past the support threshold of x vanish."""
    base = seq.limit.at_point(x)
    return sum(
        (
            _abs_upper(eval_term(seq, j, x) - base)
            for j in range(m, support_threshold(seq, x) + 1)
        ),
        Fraction(0),
    )


# -- the package's round-1 planning layer, verbatim ----------------------------


@record
class ExtractionPlan:
    """Output of extract_subsequence: indices, the tail descriptor, and
    the jump target node that ``witness`` realizes below x1."""

    seq: FunctionSeq
    x1: PointRef
    level_set: frozenset[int]
    delta: Fraction
    eta: Fraction
    indices: IndexSeq
    target: int

    def witness(self, m: int) -> PointRef:
        """A point x2 in the level set, realized below x1, satisfying the
        three jump-witness conditions for this m (see
        ``extract_subsequence``)."""
        if m < 1:
            raise PreconditionError("positions start at 1")
        seq, x1 = self.seq, self.x1
        last = self.indices.value(m - 1) if m > 1 else 1
        x2 = _realize(
            seq, x1, self.target, 1 if support_threshold(seq, x1) >= last else last
        )
        if check_jump_witness(
            seq, self.indices, x1, x2, m, self.delta, self.eta
        ) is not Verdict.TRUE:
            raise PreconditionError(
                "no realization of node %d below x1 is a jump witness at "
                "position %d" % (self.target, m)
            )
        return x2


def extract_subsequence(
    seq: FunctionSeq,
    x1: PointRef,
    level_set,
    delta,
    eta,
) -> ExtractionPlan:
    """Pick indices n_1 < n_2 < ... and a witness search for points below x1.

    The index choice makes the tail sum at x1 small: n_1 starts the first
    arithmetic tail {a, a+1, ...} whose exact tail sum at x1 is below
    eta*delta, and successive picks take least elements, so the whole
    subsequence is the tail itself.  witness(m) realizes the best jump
    target as a point x2 below x1 with

      1)  phi(x2) - phi(x1) > (1 - eta) delta
      2)  sum_{i < m} |b_i(x2) - f(x1)| < eta delta
      3)  sum_{i >= m} |b_i(x2) - f(x2)| < eta delta

    with b_i = f_{n_i}; every sum is evaluated exactly.  The new recurring
    steps take copy c* = n_{m-1} (n_0 = 1), or copy 1 when the support
    threshold T of x1 is at least n_{m-1}: the least copy that can pass,
    and one that passes whenever any copy does.  Only ``MovingStep``
    sequences get here (an ``EventuallyLimit`` limit is continuous, so it
    has no positive jump), and the path below x1 enters a moving pattern
    first (phi is constant on a non-moving one).  So with copy c, b_i(x2)
    = b_i(x1) when n_i <= max(c, T) and f(x2) otherwise, while |f(x2) -
    f(x1)| >= delta > eta delta.  Condition 1 does not depend on c.
    Condition 2 holds only if n_{m-1} <= max(c, T), and then its terms
    are those of x1's tail, whatever c is.  Condition 3 fails if some i >=
    m has T < n_i <= c, and otherwise sums the same terms n_i <= T, whatever
    c is.  So every accepted copy c has c >= c* and the verdict of c*: if
    c* fails, every copy fails, and witness raises ``PreconditionError``.
    """
    delta = rat(delta)
    eta = rat(eta)
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie strictly between 0 and 1")
    sp = seq.space
    x1_node = resolve(sp, x1)
    if sp.is_leaf(x1_node):
        raise PreconditionError("nothing accumulates at an isolated point")
    level = frozenset(int(y) for y in level_set)
    phi = seq.phi
    pool = [y for y in sorted(sp.acc(x1_node)) if y in level]
    if not pool:
        raise PreconditionError("the level set misses Acc(x1)")
    best, target = _jump_target(phi, x1_node, pool)
    if best <= 0:
        raise PreconditionError(
            "no positive jump from x1 into the level set"
        )
    if best != delta:
        raise PreconditionError(
            "delta is %s but the attained maximum is %s" % (delta, best)
        )

    # n_1 is the least a with tail sum S(a) = sum_{j >= a} |f_j(x1) - f(x1)|
    # below eta*delta; S only grows as a falls, so walk the terms down once
    bound = eta * delta
    a = 1
    tail = IntervalSum()
    for j, d in reversed(tail_pairs(seq, x1, 1)):
        tail.add_abs(d)
        if tail.less_than(bound) is Verdict.FALSE:
            a = j + 1
            break
    return ExtractionPlan(
        seq=seq,
        x1=x1,
        level_set=level,
        delta=delta,
        eta=eta,
        indices=IndexSeq((), a - 1),
        target=target,
    )


def check_jump_witness(
    seq: FunctionSeq,
    indices: IndexSeq,
    x1: PointRef,
    x2: PointRef,
    m: int,
    delta,
    eta,
) -> Verdict:
    """The three conditions a single jump witness must satisfy, verified
    exactly against the sequence, irrational complex moduli included."""
    delta = rat(delta)
    eta = rat(eta)
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie strictly between 0 and 1")
    if m < 1:
        raise PreconditionError("positions start at 1")
    phi = seq.phi
    f = seq.limit
    jump = phi.at_point(x2) - phi.at_point(x1) > (1 - eta) * delta
    bound = eta * delta
    head = _abs_sum(seq.runs(x2), indices, f.at_point(x1), 1, m)
    tail = _abs_sum(seq.runs(x2), indices, f.at_point(x2), m, None)
    return verdict_all([verdict(jump), head.less_than(bound), tail.less_than(bound)])


# -- the copy scans -------------------------------------------------------------


def _scan_copies(
    seq: FunctionSeq,
    base: PointRef,
    target: int,
    copies: range,
    accept: Callable[[PointRef], bool],
) -> PointRef:
    """Realize ``target`` below base, scanning the copy index of the new
    recurring steps upward through ``copies`` until ``accept`` holds."""
    sp = seq.space
    path = descend_path(sp, resolve(sp, base), target)
    for c in copies:
        steps = [
            PrefixStep(pos) if slot == "p" else RecurringStep(pos, c)
            for slot, pos in path
        ]
        cand = base.extend(*steps)
        if accept(cand):
            return cand
    raise PreconditionError(
        "no realization in the copy window [%d, %d)"
        % (copies.start, copies.stop)
    )


def scan_witness(plan: ExtractionPlan, m: int) -> PointRef:
    """The least copy realizing the plan's jump target as a witness for
    position m, found by trying every copy in ``WITNESS_SCAN_COPIES``."""
    seq = plan.seq
    sp = seq.space
    x1_node = resolve(sp, plan.x1)
    pool = [y for y in sorted(sp.acc(x1_node)) if y in plan.level_set]
    _, target = _jump_target(seq.phi, x1_node, pool)
    return _scan_copies(
        seq, plan.x1, target, WITNESS_SCAN_COPIES,
        lambda x2: check_jump_witness(
            seq, plan.indices, plan.x1, x2, m, plan.delta, plan.eta
        ) is Verdict.TRUE,
    )


def _stage_attainer(pre_stage: QFunction, level: Fraction, around: int) -> int:
    """Smallest node in {around} ∪ Acc(around) whose pre-envelope stage
    value attains ``level``; exists because the enveloped stage at
    ``around`` is the maximum of the pre-stage over exactly that set."""
    sp = pre_stage.space
    candidates = {around}
    if not sp.is_leaf(around):
        candidates |= sp.acc(around)
    for y in sorted(candidates):
        if pre_stage(y) == level:
            return y
    raise InternalCheckError("attained stage value lost its attainer")


def build_jump_chain(
    seq: FunctionSeq, alpha: int, x: int, eta
) -> WitnessBundle:
    """Run the extraction at stage alpha in {1, 2} from node x.

    alpha = 1: locate the jump attainer below x, extract a subsequence,
    search one witness point; k = 1.  alpha = 2: split the stage-2 value
    into a first jump (level-set witness) and a stage-1 remainder at the
    witness point, run the stage-1 construction there with copy indices
    aligned to the block boundaries, and concatenate; k = 2.  The bundle
    is re-checked with the requested eta before being returned."""
    eta = rat(eta)
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie strictly between 0 and 1")
    if alpha not in (1, 2):
        raise PreconditionError("only stages 1 and 2 are supported")
    sp = seq.space
    sp.require_valid()
    if x not in sp.nodes:
        raise PreconditionError("unknown node %r" % x)
    phi = seq.phi
    trace = iterate(phi, "v", steps=8)
    v1 = trace.stage(1)

    if alpha == 1:
        lam = v1(x)
        if lam <= 0:
            raise PreconditionError(
                "the first stage vanishes at node %d; nothing to extract" % x
            )
        pre1 = v_pre_step(phi, trace.stage(0))
        x1_node = _stage_attainer(pre1, lam, x)
        x1 = point_at(sp, x1_node)
        delta = lam  # attained maximum; sits strictly inside the window
        plan = extract_subsequence(
            seq, x1, frozenset(sp.node_ids()), delta, eta
        )
        x2 = scan_witness(plan, 2)
        bundle = WitnessBundle(
            indices=plan.indices,
            m=(1, 2),
            k=1,
            t=x2,
            eta=eta,
            lam=lam,
            points=(x1, x2),
            deltas=(delta,),
        )
        report = check_jump_chain(seq, bundle)
        if report.verdict is not Verdict.TRUE:
            raise InternalCheckError(
                "constructed bundle failed: %s" % ", ".join(report.failed())
            )
        return bundle

    v2 = trace.stage(2)
    beta = v2(x)
    if beta <= 0:
        raise PreconditionError(
            "the second stage vanishes at node %d; nothing to extract" % x
        )
    if v1(x) >= beta:
        raise PreconditionError(
            "stages 1 and 2 agree at node %d; run the stage-1 form" % x
        )
    run_eta = eta / 3  # (1 -+ eta/3)^2 stays inside the (1 -+ eta) window
    lw = level_set_witness(trace, 1, x, run_eta)
    x1 = point_at(sp, lw.x1)
    plan = extract_subsequence(
        seq, x1, lw.level_set, lw.delta, lw.eta
    )
    n = plan.indices
    m = (1, 2, 3, 4)
    x2 = scan_witness(plan, 2)
    x2_node = resolve(sp, x2)

    # stage-1 data at the witness point
    lam_in = v1(x2_node)
    if lam_in <= 0:
        raise InternalCheckError("level set delivered a stage-0 point")
    pre1 = v_pre_step(phi, trace.stage(0))
    x3_node = _stage_attainer(pre1, lam_in, x2_node)
    delta2 = lam_in

    # copy windows: the step into x3 must absorb the cuts of block 2 and
    # of no later block, and the final step those of block 3 only.
    c3_lo, c3_hi = n.value(m[1]), n.value(m[2])
    c4_lo, c4_hi = n.value(m[2]), n.value(m[3])

    f = seq.limit

    def x3_ok(cand: PointRef) -> bool:
        acc = _abs_sum(seq.runs(cand), n, f.at_point(x2), m[1], m[2])
        return acc.less_than(eta * lw.delta) is Verdict.TRUE

    def t_ok(cand: PointRef) -> bool:
        acc = _abs_sum(seq.runs(cand), n, f.at_point(x3), m[2], m[3])
        if acc.less_than(eta * delta2) is not Verdict.TRUE:
            return False
        jump = phi.at_point(cand) - phi.at_point(x3) > (1 - eta) * delta2
        if not jump:
            return False
        tail = _abs_sum(seq.runs(cand), n, f.at_point(cand), m[3], None)
        return tail.less_than(eta * delta2) is Verdict.TRUE

    x3 = _scan_copies(seq, x2, x3_node, range(c3_lo, c3_hi), x3_ok)
    # the jump target under x3: largest increase of phi, smallest id
    jump_pool = sorted(sp.acc(x3_node))
    jump_best = max(phi(y) - phi(x3_node) for y in jump_pool)
    if jump_best != delta2:
        raise InternalCheckError("stage-1 jump is not attained below x3")
    t_node = min(
        y for y in jump_pool if phi(y) - phi(x3_node) == jump_best
    )
    t = _scan_copies(seq, x3, t_node, range(c4_lo, c4_hi), t_ok)

    bundle = WitnessBundle(
        indices=n,
        m=m,
        k=2,
        t=t,
        eta=eta,
        lam=beta,
        points=(x1, x2, x3, t),
        deltas=(lw.delta, delta2),
    )
    report = check_jump_chain(seq, bundle)
    if report.verdict is not Verdict.TRUE:
        raise InternalCheckError(
            "constructed bundle failed: %s" % ", ".join(report.failed())
        )
    return bundle
