"""Subsequence extraction with exactly checkable witnesses.

Given a sequence of continuous functions converging pointwise to a limit
with positive stage values, this module extracts a subsequence, a handful
of points, and positive jumps delta_j, packaged as a WitnessBundle whose
defining inequalities can be re-verified by exact rational arithmetic.
The checkers are deliberately independent of the construction: they only
consume the bundle and the sequence, and every infinite sum they face is
finite in disguise (the generators below have exact, eventually-zero
tails), so a verdict is a certainty about the given data, not an estimate.

Two generator shapes are supported.  ``EventuallyLimit`` lists finitely
many explicit terms and then repeats the limit.  ``MovingStep`` moves a
discontinuity outward: term j agrees with the limit except that any path
entering copy >= j of a moving pattern is cut there, so the value of an
old copy is frozen at the limit node's value.  Both make the tail sums
sum_{j >= m} |f_j(x) - f(x)| computable in closed form, which is what
turns the classical "choose an infinite subset with small tails" steps
into terminating arithmetic: every extracted point is realized at a copy
index given in closed form, with no search.

``build_jump_chain`` runs the extraction at any stage from 1 up to the
index, as one loop over the stages: the paper's induction on the stage.
Every round realizes its points the same way; round 1 also fixes the
subsequence, from the exact tail of its first point; only it imports the
stage iteration.  ``check_jump_chain`` and ``check_difference_witness``
re-verify a bundle, reading t through ``FunctionSeq.runs``: one term per
run, so their time is bounded by t's path length, not m or its copies.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from ._record import record
from .errors import InternalCheckError, PreconditionError
from .func import QFunction, Scalar, is_continuous
from .rationals import GaussianRational, IntervalSum, Verdict, rat, verdict, verdict_all
from .space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    TreeSpace,
    descend_path,
    point_at,
    resolve,
    walk,
)


def _abs_sum(
    seq: FunctionSeq,
    indices: IndexSeq,
    pt: PointRef,
    ref: Scalar,
    lo: int,
    hi: Optional[int],
) -> IntervalSum:
    """Exact sum_{lo <= i < hi} |f_{n_i}(pt) - ref|, one term per run of
    ``seq.runs(pt)``: the c positions count(T) < i <= count(T') with n_i in
    a run (T, T'] add |c (v - ref)|, exact for Gaussian v since |c z| = c |z|.
    With hi None the range is open; callers summing to infinity pass ref =
    f(pt), so the last run, whose terms are 0, is left out."""
    breaks, values = seq.runs(pt)
    ends = [indices.count(top) + 1 for top in breaks]
    if hi is not None:
        ends = [min(end, hi) for end in ends + [hi]]
    acc = IntervalSum()
    for end, v in zip(ends, values):
        if end > lo:
            acc.add_abs((end - lo) * (v - ref))
            lo = end
    return acc


# -- convergent sequences of continuous functions -----------------------------


@record
class EventuallyLimit:
    """f_1 .. f_J explicit, f_j = limit for j > J."""

    prefix: tuple[QFunction, ...] = ()


@record
class MovingStep:
    """f_j(x) = limit(cut of x before its first moving copy >= j).

    ``moving`` is a set of pattern-root node ids; None means every
    recurring pattern moves.  With every pattern moving, each f_j is
    locally constant, hence continuous.  A restricted moving set is only
    accepted when the limit is constant on each non-moving pattern's
    subtree (matching the value at the limit node it accumulates to);
    otherwise old copies of a non-moving pattern would keep their shape
    at every stage j and f_j could not be continuous.
    """

    moving: Optional[frozenset[int]] = None


Generator = Union[EventuallyLimit, MovingStep]


@record
class FunctionSeq:
    """Pointwise-convergent sequence with exact tail bounds."""

    limit: QFunction
    generator: Generator

    def __post_init__(self) -> None:
        sp = self.space
        sp.require_valid()
        if isinstance(self.generator, EventuallyLimit):
            if not is_continuous(self.limit):
                raise PreconditionError(
                    "an eventually-constant sequence of continuous terms "
                    "has a continuous limit; this limit is not"
                )
            for idx, g in enumerate(self.generator.prefix):
                if g.space is not sp and g.space != sp:
                    raise PreconditionError(
                        "prefix term %d lives on a different space" % (idx + 1)
                    )
                if not is_continuous(g):
                    raise PreconditionError(
                        "prefix term %d is not continuous" % (idx + 1)
                    )
        else:
            moving = self.generator.moving
            roots = self._pattern_roots()
            if moving is not None:
                moving = frozenset(int(p) for p in moving)
                object.__setattr__(
                    self, "generator", MovingStep(moving)
                )
                if not moving <= roots:
                    raise PreconditionError(
                        "moving set must consist of recurring pattern roots"
                    )
                self._check_restricted_continuity(moving)

    @property
    def space(self) -> TreeSpace:
        return self.limit.space

    @cached_property
    def phi(self) -> QFunction:
        """Real part of the limit, whose jumps the extraction measures."""
        return self.limit.re()

    def _pattern_roots(self) -> frozenset[int]:
        sp = self.space
        out = set()
        for i in sp.limit_nodes():
            out.update(sp.node(i).recurring)
        return frozenset(out)

    def _check_restricted_continuity(self, moving: frozenset[int]) -> None:
        # A non-moving pattern repeats with the same values in every copy,
        # so continuity at the node it accumulates to forces the limit to
        # be constant there.  Cuts inside the subtree produce values of
        # the same subtree, so constancy also covers truncated paths.
        sp = self.space
        f = self.limit
        for p in sp.limit_nodes():
            for pat in sp.node(p).recurring:
                if pat in moving:
                    continue
                bad = [
                    y
                    for y in sorted(sp.subtree(pat))
                    if f(y) != f(p)
                ]
                if bad:
                    raise PreconditionError(
                        "pattern %d does not move, so every term keeps its "
                        "values on all copies; continuity then needs the "
                        "limit to be constantly limit(%d) on that subtree "
                        "(differs at node %d)" % (pat, p, bad[0])
                    )

    # evaluation ---------------------------------------------------------

    def runs(self, x: PointRef) -> tuple[list[int], list[Scalar]]:
        """j -> f_j(x) as a step function, read in one walk of all of x's
        path: breaks T_1 < ... < T_r and values v_0 .. v_r with f_j(x) = v_i
        for T_i < j <= T_{i+1}, T_0 = 0, T_{r+1} infinite.  So v_r is f(x),
        and T_r (0 if r = 0) is x's support threshold.  ``MovingStep`` cuts x
        before its first moving copy >= j, so the breaks are the moving
        copies above every earlier one and v_i is the limit just before copy
        T_{i+1}; ``EventuallyLimit`` has breaks 1..J and values the prefix
        terms, then the limit.  A malformed x raises ``SpaceError``."""
        g = self.generator
        if isinstance(g, EventuallyLimit):
            node = resolve(self.space, x)
            values = [h(node) for h in g.prefix] + [self.limit(node)]
            return list(range(1, len(g.prefix) + 1)), values
        breaks, values, node = [0], [], self.space.root
        for s, entered in walk(self.space, x):
            if (isinstance(s, RecurringStep) and s.copy > breaks[-1]
                    and (g.moving is None or entered in g.moving)):
                breaks.append(s.copy)
                values.append(self.limit(node))
            node = entered
        return breaks[1:], values + [self.limit(node)]

    def eval(self, j: int, x: PointRef) -> Scalar:
        """f_j(x), read from ``runs(x)``."""
        if j < 1:
            raise PreconditionError("sequence indices start at 1")
        breaks, values = self.runs(x)
        return values[bisect_left(breaks, j)]

    def tail_terms(self, x: PointRef, m: int) -> list[tuple[int, Scalar]]:
        """All (j, f_j(x) - f(x)) with j >= m and a nonzero difference."""
        if m < 1:
            raise PreconditionError("tail start must be at least 1")
        breaks, values = self.runs(x)
        out = []
        for lo, top, v in zip([0] + breaks, breaks, values):
            d = v - values[-1]
            if not (d.is_zero() if isinstance(d, GaussianRational) else d == 0):
                out.extend((j, d) for j in range(max(lo + 1, m), top + 1))
        return out


# -- subsequence bookkeeping --------------------------------------------------


@record
class IndexSeq:
    """Strictly increasing index map i -> n_i: an explicit prefix followed
    by the arithmetic tail n_i = i + offset."""

    prefix: tuple[int, ...] = ()
    offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(int(p) for p in self.prefix))
        vals = list(self.prefix) + [len(self.prefix) + 1 + self.offset]
        if any(v < 1 for v in vals):
            raise PreconditionError("indices must be positive")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise PreconditionError("index sequence must be increasing")

    def value(self, i: int) -> int:
        if i < 1:
            raise PreconditionError("positions start at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return i + self.offset

    def count(self, j: int) -> int:
        """#{i : n_i <= j}."""
        head = len(self.prefix)
        return bisect_right(self.prefix, j) + max(0, j - self.offset - head)


def _jump_target(phi: QFunction, start: int, pool: list[int]) -> tuple:
    """The largest jump phi(y) - phi(start) over ``pool``, smallest attainer."""
    best = max(phi(y) - phi(start) for y in pool)
    return best, min(y for y in pool if phi(y) - phi(start) == best)


def _realize(seq: FunctionSeq, base: PointRef, target: int, copy: int) -> PointRef:
    """Realize ``target`` below base, every new recurring step at ``copy``."""
    sp = seq.space
    return base.extend(*(
        PrefixStep(pos) if slot == "p" else RecurringStep(pos, copy)
        for slot, pos in descend_path(sp, resolve(sp, base), target)
    ))


def _first_index(seq: FunctionSeq, x1: PointRef, bound: Fraction) -> int:
    """The least a whose exact tail sum sum_{j >= a} |f_j(x1) - f(x1)| is
    below ``bound``; the sum only grows as a falls, so walk the terms down
    once."""
    tail = IntervalSum()
    for j, d in reversed(seq.tail_terms(x1, 1)):
        tail.add_abs(d)
        if tail.less_than(bound) is Verdict.FALSE:
            return j + 1
    return 1


# -- checkers -----------------------------------------------------------------


@record
class WitnessBundle:
    """Everything a checker needs.  Jump-chain form: points x_1..x_{2k}
    with t = x_{2k} and jumps delta_1..delta_k.  Difference form (after
    the reduction): points and deltas empty, t and lam carry the data."""

    indices: IndexSeq
    m: tuple[int, ...]
    k: int
    t: PointRef
    eta: Fraction
    lam: Fraction
    points: tuple[PointRef, ...] = ()
    deltas: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "eta", rat(self.eta))
        object.__setattr__(self, "lam", rat(self.lam))
        object.__setattr__(
            self, "deltas", tuple(rat(d) for d in self.deltas)
        )
        if self.k < 1:
            raise PreconditionError("k must be at least 1")
        if not 0 < self.eta < 1:
            raise PreconditionError("eta must lie strictly between 0 and 1")
        if any(a >= b for a, b in zip(self.m, self.m[1:])):
            raise PreconditionError("m must be strictly increasing")
        if self.points:
            if len(self.points) != 2 * self.k:
                raise PreconditionError("need exactly 2k points")
            if len(self.deltas) != self.k:
                raise PreconditionError("need exactly k jumps")
            if len(self.m) != 2 * self.k:
                raise PreconditionError("need exactly 2k block boundaries")
            if self.points[-1] != self.t:
                raise PreconditionError("t must be the final point")
        if self.m and self.m[0] != 1:
            raise PreconditionError("the first block starts at position 1")
        if len(self.m) < 2 * self.k:
            raise PreconditionError("need at least 2k block boundaries")
        if not self.points and self.deltas:
            raise PreconditionError("a difference form carries no jumps")


@record
class JumpChainReport:
    """Named verdicts, one per condition of the jump-chain checker."""

    conditions: dict

    @property
    def verdict(self) -> Verdict:
        return verdict_all(self.conditions.values())

    def failed(self) -> list[str]:
        return [
            name
            for name, v in self.conditions.items()
            if v is not Verdict.TRUE
        ]


def check_jump_chain(seq: FunctionSeq, bundle: WitnessBundle) -> JumpChainReport:
    """Verify a jump chain: k jumps (1-eta)-close to their deltas, the
    delta sum inside the (1 +- eta) lambda window, early block sums at t
    close to the limit values along the chain, and a small final tail."""
    if not bundle.points:
        raise PreconditionError("jump-chain form needs the points")
    k = bundle.k
    phi = seq.phi
    f = seq.limit
    eta = bundle.eta
    conditions: dict = {}
    conditions["delta_positive"] = verdict(all(d > 0 for d in bundle.deltas))
    for j in range(1, k + 1):
        hi = phi.at_point(bundle.points[2 * j - 1])
        lo = phi.at_point(bundle.points[2 * j - 2])
        ok = hi - lo > (1 - eta) * bundle.deltas[j - 1]
        conditions["jump_%d" % j] = verdict(ok)
    total = sum(bundle.deltas, Fraction(0))
    ok = (1 - eta) * bundle.lam < total < (1 + eta) * bundle.lam
    conditions["sum_window"] = verdict(ok)
    n, t = bundle.indices, bundle.t
    for j in range(1, 2 * k):
        fxj = f.at_point(bundle.points[j - 1])
        acc = _abs_sum(seq, n, t, fxj, bundle.m[j - 1], bundle.m[j])
        lim = eta * bundle.deltas[(j + 1) // 2 - 1]
        conditions["block_%d" % j] = acc.less_than(lim)
    tail = _abs_sum(seq, n, t, f.at_point(t), bundle.m[2 * k - 1], None)
    conditions["tail"] = tail.less_than(eta * bundle.deltas[k - 1])
    return JumpChainReport(conditions)


def check_difference_witness(seq: FunctionSeq, bundle: WitnessBundle) -> Verdict:
    """Difference-sequence form: with b_i = f_{n_i}, e_1 = b_1 and
    e_i = b_i - b_{i-1},

      1)  sum_{j<=k} Re e_{m_{2j}}(t) > (1 - eta) lam
      2)  Re e_{m_{2j}}(t) > 0 for each j
      3)  sum over i outside {m_1, ..., m_{2k}} of |e_i(t)| < eta lam

    The sum in 3) skips i = 1 = m_1, and b_i = b_{i-1} unless a break T
    of ``seq.runs(t)`` has n_{i-1} <= T < n_i, i.e. i = count(T) + 1; so
    3) sums those i alone, whatever m or t's copy indices are."""
    indices, m, t, k = bundle.indices, bundle.m, bundle.t, bundle.k
    lam, eta = bundle.lam, bundle.eta
    breaks, values = seq.runs(t)

    def b(i: int) -> Scalar:
        return values[bisect_left(breaks, indices.value(i))]

    def e(i: int) -> Scalar:
        return b(i) if i == 1 else b(i) - b(i - 1)

    def re(z: Scalar) -> Fraction:
        return z.re if isinstance(z, GaussianRational) else z

    marked = set(m[: 2 * k])
    main = sum((re(e(m[2 * j - 1])) for j in range(1, k + 1)), Fraction(0))
    positive = all(re(e(m[2 * j - 1])) > 0 for j in range(1, k + 1))
    off = IntervalSum()
    for i in {indices.count(top) + 1 for top in breaks} - marked:
        off.add_abs(e(i))
    return verdict_all(
        [verdict(main > (1 - eta) * lam), verdict(positive), off.less_than(eta * lam)]
    )


def difference_witness_from_chain(
    bundle: WitnessBundle,
) -> WitnessBundle:
    """Reduce a jump-chain bundle at eta' < 1/5 to difference form at
    eta = 5 eta': the reduction needs (1 - 3 eta')(1 - eta') >= 1 - eta, and
    that is 1 - 4 eta' + 3 eta'^2 >= 1 - 5 eta'.  Build at eta / 5 for eta."""
    if not bundle.points:
        raise PreconditionError("expected a jump-chain bundle")
    if bundle.eta >= Fraction(1, 5):
        raise PreconditionError(
            "the chain's eta is %s; the reduction needs it below 1/5"
            % bundle.eta
        )
    return WitnessBundle(
        indices=bundle.indices,
        m=bundle.m,
        k=bundle.k,
        t=bundle.t,
        eta=5 * bundle.eta,
        lam=bundle.lam,
    )


# -- the driver ---------------------------------------------------------------


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
    """Run the extraction at stage alpha >= 1 from node x: k = alpha jumps,
    m = (1, ..., 2 alpha) and lam = v_alpha(x).

    One loop over stage = alpha, ..., 1.  Each round splits the stage
    value beta at its node into a jump delta and a remainder one stage
    lower at the jump target: by ``level_set_witness`` at eta / (2 alpha
    - 1) above stage 1, by the jump from the stage attainer at stage 1.
    Every round takes the largest jump from its start into the level set,
    and realizes its target at copy n_{b+1} below its start, b the number
    of points so far.  Round i > 1 realizes its start at copy n_b below
    the last point.  Round 1 realizes x_1 at copy 1 and first fixes the
    subsequence n_i = i + a - 1, with a the least index whose exact tail
    sum at x_1 is below run_eta delta_1 (``_first_index``); run_eta <= eta
    is the round's level-set eta.  So the new recurring steps of x_{b+1}
    carry copy n_b (copy 1 for x_1), and term n_b cuts t where it leaves
    x_b, or where it leaves x_{b+1} = x_b when the start is the node
    itself.  Each step down enters a moving pattern or one on which f is
    constantly f(x_b), so the cut point is worth f(x_b): block b >= 2 of
    the checker sums to 0.  Block 1 is |f_{n_1}(t) - f(x_1)|, and term
    n_1 cuts t either inside x_1, where t and x_1 agree, or where t leaves
    x_1 (x_1's support threshold is at most 1 <= n_1).  So block 1 is at
    most x_1's own tail from n_1, below run_eta delta_1 <= eta delta_1 by
    the choice of n_1.  No term past n_{2 alpha - 1} cuts t, so the tail
    is 0.  The jumps are exact: phi is a node function, so phi(x_{2i}) -
    phi(x_{2i-1}) is delta_i at every realization.

    No round finds stages that agree: with y the jump start and t the
    target of a stage-j round, v_{j-2}(t) = v_{j-1}(t) would give
    v_{j-1}(y) >= delta + lambda > (1 - eta) beta, against the shrink of
    eta in ``level_set_witness``.  The budget holds: the next beta is
    v_{j-1}(t) <= v_{j-1}(y) < beta, so the alpha - 1 level-set errors
    add up to less than eta beta / 2."""
    from .transfinite import iterate, level_set_witness, v_pre_step
    eta = rat(eta)
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie strictly between 0 and 1")
    if alpha < 1:
        raise PreconditionError("alpha must be at least 1")
    sp = seq.space
    sp.node(x)  # an unknown node is malformed input, a SpaceError
    phi = seq.phi
    trace = iterate(phi, "v", steps=alpha)
    pre1 = v_pre_step(phi, trace.stage(0))
    points: list[PointRef] = []
    deltas: list[Fraction] = []
    node = x
    for stage in range(alpha, 0, -1):
        beta = trace.stage(stage)(node)
        if trace.stage(stage - 1)(node) >= beta:  # or beta = 0: stages are >= 0
            if points:
                raise InternalCheckError("stages agree at a jump target")
            raise PreconditionError(
                "stage %d adds nothing to stage %d at node %d; nothing to "
                "extract" % (stage, stage - 1, x)
            )
        if stage > 1:
            lw = level_set_witness(trace, stage - 1, node, eta / (2 * alpha - 1))
            start, level, delta, run_eta = lw.x1, lw.level_set, lw.delta, lw.eta
        else:
            start = _stage_attainer(pre1, beta, node)
            level, delta, run_eta = frozenset(sp.node_ids()), beta, eta
        pool = [y for y in sorted(sp.acc(start)) if y in level]
        best, target = _jump_target(phi, start, pool)
        if best != delta:
            raise InternalCheckError("a jump is not attained below its start")
        b = len(points)
        if points:
            x_start = _realize(seq, points[-1], start, n.value(b))
        else:
            x_start = point_at(sp, start)
            n = IndexSeq((), _first_index(seq, x_start, run_eta * delta) - 1)
        points += [x_start, _realize(seq, x_start, target, n.value(b + 1))]
        deltas.append(delta)
        node = target

    bundle = WitnessBundle(
        indices=n,
        m=tuple(range(1, 2 * alpha + 1)),
        k=alpha,
        t=points[-1],
        eta=eta,
        lam=trace.stage(alpha)(x),
        points=tuple(points),
        deltas=tuple(deltas),
    )
    report = check_jump_chain(seq, bundle)
    if report.verdict is not Verdict.TRUE:
        raise InternalCheckError(
            "constructed bundle failed: %s" % ", ".join(report.failed())
        )
    return bundle
