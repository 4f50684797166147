"""Shared constructors for the test suite, and small accessors that only
the tests use."""

import functools
import random
from fractions import Fraction

from hypothesis import strategies as st

from oscal.errors import InternalCheckError
from oscal.func import QFunction, lsc_envelope, usc_envelope
from oscal.rationals import GaussianRational
from oscal.sampling import DEFAULT_SEED, build_corpus, random_space
from oscal.seqlab import PolyBasis, SpanFunctional
from oscal.transfinite import _jump, _pre_step, iterate, v_pre_step
from oscal.space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    SpaceNode,
    TreeSpace,
    point_at,
    resolve,
    unroll,
)


def qf(space: TreeSpace, *values) -> QFunction:
    """QFunction from values listed in node-id order."""
    ids = space.node_ids()
    assert len(values) == len(ids)
    return QFunction(space, dict(zip(ids, map(Fraction, values))))


def constant_function(space: TreeSpace, value) -> QFunction:
    return QFunction(space, dict.fromkeys(space.nodes, value))


def sup_abs(f: QFunction) -> Fraction:
    """max over nodes of |f| (exact)."""
    return max(f.abs().values.values())


def fmax(f: QFunction, g: QFunction) -> QFunction:
    return QFunction(
        f.space, {i: max(f(i), g(i)) for i in f.space.node_ids()}
    )


def leq(f: QFunction, g: QFunction) -> bool:
    """Pointwise f <= g."""
    return all(f(i) <= g(i) for i in f.space.node_ids())


def shift(f: QFunction, c) -> QFunction:
    """Pointwise f + c."""
    c = Fraction(c)
    return f.map(lambda v: v + c)


def conjugate(z: GaussianRational) -> GaussianRational:
    return GaussianRational(z.re, -z.im)


def field_names(rec) -> tuple:
    """The field names of a record class or instance, in order."""
    return rec.__record_fields__


def replace(rec, **changes):
    """A new record like ``rec`` with ``changes``; ``__post_init__`` runs."""
    names = rec.__record_fields__
    unknown = set(changes).difference(names)
    if unknown:
        raise TypeError("%s has no field %r" % (type(rec).__qualname__, min(unknown)))
    return type(rec)(*[changes[n] if n in changes else getattr(rec, n) for n in names])


def max_copy(point: PointRef) -> int:
    """Largest copy index on the path (0 if none)."""
    return max(
        (s.copy for s in point.steps if isinstance(s, RecurringStep)), default=0
    )


def node_path(space: TreeSpace, point: PointRef) -> list:
    """Node ids visited along the path, including start and end."""
    resolve(space, point)  # validity check
    out = [space.root]
    for s in point.steps:
        n = space.node(out[-1])
        if isinstance(s, PrefixStep):
            out.append(n.prefix[s.child])
        else:
            out.append(n.recurring[s.pattern])
    return out


def biorthogonal(basis: PolyBasis) -> list:
    """The coordinate functionals b_j* of a basis."""
    n = basis.size
    return [
        SpanFunctional(basis, tuple(Fraction(int(i == j)) for i in range(n)))
        for j in range(n)
    ]


def on_coefficients(f: SpanFunctional, coeffs) -> Fraction:
    """f(sum c_j b_j) = sum gamma_j c_j."""
    return sum((g * Fraction(c) for g, c in zip(f.gamma, coeffs)), Fraction(0))


def by_space(corpus, space: TreeSpace) -> list:
    """The corpus functions on ``space``, in corpus order."""
    return [f for f in corpus.functions if f.space is space]


@functools.lru_cache(maxsize=1)
def corpus():
    return build_corpus(DEFAULT_SEED)


def corpus_pairs():
    """Same-space function pairs, consecutive in corpus order."""
    out = []
    c = corpus()
    for sp in c.spaces:
        fns = by_space(c, sp)
        out.extend(zip(fns, fns[1:]))
    return out


def complex_line_function(rng: random.Random, space: TreeSpace) -> QFunction:
    """Gaussian-rational values whose pairwise differences all have exact
    moduli: c_p * w + shift along a Pythagorean direction w."""
    w = rng.choice(
        [
            GaussianRational(Fraction(3), Fraction(4)),
            GaussianRational(Fraction(5), Fraction(-12)),
            GaussianRational(Fraction(1), Fraction(0)),
            GaussianRational(Fraction(0), Fraction(1)),
            GaussianRational(Fraction(-4, 5), Fraction(3, 5)),
        ]
    )
    shift = GaussianRational(
        Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
    )
    values = {}
    for i in space.node_ids():
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        values[i] = c * w + shift
    return QFunction(space, values)


@st.composite
def drawn_functions(draw, complex_values=False):
    space = random_space(random.Random(draw(st.integers(0, 10**6))), 2, 12)
    if complex_values:
        return complex_line_function(
            random.Random(draw(st.integers(0, 10**6))), space
        )
    values = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
            min_size=len(space),
            max_size=len(space),
        )
    )
    return QFunction(space, dict(zip(space.node_ids(), values)))


def staged_function(seed: int, depth: int = 4) -> QFunction:
    """A seeded real function whose signed stages grow past stage 1, on a
    space with prefix children; ``build_corpus`` has no node where
    v_2 > v_1.  Every limit node has one or two recurring children and up
    to two prefix children, which may be limit nodes too.  A node under r
    recurring steps is worth -(r mod 2) times 1 or 2, plus 0, 1/4 or 1/2:
    the alternating chain's profile, so the stages keep growing down the
    recurring steps, up to ``depth``."""
    rng = random.Random(seed)
    nodes, values = [], {}

    def build(d, r):
        ident = len(values)
        values[ident] = -Fraction(r % 2 * rng.choice([1, 2])) + Fraction(
            rng.randint(0, 2), 4
        )
        recurring = tuple(
            build(d - 1, r + 1) for _ in range(rng.choice([1, 1, 2]) if d else 0)
        )
        prefix = tuple(
            build(rng.randint(0, d - 1), r)
            for _ in range(rng.choice([0, 1, 1, 2]) if d else 0)
        )
        nodes.append(SpaceNode(ident, prefix, recurring))
        return ident

    root = build(depth, 0)
    return QFunction(TreeSpace(nodes, root), values)


def is_usc(f: QFunction) -> bool:
    f.require_real("semicontinuity test")
    return f.values == usc_envelope(f).values


def is_lsc(f: QFunction) -> bool:
    f.require_real("semicontinuity test")
    return f.values == lsc_envelope(f).values


def osc_pre_step(f: QFunction, w: QFunction) -> QFunction:
    """One oscillation step before taking the upper envelope."""
    return _pre_step(f, w, _jump(f, "osc"))


def osc_step(f: QFunction, w: QFunction) -> QFunction:
    """One oscillation step: the stage after weight w."""
    return usc_envelope(osc_pre_step(f, w))


def v_step(f: QFunction, w: QFunction) -> QFunction:
    """One signed (upward-jump) step; f must be real."""
    return usc_envelope(v_pre_step(f, w))


def iterated_final_stage(f, kind="osc"):
    tr = iterate(f, kind)
    assert tr.stabilized_at is not None
    return tr.stage(tr.stabilized_at)


def semicontinuity_criterion(f, w) -> bool:
    """The paper's test that a stage w of real f is final: w + f and
    w − f are both upper semicontinuous."""
    return is_usc(w + f) and is_usc(w - f)


def fixpoint_criterion(f: QFunction, alpha: int) -> bool:
    """Whether the chain has stopped moving at stage alpha, decided through
    the semicontinuity characterization and cross-checked against literal
    stage equality."""
    f.require_real("fixpoint criterion")
    tr = iterate(f, "osc", alpha + 1)
    w = tr.stage(alpha)
    by_usc = semicontinuity_criterion(f, w)
    by_stage = tr.stage(alpha + 1).values == w.values
    if by_usc != by_stage:
        raise InternalCheckError(
            "semicontinuity criterion disagrees with stage equality at %d" % alpha
        )
    return by_usc


def original_point(space, unrolled, node_map, k, upoint):
    """Translate a point of unroll(space, k) back to the presented space.

    Prefix children past the original prefix are the materialized pattern
    copies (pattern-major, copy index 1..k); surviving recurring steps sit
    k copies deeper than they claim.
    """
    steps = []
    cur = unrolled.root
    for s in upoint.steps:
        n = unrolled.node(cur)
        orig = space.node(node_map[cur])
        if isinstance(s, PrefixStep):
            if s.child < len(orig.prefix):
                steps.append(PrefixStep(s.child))
            else:
                extra = s.child - len(orig.prefix)
                steps.append(RecurringStep(extra // k, extra % k + 1))
            cur = n.prefix[s.child]
        else:
            steps.append(RecurringStep(s.pattern, s.copy + k))
            cur = n.recurring[s.pattern]
    return PointRef(tuple(steps))


def induced_node_function(seq, j: int, k: int) -> QFunction:
    """Evaluate term j of the sequence on every node class of the k-fold
    unrolled presentation.  Well defined for j <= k: the term is constant
    across the copies a single unrolled node still abbreviates."""
    assert 1 <= j <= k
    unrolled, node_map = unroll(seq.space, k)
    values = {}
    for nid in unrolled.node_ids():
        upoint = point_at(unrolled, nid, 1)
        opoint = original_point(seq.space, unrolled, node_map, k, upoint)
        values[nid] = seq.eval(j, opoint)
    return QFunction(unrolled, values)
