"""The acc-pair forms of the envelopes, the semicontinuity and continuity
tests and the final oscillation stage, kept as the differential oracle for
the cover-edge forms in ``oscal.func`` and ``oscal.transfinite``, and the
first oscillation stage as ``oscal.func`` once defined it (``underline_osc``
and ``osc``), the oracle for ``osc_pre_step(f, 0)`` and ``osc_step(f, 0)``.

Each body below visits every (x, y in acc(x)) pair, as the package did
before it read only the acc cover; time and memory grow as the square of
the depth, so only small spaces belong here.
"""

from __future__ import annotations

from fractions import Fraction

from oscal.func import QFunction, _gap


def usc_envelope(f: QFunction) -> QFunction:
    """Upper envelope: at a limit node, the max of f there and over acc."""
    f.require_real("upper envelope")
    sp = f.space
    out = {}
    for i in sp.node_ids():
        if sp.is_leaf(i):
            out[i] = f(i)
        else:
            out[i] = max(f(i), max(f(y) for y in sp.acc(i)))
    return QFunction(sp, out)


def lsc_envelope(f: QFunction) -> QFunction:
    """Lower envelope, dual to :func:`usc_envelope`."""
    f.require_real("lower envelope")
    sp = f.space
    out = {}
    for i in sp.node_ids():
        if sp.is_leaf(i):
            out[i] = f(i)
        else:
            out[i] = min(f(i), min(f(y) for y in sp.acc(i)))
    return QFunction(sp, out)


def is_usc(f: QFunction) -> bool:
    f.require_real("semicontinuity test")
    return f.values == usc_envelope(f).values


def is_lsc(f: QFunction) -> bool:
    f.require_real("semicontinuity test")
    return f.values == lsc_envelope(f).values


def is_continuous(f: QFunction) -> bool:
    """Constant on {p} ∪ acc(p) at every limit node p (works for complex f)."""
    sp = f.space
    for p in sp.limit_nodes():
        v = f(p)
        if any(f(y) != v for y in sp.acc(p)):
            return False
    return True


def underline_osc(f: QFunction) -> QFunction:
    """Local oscillation: 0 at leaves, max |f(y) − f(p)| over acc(p) at p."""
    sp = f.space
    out = {}
    for i in sp.node_ids():
        if sp.is_leaf(i):
            out[i] = Fraction(0)
        else:
            out[i] = max(
                [Fraction(0)]
                + [_gap(f(y), f(i), "oscillation at node %d" % i) for y in sp.acc(i)]
            )
    return QFunction(sp, out)


def osc(f: QFunction) -> QFunction:
    """Upper-semicontinuous oscillation: the upper envelope of the local one."""
    return usc_envelope(underline_osc(f))


def _relax(sp, x: int, w, jump) -> Fraction:
    """max(w(x), max over y in acc(x) of jump(y, x) + w(y)); leaves keep w(x)."""
    if sp.is_leaf(x):
        return w(x)
    return max([w(x)] + [jump(y, x) + w(y) for y in sp.acc(x)])


def _osc_jump(f: QFunction):
    return lambda y, x: _gap(f(y), f(x), "oscillation step at node %d" % x)


def final_stage(f: QFunction) -> QFunction:
    """The final oscillation stage C, one pass over the nodes by increasing
    rank: C(x) = max(0, max over y in acc(x) of |f(y) − f(x)| + C(y)).

    One pass is exact.  Jumps are ≥ 0, so C(x) ≥ C(y) on acc(x): C is usc
    and needs no envelope, so C is a fixed point of the step.  Every fixed
    point w ≥ 0 lies above C, by induction on rank.  The stages climb from
    0 and stay below C, so where they stabilize is C."""
    sp, jump = f.space, _osc_jump(f)
    c = dict.fromkeys(sp.nodes, Fraction(0))
    for i in sorted(sp.node_ids(), key=sp.rank):
        c[i] = _relax(sp, i, c.__getitem__, jump)
    return QFunction(sp, c)
