"""Iterated oscillation stages, the index and norm they induce, and the
level-set data used by the subsequence extraction.

Starting from the zero function, one step sends a weight w to the upper
envelope of

    x  ↦  max( w(x),  max over y in acc(x) of |f(y) − f(x)| + w(y) )

(leaves keep w).  Iterating yields an increasing chain of upper
semicontinuous stages; on a finitely presented space the chain becomes
stationary after finitely many steps.  The first stage index where two
consecutive stages agree is the index of f; the norm of f is the sup of
|f| + final stage.  The signed variant ("v") drops the absolute value and
measures upward jumps only.

The final stage of either kind is the least fixed point of its step:
:func:`final_stage` computes it in one linear pass along acc cover edges,
so :func:`d_norm`, :func:`decompose` and ``fn osc`` have no cap.
:func:`iterate` computes single stages until two agree, or as many as
asked; only :func:`d_index` caps it, and reports hitting the cap as
:class:`CapExceeded`.

The final stage is linear in f, so for a real f that pass runs on D·f,
D the lcm of the denominators of f's values (``func.integer_scale``, the
scale the norm oracle solves on), and every jump and stage value is an
``int``.  ``final_stage`` divides by D once per node; :func:`d_norm`
divides the largest |D·f| + D·W by D; :func:`decompose` checks its split
in ints on the scale 2D, and its :class:`Decomposition` builds the
``QFunction``s u and v on first read.  Only a complex f folds on
rationals: its stage values are exact rationals, so it must have
rational moduli |f(y) − f(x)| on its gaps, and |f(x)| for the norm;
otherwise ``ExactnessError`` reports that exact arithmetic cannot
continue.  :func:`iterate` steps on rationals for either kind of f.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import Optional, Union

from ._record import record
from .errors import InternalCheckError, PreconditionError
from .func import (
    QFunction,
    decomposition_problems,
    integer_scale,
    scaled_function,
    usc_envelope,
    zero_function,
    _gap,
)
from .space import TreeSpace

DEFAULT_CAP = 64


@record
class CapExceeded:
    """Returned when ``d_index`` hit its stage cap before stabilizing."""

    cap: int


def _jump(f: QFunction, kind: str):
    """jump(y, x) of one step of ``kind``: |f(y) − f(x)| for "osc", and
    f(y) − f(x) for the signed "v", whose f must be real."""
    if kind == "osc":
        return lambda y, x: _gap(f(y), f(x), "oscillation step at node %d", x)
    if kind == "v":
        f.require_real("signed oscillation")
        return lambda y, x: f(y) - f(x)
    raise PreconditionError("unknown iteration kind %r" % kind)


def _pre_step(f: QFunction, w: QFunction, jump) -> QFunction:
    """x ↦ max(w(x), max over y in acc(x) of jump(y, x) + w(y)); leaves keep w."""
    w.require_real("stage weight")
    sp = f.space
    return QFunction(sp, {
        x: w(x) if sp.is_leaf(x)
        else max([w(x)] + [jump(y, x) + w(y) for y in sp.acc(x)])
        for x in sp.node_ids()
    })


def v_pre_step(f: QFunction, w: QFunction) -> QFunction:
    """Signed (upward-jump) step before the upper envelope; f must be real."""
    return _pre_step(f, w, _jump(f, "v"))


@record
class OscTrace:
    """Stages [s_0, s_1, ...] of the iteration together with where (and
    whether) they stabilized.  When ``stabilized_at`` is τ the trace holds
    s_0 .. s_{τ+1} with s_{τ+1} == s_τ, the value of every later stage;
    otherwise it holds s_0 .. s_n for the n steps it was asked for."""

    base: QFunction
    kind: str
    stages: tuple[QFunction, ...]
    stabilized_at: Optional[int]

    def stage(self, alpha: int) -> QFunction:
        if alpha < 0:
            raise PreconditionError("stage index must be nonnegative")
        if alpha < len(self.stages):
            return self.stages[alpha]
        if self.stabilized_at is not None:
            return self.stages[-1]
        raise PreconditionError(
            "stage %d not computed (%d steps, not stabilized)"
            % (alpha, len(self.stages) - 1)
        )


def iterate(f: QFunction, kind: str = "osc", steps: Optional[int] = None) -> OscTrace:
    """The stages of ``kind`` from 0, for at most ``steps`` steps (no limit
    when None), stopping once two consecutive stages agree."""
    jump = _jump(f, kind)
    if steps is not None and steps < 0:
        raise PreconditionError("steps must be nonnegative")
    stages = [zero_function(f.space)]
    for n in count() if steps is None else range(steps):
        stages.append(usc_envelope(_pre_step(f, stages[-1], jump)))
        if stages[-1].values == stages[-2].values:
            return OscTrace(f, kind, tuple(stages), n)
    return OscTrace(f, kind, tuple(stages), None)


def d_index(f: QFunction, cap: int = DEFAULT_CAP) -> Union[int, CapExceeded]:
    """Stage index at which the oscillation chain stabilizes, or
    ``CapExceeded`` when ``cap`` steps do not show it."""
    tr = iterate(f, "osc", cap)
    if tr.stabilized_at is None:
        return CapExceeded(cap)
    return tr.stabilized_at


def _final(f: QFunction, kind: str) -> tuple[int, dict, dict]:
    """(D, F, W) for the final stage of ``kind`` (see :func:`final_stage`),
    W being D times the final stage by node.  A real f folds on its integer
    scale: D and F = D·f are :func:`integer_scale`'s, and every jump and
    every value of W is an ``int``.  A complex f folds with D = 1, F = f
    and ``_gap`` jumps, on ``Fraction``s."""
    jump = _jump(f, kind)
    if f.is_complex():
        scale, F, zero = 1, f.values, Fraction(0)
    else:
        scale, F = integer_scale(f)
        zero = 0
        jump = (
            (lambda y, x: abs(F[y] - F[x])) if kind == "osc"
            else (lambda y, x: F[y] - F[x])
        )

    def visit(x, cover, w):
        return max([zero] + [max(zero, jump(z, x)) + w[z] for z in cover])

    return scale, F, f.space.fold_cover(visit)


def final_stage(f: QFunction, kind: str = "osc") -> QFunction:
    """The final stage W of ``kind``, one children-first pass along cover
    edges:

        W(x) = max(0, max over z in acc_cover(x) of max(0, jump(z, x)) + W(z)).

    The clip at 0 changes nothing for "osc", whose jumps are ≥ 0.  Take
    y ∈ acc(x) outside the cover: it lies in acc(z) for a cover node z,
    where W(z) ≥ jump(y, z) + W(y) by induction.  For "v",
    f(y) − f(x) + W(y) ≤ f(z) − f(x) + W(z); for "osc" the triangle
    inequality gives |f(y) − f(x)| + W(y) ≤ |f(z) − f(x)| + W(z).  So
    W(x) ≥ jump(y, x) + W(y) on all of acc(x), and the step sends W to
    itself before the envelope.  The clip gives W(x) ≥ W(z) on the cover,
    so W(x) ≥ W(y) on acc(x): W is usc, the envelope keeps it, and W is a
    fixed point.  A fixed point w ≥ 0 is usc and satisfies the step, so
    w(x) ≥ max(0, jump(z, x)) + w(z) on the cover, and w ≥ W by induction
    on rank.  The stages climb from 0 and stay below W, so where they
    stabilize is W.  Every term is linear in f and W, so the pass on D·f
    gives D·W."""
    scale, _, w = _final(f, kind)
    return scaled_function(f.space, w, scale)


def d_norm(f: QFunction) -> Fraction:
    """max over nodes of |f| + final oscillation stage; for a real f,
    max(|D·f| + D·W) / D."""
    if f.is_complex():
        mod = f.abs().values
        _, _, final = _final(f, "osc")
        return max(mod[i] + final[i] for i in mod)
    scale, F, w = _final(f, "osc")
    return Fraction(max(abs(x) + w[i] for i, x in F.items()), scale)


@record
class Decomposition:
    """f = u − v with the norm max(u + v).  The decomposition is kept on the
    integer scale ``scale``: u and v are ``u_nums`` and ``v_nums`` over
    it, as ``QFunction``s built on first read."""

    space: TreeSpace
    scale: int
    u_nums: dict
    v_nums: dict
    norm: Fraction
    checks: dict

    @cached_property
    def u(self) -> QFunction:
        return scaled_function(self.space, self.u_nums, self.scale)

    @cached_property
    def v(self) -> QFunction:
        return scaled_function(self.space, self.v_nums, self.scale)


def decompose(f: QFunction) -> Decomposition:
    """Split f = u − v with u, v nonnegative lower semicontinuous and
    max(u + v) equal to the norm; the witness that the norm is attained.

    With D, F = D·f and W = D times the final stage, and Λ = max(|F| + W)
    (so the norm is Λ/D), the split is 2D·u = Λ − W + F and
    2D·v = Λ − W − F, checked in ints against 2F."""
    f.require_real("decomposition")
    scale, F, w = _final(f, "osc")
    lam = max(abs(x) + w[i] for i, x in F.items())
    u_nums = {i: lam - w[i] + x for i, x in F.items()}
    v_nums = {i: lam - w[i] - x for i, x in F.items()}
    problems = decomposition_problems(
        f.space, {i: 2 * x for i, x in F.items()}, u_nums, v_nums
    )
    checks = {
        "difference": "difference" not in problems,
        "nonnegative": "negativity" not in problems,
        "lower_semicontinuous": not any(p.startswith("monotonicity") for p in problems),
        "sup_norm": max(abs(u_nums[i] + v_nums[i]) for i in F) == 2 * lam,
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise InternalCheckError(
            "decomposition violated %s for the final stage" % ", ".join(bad)
        )
    return Decomposition(
        f.space, 2 * scale, u_nums, v_nums, Fraction(lam, scale), checks
    )


# -- level-set witness ---------------------------------------------------------


@record
class LevelSetWitness:
    """Data located below a strict growth v_α(x) < v_{α+1}(x) = β.

    ``lambda_under`` is the exact level attained by the best accumulating
    node (the finite presentation attains its suprema, so no strict
    undercut is needed), ``delta`` the largest jump of φ from ``x1`` into
    the level set, and ``level_set`` the nodes y with
    lambda_under ≤ v_α(y) < (1+η)β − δ.  ``eta`` is the value actually
    used after shrinking."""

    alpha: int
    x: int
    eta: Fraction
    beta: Fraction
    lambda_under: Fraction
    delta: Fraction
    x1: int
    attainer: int
    level_set: frozenset[int]


def level_set_witness(trace: OscTrace, alpha: int, x: int, eta) -> LevelSetWitness:
    """Level-set data at node x below the growth from v_alpha to
    v_{alpha+1}, read from ``trace``: the signed stages of phi = trace.base,
    computed through stage alpha + 1."""
    if trace.kind != "v":
        raise PreconditionError("the level-set witness reads signed (v) stages")
    phi = trace.base
    phi.require_real("level-set witness")
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise PreconditionError("eta must lie strictly between 0 and 1")
    if alpha < 1:
        raise PreconditionError("alpha must be at least 1")
    sp = phi.space
    v_a = trace.stage(alpha)
    v_a1 = trace.stage(alpha + 1)
    beta = v_a1(x)
    if v_a(x) == 0:
        raise PreconditionError("stage %d vanishes at node %d" % (alpha, x))
    if v_a(x) >= beta:
        raise PreconditionError(
            "no strict growth between stages %d and %d at node %d"
            % (alpha, alpha + 1, x)
        )
    # shrink eta until the stage-alpha value sits below (1-eta)*beta
    while v_a(x) >= (1 - eta) * beta:
        eta = eta / 2

    pre = v_pre_step(phi, v_a)  # stage alpha+1 before enveloping
    scope = sorted({x} | sp.acc(x))
    x1 = next(i for i in scope if pre(i) > (1 - eta) * beta)
    if sp.is_leaf(x1):
        raise InternalCheckError("pre-envelope exceeds the bar at a leaf")

    acc1 = sp.acc(x1)
    best = max(phi(y) - phi(x1) + v_a(y) for y in acc1)
    attainer = min(y for y in acc1 if phi(y) - phi(x1) + v_a(y) == best)
    lam = v_a(attainer)

    in_level = [y for y in sorted(acc1 | {x1}) if v_a(y) >= lam]
    delta = max(phi(y) - phi(x1) for y in in_level)

    upper = (1 + eta) * beta - delta
    level_set = frozenset(i for i in sp.node_ids() if lam <= v_a(i) < upper)

    # re-check the three defining conditions exactly
    ok1 = (1 - eta) * beta < lam + delta < (1 + eta) * beta
    ok2 = x1 in level_set or bool(acc1 & level_set)
    inside = [phi(y) - phi(x1) for y in acc1 & level_set]
    ok3 = bool(inside) and max(inside) == delta
    if not (ok1 and ok2 and ok3):
        raise InternalCheckError(
            "level-set conditions failed: %s"
            % [name for name, ok in [("bar", ok1), ("meets", ok2), ("jump", ok3)] if not ok]
        )
    return LevelSetWitness(
        alpha=alpha,
        x=x,
        eta=eta,
        beta=beta,
        lambda_under=lam,
        delta=delta,
        x1=x1,
        attainer=attainer,
        level_set=level_set,
    )
