"""Exact-valued functions on tree-presented spaces, with envelopes.

A :class:`QFunction` assigns one rational (or Gaussian-rational) value per
node class; points of the realized space inherit the value of their node.
Such functions are exactly the functions that are constant on every copy of
every pattern, which is the natural finitely-described class here.

The upper envelope at a limit node sees every value accumulating there:
``U f (p) = max(f(p), max over acc(p) of f)``; the lower envelope is dual.
A function is upper (lower) semicontinuous iff it equals its upper (lower)
envelope, and continuous iff it is constant on {p} ∪ acc(p) at every limit
node p.  Since acc(p) is the union of {z} ∪ acc(z) over its cover, both
read only cover edges: ``U f (p) = max(f(p), max over acc_cover(p) of U f)``
in one children-first pass, and continuity is f(z) = f(p) on each edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Union

from ._record import record
from .errors import MismatchError, PreconditionError
from .rationals import GaussianRational, rat, require_rational_abs
from .space import PointRef, TreeSpace, resolve

Scalar = Union[Fraction, GaussianRational]


def _coerce(value) -> Scalar:
    if isinstance(value, GaussianRational):
        return value
    return rat(value)


@record
class QFunction:
    """A function given by one exact value per node class."""

    space: TreeSpace
    values: Mapping[int, Scalar]

    def __post_init__(self):
        vals = {i: _coerce(v) for i, v in self.values.items()}
        missing = set(self.space.nodes) - set(vals)
        extra = set(vals) - set(self.space.nodes)
        if missing:
            raise MismatchError("missing values for nodes %s" % sorted(missing))
        if extra:
            raise MismatchError("values for unknown nodes %s" % sorted(extra))
        object.__setattr__(self, "values", vals)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, node: int) -> Scalar:
        return self.values[node]

    def at_point(self, point: PointRef) -> Scalar:
        return self.values[resolve(self.space, point)]

    def is_complex(self) -> bool:
        return any(isinstance(v, GaussianRational) for v in self.values.values())

    def require_real(self, what: str = "operation") -> None:
        if self.is_complex():
            raise PreconditionError("%s requires a real-valued function" % what)

    # -- pointwise algebra ----------------------------------------------------

    def _zip(self, other: "QFunction", op) -> "QFunction":
        if not isinstance(other, QFunction):
            return NotImplemented
        if self.space is not other.space and self.space != other.space:
            raise MismatchError("functions live on different spaces")
        return QFunction(
            self.space, {i: op(self.values[i], other.values[i]) for i in self.values}
        )

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return self.map(lambda v: -v)

    def map(self, fn: Callable[[Scalar], Scalar]) -> "QFunction":
        return QFunction(self.space, {i: fn(v) for i, v in self.values.items()})

    def scale(self, t) -> "QFunction":
        t = _coerce(t)
        return self.map(lambda v: t * v)

    def abs(self) -> "QFunction":
        """Pointwise |f|; exact, so complex values must have rational modulus."""
        out = {}
        for i, v in self.values.items():
            if isinstance(v, GaussianRational):
                out[i] = require_rational_abs(v, "abs at node %d", i)
            else:
                out[i] = abs(v)
        return QFunction(self.space, out)

    def re(self) -> "QFunction":
        return self.map(lambda v: v.re if isinstance(v, GaussianRational) else v)

    def im(self) -> "QFunction":
        return self.map(
            lambda v: v.im if isinstance(v, GaussianRational) else Fraction(0)
        )

    def __le__(self, other: "QFunction") -> bool:
        if not isinstance(other, QFunction):
            return NotImplemented
        if self.is_complex() or other.is_complex():
            raise PreconditionError("ordering requires real functions")
        if self.space is not other.space and self.space != other.space:
            raise MismatchError("functions live on different spaces")
        return all(self.values[i] <= other.values[i] for i in self.values)


def zero_function(space: TreeSpace) -> QFunction:
    return QFunction(space, {i: Fraction(0) for i in space.nodes})


def lift_function(
    f: QFunction, unrolled: TreeSpace, node_map: dict[int, int]
) -> QFunction:
    """Transport f to an unrolled presentation through the node mapping."""
    return QFunction(unrolled, {i: f(node_map[i]) for i in unrolled.nodes})


# -- envelopes ----------------------------------------------------------------


def _envelope(f: QFunction, pick, what: str) -> QFunction:
    """pick(f(x), envelope over acc_cover(x)), children first."""
    f.require_real(what)
    env = f.space.fold_cover(lambda x, cover, e: pick([f(x)] + [e[z] for z in cover]))
    return QFunction(f.space, env)


def usc_envelope(f: QFunction) -> QFunction:
    """Upper envelope: at a limit node, the max of f there and over acc."""
    return _envelope(f, max, "upper envelope")


def lsc_envelope(f: QFunction) -> QFunction:
    """Lower envelope, dual to :func:`usc_envelope`."""
    return _envelope(f, min, "lower envelope")


def decomposition_problems(sp: TreeSpace, f: dict, u: dict, v: dict) -> list[str]:
    """Why u, v (by node; ints or fractions) fail to decompose f on the
    valid space ``sp``: "negativity" unless u, v ≥ 0, "difference" unless
    u − v = f, and "monotonicity at p", p the lowest limit node with u(p) >
    u(y) or v(p) > v(y) for some y in acc(p): lower semicontinuity on a tree
    presentation.  acc(p) is the union of {z} ∪ acc(z) over its cover, so
    one ``fold_cover`` pass of the minima of u and v over {p} ∪ acc(p)
    finds every such p."""
    problems = []
    if any(u[i] < 0 or v[i] < 0 for i in sp.nodes):
        problems.append("negativity")
    if any(u[i] - v[i] != f[i] for i in sp.nodes):
        problems.append("difference")
    broken = []

    def low(x, cover, out):  # minima of u and v over {x} ∪ acc(x)
        if not cover:
            return u[x], v[x]
        mu = min(u[x], min(out[z][0] for z in cover))
        mv = min(v[x], min(out[z][1] for z in cover))
        if mu < u[x] or mv < v[x]:
            broken.append(x)
        return mu, mv

    sp.fold_cover(low)
    if broken:
        problems.append("monotonicity at %d" % min(broken))
    return problems


def is_continuous(f: QFunction) -> bool:
    """Constant on {p} ∪ acc(p) at every limit node p (works for complex f)."""
    sp = f.space
    return all(f(z) == f(p) for p in sp.limit_nodes() for z in sp.acc_cover(p))


def _gap(a: Scalar, b: Scalar, where: str, *args) -> Fraction:
    """|a − b|; a complex difference must have a rational modulus, else the
    error names ``where % args``."""
    d = a - b
    if isinstance(d, GaussianRational):
        return require_rational_abs(d, where, *args)
    return abs(d)
