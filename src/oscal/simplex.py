"""Exact linear programming over the rationals.

Two-phase simplex on sparse integer rows.  Each tableau row is a ``dict``
from column to nonzero ``int``, right-hand side included, and stands for a
positive multiple of its canonical row (the one with a 1 in its basic
column), so the basic coefficient is always positive.  A pivot on (r, c)
leaves row r as it is and replaces every other row i holding column c by
``a_rc·row_i − a_ic·row_r`` divided by the gcd of its entries; inner loops
touch only nonzeros and do only ``int`` work.  The cost row is an integer
row over its own positive denominator.  Rationals appear only where the
program is scaled to integers (row by row, by the lcm of its denominators)
and where values, objective and duals are read out.

Bland's anti-cycling rule throughout: the entering column is the
lowest-index one with negative reduced cost and ties in the ratio test are
broken by the lowest basic variable index, so every run is deterministic
and terminates, degenerate instances included.  Row scales cancel in the
ratio ``rhs_i / a_i``, which is compared by cross-multiplying, so the pivot
path is exactly the one a tableau of canonical rows would take.  There is
no tolerance anywhere.

Free variables are handled by the usual positive/negative split, and duals
are read off the optimal tableau from the reduced costs of the slack,
surplus and artificial columns (one per row), reported per constraint in
the order they were added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .rationals import rat

SENSES = ("<=", ">=", "==")


@dataclass
class LinearProgram:
    """A small LP builder: variables are named, nonnegative by default."""

    minimize: bool = True
    _objective: dict = field(default_factory=dict)
    _rows: list = field(default_factory=list)
    _vars: list = field(default_factory=list)
    _free: set = field(default_factory=set)

    def _register(self, names) -> None:
        for name in names:
            if name not in self._vars:
                self._vars.append(name)

    def make_free(self, *names: str) -> None:
        self._register(names)
        self._free.update(names)

    def set_objective(self, coeffs: dict) -> None:
        coeffs = {n: rat(c) for n, c in coeffs.items()}
        self._register(coeffs)
        self._objective = coeffs

    def add(self, coeffs: dict, sense: str, rhs) -> None:
        if sense not in SENSES:
            raise PreconditionError("unknown constraint sense %r" % sense)
        coeffs = {n: rat(c) for n, c in coeffs.items()}
        self._register(coeffs)
        self._rows.append((coeffs, sense, rat(rhs)))

    @property
    def variables(self) -> list:
        return list(self._vars)

    @property
    def constraints(self) -> list:
        return list(self._rows)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction]
    values: dict
    duals: Optional[list]
    pivots: int




# keys outside the column range (columns are >= 0): every row's
# right-hand side, and the cost row's positive denominator
_RHS = -2
_DEN = -1


def _integer_row(coeffs: dict) -> dict:
    """Scale a key -> Fraction map to integers by the lcm of its denominators.

    The result is already primitive: for each prime power dividing the lcm,
    some entry's denominator holds all of it and its numerator is prime to it.
    """
    scale = math.lcm(*(v.denominator for v in coeffs.values()))
    return {
        j: v.numerator * (scale // v.denominator) for j, v in coeffs.items()
    }


def _reduce(row: dict) -> dict:
    g = math.gcd(*row.values())
    if g == 1:
        return row
    return {j: v // g for j, v in row.items()}


def _combine(row: dict, prow: dict, c: int) -> dict:
    """a_c·row − row[c]·prow with a_c = prow[c] > 0, both factors divided by
    their gcd: column c is cleared and the scale of ``row`` stays positive."""
    p = prow[c]
    f = row[c]
    g = math.gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    out = dict(row) if p == 1 else {j: p * v for j, v in row.items()}
    for j, v in prow.items():
        w = out.get(j, 0) - f * v
        if w:
            out[j] = w
        else:
            del out[j]
    return out


def _pivot(rows, basis, r, c) -> None:
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and c in row:
            rows[i] = _reduce(_combine(row, prow, c))
    basis[r] = c


def _optimize(rows, cost, basis, barred) -> tuple[str, int, dict]:
    """Bland-rule simplex loop; returns (status, pivot count, cost row).
    Columns in ``barred`` never enter."""
    pivots = 0
    while True:
        enter = min(
            (j for j, v in cost.items() if v < 0 and j >= 0 and j not in barred),
            default=-1,
        )
        if enter < 0:
            return "optimal", pivots, cost
        leave = -1
        for i, row in enumerate(rows):
            a = row.get(enter, 0)
            if a > 0:
                b = row.get(_RHS, 0)
                if leave >= 0:
                    # b/a against best_b/best_a; both denominators positive
                    lhs, bound = b * best_a, best_b * a
                    if lhs > bound or (lhs == bound and basis[i] > basis[leave]):
                        continue
                best_a, best_b, leave = a, b, i
        if leave < 0:
            return "unbounded", pivots, cost
        cost = _reduce(_combine(cost, rows[leave], enter))
        _pivot(rows, basis, leave, enter)
        pivots += 1


_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


def solve(lp: LinearProgram) -> LPResult:
    names = lp.variables
    if not names:
        raise PreconditionError("linear program has no variables")

    # column layout: structural (with free splits), then row by row a
    # slack or surplus column and an artificial column where needed.
    col_of: dict[str, int] = {}
    neg_col_of: dict[str, int] = {}
    ncols = 0
    for n in names:
        col_of[n] = ncols
        ncols += 1
        if n in lp._free:
            neg_col_of[n] = ncols
            ncols += 1

    raw = lp.constraints
    m = len(raw)
    flipped = [False] * m
    slack_col = [-1] * m
    art_col = [-1] * m

    # each row starts as a positive multiple of its canonical row: the
    # basic (slack or artificial) coefficient is the scale
    rows: list[dict] = []
    basis: list[int] = []
    senses = []
    for idx, (coeffs, sense, rhs) in enumerate(raw):
        vec = {}
        for n, c in coeffs.items():
            if c:
                vec[col_of[n]] = c
                if n in neg_col_of:
                    vec[neg_col_of[n]] = -c
        if rhs < 0:
            vec = {j: -v for j, v in vec.items()}
            rhs = -rhs
            sense = _FLIP[sense]
            flipped[idx] = True
        if rhs:
            vec[_RHS] = rhs
        if sense != "==":  # slack or surplus
            slack_col[idx] = ncols
            vec[ncols] = Fraction(1 if sense == "<=" else -1)
            ncols += 1
        if sense != "<=":  # artificial
            art_col[idx] = ncols
            vec[ncols] = Fraction(1)
            ncols += 1
        basis.append(ncols - 1)
        rows.append(_integer_row(vec))
        senses.append(sense)

    artificials = {c for c in art_col if c >= 0}
    pivots = 0

    # phase 1 (only when artificials exist)
    if artificials:
        cost = {c: 1 for c in artificials}
        cost[_DEN] = 1
        for i, b in enumerate(basis):
            if b in cost:
                cost = _reduce(_combine(cost, rows[i], b))
        _, p, cost = _optimize(rows, cost, basis, ())
        pivots += p
        if cost.get(_RHS, 0) < 0:
            return LPResult("infeasible", None, {}, None, pivots)
        # drive leftover artificials out of the basis; they sit at zero, so
        # the pivot entry may be negative, and negating the row first keeps
        # its scale positive
        drop: list[int] = []
        for i in range(len(rows)):
            if basis[i] in artificials:
                target = min(
                    (j for j in rows[i] if j >= 0 and j not in artificials),
                    default=-1,
                )
                if target >= 0:
                    if rows[i][target] < 0:
                        rows[i] = {j: -v for j, v in rows[i].items()}
                    _pivot(rows, basis, i, target)
                    pivots += 1
                else:
                    drop.append(i)
        for i in reversed(drop):
            del rows[i]
            del basis[i]

    # phase 2
    sign = 1 if lp.minimize else -1
    goal = {_DEN: Fraction(1)}
    for n, c in lp._objective.items():
        if c:
            goal[col_of[n]] = sign * c
            if n in neg_col_of:
                goal[neg_col_of[n]] = -sign * c
    cost = _integer_row(goal)
    for i, b in enumerate(basis):
        if b in cost:
            cost = _reduce(_combine(cost, rows[i], b))
    status, p, cost = _optimize(rows, cost, basis, artificials)
    pivots += p
    if status == "unbounded":
        return LPResult("unbounded", None, {}, None, pivots)

    col_val = {
        b: Fraction(row.get(_RHS, 0), row[b]) for b, row in zip(basis, rows)
    }
    values = {}
    for n in names:
        v = col_val.get(col_of[n], Fraction(0))
        if n in neg_col_of:
            v = v - col_val.get(neg_col_of[n], Fraction(0))
        values[n] = v
    den = cost[_DEN]
    z = -Fraction(cost.get(_RHS, 0), den)
    objective = z if lp.minimize else -z

    duals: list[Fraction] = []
    for idx in range(m):
        if senses[idx] == "<=":
            y = -Fraction(cost.get(slack_col[idx], 0), den)
        elif senses[idx] == ">=":
            y = Fraction(cost.get(slack_col[idx], 0), den)
        else:
            y = -Fraction(cost.get(art_col[idx], 0), den)
        if flipped[idx]:
            y = -y
        if not lp.minimize:
            y = -y
        duals.append(y)

    return LPResult("optimal", objective, values, duals, pivots)
