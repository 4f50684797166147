"""Exact linear programming over the rationals.

The kernel solves one program shape: maximize c·x subject to rows
Σ a·x ≤ b with b ≥ 0, each variable nonnegative or free.  Every program
the package builds has that shape (the norm oracle solves the dual of its
decomposition program for exactly this reason), so the slack basis is
feasible from the start and a single simplex phase runs from it.

Rows are sparse integers.  Each tableau row is a ``dict`` from column to
nonzero ``int``, right-hand side included, and stands for a positive
multiple of its canonical row (the one with a 1 in its basic column), so
the basic coefficient is always positive.  A pivot on (r, c) leaves row r
as it is and replaces every other row i holding column c by
``a_rc·row_i − a_ic·row_r`` divided by the gcd of its entries; inner loops
touch only nonzeros and do only ``int`` work.  The cost row is an integer
row over its own positive denominator.  Rationals appear only where the
program is scaled to integers (row by row, by the lcm of its denominators)
and where values, objective and duals are read out; ``int`` coefficients
stay ``int`` from the program to the tableau, and a row of them needs no
scaling.

Bland's anti-cycling rule throughout: the entering column is the
lowest-index one with negative reduced cost and ties in the ratio test are
broken by the lowest basic variable index, so every run is deterministic
and terminates, degenerate instances included.  Row scales cancel in the
ratio ``rhs_i / a_i``, which is compared by cross-multiplying, so the pivot
path is exactly the one a tableau of canonical rows would take.  There is
no tolerance anywhere.

Free variables are handled by the usual positive/negative split.  The dual
of each row is the reduced cost of its slack column on the optimal
tableau, reported per row in the order the rows were added.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import record
from .errors import PreconditionError
from .rationals import rat


def _exact(c):
    """An ``int`` as it is (bools excluded), anything else through ``rat``."""
    return c if type(c) is int else rat(c)


class LinearProgram:
    """maximize c·x subject to rows Σ a·x ≤ b with b ≥ 0; variables are
    named, nonnegative unless made free."""

    def __init__(self) -> None:
        self._objective: dict = {}
        self._rows: list = []
        self._vars: dict = {}  # insertion-ordered, values unused
        self._free: set = set()

    def _register(self, names) -> None:
        self._vars.update(dict.fromkeys(names))

    def make_free(self, *names: str) -> None:
        self._register(names)
        self._free.update(names)

    def set_objective(self, coeffs: dict) -> None:
        coeffs = {n: _exact(c) for n, c in coeffs.items()}
        self._register(coeffs)
        self._objective = coeffs

    def add(self, coeffs: dict, rhs) -> None:
        """Add the row Σ coeffs·x ≤ rhs, with rhs ≥ 0."""
        rhs = _exact(rhs)
        if rhs < 0:
            raise PreconditionError(
                "right-hand side %s is negative; rows need rhs >= 0" % rhs
            )
        coeffs = {n: _exact(c) for n, c in coeffs.items()}
        self._register(coeffs)
        self._rows.append((coeffs, rhs))

    @property
    def variables(self) -> list:
        return list(self._vars)

    @property
    def constraints(self) -> list:
        return list(self._rows)


@record
class LPResult:
    status: str  # "optimal" | "unbounded"
    objective: Optional[Fraction]
    values: dict
    duals: Optional[list]
    pivots: int


_ZERO = Fraction(0)

# keys outside the column range (columns are >= 0): every row's
# right-hand side, and the cost row's positive denominator
_RHS = -2
_DEN = -1


def _integer_row(coeffs: dict) -> dict:
    """Scale a key -> int or Fraction map to integers by the lcm of its
    denominators; a map of ``int``s is returned as it is.

    Every row ``solve`` scales holds a 1 (its slack, or the cost row's
    denominator), so the result is primitive: for each prime power dividing
    the lcm, some entry's denominator holds all of it and its numerator is
    prime to it, and no other prime divides the scaled 1.
    """
    if all(type(v) is int for v in coeffs.values()):
        return coeffs
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


def _optimize(rows, cost, basis) -> tuple[str, int, dict]:
    """Bland-rule simplex loop; returns (status, pivot count, cost row)."""
    pivots = 0
    while True:
        enter = min((j for j, v in cost.items() if v < 0 and j >= 0), default=-1)
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


def solve(lp: LinearProgram) -> LPResult:
    names = lp.variables
    if not names:
        raise PreconditionError("linear program has no variables")

    # column layout: structural (with free splits), then one slack per row
    col_of: dict[str, int] = {}
    neg_col_of: dict[str, int] = {}
    ncols = 0
    for n in names:
        col_of[n] = ncols
        ncols += 1
        if n in lp._free:
            neg_col_of[n] = ncols
            ncols += 1

    # the slack basis: row i starts canonical, with basic slack ncols + i
    rows: list[dict] = []
    for i, (coeffs, rhs) in enumerate(lp.constraints):
        vec = {}
        for n, c in coeffs.items():
            if c:
                vec[col_of[n]] = c
                if n in neg_col_of:
                    vec[neg_col_of[n]] = -c
        if rhs:
            vec[_RHS] = rhs
        vec[ncols + i] = 1
        rows.append(_integer_row(vec))
    basis = [ncols + i for i in range(len(rows))]

    # the cost row of −c·x; the slack basis has zero cost, so it is reduced
    goal = {_DEN: 1}
    for n, c in lp._objective.items():
        if c:
            goal[col_of[n]] = -c
            if n in neg_col_of:
                goal[neg_col_of[n]] = c
    status, pivots, cost = _optimize(rows, _integer_row(goal), basis)
    if status == "unbounded":
        return LPResult("unbounded", None, {}, None, pivots)

    col_val = {
        b: Fraction(row.get(_RHS, 0), row[b]) for b, row in zip(basis, rows)
    }
    values = {}
    for n in names:
        v = col_val.get(col_of[n], _ZERO)
        if n in neg_col_of:
            v = v - col_val.get(neg_col_of[n], _ZERO)
        values[n] = v
    den = cost[_DEN]
    objective = Fraction(cost.get(_RHS, 0), den)
    duals = [Fraction(cost.get(ncols + i, 0), den) for i in range(len(rows))]
    return LPResult("optimal", objective, values, duals, pivots)
