"""Exact linear programming over the rationals.

The kernel solves one program shape: maximize c·x subject to rows
Σ a·x ≤ b with b ≥ 0 over nonnegative variables.  Every program the
package builds has that shape (the norm oracle solves the dual of its
decomposition program for exactly this reason, and ``seqlab`` writes
each coefficient of either sign as a difference of two), so the slack
basis is feasible from the start and a single simplex phase runs from it.

A :class:`LinearProgram` gives each variable a column the first time it
sees its name and keeps its objective and rows by column, so ``solve``
starts from them as they are, plus one slack per row.  ``int``
coefficients stay ``int`` from the program to the tableau.

Rows are sparse integers.  Each tableau row is a ``dict`` from column to
nonzero ``int``, right-hand side included, and stands for a positive
multiple of its canonical row (the one with a 1 in its basic column), so
the basic coefficient is always positive.  A pivot on (r, c) leaves row r
as it is and replaces every other row i holding column c by
``a_rc·row_i − a_ic·row_r`` divided by the gcd of its entries; inner loops
touch only nonzeros and do only ``int`` work.  The cost row is an integer
row over its own positive denominator.  A row holding a ``Fraction`` is
scaled to integers by the lcm of its denominators; a row of ``int``s
needs no scaling.

The answer is integer too.  :class:`LPResult` holds the optimal cost
row's denominator, the objective's and every dual's numerator over it,
and each nonzero basic value as the pair (right-hand side, basic
coefficient) of its row.  Its ``objective``, ``values`` and ``duals`` are
``Fraction`` views built on first read, so a caller that checks the
answer in integers, as the norm oracle does, builds no fractions at all.

Bland's anti-cycling rule throughout: the entering column is the
lowest-index one with negative reduced cost and ties in the ratio test are
broken by the lowest basic variable index, so every run is deterministic
and terminates, degenerate instances included.  Row scales cancel in the
ratio ``rhs_i / a_i``, which is compared by cross-multiplying, so the pivot
path is exactly the one a tableau of canonical rows would take.  There is
no tolerance anywhere.  The dual of each row is the reduced cost of its
slack column on the optimal tableau, reported per row in the order the
rows were added.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._record import record
from .errors import PreconditionError
from .rationals import rat


class LinearProgram:
    """maximize c·x subject to rows Σ a·x ≤ b with b ≥ 0; variables are
    named and nonnegative.

    Each name gets a column the first time the program sees it.  The
    objective and the rows are kept as column -> coefficient dicts, ``int``
    coefficients as they are and every other rational as a ``Fraction``;
    ``variables``, ``objective`` and ``constraints`` are their named views.
    """

    def __init__(self) -> None:
        self._col: dict = {}  # name -> column, in first-seen order
        self._objective: dict = {}
        self._rows: list = []

    def _by_column(self, coeffs: dict) -> dict:
        """``coeffs`` by column; new names get their columns only once
        every coefficient is accepted."""
        col = self._col
        out = {}
        new = []
        for n, c in coeffs.items():
            if type(c) is not int:
                c = rat(c)
            j = col.get(n)
            if j is None:
                j = len(col) + len(new)
                new.append(n)
            out[j] = c
        if new:
            col.update(zip(new, range(len(col), len(col) + len(new))))
        return out

    def set_objective(self, coeffs: dict) -> None:
        self._objective = self._by_column(coeffs)

    def add(self, coeffs: dict, rhs) -> None:
        """Add the row Σ coeffs·x ≤ rhs, with rhs ≥ 0."""
        if type(rhs) is not int:  # bools too, which rat refuses
            rhs = rat(rhs)
        if rhs < 0:
            raise PreconditionError(
                "right-hand side %s is negative; rows need rhs >= 0" % rhs
            )
        self._rows.append((self._by_column(coeffs), rhs))

    @property
    def variables(self) -> list:
        return list(self._col)

    @property
    def objective(self) -> dict:
        names = self.variables
        return {names[j]: c for j, c in self._objective.items()}

    @property
    def constraints(self) -> list:
        names = self.variables
        return [
            ({names[j]: c for j, c in row.items()}, rhs) for row, rhs in self._rows
        ]


@record
class LPResult:
    """The kernel's integer answer.

    ``den`` is the optimal cost row's positive denominator: the objective
    is ``num``/``den`` and row i's dual is ``dual_nums[i]``/``den``.
    ``basic`` maps the column of each variable with a nonzero value to
    that value as (numerator, positive denominator), and ``variables``
    names the columns.  An unbounded result has no ``den``, ``num`` or
    ``dual_nums`` and no variables.  ``objective``, ``values`` (every
    variable, in column order) and ``duals`` are the same numbers as
    ``Fraction``s, built on first read.
    """

    status: str  # "optimal" | "unbounded"
    pivots: int
    den: Optional[int]
    num: Optional[int]
    dual_nums: Optional[list]
    basic: dict
    variables: list

    @cached_property
    def objective(self) -> Optional[Fraction]:
        return None if self.den is None else Fraction(self.num, self.den)

    @cached_property
    def values(self) -> dict:
        basic = self.basic
        return {
            n: Fraction(*basic[j]) if j in basic else _ZERO
            for j, n in enumerate(self.variables)
        }

    @cached_property
    def duals(self) -> Optional[list]:
        if self.den is None:
            return None
        return [Fraction(x, self.den) for x in self.dual_nums]


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
    ncols = len(names)

    # the slack basis: row i starts canonical, with basic slack ncols + i
    rows: list[dict] = []
    for i, (row, rhs) in enumerate(lp._rows):
        vec = {j: c for j, c in row.items() if c}
        if rhs:
            vec[_RHS] = rhs
        vec[ncols + i] = 1
        rows.append(_integer_row(vec))
    basis = [ncols + i for i in range(len(rows))]

    # the cost row of −c·x; the slack basis has zero cost, so it is reduced
    goal = {j: -c for j, c in lp._objective.items() if c}
    goal[_DEN] = 1
    status, pivots, cost = _optimize(rows, _integer_row(goal), basis)
    if status == "unbounded":
        return LPResult("unbounded", pivots, None, None, None, {}, [])

    basic = {}
    for b, row in zip(basis, rows):
        p = row.get(_RHS)
        if p and b < ncols:
            basic[b] = (p, row[b])
    den = cost[_DEN]
    duals = [cost.get(ncols + i, 0) for i in range(len(rows))]
    return LPResult("optimal", pivots, den, cost.get(_RHS, 0), duals, basic, names)
