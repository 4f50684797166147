"""The original dense-tableau simplex kernel, kept as a test oracle.

This is the kernel ``oscal.simplex`` shipped before rows became sparse
integer vectors and before it dropped phase 1: a dense two-phase tableau in
:class:`fractions.Fraction` with Bland's rule throughout.  It solves
:class:`GeneralProgram` objects, which allow every program shape (``<=``,
``>=`` and ``==`` rows of either sign, minimize or maximize), and the
package's own :class:`LinearProgram` objects, which it reads as the general
program they are: maximize over ``<=`` rows.  ``test_simplex_reference``
requires the production kernel to agree with it on status, objective,
values, duals and pivot count.  It returns its own :class:`Outcome`, the
five fields as ``Fraction``s, as the package's results were before they
held the kernel's integer answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from oscal.errors import PreconditionError
from oscal.rationals import rat
from oscal.simplex import LinearProgram

SENSES = ("<=", ">=", "==")


@dataclass
class GeneralProgram:
    """A program of any shape: variables are named, nonnegative unless
    made free, and rows have any sense and any right-hand side."""

    minimize: bool = True
    _objective: dict = field(default_factory=dict)
    _rows: list = field(default_factory=list)
    _vars: list = field(default_factory=list)
    _free: set = field(default_factory=set)

    @classmethod
    def of(cls, lp: LinearProgram) -> "GeneralProgram":
        """The kernel's program read as a general one, variables in order."""
        return cls(
            False,
            lp.objective,
            [(coeffs, "<=", rhs) for coeffs, rhs in lp.constraints],
            lp.variables,
        )

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
class Outcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction]
    values: dict
    duals: Optional[list]
    pivots: int


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows, cost, basis, r, c) -> None:
    piv = rows[r][c]
    if piv != 1:
        inv = 1 / piv
        rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i in range(len(rows)):
        if i == r:
            continue
        f = rows[i][c]
        if f:
            row = rows[i]
            rows[i] = [a - f * b if b else a for a, b in zip(row, prow)]
    f = cost[c]
    if f:
        cost[:] = [a - f * b if b else a for a, b in zip(cost, prow)]
    basis[r] = c


def _optimize(rows, cost, basis, allowed) -> tuple[str, int]:
    """Bland-rule simplex loop; returns (status, pivot count)."""
    pivots = 0
    while True:
        enter = -1
        for j in allowed:
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal", pivots
        leave = -1
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots
        _pivot(rows, cost, basis, leave, enter)
        pivots += 1


def solve(lp) -> Outcome:
    """Solve a :class:`GeneralProgram` or the package's :class:`LinearProgram`."""
    if isinstance(lp, LinearProgram):
        lp = GeneralProgram.of(lp)
    names = lp.variables
    if not names:
        raise PreconditionError("linear program has no variables")

    # column layout: structural (with free splits), then one slack/surplus
    # column per row, then one artificial column per row that needs it.
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

    body: list[list[Fraction]] = []
    senses = []
    for idx, (coeffs, sense, rhs) in enumerate(raw):
        vec = [_ZERO] * ncols
        for n, c in coeffs.items():
            vec[col_of[n]] += c
            if n in neg_col_of:
                vec[neg_col_of[n]] -= c
        if rhs < 0:
            vec = [-v for v in vec]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
            flipped[idx] = True
        body.append(vec + [rhs])
        senses.append(sense)

    for idx, sense in enumerate(senses):
        if sense == "<=":
            slack_col[idx] = ncols
            ncols += 1
        elif sense == ">=":
            slack_col[idx] = ncols
            ncols += 1
            art_col[idx] = ncols
            ncols += 1
        else:
            art_col[idx] = ncols
            ncols += 1

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    for idx, vec in enumerate(body):
        row = vec[:-1] + [_ZERO] * (ncols - len(vec) + 1) + [vec[-1]]
        if senses[idx] == "<=":
            row[slack_col[idx]] = _ONE
            basis.append(slack_col[idx])
        elif senses[idx] == ">=":
            row[slack_col[idx]] = -_ONE
            row[art_col[idx]] = _ONE
            basis.append(art_col[idx])
        else:
            row[art_col[idx]] = _ONE
            basis.append(art_col[idx])
        rows.append(row)

    artificials = {c for c in art_col if c >= 0}
    pivots = 0

    # phase 1 (only when artificials exist)
    if artificials:
        cost = [_ZERO] * (ncols + 1)
        for c in artificials:
            cost[c] = _ONE
        for i, b in enumerate(basis):
            if cost[b]:
                f = cost[b]
                cost = [a - f * v if v else a for a, v in zip(cost, rows[i])]
        status, p = _optimize(rows, cost, basis, range(ncols))
        pivots += p
        if -cost[-1] > 0:
            return Outcome("infeasible", None, {}, None, pivots)
        # drive leftover artificials out of the basis
        drop: list[int] = []
        for i in range(len(rows)):
            if basis[i] in artificials:
                target = next(
                    (
                        j
                        for j in range(ncols)
                        if j not in artificials and rows[i][j] != 0
                    ),
                    -1,
                )
                if target >= 0:
                    _pivot(rows, cost, basis, i, target)
                    pivots += 1
                else:
                    drop.append(i)
        for i in reversed(drop):
            del rows[i]
            del basis[i]

    # phase 2
    sign = _ONE if lp.minimize else -_ONE
    cost = [_ZERO] * (ncols + 1)
    for n, c in lp._objective.items():
        cost[col_of[n]] += sign * c
        if n in neg_col_of:
            cost[neg_col_of[n]] -= sign * c
    for i, b in enumerate(basis):
        if cost[b]:
            f = cost[b]
            cost = [a - f * v if v else a for a, v in zip(cost, rows[i])]
    allowed = [j for j in range(ncols) if j not in artificials]
    status, p = _optimize(rows, cost, basis, allowed)
    pivots += p
    if status == "unbounded":
        return Outcome("unbounded", None, {}, None, pivots)

    col_val = [_ZERO] * ncols
    for i, b in enumerate(basis):
        col_val[b] = rows[i][-1]
    values = {}
    for n in names:
        v = col_val[col_of[n]]
        if n in neg_col_of:
            v = v - col_val[neg_col_of[n]]
        values[n] = v
    z = -cost[-1]
    objective = z if lp.minimize else -z

    duals: list[Fraction] = []
    for idx in range(m):
        if senses[idx] == "<=":
            y = -cost[slack_col[idx]]
        elif senses[idx] == ">=":
            y = cost[slack_col[idx]]
        else:
            y = -cost[art_col[idx]]
        if flipped[idx]:
            y = -y
        if not lp.minimize:
            y = -y
        duals.append(y)

    return Outcome("optimal", objective, values, duals, pivots)
