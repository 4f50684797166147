"""Independent norm verification through exact linear programming.

The norm of f is the least sup-norm of u + v over decompositions f = u − v
into nonnegative lower semicontinuous u, v.  On a tree presentation, lower
semicontinuity of a node function is the finite condition "value at a limit
node ≤ value at every accumulating node", so the whole problem is a linear
program over the node values.  Solving it with the exact simplex kernel
gives a value computed by completely different means than the stage
iteration, which is the point: the two must agree to the last bit.

With u = f⁺ + w and v = f⁻ + w the problem is the primal program over
t ≥ 0 and w ≥ 0

    minimize t  subject to  t − 2·w_i ≥ |f(i)|           for every node i,
                            w_p − w_y ≤ c_py             for every cover edge,

where a cover edge (p, y) joins a limit node p to a maximal element y of
acc(p) and c_py = min(f⁺(y) − f⁺(p), f⁻(y) − f⁻(p)) merges the u row and
the v row, which share a left-hand side.  A node row with f(i) ≠ 0 has a
negative right-hand side, and the kernel takes only programs that start
feasible at their slack basis: maximize over ``≤`` rows with right-hand
sides ≥ 0.  :func:`oracle_lp` therefore builds the dual, which has that
shape:

    maximize Σ |f(i)|·y_i − Σ c_py·z_py  over y, z ≥ 0, subject to
             Σ y_i ≤ 1                                   (column t),
             −2·y_j + Σ_(p,j) z_pj − Σ_(j,y) z_jy ≤ 0    (column w_j).

Everything is computed on one integer scale.  D, the lcm of the
denominators of f's values, the node ids, D·f and the cover edges with
their bounds D·c_py are computed once per certified program, as ``int``s,
and shared by the program and its certificate check.  The program is the
dual above for D·f, so every coefficient the kernel sees is an ``int``,
and each variable is named by its column, so the kernel keeps the program
as it is built.  Its constraints do not involve f and only its objective
is scaled, by D > 0: every reduced cost keeps its sign, so Bland's
entering choices and the ratio tests, hence the pivot path and the y/z
multipliers, are those of the program for f, while its objective and its
(t, w) duals are D times f's.

:func:`_certify` reads t and w from the kernel's duals and trusts neither
the kernel nor the reductions: the decomposition is re-verified against
the unreduced constraint system (every y in acc(p), not only the cover),
and the kernel's y/z values are checked to be dual feasible with an
objective equal to sup(u + v).  A feasible primal and a feasible dual with
equal objectives are both optimal by weak duality, so the optimum is
certified in exact arithmetic.  Both checks read the kernel's integer
answer: with d the cost row's denominator, the duals' numerators are
d·D·t and d·D·w, so u and v are checked as d·D·u and d·D·v, and the
multipliers, each a (numerator, denominator) pair, over the lcm of their
denominators.  :func:`oracle_dnorm` builds fractions only for what
:class:`OracleResult` returns, in f's units: the optimum, u and v over
d·D, and the kernel's result with d·D as its denominator, so its
objective and duals are f's without a fraction per dual.

The LP here optimizes over node functions, i.e. decompositions constant on
pattern copies.  :func:`symmetry_check` probes whether allowing copies to
differ could ever pay off, by re-solving on unrolled presentations where
each copy has its own variables.  It runs the same certificate check on
every program it solves and keeps only the certified optimum, so it builds
no decomposition and loses no check.  The quotient program does not depend
on the unroll count, so ``symmetry_check`` keeps the last quotient optimum
it certified and reuses it while it is asked about the same function
object with the same values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import record
from .errors import InternalCheckError, PreconditionError
from .func import QFunction, lift_function
from .simplex import LinearProgram, LPResult, solve
from .space import unroll

# the scale D, the node ids in order, D·f, and (p, y, D·c_py) for every
# cover edge, all ints
_Cover = tuple[int, list[int], dict[int, int], list[tuple[int, int, int]]]


def _cover(f: QFunction) -> _Cover:
    """For a real f on a valid space: D, the lcm of the denominators of its
    values; its node ids; D·f; and every cover edge (p, y) with D·c_py,
    where c_py is the tighter of the u row's bound f⁺(y) − f⁺(p) and the v
    row's bound f⁻(y) − f⁻(p) on w_p − w_y."""
    f.require_real("norm oracle")
    sp = f.space
    sp.require_valid()
    nodes = sp.node_ids()
    values = f.values
    scale = math.lcm(*(values[i].denominator for i in nodes))
    df = {i: values[i].numerator * (scale // values[i].denominator) for i in nodes}
    edges = []
    for p in sp.limit_nodes():
        fp = df[p]
        pos_p, neg_p = (fp, 0) if fp > 0 else (0, -fp)
        for y in sorted(sp.acc_cover(p)):
            fy = df[y]
            pos_y, neg_y = (fy, 0) if fy > 0 else (0, -fy)
            edges.append((p, y, min(pos_y - pos_p, neg_y - neg_p)))
    return scale, nodes, df, edges


def oracle_lp(f: QFunction, cover: Optional[_Cover] = None) -> LinearProgram:
    """Build the dual decomposition LP for D·f, D the lcm of the
    denominators of a real node function f, so that every coefficient and
    right-hand side is an ``int``.

    Each variable is named by its column.  Variable k is y of the k-th node
    in ``node_ids()`` order (the multiplier of its row
    t − 2·w_i ≥ |D·f(i)|), and variable n + j, n the number of nodes, is z
    of the j-th cover edge (p, y) (the multiplier of its merged row
    w_p − w_y ≤ D·c_py); all are nonnegative.  Row 0 is the column of t,
    row 1 + k the column of w for the k-th node, so the kernel's duals are
    (t, w) in that order, D times those for f.  The cover thinning is exact
    because acc sets are downward closed, and _certify re-verifies the
    reconstructed optimum against the original constraint system.
    ``cover`` is what ``_cover(f)`` returns, when the caller has already
    computed it.
    """
    _, nodes, df, edges = _cover(f) if cover is None else cover
    n = len(nodes)
    at = {i: k for k, i in enumerate(nodes)}
    objective = {k: abs(df[i]) for k, i in enumerate(nodes)}
    rows = [{k: -2} for k in range(n)]
    for j, (p, y, c) in enumerate(edges, n):
        objective[j] = -c
        rows[at[p]][j] = -1
        rows[at[y]][j] = 1
    lp = LinearProgram()
    lp.set_objective(objective)
    lp.add(dict.fromkeys(range(n), 1), 1)
    for row in rows:
        lp.add(row, 0)
    return lp


@record
class OracleResult:
    """The optimum, an attaining decomposition, and the dual LP's result
    (its ``values`` are the y/z multipliers, its ``duals`` are t then w),
    all in f's units."""

    optimum: Fraction
    u: QFunction
    v: QFunction
    lp_result: LPResult


def _certify(f: QFunction) -> tuple[int, LPResult, dict, dict]:
    """Solve the decomposition program of a real f and check the kernel's
    integer answer; raise ``InternalCheckError`` unless it certifies its
    optimum.

    With d the kernel's denominator, u = f⁺ + w and v = f⁻ + w are checked
    as d·D·u and d·D·v.  The re-verification checks u(p) ≤ u(y) and
    v(p) ≤ v(y) at every limit node p for every y in acc(p), not only on
    the cover.  That is lower semicontinuity on a tree presentation, so no
    separate lsc test runs.  Returns d·D, the kernel's result, d·D·u and
    d·D·v; the optimum is the result's ``num`` over d·D.
    """
    cover = _cover(f)
    res = solve(oracle_lp(f, cover))
    if res.status != "optimal":
        raise InternalCheckError(
            "decomposition LP came back %s" % res.status
        )
    sp = f.space
    scale, nodes, df, edges = cover
    # the duals are D·t and D·w, over d
    d = res.den
    t, *ws = res.dual_nums
    u_vals = {}
    v_vals = {}
    for i, w in zip(nodes, ws):
        fi = d * df[i]
        if fi > 0:
            u_vals[i], v_vals[i] = w + fi, w
        else:
            u_vals[i], v_vals[i] = w, w - fi

    # independent re-verification against the unreduced constraint system,
    # on the int value dicts
    problems = []
    if any(val < 0 for val in u_vals.values()) or any(
        val < 0 for val in v_vals.values()
    ):
        problems.append("negativity")
    if any(u_vals[i] - v_vals[i] != d * df[i] for i in nodes):
        problems.append("difference")
    for p in sp.limit_nodes():
        up, vp = u_vals[p], v_vals[p]
        if any(up > u_vals[y] or vp > v_vals[y] for y in sp.acc(p)):
            problems.append("monotonicity at %d" % p)
            break
    sup = max(u_vals[i] + v_vals[i] for i in nodes)
    if sup > t:
        problems.append("bound")
    if sup != res.num:  # both D times f's, over d
        problems.append("objective")
    # the dual certificate: multipliers y, z >= 0 that satisfy every dual
    # row and whose objective equals sup(u + v) bound every decomposition
    # from below (weak duality), so the one above is optimal.  The sums
    # run over the nonzero multipliers, times the lcm of their denominators.
    n = len(nodes)
    basic = res.basic
    den = math.lcm(*(q for _, q in basic.values()))
    load = dict.fromkeys(nodes, 0)  # left-hand sides, rows of w
    total = 0  # left-hand side of the row of t
    bound = 0  # dual objective, times D and den
    negative = False
    for k, (num, q) in basic.items():
        x = num * (den // q)
        negative |= x < 0
        if k < n:
            i = nodes[k]
            load[i] -= 2 * x
            total += x
            bound += abs(df[i]) * x
        else:
            p, y, c = edges[k - n]
            load[p] -= x
            load[y] += x
            bound -= c * x
    if negative or total > den or any(val > 0 for val in load.values()):
        problems.append("dual feasibility")
    if bound * d != sup * den:
        problems.append("duality gap")
    if problems:
        raise InternalCheckError(
            "oracle solution failed re-verification: %s" % ", ".join(problems)
        )
    return d * scale, res, u_vals, v_vals


def oracle_dnorm(f: QFunction) -> OracleResult:
    """Exact LP optimum together with an attaining decomposition, certified
    by :func:`_certify`."""
    units, res, u_vals, v_vals = _certify(f)
    # fractions only for what the result holds, in f's units
    sp = f.space
    optimum = Fraction(res.num, units)
    u = QFunction(sp, {i: Fraction(x, units) for i, x in u_vals.items()})
    v = QFunction(sp, {i: Fraction(x, units) for i, x in v_vals.items()})
    lp_result = LPResult(
        res.status, res.pivots, units, res.num, res.dual_nums, res.basic,
        res.variables,
    )
    return OracleResult(optimum, u, v, lp_result)


@record
class SymmetryReport:
    k: int
    quotient_optimum: Fraction
    unrolled_optimum: Fraction

    @property
    def agree(self) -> bool:
        return self.quotient_optimum == self.unrolled_optimum


def _optimum(f: QFunction) -> Fraction:
    """The certified optimum of f's decomposition program."""
    units, res, _, _ = _certify(f)
    return Fraction(res.num, units)


# the last quotient symmetry_check certified: (f, a copy of f.values,
# optimum).  Holding f keeps its id from being reused by another function;
# a reader checks one tuple, so racing callers can at worst solve again.
_last_quotient: Optional[tuple[QFunction, dict, Fraction]] = None


def _quotient(f: QFunction) -> Fraction:
    global _last_quotient
    last = _last_quotient
    if last is not None and last[0] is f and last[1] == f.values:
        return last[2]
    optimum = _optimum(f)
    _last_quotient = (f, dict(f.values), optimum)
    return optimum


def symmetry_check(f: QFunction, k: int) -> SymmetryReport:
    """Solve the LP again on unroll(space, k), each copy with its own
    variables, and compare its certified optimum with the quotient LP's.

    Both programs go through the certificate check that
    :func:`oracle_dnorm` runs; only their optima are kept.  The quotient
    optimum is reused from the previous call when f is the same object
    with the same values, so checking one function at k = 1, 2, 3 solves
    its quotient program once; any other function, equal values or not,
    is solved afresh.
    """
    if k not in (1, 2, 3):
        raise PreconditionError("unroll count must be 1, 2 or 3")
    base = _quotient(f)
    big_space, node_map = unroll(f.space, k)
    return SymmetryReport(
        k, base, _optimum(lift_function(f, big_space, node_map))
    )
