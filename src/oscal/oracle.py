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

The node ids, the cover edges and their bounds c_py are computed once per
:func:`oracle_dnorm` call and shared by the program and its certificate
check.  :func:`oracle_dnorm` reads t and w from the kernel's duals and
trusts neither the kernel nor the reductions: the decomposition is
re-verified against the unreduced constraint system (every y in acc(p),
not only the cover), and the kernel's y/z values are checked to be dual
feasible with an objective equal to sup(u + v).  A feasible primal and a
feasible dual with equal objectives are both optimal by weak duality, so
the optimum is certified in exact arithmetic.

The LP here optimizes over node functions, i.e. decompositions constant on
pattern copies.  :func:`symmetry_check` probes whether allowing copies to
differ could ever pay off, by re-solving on unrolled presentations where
each copy has its own variables.  The quotient program does not depend on
the unroll count, so ``symmetry_check`` keeps the last quotient result it
solved and reuses it while it is asked about the same function object with
the same values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import record
from .errors import InternalCheckError, PreconditionError
from .func import QFunction, lift_function
from .simplex import LinearProgram, LPResult, solve
from .space import unroll

# node ids in order, and (p, y, c_py) for every cover edge
_Cover = tuple[list[int], list[tuple[int, int, Fraction]]]


def _cover(f: QFunction) -> _Cover:
    """The node ids of a real f on a valid space, and every cover edge (p, y)
    with c_py, the tighter of the u row's bound f⁺(y) − f⁺(p) and the v
    row's bound f⁻(y) − f⁻(p) on w_p − w_y."""
    f.require_real("norm oracle")
    sp = f.space
    sp.require_valid()
    fv = f.values
    edges = []
    for p in sp.limit_nodes():
        fp = fv[p]
        pos_p, neg_p = (fp, 0) if fp > 0 else (0, -fp)
        for y in sorted(sp.acc_cover(p)):
            fy = fv[y]
            pos_y, neg_y = (fy, 0) if fy > 0 else (0, -fy)
            edges.append((p, y, min(pos_y - pos_p, neg_y - neg_p)))
    return sp.node_ids(), edges


def oracle_lp(f: QFunction, cover: Optional[_Cover] = None) -> LinearProgram:
    """Build the dual decomposition LP for a real node function.

    Variables ``y<i>`` (one per node, the multiplier of its row
    t − 2·w_i ≥ |f(i)|) and ``z<p>_<y>`` (one per cover edge, the
    multiplier of its merged row w_p − w_y ≤ c_py), all nonnegative.  Row 0
    is the column of t, row 1 + k the column of w for the k-th node in
    ``node_ids()`` order, so the kernel's duals are (t, w) in that order.
    The cover thinning is exact because acc sets are downward closed, and
    oracle_dnorm re-verifies the reconstructed optimum against the original
    constraint system.  ``cover`` is f's node ids and cover edges when the
    caller has already computed them.
    """
    nodes, edges = _cover(f) if cover is None else cover
    fv = f.values
    objective = {"y%d" % i: abs(fv[i]) for i in nodes}
    rows = {j: {"y%d" % j: -2} for j in nodes}
    for p, y, c in edges:
        z = "z%d_%d" % (p, y)
        objective[z] = -c
        rows[p][z] = -1
        rows[y][z] = 1
    lp = LinearProgram()
    lp.set_objective(objective)
    lp.add({"y%d" % i: 1 for i in nodes}, 1)
    for j in nodes:
        lp.add(rows[j], 0)
    return lp


@record
class OracleResult:
    """The optimum, an attaining decomposition, and the dual LP's result
    (its ``values`` are the y/z multipliers, its ``duals`` are t then w)."""

    optimum: Fraction
    u: QFunction
    v: QFunction
    lp_result: LPResult


def oracle_dnorm(f: QFunction) -> OracleResult:
    """Exact LP optimum together with an attaining decomposition.

    The re-verification checks u(p) ≤ u(y) and v(p) ≤ v(y) at every limit
    node p for every y in acc(p), not only on the cover.  That is lower
    semicontinuity on a tree presentation, so no separate lsc test runs.
    """
    cover = _cover(f)
    lp = oracle_lp(f, cover)
    res = solve(lp)
    if res.status != "optimal":
        raise InternalCheckError(
            "decomposition LP came back %s" % res.status
        )
    sp = f.space
    fv = f.values
    nodes, edges = cover
    t = res.duals[0]
    u_vals = {}
    v_vals = {}
    for k, i in enumerate(nodes):
        w = res.duals[1 + k]
        fi = fv[i]
        if fi > 0:
            u_vals[i], v_vals[i] = w + fi, w
        else:
            u_vals[i], v_vals[i] = w, w - fi
    u = QFunction(sp, u_vals)
    v = QFunction(sp, v_vals)

    # independent re-verification against the unreduced constraint system,
    # on the value dicts
    problems = []
    if any(val < 0 for val in u_vals.values()) or any(
        val < 0 for val in v_vals.values()
    ):
        problems.append("negativity")
    if any(u_vals[i] - v_vals[i] != fv[i] for i in nodes):
        problems.append("difference")
    for p in sp.limit_nodes():
        up, vp = u_vals[p], v_vals[p]
        if any(up > u_vals[y] or vp > v_vals[y] for y in sp.acc(p)):
            problems.append("monotonicity at %d" % p)
            break
    sup = max(u_vals[i] + v_vals[i] for i in nodes)
    if sup > t:
        problems.append("bound")
    if sup != res.objective:
        problems.append("objective")
    # the dual certificate: multipliers y, z >= 0 that satisfy every dual
    # row and whose objective equals sup(u + v) bound every decomposition
    # from below (weak duality), so the one above is optimal
    mult = res.values
    total = 0  # left-hand side of the row of t
    load = dict.fromkeys(nodes, 0)  # left-hand sides, rows of w
    bound = 0  # dual objective
    for i in nodes:
        y_i = mult["y%d" % i]
        if y_i:
            total += y_i
            load[i] -= 2 * y_i
            bound += abs(fv[i]) * y_i
    for p, y, c in edges:
        z = mult["z%d_%d" % (p, y)]
        if z:
            load[p] -= z
            load[y] += z
            bound -= c * z
    if (
        any(val < 0 for val in mult.values())
        or total > 1
        or any(val > 0 for val in load.values())
    ):
        problems.append("dual feasibility")
    if bound != sup:
        problems.append("duality gap")
    if problems:
        raise InternalCheckError(
            "oracle solution failed re-verification: %s" % ", ".join(problems)
        )
    return OracleResult(res.objective, u, v, res)


@record
class SymmetryReport:
    k: int
    quotient_optimum: Fraction
    unrolled_optimum: Fraction

    @property
    def agree(self) -> bool:
        return self.quotient_optimum == self.unrolled_optimum


# the last quotient symmetry_check solved: (f, a copy of f.values, result).
# Holding f keeps its id from being reused by another function; a reader
# checks one tuple, so racing callers can at worst solve again.
_last_quotient: Optional[tuple[QFunction, dict, OracleResult]] = None


def _quotient(f: QFunction) -> OracleResult:
    global _last_quotient
    last = _last_quotient
    if last is not None and last[0] is f and last[1] == f.values:
        return last[2]
    res = oracle_dnorm(f)
    _last_quotient = (f, dict(f.values), res)
    return res


def symmetry_check(f: QFunction, k: int) -> SymmetryReport:
    """Solve the LP again on unroll(space, k), each copy with its own
    variables, and compare optima with the quotient LP.

    The quotient result is reused from the previous call when f is the
    same object with the same values, so checking one function at
    k = 1, 2, 3 solves its quotient program once; any other function,
    equal values or not, is solved afresh.
    """
    if k not in (1, 2, 3):
        raise PreconditionError("unroll count must be 1, 2 or 3")
    base = _quotient(f)
    big_space, node_map = unroll(f.space, k)
    lifted = lift_function(f, big_space, node_map)
    big = oracle_dnorm(lifted)
    return SymmetryReport(k, base.optimum, big.optimum)
