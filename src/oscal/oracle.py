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

:func:`oracle_dnorm` reads t and w from the kernel's duals and trusts
neither the kernel nor the reductions: the decomposition is re-verified
against the unreduced constraint system (every y in acc(p), not only the
cover), and the kernel's y/z values are checked to be dual feasible with
an objective equal to sup(u + v).  A feasible primal and a feasible dual
with equal objectives are both optimal by weak duality, so the optimum is
certified in exact arithmetic.

The LP here optimizes over node functions, i.e. decompositions constant on
pattern copies.  :func:`symmetry_check` probes whether allowing copies to
differ could ever pay off, by re-solving on unrolled presentations where
each copy has its own variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, PreconditionError
from .func import QFunction, is_lsc, lift_function
from .simplex import LinearProgram, LPResult, solve
from .space import unroll


def _pos_part(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


def _cover_edges(f: QFunction) -> list[tuple[int, int]]:
    """(p, y) for every limit node p and every y in its acc cover."""
    sp = f.space
    return [(p, y) for p in sp.limit_nodes() for y in sorted(sp.acc_cover(p))]


def _edge_bound(f: QFunction, p: int, y: int) -> Fraction:
    """c_py, the tighter of the u row's bound f⁺(y) − f⁺(p) and the v row's
    bound f⁻(y) − f⁻(p) on w_p − w_y."""
    fp, fy = f(p), f(y)
    return min(_pos_part(fy) - _pos_part(fp), _pos_part(-fy) - _pos_part(-fp))


def oracle_lp(f: QFunction) -> LinearProgram:
    """Build the dual decomposition LP for a real node function.

    Variables ``y<i>`` (one per node, the multiplier of its row
    t − 2·w_i ≥ |f(i)|) and ``z<p>_<y>`` (one per cover edge, the
    multiplier of its merged row w_p − w_y ≤ c_py), all nonnegative.  Row 0
    is the column of t, row 1 + k the column of w for the k-th node in
    ``node_ids()`` order, so the kernel's duals are (t, w) in that order.
    The cover thinning is exact because acc sets are downward closed, and
    oracle_dnorm re-verifies the reconstructed optimum against the original
    constraint system.
    """
    f.require_real("norm oracle")
    sp = f.space
    sp.require_valid()
    nodes = sp.node_ids()
    edges = _cover_edges(f)
    objective = {"y%d" % i: abs(f(i)) for i in nodes}
    rows = {j: {"y%d" % j: -2} for j in nodes}
    for p, y in edges:
        z = "z%d_%d" % (p, y)
        objective[z] = -_edge_bound(f, p, y)
        rows[p][z] = -1
        rows[y][z] = 1
    lp = LinearProgram()
    lp.set_objective(objective)
    lp.add({"y%d" % i: 1 for i in nodes}, 1)
    for j in nodes:
        lp.add(rows[j], 0)
    return lp


@dataclass(frozen=True)
class OracleResult:
    """The optimum, an attaining decomposition, and the dual LP's result
    (its ``values`` are the y/z multipliers, its ``duals`` are t then w)."""

    optimum: Fraction
    u: QFunction
    v: QFunction
    lp_result: LPResult


def oracle_dnorm(f: QFunction) -> OracleResult:
    """Exact LP optimum together with an attaining decomposition."""
    lp = oracle_lp(f)
    res = solve(lp)
    if res.status != "optimal":
        raise InternalCheckError(
            "decomposition LP came back %s" % res.status
        )
    sp = f.space
    t = res.duals[0]
    u_vals = {}
    v_vals = {}
    for k, i in enumerate(sp.node_ids()):
        w = res.duals[1 + k]
        fi = f(i)
        v_vals[i] = _pos_part(-fi) + w
        u_vals[i] = v_vals[i] + fi
    u = QFunction(sp, u_vals)
    v = QFunction(sp, v_vals)

    # independent re-verification against the unreduced constraint system
    problems = []
    if any(val < 0 for val in u.values.values()) or any(
        val < 0 for val in v.values.values()
    ):
        problems.append("negativity")
    if (u - v).values != f.values:
        problems.append("difference")
    if not (is_lsc(u) and is_lsc(v)):
        problems.append("semicontinuity")
    for p in sp.limit_nodes():
        if any(u(p) > u(y) or v(p) > v(y) for y in sp.acc(p)):
            problems.append("monotonicity at %d" % p)
            break
    sup = max((u + v).values.values())
    if sup > t:
        problems.append("bound")
    if sup != res.objective:
        problems.append("objective")
    # the dual certificate: multipliers y, z >= 0 that satisfy every dual
    # row and whose objective equals sup(u + v) bound every decomposition
    # from below (weak duality), so the one above is optimal
    mult = res.values
    total = 0  # left-hand side of the row of t
    load = dict.fromkeys(sp.node_ids(), 0)  # left-hand sides, rows of w
    bound = 0  # dual objective
    for i in load:
        y_i = mult["y%d" % i]
        if y_i:
            total += y_i
            load[i] -= 2 * y_i
            bound += abs(f(i)) * y_i
    for p, y in _cover_edges(f):
        z = mult["z%d_%d" % (p, y)]
        if z:
            load[p] -= z
            load[y] += z
            bound -= _edge_bound(f, p, y) * z
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


@dataclass(frozen=True)
class SymmetryReport:
    k: int
    quotient_optimum: Fraction
    unrolled_optimum: Fraction

    @property
    def agree(self) -> bool:
        return self.quotient_optimum == self.unrolled_optimum


def symmetry_check(f: QFunction, k: int) -> SymmetryReport:
    """Solve the LP again on unroll(space, k), each copy with its own
    variables, and compare optima with the quotient LP."""
    if k not in (1, 2, 3):
        raise PreconditionError("unroll count must be 1, 2 or 3")
    base = oracle_dnorm(f)
    big_space, node_map = unroll(f.space, k)
    lifted = lift_function(f, big_space, node_map)
    big = oracle_dnorm(lifted)
    return SymmetryReport(k, base.optimum, big.optimum)
