"""Earlier forms of the decomposition LP oracle, kept as test oracles.

``primal_lp`` is the program ``oscal.oracle.oracle_lp`` built before it switched to
the dual: minimize t over t ≥ 0 and w ≥ 0, one row ``2·w_i − t ≤ −|f(i)|``
per node and two rows ``w_p − w_y ≤ c`` per cover edge (p, y), one for
each of u and v.  Every node row with f(i) ≠ 0 has a negative right-hand
side, a shape the package's kernel does not take, so it is built as a
:class:`reference_simplex.GeneralProgram` and solved by the two-phase
reference kernel.  ``test_oracle`` requires its optimum to equal
``oracle_dnorm``'s and the (w, t) read from the dual to satisfy every row
of it.

``oracle_lp`` and ``oracle_dnorm`` below are the package's dual oracle as
it was before it computed its cover edges once per call and re-verified
its certificate on plain value dicts, byte for byte; ``test_oracle``
requires the package's results to equal theirs field by field, and its
program to equal theirs with the objective scaled by D, the lcm of the
denominators of f's values.

``symmetry_check`` is the package's symmetry check as it was before it
lifted the quotient certificate: it solves and certifies the whole
decomposition program again on the unrolled presentation.
``test_oracle`` requires the package's reports to equal its reports.
"""

from __future__ import annotations

from fractions import Fraction

import oscal.oracle
from oscal.errors import InternalCheckError, PreconditionError
from oscal.func import QFunction, lift_function
from oscal.oracle import OracleResult, SymmetryReport
from oscal.simplex import LinearProgram, solve
from oscal.space import unroll
from helpers import is_lsc
from reference_simplex import GeneralProgram


def _pos_part(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


def primal_lp(f: QFunction) -> GeneralProgram:
    """Build the decomposition LP for a real node function.

    Uses the substitution u = f⁺ + w, v = f⁻ + w with w ≥ 0, which is a
    bijection onto feasible decompositions (any feasible v dominates f⁻
    pointwise), and thins the monotonicity rows to the cover of each acc
    set; the dropped rows are implied by transitivity since acc sets are
    downward closed.  Both reductions are re-verified against the original
    constraint system on the reconstructed optimum in oracle_dnorm.
    """
    f.require_real("norm oracle")
    sp = f.space
    sp.require_valid()
    lp = GeneralProgram(minimize=True)
    lp.set_objective({"t": 1})
    for i in sp.node_ids():
        fi = f(i)
        # u(i) + v(i) = |f(i)| + 2 w(i) <= t
        lp.add({"w%d" % i: 2, "t": -1}, "<=", -abs(fi))
    for p in sp.limit_nodes():
        fp = f(p)
        for y in sorted(sp.acc_cover(p)):
            fy = f(y)
            lp.add(
                {"w%d" % p: 1, "w%d" % y: -1},
                "<=",
                _pos_part(fy) - _pos_part(fp),
            )
            lp.add(
                {"w%d" % p: 1, "w%d" % y: -1},
                "<=",
                _pos_part(-fy) - _pos_part(-fp),
            )
    return lp


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


def symmetry_check(f: QFunction, k: int) -> SymmetryReport:
    """Solve the LP again on unroll(space, k), each copy with its own
    variables, and compare its certified optimum with the quotient LP's;
    both programs are solved and certified by the package's oracle."""
    if k not in (1, 2, 3):
        raise PreconditionError("unroll count must be 1, 2 or 3")
    big_space, node_map = unroll(f.space, k)
    lifted = lift_function(f, big_space, node_map)
    return SymmetryReport(
        k,
        oscal.oracle.oracle_dnorm(f).optimum,
        oscal.oracle.oracle_dnorm(lifted).optimum,
    )
