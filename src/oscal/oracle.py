"""Independent norm verification through exact linear programming.

The norm of f is the least sup-norm of u + v over decompositions f = u − v
into nonnegative lower semicontinuous u, v.  On a tree presentation, lower
semicontinuity of a node function is the finite condition "value at a limit
node ≤ value at every accumulating node", so the whole problem is a linear
program over the node values.  Solving it with the exact simplex kernel
gives a value computed by completely different means than the stage
iteration, which is the point: the two must agree to the last bit.

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


def oracle_lp(f: QFunction) -> LinearProgram:
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
    lp = LinearProgram(minimize=True)
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


@dataclass(frozen=True)
class OracleResult:
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
    u_vals = {}
    v_vals = {}
    for i in sp.node_ids():
        w = res.values["w%d" % i]
        fi = f(i)
        v_vals[i] = _pos_part(-fi) + w
        u_vals[i] = v_vals[i] + fi
    u = QFunction(sp, u_vals)
    v = QFunction(sp, v_vals)

    # independent re-verification against the unreduced constraint system
    t = res.values["t"]
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
