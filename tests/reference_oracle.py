"""The original primal decomposition LP, kept as a test oracle.

This is the program ``oscal.oracle.oracle_lp`` built before it switched to
the dual: minimize t over t ≥ 0 and w ≥ 0, one row ``2·w_i − t ≤ −|f(i)|``
per node and two rows ``w_p − w_y ≤ c`` per cover edge (p, y), one for
each of u and v.  Every node row with f(i) ≠ 0 has a negative right-hand
side, a shape the package's kernel does not take, so it is built as a
:class:`reference_simplex.GeneralProgram` and solved by the two-phase
reference kernel.  ``test_oracle`` requires its optimum to equal
``oracle_dnorm``'s and the (w, t) read from the dual to satisfy every row
of it.
"""

from __future__ import annotations

from fractions import Fraction

from oscal.func import QFunction
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
