"""The stage formula on rationals, kept as a test oracle.

``final_stage``, ``d_norm`` and ``decompose`` are the package's as they
were before a real f folded on its integer scale D·f: every jump, stage
value and split is a ``Fraction``, the norm reads ``f.abs()``, and the
decomposition's u and v are ``QFunction``s built at once, checked on
f's own scale.  ``Decomposition`` is that result record, with u, v, the
norm and the checks as four fields.  ``test_transfinite_reference``
requires the package's results to equal these.
"""

from __future__ import annotations

from fractions import Fraction

from oscal._record import record
from oscal.errors import InternalCheckError, PreconditionError
from oscal.func import QFunction, _gap, decomposition_problems


def _jump(f: QFunction, kind: str):
    if kind == "osc":
        return lambda y, x: _gap(f(y), f(x), "oscillation step at node %d", x)
    if kind == "v":
        f.require_real("signed oscillation")
        return lambda y, x: f(y) - f(x)
    raise PreconditionError("unknown iteration kind %r" % kind)


def final_stage(f: QFunction, kind: str = "osc") -> QFunction:
    """W(x) = max(0, max over z in acc_cover(x) of max(0, jump(z, x)) + W(z)),
    children first, on rationals."""
    jump = _jump(f, kind)
    zero = Fraction(0)

    def visit(x, cover, w):
        return max([zero] + [max(zero, jump(z, x)) + w[z] for z in cover])

    return QFunction(f.space, f.space.fold_cover(visit))


def d_norm(f: QFunction) -> Fraction:
    """max over nodes of |f| + final oscillation stage."""
    mod, final = f.abs().values, final_stage(f).values
    return max(mod[i] + final[i] for i in mod)


@record
class Decomposition:
    u: QFunction
    v: QFunction
    norm: Fraction
    checks: dict


def decompose(f: QFunction) -> Decomposition:
    """u = (λ − W + f)/2 and v = (λ − W − f)/2, λ the norm."""
    f.require_real("decomposition")
    fv = f.values
    final = final_stage(f).values
    lam = max(abs(x) + final[i] for i, x in fv.items())
    half = Fraction(1, 2)
    u_vals = {i: (lam - final[i] + x) * half for i, x in fv.items()}
    v_vals = {i: (lam - final[i] - x) * half for i, x in fv.items()}
    u, v = QFunction(f.space, u_vals), QFunction(f.space, v_vals)
    problems = decomposition_problems(f.space, fv, u_vals, v_vals)
    checks = {
        "difference": "difference" not in problems,
        "nonnegative": "negativity" not in problems,
        "lower_semicontinuous": not any(p.startswith("monotonicity") for p in problems),
        "sup_norm": max(abs(u_vals[i] + v_vals[i]) for i in fv) == lam,
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise InternalCheckError(
            "decomposition violated %s for the final stage" % ", ".join(bad)
        )
    return Decomposition(u, v, lam, checks)
