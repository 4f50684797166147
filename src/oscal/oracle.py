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
their bounds D·c_py are computed once per certified program, as
``int``s; the program reads them all, and its certificate check reads the
same D·f and recomputes the bound of each pair it uses.  The program is the
dual above for D·f, so every coefficient the kernel sees is an ``int``,
and each variable is named by its column, so the kernel keeps the program
as it is built.  Its constraints do not involve f and only its objective
is scaled, by D > 0: every reduced cost keeps its sign, so Bland's
entering choices and the ratio tests, hence the pivot path and the y/z
multipliers, are those of the program for f, while its objective and its
(t, w) duals are D times f's.

The certificate is checked by one private checker, :func:`_verify`,
which trusts neither the kernel nor the reductions.  :func:`_certify`
reads t and w from the kernel's duals and hands them to it with the
kernel's y/z multipliers.  The decomposition is re-verified against the
unreduced constraint system: u and v must be monotone from every limit
node p to all of acc(p), not only along the cover.  The multipliers must
be dual feasible, each z on an acc pair with its bound c_py recomputed
from f, and their objective must equal sup(u + v).  A feasible primal
and a feasible dual with equal objectives are both optimal by weak
duality, so the optimum is certified in exact arithmetic.  Everything is
read from the kernel's integer answer: with d the cost row's
denominator, the duals' numerators are d·D·t and d·D·w, so u and v are
checked as d·D·u and d·D·v, and the multipliers, each a (numerator,
denominator) pair, over the lcm of their denominators.
:func:`oracle_dnorm` builds fractions only for what :class:`OracleResult`
returns, in f's units: the optimum, u and v over d·D, and the kernel's
result with d·D as its denominator, so its objective and duals are f's
without a fraction per dual.

The LP here optimizes over node functions, i.e. decompositions constant
on pattern copies.  :func:`symmetry_check` confirms that letting copies
differ never pays, on unrolled presentations where each copy is a node
of its own, and it needs no second solve: the certificate of f's program
is a certificate on every presentation of the same space.  The norm is
defined on the space K.  Let u, v ≥ 0 be lsc on K with u − v = f, put
w = u − f⁺ = v − f⁻, and let W_i be the sup of w over the points that
realize node i.  Then t = sup(u + v) ≥ |f(i)| + 2·W_i, and lsc gives
W_p − W_y ≤ c_py for every y in acc(p).  So (t, W) is feasible for the
node program, and the program's dual bounds every decomposition on K
from below.  On U = unroll(space, k) the lifted certificate passes the
same checks.  The lifted u and v are monotone on U, because each
recurring subtree of a node of U maps into acc of the node it copies.
The multipliers stay on the original ids, which ``unroll`` keeps: each
of their pairs is an acc pair of U with the same bound, so they satisfy
U's dual rows with the same objective.  Weak duality then certifies that
U's optimum is the quotient's, so per-copy freedom never pays.
``symmetry_check`` does not take this on trust: it runs :func:`_verify`
on U with u, v and f lifted through the node map, in linear time.

:func:`_certify` keeps the last certificate it produced, with f and a
copy of f's values.  ``symmetry_check`` lifts it while it is asked about
the same function object with the same values, and certifies f itself
otherwise, so checking one function at k = 1, 2, 3 solves one program.
:func:`oracle_dnorm` writes that cache but never reads it: every call of
it solves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import record
from .errors import InternalCheckError, PreconditionError
from .func import QFunction, decomposition_problems
from .simplex import LinearProgram, LPResult, solve
from .space import TreeSpace, unroll

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
    because acc sets are downward closed, and _verify re-verifies the
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




@record
class _Certificate:
    """A claimed optimum of the decomposition program on one space, with
    its evidence, all ints: f, u and v by node, t and the optimum, each
    times ``units``; the nonzero multipliers times ``den``, y by node and
    z by acc pair (p, y)."""

    units: int
    f: dict
    u: dict
    v: dict
    t: int
    optimum: int
    den: int
    y: dict
    z: dict


def _verify(sp: TreeSpace, cert: _Certificate) -> None:
    """Raise ``InternalCheckError`` unless ``cert`` certifies its optimum
    on the valid space ``sp``.

    The primal side: ``decomposition_problems``, and sup(u + v) ≤ t and
    equal to the optimum.  The dual side: y, z ≥ 0 with Σ y ≤ 1, every z on
    an acc pair of ``sp`` with its bound c_py recomputed from f, every row
    of w satisfied, and a dual objective equal to sup(u + v).
    """
    f, u, v = cert.f, cert.u, cert.v
    nodes = sp.nodes
    problems = decomposition_problems(sp, f, u, v)
    sup = max(u[i] + v[i] for i in nodes)
    if sup > cert.t:
        problems.append("bound")
    if sup != cert.optimum:
        problems.append("objective")
    # the dual certificate: multipliers y, z >= 0 that satisfy every dual
    # row and whose objective equals sup(u + v) bound every decomposition
    # from below (weak duality), so the one above is optimal.  The sums
    # run over the nonzero multipliers; a multiplier off the program's
    # rows makes it infeasible.
    feasible = True
    load = {}  # left-hand sides of the rows of w that have a multiplier
    total = 0  # left-hand side of the row of t
    bound = 0  # dual objective, times units and den
    for i, x in cert.y.items():
        if i not in nodes:
            feasible = False
            continue
        feasible &= x >= 0
        load[i] = load.get(i, 0) - 2 * x
        total += x
        bound += abs(f[i]) * x
    for (p, y), x in cert.z.items():
        if not sp.in_acc(p, y):
            feasible = False
            continue
        feasible &= x >= 0
        fp, fy = f[p], f[y]
        c = min(max(fy, 0) - max(fp, 0), max(-fy, 0) - max(-fp, 0))
        load[p] = load.get(p, 0) - x
        load[y] = load.get(y, 0) + x
        bound -= c * x
    if not feasible or total > cert.den or any(val > 0 for val in load.values()):
        problems.append("dual feasibility")
    if bound != sup * cert.den:
        problems.append("duality gap")
    if problems:
        raise InternalCheckError(
            "oracle solution failed re-verification: %s" % ", ".join(problems)
        )


# the last certificate _certify produced: (f, a copy of f.values, its
# certificate).  Holding f keeps its id from being reused by another
# function; a reader checks one tuple, so racing callers can at worst
# certify again.
_last_certificate: Optional[tuple[QFunction, dict, _Certificate]] = None


def _certify(f: QFunction) -> tuple[_Certificate, LPResult]:
    """Solve the decomposition program of a real f and check the
    certificate read from the kernel's integer answer with
    :func:`_verify`.  Returns the certificate, which it also keeps as the
    last one, and the kernel's result.

    With d the kernel's denominator and D f's scale, the certificate is on
    the scale d·D: u = f⁺ + w and v = f⁻ + w are d·D·u and d·D·v, and the
    optimum is the result's ``num``.
    """
    global _last_certificate
    cover = _cover(f)
    res = solve(oracle_lp(f, cover))
    if res.status != "optimal":
        raise InternalCheckError(
            "decomposition LP came back %s" % res.status
        )
    scale, nodes, df, edges = cover
    # the duals are D·t and D·w, over d
    d = res.den
    t, *ws = res.dual_nums
    f_vals, u_vals, v_vals = {}, {}, {}
    for i, w in zip(nodes, ws):
        fi = f_vals[i] = d * df[i]
        if fi > 0:
            u_vals[i], v_vals[i] = w + fi, w
        else:
            u_vals[i], v_vals[i] = w, w - fi
    # the multipliers by node and by cover edge, over one denominator
    n = len(nodes)
    basic = res.basic
    den = math.lcm(*(q for _, q in basic.values()))
    ys, zs = {}, {}
    for k, (num, q) in basic.items():
        if k < n:
            ys[nodes[k]] = num * (den // q)
        else:
            p, y, _ = edges[k - n]
            zs[p, y] = num * (den // q)
    cert = _Certificate(d * scale, f_vals, u_vals, v_vals, t, res.num, den, ys, zs)
    _verify(f.space, cert)
    _last_certificate = (f, dict(f.values), cert)
    return cert, res


def oracle_dnorm(f: QFunction) -> OracleResult:
    """Exact LP optimum together with an attaining decomposition, certified
    by :func:`_certify`."""
    cert, res = _certify(f)
    # fractions only for what the result holds, in f's units
    sp = f.space
    units = cert.units
    optimum = Fraction(cert.optimum, units)
    u = QFunction(sp, {i: Fraction(x, units) for i, x in cert.u.items()})
    v = QFunction(sp, {i: Fraction(x, units) for i, x in cert.v.items()})
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


def _lift(cert: _Certificate, node_map: dict[int, int]) -> _Certificate:
    """``cert`` on an unrolled presentation: f, u and v read through the
    node map; t, the optimum and the multipliers, which sit on the
    original ids that ``unroll`` keeps, as they are."""
    f, u, v = cert.f, cert.u, cert.v
    return _Certificate(
        cert.units,
        {i: f[o] for i, o in node_map.items()},
        {i: u[o] for i, o in node_map.items()},
        {i: v[o] for i, o in node_map.items()},
        cert.t, cert.optimum, cert.den, cert.y, cert.z,
    )


def symmetry_check(f: QFunction, k: int) -> SymmetryReport:
    """Certify that on unroll(space, k), where each copy has its own
    variables, the decomposition program has the quotient program's
    optimum.

    No program is solved for it.  f's certificate, lifted through the node
    map, is checked by :func:`_verify` on the unrolled space.  It passes
    because the norm lives on the space, not on its presentation: the
    lifted u and v are monotone on the unrolled space, as each of its
    recurring subtrees maps into acc of the node it copies, and the
    multipliers, kept on the original ids, satisfy its dual rows with the
    same objective.  So weak duality certifies the unrolled optimum, and
    per-copy freedom never pays.  The certificate is the last one
    :func:`_certify` produced when that was for f, the same object with
    the same values (an :func:`oracle_dnorm` call, or the previous
    ``symmetry_check``); any other function, equal values or not, is
    solved and certified afresh.
    """
    if k not in (1, 2, 3):
        raise PreconditionError("unroll count must be 1, 2 or 3")
    last = _last_certificate
    if last is not None and last[0] is f and last[1] == f.values:
        cert = last[2]
    else:
        cert, _ = _certify(f)
    big_space, node_map = unroll(f.space, k)
    _verify(big_space, _lift(cert, node_map))
    optimum = Fraction(cert.optimum, cert.units)
    return SymmetryReport(k, optimum, optimum)
