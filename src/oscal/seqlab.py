"""Finite-dimensional laboratory for basic-sequence arithmetic.

Everything here lives in Q^m under one of three polyhedral norms: the sup
norm, the l1 norm, and the "series" norm max_n |c_1 + ... + c_n|.  A basis
is a linearly independent family b_1..b_n (n <= m); from it we derive the
difference family e_1 = b_1, e_j = b_j - b_{j-1}, the coordinate
functionals, the summing functional, basis projections, and the block
projections that truncate in difference coordinates.

Norms of span functionals are exact optima of rational linear programs
over the span's unit ball.  When the basis spans its whole space (n = m)
the same values come in closed form: a functional's norm is the ambient
dual norm of its extension B^-T gamma, and an operator's norm is the
induced matrix norm of its ambient matrix B M B^-1 (Horn & Johnson,
Matrix Analysis, 5.6).  A basis of a proper subspace takes the max of
one span-functional LP per dual vertex of the ambient ball.  The choice
follows the basis shape alone; tests pad square bases with a zero
coordinate to cross-check the two paths.  All the linear algebra is one
exact row reduction; a square basis reduces against B^T once, for B^-T,
and its functional and operator norms multiply by that.

The identity/bound checks at the bottom are finite-stage statements: they
certify the matrix algebra and the numeric bounds at dimension n, nothing
asymptotic.
"""

from __future__ import annotations

import enum
import itertools
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from ._record import record
from .errors import (
    InternalCheckError,
    PreconditionError,
    ResourceCapError,
)
from .rationals import rat
from .simplex import LinearProgram, solve

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]  # tuple of rows

SIGN_ENUMERATION_CAP = 12


class NormKind(enum.Enum):
    SUP = "sup"
    L1 = "l1"
    SE = "se"


def _vec(entries: Iterable) -> Vector:
    return tuple(rat(x) for x in entries)


def _dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _scale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def _zero(n: int) -> Vector:
    return (Fraction(0),) * n


def _unit(n: int, j: int) -> Vector:
    return tuple(Fraction(1 if i == j else 0) for i in range(1, n + 1))


@record
class PolySpace:
    """Q^dim with one of the three polyhedral norms."""

    dim: int
    kind: NormKind

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise PreconditionError("space dimension must be at least 1")

    def norm(self, z: Sequence) -> Fraction:
        v = _vec(z)
        if len(v) != self.dim:
            raise PreconditionError(
                "vector has length %d, space has dimension %d"
                % (len(v), self.dim)
            )
        if self.kind is NormKind.SUP:
            return max(abs(x) for x in v)
        if self.kind is NormKind.L1:
            return sum((abs(x) for x in v), Fraction(0))
        best = Fraction(0)
        run = Fraction(0)
        for x in v:
            run += x
            best = max(best, abs(run))
        return best

    def dual_vertices(self) -> list[Vector]:
        """Extreme points of the dual unit ball, as coordinate functionals.

        sup -> ± coordinate functionals; l1 -> all sign vectors (hence the
        dimension cap, which binds only for operator norms on non-square
        bases and for wuc_norm/duc_norm); series norm -> ± partial-sum
        functionals.
        """
        m = self.dim
        if self.kind is NormKind.SUP:
            verts = [_unit(m, j) for j in range(1, m + 1)]
        elif self.kind is NormKind.L1:
            if m > SIGN_ENUMERATION_CAP:
                raise ResourceCapError(
                    "sign-vector enumeration needs 2^%d functionals "
                    "(cap is dimension %d)" % (m, SIGN_ENUMERATION_CAP)
                )
            return [
                tuple(Fraction(s) for s in signs)
                for signs in itertools.product((1, -1), repeat=m)
            ]
        else:
            verts = [
                tuple(Fraction(1 if i <= p else 0) for i in range(1, m + 1))
                for p in range(1, m + 1)
            ]
        return verts + [_scale(Fraction(-1), v) for v in verts]

    def dual_norm(self, psi: Sequence) -> Fraction:
        """Norm of the ambient functional z -> sum psi_i z_i."""
        v = _vec(psi)
        if len(v) != self.dim:
            raise PreconditionError("functional length does not match space")
        if self.kind is NormKind.SUP:
            return sum((abs(x) for x in v), Fraction(0))
        if self.kind is NormKind.L1:
            return max(abs(x) for x in v)
        total = Fraction(0)
        for i in range(self.dim):
            nxt = v[i + 1] if i + 1 < self.dim else Fraction(0)
            total += abs(v[i] - nxt)
        return total


# --- small exact linear algebra (module-private) ---


def _row_reduce(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a rational matrix, and its pivot columns."""
    a = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = Fraction(1) / a[top][col]
        a[top] = [x * inv for x in a[top]]
        for r in range(len(a)):
            if r != top and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[top])]
        pivots.append(col)
    return a, pivots


def _solve(a: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence]) -> Matrix:
    """The unique X with a X = rhs, for a of full column rank; all three
    matrices are given as rows."""
    n = len(a[0])
    red, pivots = _row_reduce([tuple(r) + tuple(s) for r, s in zip(a, rhs)])
    if pivots != list(range(n)):  # unreachable for the systems built here
        raise InternalCheckError("singular or inconsistent exact solve")
    return tuple(tuple(row[n:]) for row in red[:n])


@record
class PolyBasis:
    """Linearly independent b_1..b_n in a PolySpace, n <= dim."""

    space: PolySpace
    vectors: tuple[Vector, ...]

    def __post_init__(self) -> None:
        vecs = tuple(_vec(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        if not vecs:
            raise PreconditionError("basis needs at least one vector")
        if len(vecs) > self.space.dim:
            raise PreconditionError(
                "%d vectors cannot be independent in dimension %d"
                % (len(vecs), self.space.dim)
            )
        for v in vecs:
            if len(v) != self.space.dim:
                raise PreconditionError("basis vector length mismatch")
        if len(_row_reduce(vecs)[1]) != len(vecs):
            raise PreconditionError("basis vectors are linearly dependent")

    @property
    def size(self) -> int:
        return len(self.vectors)

    @cached_property
    def transpose_inverse(self) -> Matrix:
        """B^-T as rows, for a square basis (columns of B are the b_j): the
        unique X with B^T X = I, solved once per basis."""
        n = self.size
        return _solve(self.vectors, [_unit(n, j) for j in range(1, n + 1)])

    def combine(self, coeffs: Sequence) -> Vector:
        """The ambient vector sum_j c_j b_j."""
        cs = _vec(coeffs)
        if len(cs) != self.size:
            raise PreconditionError("coefficient length mismatch")
        out = [Fraction(0)] * self.space.dim
        for c, b in zip(cs, self.vectors):
            if c:
                for i, x in enumerate(b):
                    if x:
                        out[i] += c * x
        return tuple(out)


@record
class SpanFunctional:
    """Functional on span(b_j), acting by sum c_j b_j -> sum gamma_j c_j."""

    basis: PolyBasis
    gamma: Vector

    def __post_init__(self) -> None:
        g = _vec(self.gamma)
        object.__setattr__(self, "gamma", g)
        if len(g) != self.basis.size:
            raise PreconditionError("coefficient row length mismatch")


def _norm_rows(space: PolySpace, combo: dict[str, Vector], lp: LinearProgram,
               tag: str) -> None:
    """Add rows expressing ||sum_v combo[v]*v|| <= 1 to the program.

    combo maps LP variable names to ambient vectors (the vector the
    variable multiplies).  For the l1 norm this introduces auxiliary
    variables a_i >= |coordinate_i| with sum a_i <= 1.
    """
    m = space.dim
    if space.kind is NormKind.SUP:
        for i in range(m):
            row = {v: vec[i] for v, vec in combo.items() if vec[i]}
            lp.add(dict(row), 1)
            lp.add({v: -c for v, c in row.items()}, 1)
    elif space.kind is NormKind.SE:
        prefix = {v: Fraction(0) for v in combo}
        for i in range(m):
            for v, vec in combo.items():
                prefix[v] += vec[i]
            row = {v: c for v, c in prefix.items() if c}
            lp.add(dict(row), 1)
            lp.add({v: -c for v, c in row.items()}, 1)
    else:
        aux = ["a%s_%d" % (tag, i) for i in range(m)]
        for i in range(m):
            row = {v: vec[i] for v, vec in combo.items() if vec[i]}
            lp.add({**row, aux[i]: -1}, 0)
            lp.add({**{v: -c for v, c in row.items()}, aux[i]: -1}, 0)
        lp.add({a: 1 for a in aux}, 1)


def _maximize(space: PolySpace, what: str, objective: dict[str, Fraction],
              blocks: list[tuple[str, dict[str, Vector]]]) -> Fraction:
    """The ``what`` program: max sum_c objective[c] c over coefficients c
    of either sign with ||sum_c combo[c] c|| <= 1 for each (tag, combo).

    The kernel's variables are nonnegative, so c is c+ - c-.  The objective
    declares c+ then c- for every coefficient, in its order, before any row
    (a zero cost still gets a column); a block maps c+ to c's vector and
    c- to the negated vector."""
    costs = {}
    for c, g in objective.items():
        costs[c + "+"], costs[c + "-"] = g, -g
    lp = LinearProgram()
    lp.set_objective(costs)
    for tag, combo in blocks:
        signed = {}
        for c, vec in combo.items():
            signed[c + "+"] = vec
            signed[c + "-"] = _scale(Fraction(-1), vec)
        _norm_rows(space, signed, lp, tag)
    res = solve(lp)
    if res.status != "optimal":
        raise InternalCheckError("%s program was %s" % (what, res.status))
    return res.objective


def functional_norm(f: SpanFunctional) -> Fraction:
    """Exact norm of f on the span's unit ball.

    Square bases: solve B^T psi = gamma and take the ambient dual norm of
    psi; that functional extends f to the whole space with the same
    restriction, and on a spanning basis restriction loses nothing.
    Otherwise: maximize gamma . c subject to ||sum c_j b_j|| <= 1.
    """
    basis = f.basis
    n = basis.size
    if n == basis.space.dim:
        # psi = B^-T gamma solves (B^T psi)_j = b_j . psi = gamma_j
        psi = [_dot(row, f.gamma) for row in basis.transpose_inverse]
        return basis.space.dual_norm(psi)
    cvars = ["c%d" % j for j in range(1, n + 1)]
    return _maximize(
        basis.space, "functional-norm", dict(zip(cvars, f.gamma)),
        [("", dict(zip(cvars, basis.vectors)))],
    )


def summing_functional(basis: PolyBasis) -> SpanFunctional:
    return SpanFunctional(basis, (Fraction(1),) * basis.size)


def difference_sequence(basis: PolyBasis) -> PolyBasis:
    """e_1 = b_1, e_j = b_j - b_{j-1}; spans the same subspace."""
    vecs = [basis.vectors[0]]
    for j in range(1, basis.size):
        vecs.append(_sub(basis.vectors[j], basis.vectors[j - 1]))
    return PolyBasis(basis.space, tuple(vecs))


def _operator_norm(basis: PolyBasis, coord_matrix: Matrix) -> Fraction:
    """Norm of the span operator T whose basis-coordinate matrix is given.

    Square bases: T is the ambient matrix A = B M B^-1 (columns of B are
    the b_j), and its norm is the induced matrix norm (Horn & Johnson,
    Matrix Analysis, 5.6): the largest l1 norm of a column for l1, the
    largest absolute row sum for sup, and for the series norm the sup
    rule on S A S^-1 with S the partial-sum matrix, i.e. the largest
    dual norm of a row of S A.
    Otherwise: for each dual vertex phi, phi∘T is the span functional
    with row gamma_j = phi(T b_j); the norm is the max of their norms.
    """
    images = [basis.combine(col) for col in zip(*coord_matrix)]  # T b_j
    space = basis.space
    if basis.size == space.dim:
        # B^T A^T = (B M)^T, whose rows are the images T b_j
        columns = _mat_mul(basis.transpose_inverse, images)
        if space.kind is NormKind.L1:
            return max(space.norm(col) for col in columns)
        rows = list(zip(*columns))
        if space.kind is NormKind.SE:
            rows = list(itertools.accumulate(rows, _add))
        return max(space.dual_norm(row) for row in rows)
    best = Fraction(0)
    for phi in space.dual_vertices():
        gamma = tuple(_dot(phi, img) for img in images)
        best = max(best, functional_norm(SpanFunctional(basis, gamma)))
    return best


def _truncation_matrix(n: int, k: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j and i <= k else 0) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def projection_norm(basis: PolyBasis, k: int) -> Fraction:
    """Norm of the basis projection onto the first k coordinates."""
    if not 1 <= k <= basis.size:
        raise PreconditionError("projection index out of range")
    return _operator_norm(basis, _truncation_matrix(basis.size, k))


def basis_constant(basis: PolyBasis) -> Fraction:
    return max(projection_norm(basis, k) for k in range(1, basis.size + 1))


def wuc_norm(space: PolySpace, vectors: Sequence[Sequence]) -> Fraction:
    """max over dual vertices phi of sum_j |phi(x_j)|."""
    vecs = [_vec(v) for v in vectors]
    for v in vecs:
        if len(v) != space.dim:
            raise PreconditionError("vector length does not match space")
    if not vecs:
        return Fraction(0)
    return max(
        sum((abs(_dot(phi, v)) for v in vecs), Fraction(0))
        for phi in space.dual_vertices()
    )


def duc_norm(space: PolySpace, vectors: Sequence[Sequence]) -> Fraction:
    """wuc norm of the difference family, with y_0 = 0."""
    vecs = [_vec(v) for v in vectors]
    prev = _zero(space.dim)
    diffs = []
    for v in vecs:
        diffs.append(_sub(v, prev))
        prev = v
    return wuc_norm(space, diffs)


# --- identity and bound report ---


@record
class IdentityReport:
    checks: dict[str, bool]
    lambda_: Fraction
    summing_norm: Fraction
    coefficient_norms: tuple[Fraction, ...]
    block_projection_norms: tuple[Fraction, ...]
    sup_basis_norm: Fraction

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, row by row; zero entries of either factor add nothing."""
    out = []
    for row in a:
        acc = [Fraction(0)] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def _outer(col: Vector, row: Vector) -> Matrix:
    return tuple(tuple(c * r for r in row) for c in col)


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def check_identities(basis: PolyBasis) -> IdentityReport:
    """Certify the difference-family algebra at this finite stage.

    Exact matrix identities, all in basis coordinates:
      difference_biorthogonal_rows  row_n(W) = ones - sum_{i<n} delta_i,
                                    W = change to difference coordinates
      block_projection_recursion    Q_k = P_{k-1} + e_k* (x) b_k
      projection_recovery           P_k = Q_{k+1} - e_{k+1}* (x) b_{k+1}
      biorthogonal_differences      b_j* = e_j* - e_{j+1}*
    Numeric bounds with lambda = basis constant, s = summing functional:
      coefficient_functional_bound  max_n ||e_n*|| <= ||s|| (1 + lambda)
      block_projection_bound        max_k ||Q_k|| <= lambda
                                      + (1 + lambda) ||s|| max_k ||b_k||
    """
    n = basis.size
    if n < 2:
        raise PreconditionError("identity report needs at least two vectors")
    diff = difference_sequence(basis)
    # W: basis coordinates -> difference coordinates, column j = coords of
    # b_j, so W solves D W = B with the e_j and b_j as columns of D and B
    w = _solve(tuple(zip(*diff.vectors)), tuple(zip(*basis.vectors)))
    w_inv = _solve(w, [_unit(n, j) for j in range(1, n + 1)])

    checks: dict[str, bool] = {}
    checks["difference_biorthogonal_rows"] = all(
        w[i] == tuple(Fraction(1 if j >= i else 0) for j in range(n))
        for i in range(n)
    )
    # Q_k = W^-1 P_k W, the block projections in basis coordinates
    q = {
        k: _mat_mul(w_inv, _mat_mul(_truncation_matrix(n, k), w))
        for k in range(1, n + 1)
    }
    checks["block_projection_recursion"] = all(
        q[k] == _mat_add(
            _truncation_matrix(n, k - 1), _outer(_unit(n, k), w[k - 1])
        )
        for k in range(1, n + 1)
    )
    checks["projection_recovery"] = all(
        _truncation_matrix(n, k)
        == _mat_sub(q[k + 1], _outer(_unit(n, k + 1), w[k]))
        for k in range(1, n)
    )
    checks["biorthogonal_differences"] = all(
        _sub(w[j - 1], w[j]) == _unit(n, j) for j in range(1, n)
    )

    lam = basis_constant(basis)
    s_norm = functional_norm(summing_functional(basis))
    coeff_norms = tuple(
        functional_norm(SpanFunctional(basis, w[i])) for i in range(n)
    )
    checks["coefficient_functional_bound"] = max(coeff_norms) <= s_norm * (
        1 + lam
    )
    block_norms = tuple(_operator_norm(basis, q[k]) for k in range(1, n + 1))
    sup_b = max(basis.space.norm(b) for b in basis.vectors)
    checks["block_projection_bound"] = max(block_norms) <= lam + (
        1 + lam
    ) * s_norm * sup_b

    return IdentityReport(
        checks=checks,
        lambda_=lam,
        summing_norm=s_norm,
        coefficient_norms=coeff_norms,
        block_projection_norms=block_norms,
        sup_basis_norm=sup_b,
    )


# --- convex blocks ---


@record
class ConvexBlocks:
    vectors: tuple[Vector, ...]
    rho: tuple[Vector, ...]  # difference-coordinate rows, full length


def convex_block(
    basis: PolyBasis,
    partition: Sequence[Sequence[int]],
    weights: Sequence[Sequence],
) -> ConvexBlocks:
    """Convex combinations u_i = sum_{j in block_i} w_j b_j.

    Blocks are 1-based position sets, pairwise disjoint and increasing
    (max of one block below min of the next); weights are nonnegative and
    sum to 1 on each block.  Alongside the block vectors this returns
    their difference-coordinate rows rho^i (tails of the weights), checks
    that representation exactly, and checks that blocking cannot increase
    the duc norm.
    """
    n = basis.size
    if len(partition) != len(weights):
        raise PreconditionError("one weight row per block, please")
    if not partition:
        raise PreconditionError("need at least one block")
    prev_max = 0
    blocks: list[list[int]] = []
    wrows: list[list[Fraction]] = []
    for block, wrow in zip(partition, weights):
        idx = sorted(int(j) for j in block)
        if not idx:
            raise PreconditionError("empty block")
        if idx[0] <= prev_max:
            raise PreconditionError("blocks must be increasing and disjoint")
        if idx[-1] > n or idx[0] < 1:
            raise PreconditionError("block position out of range")
        if len(set(idx)) != len(idx):
            raise PreconditionError("repeated position inside a block")
        if len(wrow) != len(block):
            raise PreconditionError("weight row length mismatch")
        order = sorted(range(len(block)), key=lambda t: int(block[t]))
        ws = [rat(wrow[t]) for t in order]
        if any(x < 0 for x in ws):
            raise PreconditionError("weights must be nonnegative")
        if sum(ws) != 1:
            raise PreconditionError("weights on a block must sum to 1")
        prev_max = idx[-1]
        blocks.append(idx)
        wrows.append(ws)

    diff = difference_sequence(basis)
    out_vecs = []
    out_rho = []
    for idx, ws in zip(blocks, wrows):
        coeffs = [Fraction(0)] * n
        for j, lam in zip(idx, ws):
            coeffs[j - 1] = lam
        u = basis.combine(coeffs)
        # rho_k = sum of weights at positions >= k: 1 up to the block's
        # start, sliding tail across it, 0 beyond.
        rho = []
        for k in range(1, n + 1):
            rho.append(
                sum(
                    (lam for j, lam in zip(idx, ws) if j >= k),
                    Fraction(0),
                )
            )
        rho_t = tuple(rho)
        if diff.combine(rho_t) != u:
            raise InternalCheckError(
                "difference-coordinate representation failed"
            )
        out_vecs.append(u)
        out_rho.append(rho_t)

    if duc_norm(basis.space, out_vecs) > duc_norm(basis.space, basis.vectors):
        raise InternalCheckError("blocking increased the duc norm")
    return ConvexBlocks(tuple(out_vecs), tuple(out_rho))


# --- coefficient-ceiling value ---


def eps_cc_value(
    basis: PolyBasis, zero_positions: Iterable[int], j0: int
) -> Fraction:
    """How large one coefficient can get with some others pinned to zero.

    With (e_j) the difference family of the basis: maximize c_{j0} over
    all c vanishing on zero_positions with ||sum_{j<=n} c_j e_j|| <= 1
    for every stage n up to the basis size.  The feasible region is
    symmetric, so the + and - optima coincide; the value is a stage-n
    lower bound for the asymptotic quantity it models, not the quantity
    itself.
    """
    n = basis.size
    zeros = {int(z) for z in zero_positions}
    if not all(1 <= z <= n for z in zeros):
        raise PreconditionError("zero position out of range")
    if not 1 <= j0 <= n:
        raise PreconditionError("target position out of range")
    if j0 in zeros:
        raise PreconditionError("target coefficient is pinned to zero")
    diff = difference_sequence(basis)
    live = [j for j in range(1, n + 1) if j not in zeros]
    blocks = []
    for stage in range(1, n + 1):
        combo = {"c%d" % j: diff.vectors[j - 1] for j in live if j <= stage}
        if combo:
            blocks.append(("s%d" % stage, combo))
    return _maximize(
        basis.space, "coefficient-ceiling",
        {"c%d" % j: int(j == j0) for j in live}, blocks,
    )
