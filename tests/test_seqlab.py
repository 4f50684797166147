"""Finite-stage basis algebra: norms, identities, blockings, ceilings."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import biorthogonal, field_names, on_coefficients
import oscal.seqlab
from oscal.errors import PreconditionError
from oscal.sampling import random_basis, random_blocking
from oscal.seqlab import (
    SIGN_ENUMERATION_CAP,
    ConvexBlocks,
    IdentityReport,
    NormKind,
    PolyBasis,
    PolySpace,
    basis_constant,
    check_identities,
    convex_block,
    difference_sequence,
    duc_norm,
    eps_cc_value,
    functional_norm,
    projection_norm,
    summing_functional,
    wuc_norm,
)


def units(space):
    n = space.dim
    return PolyBasis(
        space, tuple(tuple(F(1 if i == j else 0) for i in range(n)) for j in range(n))
    )


def partial_sums(space):
    n = space.dim
    return PolyBasis(
        space, tuple(tuple(F(1 if i <= j else 0) for i in range(n)) for j in range(n))
    )


# --- plain norms ---


def test_sup_norm():
    sp = PolySpace(3, NormKind.SUP)
    assert sp.norm([1, -4, 2]) == 4
    assert sp.dual_norm([1, -4, 2]) == 7


def test_l1_norm():
    sp = PolySpace(3, NormKind.L1)
    assert sp.norm([1, -4, 2]) == 7
    assert sp.dual_norm([1, -4, 2]) == 4


def test_series_norm_tracks_partial_sums():
    sp = PolySpace(4, NormKind.SE)
    assert sp.norm([1, -3, 1, 1]) == 2  # partial sums 1, -2, -1, 0
    assert sp.norm([1, 1, 1, 1]) == 4


def test_dual_vertex_counts():
    assert len(PolySpace(3, NormKind.SUP).dual_vertices()) == 6
    assert len(PolySpace(3, NormKind.L1).dual_vertices()) == 8
    assert len(PolySpace(3, NormKind.SE).dual_vertices()) == 6


def test_norm_length_guard():
    sp = PolySpace(3, NormKind.SUP)
    with pytest.raises(PreconditionError):
        sp.norm([1, 2])


# --- canonical bases ---


def test_partial_sum_model(c0=None):
    sp = PolySpace(4, NormKind.SUP)
    basis = partial_sums(sp)
    assert functional_norm(summing_functional(basis)) == 1
    assert basis_constant(basis) == 2
    assert duc_norm(sp, basis.vectors) == 1
    # the difference family of running sums is the unit family
    assert difference_sequence(basis).vectors == units(sp).vectors


def test_partial_sum_identities():
    sp = PolySpace(4, NormKind.SUP)
    rep = check_identities(partial_sums(sp))
    assert rep.all_pass
    assert rep.lambda_ == 2
    assert rep.summing_norm == 1
    assert set(rep.checks) == {
        "difference_biorthogonal_rows",
        "block_projection_recursion",
        "projection_recovery",
        "biorthogonal_differences",
        "coefficient_functional_bound",
        "block_projection_bound",
    }


def test_summing_model_biorthogonals():
    sp = PolySpace(4, NormKind.SE)
    basis = units(sp)
    norms = [functional_norm(f) for f in biorthogonal(basis)]
    assert norms == [F(1), F(2), F(2), F(2)]
    assert basis_constant(basis) == 1


def test_unit_basis_in_sup_is_monotone():
    sp = PolySpace(5, NormKind.SUP)
    basis = units(sp)
    assert basis_constant(basis) == 1
    assert all(projection_norm(basis, k) == 1 for k in range(1, 6))


def test_biorthogonal_pairing():
    sp = PolySpace(3, NormKind.SUP)
    basis = partial_sums(sp)
    for j, f in enumerate(biorthogonal(basis), start=1):
        coeffs = [F(1 if i == j else 0) for i in range(1, 4)]
        assert on_coefficients(f, coeffs) == 1
        coeffs[j - 1] = F(0)
        assert on_coefficients(f, coeffs) == 0


def test_zero_functional_has_zero_norm():
    sp = PolySpace(3, NormKind.SUP)
    basis = units(sp)
    from oscal.seqlab import SpanFunctional

    assert functional_norm(SpanFunctional(basis, (F(0),) * 3)) == 0


def test_wuc_of_shrinking_units():
    sp = PolySpace(4, NormKind.SUP)
    vecs = [
        tuple(F(1, 2 ** j) if i == j else F(0) for i in range(1, 5))
        for j in range(1, 5)
    ]
    assert wuc_norm(sp, vecs) == F(1, 2)
    assert wuc_norm(sp, []) == 0


def test_identities_need_two_vectors():
    sp = PolySpace(2, NormKind.SUP)
    with pytest.raises(PreconditionError):
        check_identities(PolyBasis(sp, ((F(1), F(0)),)))


# --- convex blockings ---


def test_singleton_blocks_reproduce_the_basis():
    sp = PolySpace(3, NormKind.SUP)
    basis = partial_sums(sp)
    cb = convex_block(basis, [[1], [2], [3]], [[1], [1], [1]])
    assert cb.vectors == basis.vectors


def test_halved_blocks_keep_duc_norm():
    sp = PolySpace(4, NormKind.SUP)
    basis = partial_sums(sp)
    cb = convex_block(basis, [[1, 2], [3, 4]], [[F(1, 2)] * 2] * 2)
    assert isinstance(cb, ConvexBlocks)
    assert duc_norm(sp, cb.vectors) == 1
    # rho rows are sliding tails of the weights
    assert cb.rho[0] == (F(1), F(1, 2), F(0), F(0))
    assert cb.rho[1] == (F(1), F(1), F(1), F(1, 2))


def test_block_guards():
    sp = PolySpace(4, NormKind.SUP)
    basis = partial_sums(sp)
    with pytest.raises(PreconditionError):
        convex_block(basis, [[1, 2], [2, 3]], [[F(1, 2)] * 2] * 2)
    with pytest.raises(PreconditionError):
        convex_block(basis, [[1]], [[F(1, 2)]])
    with pytest.raises(PreconditionError):
        convex_block(basis, [[1, 2]], [[F(3, 2), F(-1, 2)]])
    with pytest.raises(PreconditionError):
        convex_block(basis, [], [])
    with pytest.raises(PreconditionError):
        convex_block(basis, [[0, 1]], [[F(1, 2)] * 2])


# --- coefficient ceilings ---


def test_ceiling_in_the_summing_model():
    # running-sum vectors in the series norm: the difference family is the
    # unit family, and a coefficient can swing a partial sum from -1 to 1.
    sp = PolySpace(6, NormKind.SE)
    assert eps_cc_value(partial_sums(sp), {1, 3}, 4) == 2
    assert eps_cc_value(partial_sums(sp), {1, 3}, 2) == 1


def test_ceiling_in_the_sup_model():
    sp = PolySpace(6, NormKind.SUP)
    assert eps_cc_value(partial_sums(sp), {1, 3}, 4) == 1


def test_ceiling_guards():
    sp = PolySpace(4, NormKind.SE)
    basis = units(sp)
    with pytest.raises(PreconditionError):
        eps_cc_value(basis, {1, 2}, 2)
    with pytest.raises(PreconditionError):
        eps_cc_value(basis, {0}, 2)
    with pytest.raises(PreconditionError):
        eps_cc_value(basis, {1}, 9)


# --- sandwich and subsequence bounds ---


def cube_vertices(n):
    out = []
    for mask in range(2 ** n):
        out.append(tuple(F(1 if mask >> i & 1 else -1) for i in range(n)))
    return out


def test_sign_combinations_are_sandwiched():
    sp = PolySpace(4, NormKind.SUP)
    basis = partial_sums(sp)
    rep = check_identities(basis)
    lam_star = max(rep.coefficient_norms)
    diff = difference_sequence(basis)
    big = wuc_norm(sp, diff.vectors)
    for c in cube_vertices(4):
        val = sp.norm(diff.combine(c))
        assert F(1) / lam_star <= val <= big


def test_subsequence_difference_constant_bound():
    sp = PolySpace(6, NormKind.SE)
    base = units(sp)
    for keep in [(1, 3, 5), (2, 4, 6), (1, 2, 4, 5)]:
        sub = PolyBasis(sp, tuple(base.vectors[j - 1] for j in keep))
        beta = functional_norm(summing_functional(sub))
        cap = max(sp.norm(v) for v in sub.vectors)
        got = basis_constant(difference_sequence(sub))
        assert got <= beta + (1 + beta) * beta * cap


# --- randomized coverage ---


kinds = st.sampled_from([NormKind.SUP, NormKind.L1, NormKind.SE])


@settings(max_examples=30)
@given(kind=kinds, seed=st.integers(0, 10 ** 6))
def test_identities_hold_on_random_bases(kind, seed):
    basis = random_basis(random.Random(seed), kind)
    rep = check_identities(basis)
    assert rep.all_pass, rep.checks


@settings(max_examples=30)
@given(kind=kinds, seed=st.integers(0, 10 ** 6))
def test_blocking_never_raises_duc(kind, seed):
    rng = random.Random(seed)
    basis = random_basis(rng, kind)
    blocks, weights = random_blocking(rng, basis)
    cb = convex_block(basis, blocks, weights)
    assert duc_norm(basis.space, cb.vectors) <= duc_norm(
        basis.space, basis.vectors
    )


# --- closed-form operator norms of square bases ---


def test_square_l1_bases_escape_the_sign_cap():
    # l1 dual vertices are the 2^13 sign vectors; a square basis never
    # enumerates them
    sp = PolySpace(13, NormKind.L1)
    assert sp.dim > SIGN_ENUMERATION_CAP
    assert basis_constant(units(sp)) == 1
    assert check_identities(units(sp)).all_pass
    # running sums b_j = e_1 + ... + e_j: P_k keeps e_i = b_i - b_{i-1}
    # for i <= k, kills it for i > k + 1 and sends e_{k+1} to -b_k, whose
    # l1 norm is k; the l1 operator norm is the largest image of an e_i
    basis = partial_sums(sp)
    assert [projection_norm(basis, k) for k in range(1, 14)] == (
        list(range(1, 13)) + [1]
    )
    rep = check_identities(basis)
    assert rep.all_pass
    assert rep.lambda_ == 12
    assert rep.summing_norm == 1


@settings(max_examples=30)
@given(kind=kinds, seed=st.integers(0, 10 ** 6))
def test_square_closed_form_matches_dual_vertex_path(kind, seed):
    # a trailing zero coordinate changes no norm but makes the basis
    # non-square, so the padded report takes the dual-vertex LPs where the
    # square one takes induced matrix norms; l1 stays small (2^(m+1) LPs)
    max_dim = 4 if kind is NormKind.L1 else 5
    basis = random_basis(random.Random(seed), kind, 2, max_dim)
    padded = PolyBasis(
        PolySpace(basis.space.dim + 1, kind),
        tuple(v + (F(0),) for v in basis.vectors),
    )
    square, lp = check_identities(basis), check_identities(padded)
    for name in field_names(IdentityReport):
        assert getattr(square, name) == getattr(lp, name), name


@settings(max_examples=30)
@given(kind=kinds, seed=st.integers(0, 10 ** 6))
def test_transpose_inverse_inverts_the_basis(kind, seed):
    basis = random_basis(random.Random(seed), kind)  # always square
    n = basis.size
    inv = basis.transpose_inverse
    # rows of B^T are the b_j: (B^T X)_ji = b_j . X[:, i]
    for j, b in enumerate(basis.vectors):
        for i in range(n):
            assert sum(b[k] * inv[k][i] for k in range(n)) == (i == j)


def test_square_report_solves_against_the_basis_once(monkeypatch):
    calls = []
    real_solve = oscal.seqlab._solve

    def counted(a, rhs):
        calls.append(len(rhs))
        return real_solve(a, rhs)

    monkeypatch.setattr(oscal.seqlab, "_solve", counted)
    basis = partial_sums(PolySpace(5, NormKind.SE))
    assert check_identities(basis).all_pass
    # W, W^-1, and B^-T once for every projection, block and functional norm
    assert len(calls) == 3
