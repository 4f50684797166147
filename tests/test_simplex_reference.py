"""The sparse integer simplex kernel against the dense Fraction tableau it
replaced (``reference_simplex``).  Status, objective, values, duals and
pivot count must agree exactly, so both kernels walk the same Bland path."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simplex
from oscal import seqlab, simplex
from oscal.func import lift_function
from oscal.oracle import oracle_lp
from oscal.sampling import build_corpus, random_basis
from oscal.seqlab import (
    NormKind, PolyBasis, PolySpace, check_identities, eps_cc_value,
)
from oscal.simplex import LinearProgram
from oscal.space import unroll


def outcome(res):
    return res.status, res.objective, res.values, res.duals, res.pivots


def assert_same(lp):
    res = simplex.solve(lp)
    assert outcome(res) == outcome(reference_simplex.solve(lp))
    scalars = list(res.values.values()) + list(res.duals or ())
    if res.objective is not None:
        scalars.append(res.objective)
    assert all(type(v) is Fraction for v in scalars)
    return res


# -- small generated programs ---------------------------------------------------

NAMES = ("x", "y", "z", "w")
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
rhs = st.fractions(min_value=0, max_value=3, max_denominator=3)


@st.composite
def programs(draw):
    """(free names, objective, rows) over up to four variables, in the one
    shape the kernel takes: maximize over rows Σ a·x ≤ b with b ≥ 0."""
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    free = draw(st.sets(st.sampled_from(names)))
    objective = {n: draw(small) for n in names}
    row = st.tuples(
        st.dictionaries(st.sampled_from(names), small, max_size=len(names)),
        rhs,
    )
    rows = draw(st.lists(row, max_size=6))
    return sorted(free), objective, rows


def build(spec) -> LinearProgram:
    """The drawn program with each free variable n written n - n~ over two
    nonnegative columns, n~ right after n, so variables of either sign
    stay covered."""
    free, objective, rows = spec

    def signed(coeffs):
        out = {}
        for n, c in coeffs.items():
            out[n] = c
            if n in free:
                out[n + "~"] = -c
        return out

    lp = LinearProgram()
    lp.set_objective(signed(objective))
    for coeffs, b in rows:
        lp.add(signed(coeffs), b)
    return lp


DEGENERATE = (
    [],
    {"x": 1, "y": 1},
    [
        ({"x": 1}, 1),
        ({"x": 1, "y": 1}, 2),
        ({"x": 2, "y": 2}, 4),
        ({"x": 1, "y": 2}, 3),
    ],
)
UNBOUNDED = (["x"], {"x": -1, "y": 1}, [({"x": 1, "y": -1}, 2)])


@settings(max_examples=300)
@given(spec=programs())
@example(spec=DEGENERATE)
@example(spec=UNBOUNDED)
def test_generated_programs_match_reference(spec):
    assert_same(build(spec))


@pytest.mark.parametrize(
    "spec, status", [(DEGENERATE, "optimal"), (UNBOUNDED, "unbounded")]
)
def test_examples_reach_their_status(spec, status):
    assert assert_same(build(spec)).status == status


# -- oracle programs -------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus0():
    return build_corpus(0)


@pytest.mark.parametrize("k", range(4))
def test_oracle_programs_match_reference(corpus0, k):
    """Every quotient (k = 0) and k-fold unrolled dual decomposition LP."""
    for f in corpus0.functions:
        if k:
            space, node_map = unroll(f.space, k)
            f = lift_function(f, space, node_map)
        assert assert_same(oracle_lp(f)).status == "optimal"


# -- sequence-basis programs -----------------------------------------------------


def merged(lp: LinearProgram) -> reference_simplex.GeneralProgram:
    """A seqlab program with each column pair c+, c- merged back into one
    free variable c; every pair must carry opposite coefficients."""

    def merge(coeffs):
        plus = {n[:-1]: c for n, c in coeffs.items() if n.endswith("+")}
        minus = {n[:-1]: -c for n, c in coeffs.items() if n.endswith("-")}
        assert plus == minus
        return {n: c for n, c in coeffs.items() if n[-1] not in "+-"} | plus

    gp = reference_simplex.GeneralProgram(minimize=False)
    gp.make_free(*(n[:-1] for n in lp.variables if n.endswith("+")))
    gp.set_objective(merge(lp.objective))
    for coeffs, rhs in lp.constraints:
        gp.add(merge(coeffs), "<=", rhs)
    return gp


@pytest.mark.parametrize("kind", list(NormKind))
def test_identity_programs_match_reference(kind, monkeypatch):
    """Padded bases are not square, so their functional norms are LPs, and
    coefficient ceilings are LPs on every basis.  Each program matches the
    reference kernel, and so does its optimum over free coefficients."""
    solved = []

    def checked(lp):
        solved.append(lp)
        res = assert_same(lp)
        assert reference_simplex.solve(merged(lp)).objective == res.objective
        return res

    monkeypatch.setattr(seqlab, "solve", checked)
    rng = random.Random(20261018)
    for dim in (2, 3, 4):
        basis = random_basis(rng, kind, dim, dim)
        padded = PolyBasis(
            PolySpace(dim + 1, kind),
            tuple(v + (Fraction(0),) for v in basis.vectors),
        )
        assert check_identities(padded).all_pass
        for b in (basis, padded):
            eps_cc_value(b, [1], dim)
            eps_cc_value(b, [], 1)
    assert solved
