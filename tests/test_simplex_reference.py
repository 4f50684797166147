"""The sparse integer simplex kernel against the dense Fraction tableau it
replaced (``reference_simplex``).  Status, objective, values, duals and
pivot count must agree exactly, so both kernels walk the same Bland path."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_simplex
from reference_oracle import primal_lp
from oscal import seqlab, simplex
from oscal.oracle import lift_function, oracle_lp
from oscal.sampling import build_corpus, random_basis
from oscal.seqlab import NormKind, PolyBasis, PolySpace, check_identities
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


@st.composite
def programs(draw):
    """(minimize, free names, objective, rows) over up to four variables."""
    names = NAMES[: draw(st.integers(1, len(NAMES)))]
    free = draw(st.sets(st.sampled_from(names)))
    objective = {n: draw(small) for n in names}
    row = st.tuples(
        st.dictionaries(st.sampled_from(names), small, max_size=len(names)),
        st.sampled_from(simplex.SENSES),
        small,
    )
    rows = draw(st.lists(row, max_size=6))
    return draw(st.booleans()), sorted(free), objective, rows


def build(spec) -> LinearProgram:
    minimize, free, objective, rows = spec
    lp = LinearProgram(minimize=minimize)
    lp.set_objective(objective)
    lp.make_free(*free)
    for coeffs, sense, rhs in rows:
        lp.add(coeffs, sense, rhs)
    return lp


DEGENERATE = (
    False,
    [],
    {"x": 1, "y": 1},
    [
        ({"x": 1}, "<=", 1),
        ({"x": 1, "y": 1}, "<=", 2),
        ({"x": 2, "y": 2}, "<=", 4),
        ({"x": 1, "y": 2}, "<=", 3),
        ({"x": 1, "y": 1}, "==", 2),
    ],
)
INFEASIBLE = (True, ["y"], {"x": 1}, [({"x": 1, "y": 1}, ">=", 2),
                                      ({"x": 1, "y": 1}, "<=", Fraction(-1, 2))])
UNBOUNDED = (False, ["x"], {"x": -1, "y": 1}, [({"x": 1, "y": -1}, "<=", -2)])


@settings(max_examples=300)
@given(spec=programs())
@example(spec=DEGENERATE)
@example(spec=INFEASIBLE)
@example(spec=UNBOUNDED)
def test_generated_programs_match_reference(spec):
    assert_same(build(spec))


@pytest.mark.parametrize(
    "spec, status",
    [(DEGENERATE, "optimal"), (INFEASIBLE, "infeasible"), (UNBOUNDED, "unbounded")],
)
def test_examples_reach_their_status(spec, status):
    assert assert_same(build(spec)).status == status


# -- oracle programs -------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus0():
    return build_corpus(0)


@pytest.mark.parametrize(
    "builder, k",
    [pytest.param(oracle_lp, k, id=str(k)) for k in range(4)]
    + [pytest.param(primal_lp, k, id="primal-%d" % k) for k in range(4)],
)
def test_oracle_programs_match_reference(corpus0, builder, k):
    """Every quotient (k = 0) and k-fold unrolled decomposition LP, both as
    the dual the oracle solves (no artificials) and as the primal, which
    needs an artificial for every node row with f(i) ≠ 0, so it goes
    through phase 1."""
    for f in corpus0.functions:
        if k:
            space, node_map = unroll(f.space, k)
            f = lift_function(f, space, node_map)
        assert assert_same(builder(f)).status == "optimal"


# -- sequence-basis programs -----------------------------------------------------


@pytest.mark.parametrize("kind", list(NormKind))
def test_identity_programs_match_reference(kind, monkeypatch):
    """Padded bases are not square, so their functional norms are LPs."""
    solved = []

    def checked(lp):
        solved.append(lp)
        return assert_same(lp)

    monkeypatch.setattr(seqlab, "solve", checked)
    rng = random.Random(20261018)
    for dim in (2, 3, 4):
        basis = random_basis(rng, kind, dim, dim)
        padded = PolyBasis(
            PolySpace(dim + 1, kind),
            tuple(v + (Fraction(0),) for v in basis.vectors),
        )
        assert check_identities(padded).all_pass
    assert solved
