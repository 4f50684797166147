"""LP oracle: independent norm computation and symmetry probes."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oscal.oracle
from oscal.errors import InternalCheckError, PreconditionError
from oscal.func import QFunction, is_lsc
from oscal.oracle import lift_function, oracle_dnorm, oracle_lp, symmetry_check
from oscal.sampling import build_corpus, random_space
from oscal.simplex import solve
from oscal.space import chain_space, unroll
from oscal.transfinite import d_norm
import reference_simplex
from reference_oracle import primal_lp


def test_oracle_matches_known_norms(f1, f2):
    assert oracle_dnorm(f1).optimum == F(2)
    assert oracle_dnorm(f2).optimum == F(2)


def test_oracle_decomposition_is_feasible(f2):
    res = oracle_dnorm(f2)
    assert (res.u - res.v).values == f2.values
    assert is_lsc(res.u) and is_lsc(res.v)
    assert all(v >= 0 for v in res.u.values.values())
    assert all(v >= 0 for v in res.v.values.values())
    assert max((res.u + res.v).values.values()) == res.optimum


def test_oracle_constant_function(k2):
    c = QFunction(k2, {i: F(-5, 2) for i in k2.nodes})
    assert oracle_dnorm(c).optimum == F(5, 2)


def test_oracle_zero(k1):
    z = QFunction(k1, {0: F(0), 1: F(0)})
    res = oracle_dnorm(z)
    assert res.optimum == 0
    assert all(v == 0 for v in res.u.values.values())


def test_oracle_rejects_complex(k1):
    from oscal.rationals import GaussianRational

    g = QFunction(k1, {0: GaussianRational(F(1), F(1)), 1: F(0)})
    with pytest.raises(PreconditionError):
        oracle_dnorm(g)


def test_lp_shape_is_solvable(f2):
    lp = oracle_lp(f2)
    res = solve(lp)
    assert res.status == "optimal"
    assert res.objective == F(2)


def test_lift_function_respects_node_map(f2, k2):
    big, node_map = unroll(k2, 2)
    lifted = lift_function(f2, big, node_map)
    for i in big.nodes:
        assert lifted(i) == f2(node_map[i])
    # original ids keep their values verbatim
    for i in k2.nodes:
        assert lifted(i) == f2(i)


def test_symmetry_report_fields(f2):
    rep = symmetry_check(f2, 2)
    assert rep.k == 2
    assert rep.quotient_optimum == F(2)
    assert rep.unrolled_optimum == F(2)
    assert rep.agree


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symmetry_holds_on_canonical(f2, k):
    assert symmetry_check(f2, k).agree


def test_symmetry_rejects_large_k(f1):
    with pytest.raises(PreconditionError):
        symmetry_check(f1, 4)
    with pytest.raises(PreconditionError):
        symmetry_check(f1, 0)


real_functions = st.sampled_from(
    [f for f in helpers.corpus().functions if not f.is_complex()][:60]
)


@settings(max_examples=25)
@given(f=real_functions)
def test_oracle_agrees_with_stage_formula(f):
    val = d_norm(f)
    assert isinstance(val, F)
    assert oracle_dnorm(f).optimum == val


@settings(max_examples=15)
@given(f=real_functions)
def test_unrolling_never_improves_the_optimum(f):
    rep = symmetry_check(f, 1)
    assert rep.agree


def test_oracle_on_deep_chain():
    sp = chain_space(4)
    f = QFunction(sp, {0: F(1), 1: F(-1), 2: F(1), 3: F(-1), 4: F(1)})
    res = oracle_dnorm(f)
    assert res.optimum == d_norm(f)


# -- the primal program as a differential oracle ---------------------------------


def assert_matches_primal(f):
    """The dual's optimum is the primal's, solved by the two-phase
    reference kernel, and the (t, w) read from the dual's duals satisfy
    every primal row."""
    res = oracle_dnorm(f)
    primal = primal_lp(f)
    assert reference_simplex.solve(primal).objective == res.optimum
    duals = res.lp_result.duals
    point = {"t": duals[0]}
    point.update(("w%d" % i, w) for i, w in zip(f.space.node_ids(), duals[1:]))
    assert point["t"] == res.optimum
    assert all(val >= 0 for val in point.values())
    for coeffs, sense, rhs in primal.constraints:
        assert sense == "<="
        assert sum(c * point[n] for n, c in coeffs.items()) <= rhs


@pytest.fixture(scope="module")
def corpus0():
    return build_corpus(0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_oracle_matches_primal_on_corpus(corpus0, k):
    for f in corpus0.functions:
        if f.is_complex():
            continue
        if k:
            space, node_map = unroll(f.space, k)
            f = lift_function(f, space, node_map)
        assert_matches_primal(f)


@st.composite
def drawn_functions(draw):
    space = random_space(random.Random(draw(st.integers(0, 10**6))), 2, 12)
    values = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=4),
            min_size=len(space),
            max_size=len(space),
        )
    )
    return QFunction(space, dict(zip(space.node_ids(), values)))


@settings(max_examples=60)
@given(f=drawn_functions())
def test_oracle_matches_primal_on_drawn_functions(f):
    assert_matches_primal(f)


# -- the certificate rejects wrong kernel results --------------------------------


def test_lowered_w_fails_reverification(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def lowered(lp):
        res = real_solve(lp)
        duals = list(res.duals)
        k = max(range(1, len(duals)), key=duals.__getitem__)
        assert duals[k] > 0
        duals[k] -= min(duals[k], F(1, 2))
        return dataclasses.replace(res, duals=duals)

    monkeypatch.setattr(oscal.oracle, "solve", lowered)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert "re-verification" in str(err.value)
    assert "monotonicity" in str(err.value) or "objective" in str(err.value)


def test_infeasible_multipliers_fail_reverification(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def overweight(lp):
        res = real_solve(lp)
        values = dict(res.values)
        values["y%d" % f2.space.root] += 1  # breaks the row of column t
        return dataclasses.replace(res, values=values)

    monkeypatch.setattr(oscal.oracle, "solve", overweight)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert "dual feasibility" in str(err.value)


def test_suboptimal_multipliers_fail_reverification(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def zero_multipliers(lp):
        # feasible for every dual row, but their objective 0 proves nothing
        res = real_solve(lp)
        return dataclasses.replace(res, values=dict.fromkeys(res.values, F(0)))

    monkeypatch.setattr(oscal.oracle, "solve", zero_multipliers)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert str(err.value).endswith("re-verification: duality gap")
