"""LP oracle: independent norm computation and symmetry probes."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oscal.oracle
from helpers import is_lsc, replace
from oscal.errors import InternalCheckError, PreconditionError
from oscal.func import QFunction, lift_function
from oscal.oracle import oracle_dnorm, oracle_lp, symmetry_check
from oscal.sampling import build_corpus, random_space
from oscal.simplex import solve
from oscal.space import SpaceNode, TreeSpace, chain_space, unroll
from oscal.transfinite import d_norm, decompose
import reference_oracle
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


def with_duals(res, duals):
    """The kernel's integer answer ``res`` with the rationals ``duals`` as
    its duals: its objective and the duals over the lcm of their
    denominators."""
    objective = F(res.num, res.den)
    den = math.lcm(objective.denominator, *(d.denominator for d in duals))
    return replace(
        res,
        den=den,
        num=objective.numerator * (den // objective.denominator),
        dual_nums=[d.numerator * (den // d.denominator) for d in duals],
    )


def test_lowered_w_fails_reverification(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def lowered(lp):
        res = real_solve(lp)
        duals = list(res.duals)
        k = max(range(1, len(duals)), key=duals.__getitem__)
        assert duals[k] > 0
        duals[k] -= min(duals[k], F(1, 2))
        return with_duals(res, duals)

    monkeypatch.setattr(oscal.oracle, "solve", lowered)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert "re-verification" in str(err.value)
    assert "monotonicity" in str(err.value) or "objective" in str(err.value)


def test_raised_w_at_a_limit_node_fails_monotonicity(f2, monkeypatch):
    # u and v rise at the limit node 1 above the leaf 2 in acc(1): neither
    # is lower semicontinuous, and the monotonicity check must name the node
    real_solve = oscal.oracle.solve
    nodes = f2.space.node_ids()

    def raised(lp):
        res = real_solve(lp)
        nums = list(res.dual_nums)
        nums[1 + nodes.index(1)] += res.den
        return replace(res, dual_nums=nums)

    monkeypatch.setattr(oscal.oracle, "solve", raised)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert "monotonicity at 1" in str(err.value)


def test_two_broken_limit_nodes_name_the_lower_id(f2, monkeypatch):
    # w raised at the limit nodes 0 and 1 breaks monotonicity at both; the
    # children-first pass meets node 1 first, and the lower id is named
    real_solve = oscal.oracle.solve
    nodes = f2.space.node_ids()

    def raised(lp):
        res = real_solve(lp)
        nums = list(res.dual_nums)
        for i in (0, 1):
            nums[1 + nodes.index(i)] += 5 * res.den
        return replace(res, dual_nums=nums)

    monkeypatch.setattr(oscal.oracle, "solve", raised)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert "monotonicity at 0" in str(err.value)
    assert "monotonicity at 1" not in str(err.value)


def test_infeasible_multipliers_fail_reverification(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def overweight(lp):
        res = real_solve(lp)
        basic = dict(res.basic)
        k = f2.space.node_ids().index(f2.space.root)  # the column of y_root
        num, den = basic.get(k, (0, 1))
        basic[k] = (num + den, den)  # breaks the row of column t
        return replace(res, basic=basic)

    monkeypatch.setattr(oscal.oracle, "solve", overweight)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert "dual feasibility" in str(err.value)


def test_suboptimal_multipliers_fail_reverification(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def zero_multipliers(lp):
        # feasible for every dual row, but their objective 0 proves nothing
        return replace(real_solve(lp), basic={})

    monkeypatch.setattr(oscal.oracle, "solve", zero_multipliers)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f2)
    assert str(err.value).endswith("re-verification: duality gap")


# -- the oracle before it shared its cover edges, as a differential oracle -------


def scale(f):
    """D, the lcm of the denominators of f's values: oracle_lp solves D·f."""
    return math.lcm(*(v.denominator for v in f.values.values()))


def reference_names(f):
    """The reference oracle's name for each column of ``oracle_lp(f)``:
    y<i> for the k-th node, then z<p>_<y> for each cover edge."""
    return ["y%d" % i for i in f.space.node_ids()] + [
        "z%d_%d" % edge for edge in reference_oracle._cover_edges(f)
    ]


def assert_matches_reference(f):
    """Same program and same results, field by field, as the oracle that
    computed its cover edges twice and checked through QFunction algebra."""
    names = reference_names(f)

    def renamed(by_column):
        return {names[k]: x for k, x in by_column.items()}

    lp, ref_lp = oracle_lp(f), reference_oracle.oracle_lp(f)
    assert lp.variables == list(range(len(names)))
    assert [names[k] for k in lp.variables] == ref_lp.variables
    assert [(renamed(c), b) for c, b in lp.constraints] == ref_lp.constraints
    assert renamed(lp.objective) == {
        n: scale(f) * c for n, c in ref_lp.objective.items()
    }
    res, ref = oracle_dnorm(f), reference_oracle.oracle_dnorm(f)
    assert res.optimum == ref.optimum
    assert res.u.values == ref.u.values
    assert res.v.values == ref.v.values
    assert renamed(res.lp_result.values) == ref.lp_result.values
    assert res.lp_result.duals == ref.lp_result.duals
    assert res.lp_result.pivots == ref.lp_result.pivots


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_reference_on_corpus(seed):
    for f in build_corpus(seed).functions:
        if f.is_complex():
            continue
        for k in range(4):
            lifted = f
            if k:
                space, node_map = unroll(f.space, k)
                lifted = lift_function(f, space, node_map)
            assert_matches_reference(lifted)


@settings(max_examples=60)
@given(f=drawn_functions())
def test_oracle_matches_reference_on_drawn_functions(f):
    assert_matches_reference(f)


# -- one integer scale: the kernel solves D·f ------------------------------------


def largest_prime_at_most(n):
    """The largest prime p ≤ n, for n ≥ 2."""
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


@st.composite
def coprime_functions(draw):
    """Values p/q with q drawn among the primes up to 10⁶, so D is large."""
    space = random_space(random.Random(draw(st.integers(0, 10**6))), 2, 10)
    values = [
        F(draw(st.integers(-(10**6), 10**6)),
          largest_prime_at_most(draw(st.integers(2, 10**6))))
        for _ in space.node_ids()
    ]
    return QFunction(space, dict(zip(space.node_ids(), values)))


@settings(max_examples=40, deadline=None)
@given(f=coprime_functions())
def test_large_coprime_denominators(f):
    assert oracle_dnorm(f).optimum == d_norm(f)
    assert_matches_reference(f)


@pytest.fixture(scope="module")
def coprime3(k3):
    return QFunction(k3, {0: F(1, 7), 1: F(-2, 11), 2: F(3, 13), 3: F(0)})


def test_program_is_integer(coprime3, corpus0):
    reals = [f for f in corpus0.functions if not f.is_complex()]
    for f in [coprime3] + reals:
        lp = oracle_lp(f)
        assert all(type(c) is int for c in lp.objective.values())
        for coeffs, rhs in lp.constraints:
            assert type(rhs) is int
            assert all(type(c) is int for c in coeffs.values())
    assert scale(coprime3) == 7 * 11 * 13
    y1 = coprime3.space.node_ids().index(1)  # the column of y of node 1
    assert oracle_lp(coprime3).objective[y1] == 2 * 7 * 13


@pytest.mark.parametrize(
    "factor, named",
    [(F(1, 7 * 11 * 13), "bound"), (7 * 11 * 13, "objective")],
    ids=["duals-of-f", "duals-times-D"],
)
def test_duals_on_the_wrong_scale_fail_reverification(
    coprime3, monkeypatch, factor, named
):
    # the kernel's duals are D·t and D·w; read on any other scale they give
    # a decomposition the certificate check refuses
    real_solve = oscal.oracle.solve

    def rescaled(lp):
        res = real_solve(lp)
        return with_duals(res, [d * factor for d in res.duals])

    assert oracle_dnorm(coprime3).optimum == d_norm(coprime3)
    monkeypatch.setattr(oscal.oracle, "solve", rescaled)
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(coprime3)
    assert "re-verification" in str(err.value)
    assert named in str(err.value)


def test_a_half_integer_optimum_passes_reverification(monkeypatch):
    # The stage formula's decomposition is optimal too.  Here its w is a
    # half-integer on the D·f scale (D = 7): fed in as the kernel's duals,
    # with the kernel's own multipliers, it passes the check and comes back.
    shape = [(0, (), (1,)), (1, (3,), (2,)), (2, (), ()), (3, (), (4,)), (4, (), ())]
    space = TreeSpace([SpaceNode(*node) for node in shape], 0)
    f = QFunction(space, {0: 0, 1: 0, 2: 0, 3: 0, 4: F(1, 7)})
    dec = decompose(f)
    point = [dec.norm] + [dec.v(i) - max(-f(i), 0) for i in space.node_ids()]
    assert {(7 * x).denominator for x in point} == {1, 2}
    real_solve = oscal.oracle.solve

    def formula_point(lp):
        return with_duals(real_solve(lp), [7 * x for x in point])

    monkeypatch.setattr(oscal.oracle, "solve", formula_point)
    res = oracle_dnorm(f)
    assert res.optimum == dec.norm == d_norm(f)
    assert res.u.values == dec.u.values and res.v.values == dec.v.values
    assert res.lp_result.duals == point


# -- symmetry_check solves one program per function and lifts its certificate ----


def count_solves(monkeypatch):
    calls = []
    real_solve = oscal.oracle.solve

    def counted(lp):
        calls.append(lp)
        return real_solve(lp)

    monkeypatch.setattr(oscal.oracle, "solve", counted)
    return calls


def fresh(f):
    """A new function object with f's values."""
    return QFunction(f.space, dict(f.values))


def test_symmetry_solves_the_quotient_once_per_function(f2, monkeypatch):
    f, g = fresh(f2), fresh(f2)
    calls = count_solves(monkeypatch)
    for k in (1, 2, 3):
        assert symmetry_check(f, k).agree
    assert len(calls) == 1  # the quotient; the unrolled programs are checked
    oracle_dnorm(g)
    for k in (1, 2, 3):
        assert symmetry_check(g, k).agree
    assert len(calls) == 2  # oracle_dnorm's certificate is lifted


def test_symmetry_alternating_functions_report_their_own_optimum(f2):
    f, g = fresh(f2), f2.scale(3)
    for h in (f, g, f, g, f):
        for k in (1, 2):
            rep = symmetry_check(h, k)
            assert rep.quotient_optimum == oracle_dnorm(h).optimum
            assert rep.agree
    assert oracle_dnorm(f).optimum == 2 and oracle_dnorm(g).optimum == 6


def test_symmetry_solves_a_new_function_with_equal_values(f2, monkeypatch):
    f = fresh(f2)
    symmetry_check(f, 1)
    calls = count_solves(monkeypatch)
    symmetry_check(fresh(f), 1)
    assert len(calls) == 1


def test_symmetry_sees_values_changed_in_place(f2):
    f = fresh(f2)
    assert symmetry_check(f, 1).quotient_optimum == 2
    for i in f.values:
        f.values[i] *= 5
    assert symmetry_check(f, 2).quotient_optimum == 10


def test_patched_solve_still_fails_inside_symmetry_check(f2, monkeypatch):
    real_solve = oscal.oracle.solve

    def zero_multipliers(lp):
        return replace(real_solve(lp), basic={})

    f = fresh(f2)
    symmetry_check(f, 1)  # f's certificate is kept, for f alone
    monkeypatch.setattr(oscal.oracle, "solve", zero_multipliers)
    with pytest.raises(InternalCheckError) as err:
        symmetry_check(fresh(f2), 2)
    assert str(err.value).endswith("re-verification: duality gap")
    with pytest.raises(InternalCheckError) as err:
        oracle_dnorm(f)  # oracle_dnorm never reads the kept certificate
    assert str(err.value).endswith("re-verification: duality gap")


def test_symmetry_check_certifies_without_oracle_dnorm(corpus0, monkeypatch):
    # symmetry_check keeps only the certified optimum: it builds no
    # decomposition and never goes through oracle_dnorm
    reals = [f for f in corpus0.functions if not f.is_complex()]
    optima = [oracle_dnorm(f).optimum for f in reals]

    def refused(f):
        raise AssertionError("symmetry_check called oracle_dnorm")

    monkeypatch.setattr(oscal.oracle, "oracle_dnorm", refused)
    for f, optimum in zip(reals, optima):
        for k in (1, 2, 3):
            rep = symmetry_check(f, k)
            assert (rep.quotient_optimum, rep.unrolled_optimum) == (optimum, optimum)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetry_matches_the_resolving_reference_on_corpus(seed):
    for f in build_corpus(seed).functions:
        if f.is_complex():
            continue
        for k in (1, 2, 3):
            assert symmetry_check(f, k) == reference_oracle.symmetry_check(f, k)


# -- the lifted certificate: mutants the checker must name ------------------------


def lifted_with(monkeypatch, change):
    """Patch the lift so that ``change(big_space, cert)`` alters each
    lifted certificate before it is checked."""
    real_lift = oscal.oracle._lift
    spaces = []

    def patched(cert, node_map):
        lifted = real_lift(cert, node_map)
        return change(spaces[-1], lifted)

    def unroll_kept(space, k):
        out = unroll(space, k)
        spaces.append(out[0])
        return out

    monkeypatch.setattr(oscal.oracle, "_lift", patched)
    monkeypatch.setattr(oscal.oracle, "unroll", unroll_kept)


def check_fails(f, k, named):
    with pytest.raises(InternalCheckError) as err:
        symmetry_check(f, k)
    message = str(err.value)
    assert "re-verification" in message
    assert any(name in message for name in named), message
    return message


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lowered_copy_fails_monotonicity(f2, monkeypatch, k):
    # lower u and v by the same amount at one copy of the leaf 2: u − v = f
    # still holds and sup(u + v) does not grow, but a limit node above the
    # copy is no longer lsc
    big, node_map = unroll(f2.space, k)
    copy = min(
        i for i, o in node_map.items()
        if o == 2 and i not in f2.space.nodes
        and any(big.in_acc(p, i) for p in big.limit_nodes())
    )

    def lowered(space, cert):
        u, v = dict(cert.u), dict(cert.v)
        drop = min(u[copy], v[copy])
        assert drop > 0
        u[copy] -= drop
        v[copy] -= drop
        return replace(cert, u=u, v=v)

    # the lowest limit node with the lowered copy below it in acc
    first = min(p for p in big.limit_nodes() if big.in_acc(p, copy))
    lifted_with(monkeypatch, lowered)
    message = check_fails(fresh(f2), k, ["monotonicity at %d" % first])
    assert message.endswith("re-verification: monotonicity at %d" % first)


def test_moved_multiplier_fails_dual_feasibility(f2, monkeypatch):
    # move each z, with the y of its head's row, to the tail and a copy of
    # the head that is a prefix child of the tail: the same values and rows
    # that still hold, but a pair outside the unrolled acc, where the
    # program has no row, so its term also leaves the objective
    def moved(space, cert):
        y, z = dict(cert.y), {}
        for (p, q), x in cert.z.items():
            outside = [c for c in space.nodes[p].prefix if cert.f[c] == cert.f[q]]
            assert outside and not space.in_acc(p, outside[0])
            z[p, outside[0]] = x
            y[outside[0]] = y.pop(q)
        return replace(cert, y=y, z=z)

    assert oracle_dnorm(f2).lp_result.basic  # there is a multiplier to move
    lifted_with(monkeypatch, moved)
    message = check_fails(fresh(f2), 1, ["dual feasibility"])
    assert message.endswith("re-verification: dual feasibility, duality gap")


def scanned_monotonicity(sp, u, v):
    """The lowest limit node p with u(p) > u(y) or v(p) > v(y) for some y
    in acc(p), by a scan of every acc set, or None."""
    for p in sp.limit_nodes():
        if any(u[p] > u[y] or v[p] > v[y] for y in sp.acc(p)):
            return p
    return None


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    k=st.integers(0, 2),
    values=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1),
)
def test_monotonicity_pass_names_the_scans_node(seed, k, values):
    # any u, v >= 0 on a drawn space, unrolled or not; the certificate is
    # only there to carry them, so its duality gap is not looked at
    sp = unroll(random_space(random.Random(seed), 3, 10), k)[0]
    ids = sp.node_ids()
    u = {i: values[j % len(values)][0] for j, i in enumerate(ids)}
    v = {i: values[j % len(values)][1] for j, i in enumerate(ids)}
    sup = max(u[i] + v[i] for i in ids)
    f = {i: u[i] - v[i] for i in ids}
    cert = oscal.oracle._Certificate(1, f, u, v, sup, sup, 1, {}, {})
    try:
        oscal.oracle._verify(sp, cert)
        problems = []
    except InternalCheckError as err:
        problems = str(err).split("re-verification: ")[1].split(", ")
    first = scanned_monotonicity(sp, u, v)
    expected = [] if first is None else ["monotonicity at %d" % first]
    assert [p for p in problems if p.startswith("monotonicity")] == expected


@pytest.mark.parametrize("k", [1, 3])
def test_dropped_lifted_multiplier_fails(f2, coprime3, monkeypatch, k):
    for f in (f2, coprime3):
        for i in sorted(oscal.oracle._certify(f)[0].y):
            def dropped(space, cert, i=i):
                return replace(cert, y={j: x for j, x in cert.y.items() if j != i})

            with monkeypatch.context() as m:
                lifted_with(m, dropped)
                check_fails(fresh(f), k, ["duality gap", "dual feasibility"])

