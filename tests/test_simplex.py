from fractions import Fraction

import pytest

from oscal.errors import PreconditionError
from oscal.simplex import LinearProgram, solve


def test_small_maximization():
    lp = LinearProgram()
    lp.set_objective({"x": 2, "y": 3})
    lp.add({"x": 1, "y": 1}, 4)
    lp.add({"y": 1}, 3)
    res = solve(lp)
    assert res.status == "optimal"
    assert res.objective == Fraction(11)
    assert res.values == {"x": Fraction(1), "y": Fraction(3)}
    # strong duality on the reported multipliers
    assert res.duals is not None
    assert res.duals[0] * 4 + res.duals[1] * 3 == res.objective


def test_exact_fractional_optimum():
    lp = LinearProgram()
    lp.set_objective({"x": 1})
    lp.add({"x": 3}, 1)
    assert solve(lp).objective == Fraction(1, 3)


def test_unbounded():
    lp = LinearProgram()
    lp.set_objective({"x": 1})
    lp.add({"x": -1}, 1)
    res = solve(lp)
    assert res.status == "unbounded"
    assert (res.objective, res.values, res.duals) == (None, {}, None)


def test_degenerate_problem_terminates():
    # many redundant constraints through the same vertex
    lp = LinearProgram()
    lp.set_objective({"x": 1, "y": 1})
    lp.add({"x": 1}, 1)
    lp.add({"x": 1, "y": 1}, 2)
    lp.add({"x": 2, "y": 2}, 4)
    lp.add({"x": 1, "y": 2}, 3)
    res = solve(lp)
    assert res.status == "optimal"
    assert res.objective == Fraction(2)


def test_negative_rhs_is_refused():
    lp = LinearProgram()
    with pytest.raises(PreconditionError):
        lp.add({"x": -1}, -2)
    with pytest.raises(PreconditionError):
        lp.add({"x": 1}, Fraction(-1, 3))
    assert lp.constraints == [] and lp.variables == []
    lp.add({"x": 1}, 0)  # zero is a right-hand side like any other
    assert lp.constraints == [({"x": Fraction(1)}, Fraction(0))]


def test_variables_are_listed_in_first_seen_order():
    lp = LinearProgram()
    lp.add({"b": 1, "a": 1}, 1)
    lp.set_objective({"c": 1, "a": 2, "d": 0})
    lp.add({"d": 1, "c": 1, "e": 1}, 2)
    assert lp.variables == ["b", "a", "c", "d", "e"]
    lp.variables.append("f")  # a copy
    assert lp.variables == ["b", "a", "c", "d", "e"]


def test_input_guards():
    with pytest.raises(PreconditionError):
        solve(LinearProgram())
    lp = LinearProgram()
    with pytest.raises(TypeError):
        lp.add({"x": 0.5}, 1)
    with pytest.raises(TypeError):
        lp.add({"x": 1}, 0.5)
    with pytest.raises(TypeError):
        lp.add({"w": 1, "x": 0.5}, 1)
    assert lp.variables == [] and lp.constraints == []  # refused rows leave nothing


def test_scaling_keeps_exactness():
    lp = LinearProgram()
    lp.set_objective({("x%d" % i): Fraction(1) for i in range(1, 9)})
    for i in range(1, 9):
        lp.add({"x%d" % i: i}, 1)
    res = solve(lp)
    assert res.objective == sum(Fraction(1, i) for i in range(1, 9))


def test_integer_coefficients_stay_integers():
    lp = LinearProgram()
    lp.set_objective({"x": 2, "y": Fraction(1, 2)})
    lp.add({"x": 1, "y": 3}, 4)
    ((coeffs, rhs),) = lp.constraints
    assert type(rhs) is int
    assert all(type(c) is int for c in coeffs.values())
    assert type(lp.objective["x"]) is int
    assert type(lp.objective["y"]) is Fraction
    with pytest.raises(TypeError):
        lp.add({"x": True}, 1)
    with pytest.raises(TypeError):
        lp.add({"x": 1}, False)
    with pytest.raises(TypeError):
        lp.set_objective({"x": 1.0})


def test_integer_and_fraction_input_solve_alike():
    def program(num):
        # z = zp - zn takes either sign
        lp = LinearProgram()
        lp.set_objective(
            {"x": num(3), "y": num(2), "zp": num(-1), "zn": num(1)}
        )
        lp.add({"x": num(1), "y": num(1)}, num(4))
        lp.add({"x": num(1), "y": num(3)}, num(6))
        lp.add({"x": num(2), "zp": num(-1), "zn": num(1)}, num(5))
        lp.add({"zp": num(1), "zn": num(-1)}, num(0))
        return lp

    res = solve(program(int))
    assert res.status == "optimal"
    assert res == solve(program(Fraction))
    assert all(type(v) is Fraction for v in res.values.values())
    assert all(type(d) is Fraction for d in res.duals)
    assert type(res.objective) is Fraction


def test_result_views_are_exact_fractions():
    lp = LinearProgram()
    lp.add({"b": 1, "a": 2}, 3)
    lp.set_objective({"a": 1, "c": 1, "d": 0})
    lp.add({"c": 1}, 2)
    res = solve(lp)
    assert res.status == "optimal"
    assert res.variables == ["b", "a", "c", "d"]
    assert list(res.values) == ["b", "a", "c", "d"]
    assert res.values == {
        "b": Fraction(0), "a": Fraction(3, 2), "c": Fraction(2), "d": Fraction(0)
    }
    assert res.objective == Fraction(7, 2)
    assert res.duals == [Fraction(1, 2), Fraction(1)]
    scalars = [res.objective, *res.values.values(), *res.duals]
    assert all(type(x) is Fraction for x in scalars)
    # the views read the integer answer: one denominator for the cost row,
    # and the nonzero basic values by column
    assert res.den > 0
    assert res.objective == Fraction(res.num, res.den)
    assert res.duals == [Fraction(x, res.den) for x in res.dual_nums]
    assert set(res.basic) == {1, 2}
    assert all(q > 0 for _, q in res.basic.values())
