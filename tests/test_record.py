"""The record helper behind the package's value types."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import field_names, replace
from oscal._record import FrozenInstanceError, record


@record
class Pair:
    a: int
    b: tuple = ()


@record
class Twin:
    a: int
    b: tuple = ()


@record
class One:
    a: object


@record
class Checked:
    x: int

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative")
        object.__setattr__(self, "x", self.x * 2)


def test_construction_takes_positions_keywords_and_defaults():
    assert Pair(1, (2,)) == Pair(a=1, b=(2,)) == Pair(1, b=(2,))
    assert Pair(1).b == ()
    assert field_names(Pair) == field_names(Pair(1)) == ("a", "b")
    with pytest.raises(TypeError, match="missing required argument: 'a'"):
        Pair()
    with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
        Pair(1, c=2)
    with pytest.raises(TypeError, match="multiple values for argument 'a'"):
        Pair(1, a=2)
    with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
        Pair(1, 2, 3)


def test_frozen_assignment_and_deletion_raise():
    p = Pair(1)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'a'"):
        p.a = 2
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'a'"):
        del p.a
    with pytest.raises(AttributeError):
        p.other = 3
    assert p == Pair(1)


def test_equality_needs_the_same_class():
    assert Pair(1, (2,)) != Twin(1, (2,))
    assert Pair(1, (2,)) != (1, (2,))
    assert Pair(1, (2,)) != Pair(1, (3,))
    assert One(1) == One(1) and One(1) != One(2)


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(Pair(1, (2,))) == hash((1, (2,)))
    assert hash(One("x")) == hash(("x",))
    with pytest.raises(TypeError):
        hash(One([]))


def test_repr_lists_every_field():
    assert repr(Pair(1, ("x",))) == "Pair(a=1, b=('x',))"
    assert repr(One((1, 2))) == "One(a=(1, 2))"


def test_post_init_runs_and_may_set_fields():
    assert Checked(2).x == 4
    with pytest.raises(ValueError):
        Checked(-1)


def test_post_init_is_looked_up_at_construction(monkeypatch):
    calls = []
    original = Checked.__post_init__

    def counted(self):
        calls.append(self.x)
        original(self)

    monkeypatch.setattr(Checked, "__post_init__", counted)
    assert Checked(3).x == 6
    assert calls == [3]


def test_replace_runs_post_init_and_rejects_unknown_fields():
    p = Pair(1, (2,))
    assert replace(p, b=(5,)) == Pair(1, (5,))
    assert replace(Checked(1), x=5).x == 10
    with pytest.raises(TypeError, match="no field 'c'"):
        replace(p, c=1)


# the standard library's frozen dataclass with Pair's name and fields
ReferencePair = dataclasses.make_dataclass(
    "Pair", [("a", int), ("b", tuple, dataclasses.field(default=()))], frozen=True
)
VALUES = st.integers(-2, 2) | st.text(max_size=2) | st.tuples(st.integers(0, 1))


@given(VALUES, VALUES, VALUES, VALUES)
def test_matches_a_frozen_dataclass(a, b, c, d):
    mine, theirs = (Pair(a, b), Pair(c, d)), (ReferencePair(a, b), ReferencePair(c, d))
    assert [repr(p) for p in mine] == [repr(p) for p in theirs]
    assert [hash(p) for p in mine] == [hash(p) for p in theirs]
    assert (mine[0] == mine[1]) == (theirs[0] == theirs[1])
    assert (mine[0] != mine[1]) == (theirs[0] != theirs[1])
