from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from oscal.errors import ResourceCapError, SpaceError
from oscal.extraction import FunctionSeq, MovingStep
from oscal.func import QFunction
from oscal.space import (
    PointRef,
    PrefixStep,
    RecurringStep,
    SpaceNode,
    TreeSpace,
    chain_space,
    descend_path,
    point_at,
    resolve,
    unroll,
    unrolled_size,
    walk,
)

spaces = st.sampled_from(helpers.corpus().spaces)


def test_chain_space_shape(k3):
    assert len(k3) == 4
    assert k3.rank() == 3
    assert [k3.rank(i) for i in k3.node_ids()] == [3, 2, 1, 0]
    assert sorted(k3.acc(0)) == [1, 2, 3]
    assert sorted(k3.acc(2)) == [3]
    assert k3.limit_nodes() == [0, 1, 2]
    assert k3.is_leaf(3)
    assert k3.subtree(1) == frozenset({1, 2, 3})


def test_acc_of_leaf_is_an_error(k1):
    with pytest.raises(SpaceError):
        k1.acc(1)


def _space(nodes, root=0):
    return TreeSpace([SpaceNode(i, tuple(p), tuple(r)) for i, p, r in nodes], root)


def test_validate_reports_violations():
    dup = _space([(0, [], [1, 1]), (1, [], [])])
    assert any("more than once" in v for v in dup.validate())

    two_parents = _space([(0, [1], [2]), (1, [], [2]), (2, [], [])])
    assert any("two parents" in v for v in two_parents.validate())

    no_pattern = _space([(0, [1], []), (1, [], [])])
    assert any("no recurring pattern" in v for v in no_pattern.validate())

    root_child = _space([(0, [], [1]), (1, [], [0])])
    msgs = root_child.validate()
    assert any("root 0 appears as a child" in v for v in msgs)

    orphan = _space([(0, [], [1]), (1, [], []), (5, [], [])])
    assert any("unreachable" in v for v in orphan.validate())

    with pytest.raises(SpaceError):
        no_pattern.require_valid()


def test_validate_returns_a_copy_of_the_cached_violations():
    orphan = _space([(0, [], [1]), (1, [], []), (5, [], [])])
    orphan.validate().append("changed by the caller")
    assert orphan.validate() == ["node 5 unreachable from root"]
    with pytest.raises(SpaceError, match="^invalid space: node 5 unreachable from root$"):
        orphan.require_valid()


def test_validate_accepts_the_canonical_chains():
    for d in range(1, 5):
        assert chain_space(d).validate() == []


@given(spaces)
def test_point_at_resolves_to_its_node(space):
    for n in space.node_ids():
        for copy in (1, 3):
            assert resolve(space, point_at(space, n, copy)) == n


@given(spaces)
def test_acc_cover_generates_acc(space):
    for p in space.limit_nodes():
        cover = space.acc_cover(p)
        assert cover <= space.acc(p)
        generated = set()
        for y in cover:
            generated.add(y)
            if not space.is_leaf(y):
                generated |= space.acc(y)
        assert generated == set(space.acc(p))


@given(spaces)
def test_in_acc_is_membership_in_acc(space):
    ids = space.node_ids()
    for p in ids:
        acc = space.acc(p) if p in space.limit_nodes() else frozenset()
        assert {y for y in ids if space.in_acc(p, y)} == acc
    assert not space.in_acc(space.root, max(ids) + 1)
    assert not space.in_acc(max(ids) + 1, space.root)


@given(spaces)
def test_descend_path_walks_to_the_target(space):
    for target in space.node_ids():
        cur = space.root
        for slot, pos in descend_path(space, space.root, target):
            n = space.node(cur)
            cur = n.prefix[pos] if slot == "p" else n.recurring[pos]
        assert cur == target


def test_descend_path_outside_subtree(k3):
    with pytest.raises(SpaceError):
        descend_path(k3, 2, 1)


def test_node_path_lists_every_node_visited(k3):
    p = PointRef((RecurringStep(0, 1), RecurringStep(0, 2)))
    assert helpers.node_path(k3, p) == [0, 1, 2]
    assert resolve(k3, p) == 2
    assert list(walk(k3, p)) == list(zip(p.steps, [1, 2]))


def test_pointref_helpers():
    p = PointRef((RecurringStep(0, 5), RecurringStep(0, 2)))
    assert helpers.max_copy(p) == 5
    assert p.extend(RecurringStep(0, 9)).steps[-1] == RecurringStep(0, 9)


def test_truncate_point_cuts_at_the_threshold(k3):
    # f_j(p) is the limit where p is cut: before its first moving copy >= j
    p = PointRef(tuple(RecurringStep(0, c) for c in (1, 4, 2)))
    f = QFunction(k3, {i: Fraction(i) for i in k3.node_ids()})
    seq = FunctionSeq(f, MovingStep(None))
    assert [seq.eval(j, p) for j in (5, 4, 2, 1)] == [3, 1, 1, 0]
    # copy 2 of the last step is below copy 4 before it: no break there
    assert seq.runs(p) == ([1, 4], [0, 1, 3])
    # nor at a copy equal to an earlier one: the breaks strictly increase
    q = PointRef(tuple(RecurringStep(0, c) for c in (2, 2, 1)))
    assert seq.runs(q) == ([2], [0, 3])
    # a restricted moving set only counts steps entering those patterns;
    # the limit must then be constant, so only the breaks show it
    flat = QFunction(k3, dict.fromkeys(k3.node_ids(), Fraction(0)))
    for moving, breaks in (({3}, [2]), ({2}, [4]), ({2, 3}, [4])):
        seq = FunctionSeq(flat, MovingStep(frozenset(moving)))
        assert seq.runs(p)[0] == breaks


@given(spaces, st.integers(min_value=0, max_value=2))
def test_unroll_is_a_valid_presentation(space, k):
    unrolled, node_map = unroll(space, k)
    assert unrolled.validate() == []
    assert len(unrolled) == unrolled_size(space, k)
    assert unrolled.rank() == space.rank()
    # original ids survive and map to themselves
    for i in space.node_ids():
        assert node_map[i] == i
    # every new node abbreviates some original one
    assert set(node_map.values()) <= set(space.node_ids())


def test_unroll_zero_is_the_identity_shape(k2):
    unrolled, _ = unroll(k2, 0)
    assert len(unrolled) == len(k2)


def test_unroll_respects_the_node_cap():
    with pytest.raises(ResourceCapError):
        unroll(chain_space(8), 3)


def test_unrolled_points_translate_back(k2):
    unrolled, node_map = unroll(k2, 2)
    for nid in unrolled.node_ids():
        up = point_at(unrolled, nid, 1)
        op = helpers.original_point(k2, unrolled, node_map, 2, up)
        assert resolve(k2, op) == node_map[nid]


def test_spaces_compare_by_structure(k2):
    assert k2 == chain_space(2)
    assert k2 != chain_space(3)
