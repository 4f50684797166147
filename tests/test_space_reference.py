"""The preorder-run queries of ``oscal.space`` against the recursive walks
they replaced (``reference_space``): validation messages, subtree, acc,
acc_cover, rank, descend_path, unrolled_size and unroll must agree exactly,
unroll down to its fresh node ids, node order and node map."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_space
from oscal.errors import OscalError
from oscal.sampling import build_corpus
from oscal.space import SpaceNode, TreeSpace, descend_path, unroll, unrolled_size

CORPUS_SPACES = [sp for seed in range(3) for sp in build_corpus(seed).spaces]


def outcome(call, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return call(*args)
    except OscalError as exc:
        return type(exc), str(exc)


def unrolled(call, space, k):
    got = outcome(call, space, k)
    if isinstance(got[0], type):
        return got
    new, node_map = got
    return new.root, list(new.nodes.items()), list(node_map.items())


def assert_same(space):
    ref = reference_space.RecursiveSpace(space)
    assert space.validate() == ref.validate()
    if ref.validate():
        return
    ids = space.node_ids()
    for i in ids:
        assert space.subtree(i) == ref.subtree(i)
        assert space.rank(i) == ref.rank(i)
        assert outcome(space.acc, i) == outcome(ref.acc, i)
        assert outcome(space.acc_cover, i) == outcome(ref.acc_cover, i)
        for j in ids:
            assert outcome(descend_path, space, i, j) == outcome(
                reference_space.descend_path, ref, i, j
            )
    assert space.rank() == ref.rank()
    for k in range(4):
        assert unrolled_size(space, k) == reference_space.unrolled_size(ref, k)
        assert unrolled(unroll, space, k) == unrolled(
            reference_space.unroll, ref, k
        )


@pytest.mark.parametrize("index", range(len(CORPUS_SPACES)))
def test_corpus_spaces_match_the_recursive_walks(index):
    assert_same(CORPUS_SPACES[index])


@st.composite
def trees(draw):
    """Random trees under shuffled ids.  Most draws give each node with
    prefix children a recurring pattern; the rest stay invalid and
    exercise validation alone."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(3, n + 3)))
    children = {i: ([], []) for i in range(n)}
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        children[parent][draw(st.integers(0, 1))].append(i)
    if draw(st.integers(0, 4)):
        for prefix, recurring in children.values():
            if prefix and not recurring:
                recurring.append(prefix.pop())
    nodes = [
        SpaceNode(ids[i], tuple(ids[c] for c in p), tuple(ids[c] for c in r))
        for i, (p, r) in children.items()
    ]
    return TreeSpace(draw(st.permutations(nodes)), ids[0])


@st.composite
def tables(draw):
    """Arbitrary node tables: cycles, repeated children, two parents,
    orphans and a root listed as a child all occur."""
    n = draw(st.integers(1, 7))
    kids = st.lists(st.integers(0, n - 1), max_size=3)
    nodes = [SpaceNode(i, tuple(draw(kids)), tuple(draw(kids))) for i in range(n)]
    return TreeSpace(nodes, draw(st.integers(0, n - 1)))


@given(trees())
def test_random_trees_match_the_recursive_walks(space):
    assert_same(space)


@given(tables())
def test_arbitrary_tables_report_the_same_violations(space):
    assert_same(space)


def test_invalid_tables_report_in_the_same_order():
    def table(rows, root=0):
        return TreeSpace([SpaceNode(i, tuple(p), tuple(r)) for i, p, r in rows], root)

    cases = [
        table([(0, [], [1]), (1, [], [2]), (2, [], [0])]),
        table([(0, [1], [2]), (1, [], [2]), (2, [1], [0])]),
        table([(0, [], [1, 1]), (1, [], [1])]),
        table([(0, [1], []), (1, [], [2]), (2, [], [1]), (5, [], [])]),
        table([(0, [], [1]), (1, [], [])], root=1),
    ]
    for space in cases:
        assert space.validate()
        assert_same(space)


def test_a_prefix_child_may_outrank_its_parent():
    # 1 has rank 1, its prefix child 3 has rank 2, so 0 has rank 3
    space = TreeSpace(
        [
            SpaceNode(0, (), (1,)),
            SpaceNode(1, (3,), (2,)),
            SpaceNode(2),
            SpaceNode(3, (), (4,)),
            SpaceNode(4, (), (5,)),
            SpaceNode(5),
        ],
        0,
    )
    assert [space.rank(i) for i in range(6)] == [3, 1, 0, 2, 1, 0]
    assert_same(space)
