"""Deep presentations under the interpreter's default recursion limit:
every structural query and the commands that read them walk iteratively,
so a depth-10 000 chain costs time, not stack.  The envelopes, the final
stage and the decomposition read only acc cover edges, so their memory is
linear in the depth too."""

import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

import oscal.cli
from oscal import documents
from oscal.func import QFunction, usc_envelope, zero_function
from oscal.space import (
    UNROLL_NODE_CAP,
    chain_space,
    descend_path,
    point_at,
    resolve,
    unroll,
    unrolled_size,
)
from oscal.transfinite import decompose, final_stage

DEPTH = 10_000


@pytest.fixture(scope="module")
def deep():
    assert sys.getrecursionlimit() < DEPTH
    return chain_space(DEPTH)


def test_deep_chain_structure(deep):
    assert deep.validate() == []
    assert deep.rank() == DEPTH
    assert deep.rank(DEPTH // 2) == DEPTH // 2
    assert deep.subtree(DEPTH - 2) == frozenset({DEPTH - 2, DEPTH - 1, DEPTH})
    assert deep.acc(0) == frozenset(range(1, DEPTH + 1))
    assert deep.acc_cover(0) == frozenset({1})
    assert deep.acc_cover(DEPTH - 1) == frozenset({DEPTH})


def test_deep_chain_paths(deep):
    path = descend_path(deep, 0, DEPTH)
    assert path == [("r", 0)] * DEPTH
    point = point_at(deep, DEPTH, 2)
    assert len(point.steps) == DEPTH
    assert resolve(deep, point) == DEPTH


def test_deep_chain_unrolled_size(deep):
    assert unrolled_size(deep, 0) == DEPTH + 1
    assert unrolled_size(deep, 1) == 2 ** (DEPTH + 1) - 1


def test_unroll_at_the_node_cap():
    space = chain_space(UNROLL_NODE_CAP - 1)
    new, node_map = unroll(space, 0)
    assert new == space
    assert list(node_map) == list(range(UNROLL_NODE_CAP - 1, -1, -1))
    assert new.rank() == UNROLL_NODE_CAP - 1


def test_cli_validates_a_deep_chain(tmp_path, capsys, deep):
    text = documents.dumps(deep)
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert oscal.cli.main(["space", "validate", str(path)]) == 0
    assert capsys.readouterr().out == text


def test_cli_envelope_of_a_deep_alternating_function(tmp_path, capsys):
    space = chain_space(1200)
    f = QFunction(space, {i: Fraction(i % 2) for i in space.node_ids()})
    path = tmp_path / "alt.json"
    path.write_text(documents.dumps(f))
    assert oscal.cli.main(["fn", "envelope", "--kind", "upper", str(path)]) == 0
    assert capsys.readouterr().out == documents.dumps(usc_envelope(f))


@pytest.fixture(scope="module")
def alternating(deep, tmp_path_factory):
    """i % 2 on the depth-10 000 chain, and its document on disk."""
    f = QFunction(deep, {i: Fraction(i % 2) for i in deep.node_ids()})
    path = tmp_path_factory.mktemp("deep") / "alternating.json"
    path.write_text(documents.dumps(f))
    return f, path


@pytest.mark.parametrize("call", [usc_envelope, final_stage, decompose])
def test_deep_chain_memory_is_linear(alternating, call):
    # every acc set of the chain together holds DEPTH²/2 = 5·10⁷ entries
    f, _ = alternating
    tracemalloc.start()
    try:
        call(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_cli_norm_of_a_deep_alternating_function(alternating, capsys):
    _, path = alternating
    assert oscal.cli.main(["fn", "dnorm", "--quiet", str(path)]) == 0
    assert capsys.readouterr().out == "%d\n" % DEPTH


def test_cli_decomposition_of_a_deep_alternating_function(
    alternating, tmp_path, capsys
):
    _, path = alternating
    out = tmp_path / "dec.json"
    assert oscal.cli.main(["fn", "decompose", str(path), "-o", str(out)]) == 0
    text = out.read_text()
    assert capsys.readouterr().out == text
    assert json.loads(text)["norm"] == str(DEPTH)


def test_cli_lower_envelope_of_a_deep_alternating_function(
    deep, alternating, capsys
):
    # both values accumulate at every limit node, and the leaf holds 0
    _, path = alternating
    assert oscal.cli.main(["fn", "envelope", "--kind", "lower", str(path)]) == 0
    assert capsys.readouterr().out == documents.dumps(zero_function(deep))
