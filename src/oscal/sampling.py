"""Seeded random instances: spaces, functions, bases, blockings.

Everything here is driven by an explicit random.Random so that a corpus
is a pure function of its seed — test failures replay exactly.  The
defaults match the scale the acceptance checks run at: spaces small
enough that three-fold unrolling stays cheap, function values with small
numerators and denominators so LP pivots stay fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from ._record import record
from .errors import PreconditionError
from .func import QFunction
from .seqlab import NormKind, PolyBasis, PolySpace
from .space import SpaceNode, TreeSpace, unrolled_size

DEFAULT_SEED = 7041982
UNROLL_BUDGET = 80  # nodes after three-fold unrolling


def random_value(
    rng: random.Random, max_numerator: int = 8, max_denominator: int = 4
) -> Fraction:
    return Fraction(
        rng.randint(-max_numerator, max_numerator),
        rng.randint(1, max_denominator),
    )


def _grow_space(rng: random.Random, max_nodes: int, max_rank: int) -> TreeSpace:
    nodes: list[SpaceNode] = []
    next_id = [0]
    budget = [max_nodes]

    def build(rank_budget: int) -> int:
        ident = next_id[0]
        next_id[0] += 1
        budget[0] -= 1
        # a limit node needs at least one recurring child, so it costs
        # at least two nodes; stop branching when the budget is thin
        make_leaf = (
            rank_budget == 0 or budget[0] < 1 or rng.random() < 0.45
        )
        if make_leaf:
            nodes.append(SpaceNode(ident, (), ()))
            return ident
        n_rec = 1 if budget[0] < 3 or rng.random() < 0.7 else 2
        n_pre = 0
        if budget[0] > n_rec and rng.random() < 0.5:
            n_pre = rng.randint(1, min(2, budget[0] - n_rec))
        recurring = tuple(build(rank_budget - 1) for _ in range(n_rec))
        prefix = tuple(
            build(rank_budget - 1)
            for _ in range(n_pre)
            if budget[0] > 0
        )
        nodes.append(SpaceNode(ident, prefix, recurring))
        return ident

    root = build(max_rank)
    return TreeSpace(nodes, root)


def random_space(
    rng: random.Random,
    min_nodes: int = 3,
    max_nodes: int = 6,
    max_rank: int = 3,
    unroll_budget: Optional[int] = UNROLL_BUDGET,
) -> TreeSpace:
    """A valid presented space within the size window, by rejection."""
    for _ in range(10_000):
        space = _grow_space(rng, max_nodes, max_rank)
        if not min_nodes <= len(space) <= max_nodes:
            continue
        if space.validate():
            continue
        if unroll_budget is not None and unrolled_size(space, 3) > unroll_budget:
            continue
        return space
    raise RuntimeError(
        "could not grow a space with %d..%d nodes" % (min_nodes, max_nodes)
    )


def random_qfunction(
    rng: random.Random,
    space: TreeSpace,
    max_numerator: int = 8,
    max_denominator: int = 4,
) -> QFunction:
    return QFunction(
        space,
        {
            i: random_value(rng, max_numerator, max_denominator)
            for i in space.node_ids()
        },
    )


@record
class Corpus:
    """Spaces with functions spread round-robin across them."""

    spaces: tuple[TreeSpace, ...]
    functions: tuple[QFunction, ...]


def build_corpus(
    seed: int = DEFAULT_SEED, n_functions: int = 200
) -> Corpus:
    """Deterministic test corpus: mostly small spaces, a few mid-sized,
    two larger ones, all cheap to unroll three levels."""
    rng = random.Random(seed)
    spaces = []
    for _ in range(38):
        spaces.append(random_space(rng, 3, 6))
    for _ in range(6):
        spaces.append(random_space(rng, 7, 10))
    for _ in range(2):
        spaces.append(random_space(rng, 11, 25))
    functions = tuple(
        random_qfunction(rng, spaces[i % len(spaces)])
        for i in range(n_functions)
    )
    return Corpus(tuple(spaces), functions)


def random_basis(
    rng: random.Random,
    kind: NormKind,
    min_dim: int = 2,
    max_dim: int = 6,
    max_entry: int = 3,
) -> PolyBasis:
    """An independent family spanning its whole space, small exact entries."""
    dim = rng.randint(min_dim, max_dim)
    space = PolySpace(dim, kind)
    while True:
        vectors = tuple(
            tuple(
                Fraction(rng.randint(-max_entry, max_entry), rng.randint(1, 2))
                for _ in range(dim)
            )
            for _ in range(dim)
        )
        try:
            return PolyBasis(space, vectors)
        except PreconditionError:  # dependent; draw again
            continue


def random_blocking(
    rng: random.Random, basis: PolyBasis
) -> tuple[list[list[int]], list[list[Fraction]]]:
    """A random increasing disjoint blocking of 1..n with convex weights."""
    n = basis.size
    positions = list(range(1, n + 1))
    blocks: list[list[int]] = []
    i = 0
    while i < len(positions):
        width = rng.randint(1, min(3, len(positions) - i))
        blocks.append(positions[i : i + width])
        i += width
    # sometimes drop trailing positions entirely (blocks need not cover)
    if len(blocks) > 1 and rng.random() < 0.3:
        blocks = blocks[: rng.randint(1, len(blocks) - 1)]
    weights = []
    for block in blocks:
        raw = [Fraction(rng.randint(0, 4)) for _ in block]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = Fraction(1)
        total = sum(raw)
        weights.append([w / total for w in raw])
    return blocks, weights
