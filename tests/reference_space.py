"""The recursive tree walks that ``oscal.space`` used before its queries
read one iterative preorder, kept as the differential oracle for them.

``RecursiveSpace`` wraps the node table of a :class:`TreeSpace` and answers
``validate``, ``subtree``, ``acc``, ``rank`` and ``acc_cover`` by the
original recursive definitions; ``descend_path``, ``unrolled_size`` and
``unroll`` are the original module functions over it.  Recursion depth
grows with the tree depth, so only shallow spaces belong here.
"""

from __future__ import annotations

from typing import Optional

from oscal.errors import ResourceCapError, SpaceError
from oscal.space import UNROLL_NODE_CAP, SpaceNode, TreeSpace


class RecursiveSpace:
    def __init__(self, space: TreeSpace):
        self.nodes = dict(space.nodes)
        self.root = space.root
        self._violations: Optional[list[str]] = None
        self._rank: dict[int, int] = {}
        self._subtree: dict[int, frozenset[int]] = {}
        self._acc: dict[int, frozenset[int]] = {}

    def node(self, ident: int) -> SpaceNode:
        try:
            return self.nodes[ident]
        except KeyError:
            raise SpaceError("no node with id %d" % ident) from None

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def validate(self) -> list[str]:
        if self._violations is not None:
            return list(self._violations)
        out: list[str] = []
        parent: dict[int, int] = {}
        for n in self.nodes.values():
            seen_local: set[int] = set()
            for c in n.children():
                if c in seen_local:
                    out.append(
                        "node %d lists child %d more than once" % (n.ident, c)
                    )
                    continue
                seen_local.add(c)
                if c in parent:
                    out.append(
                        "node %d has two parents (%d and %d)"
                        % (c, parent[c], n.ident)
                    )
                else:
                    parent[c] = n.ident
            if n.prefix and not n.recurring:
                out.append(
                    "node %d has children but no recurring pattern" % n.ident
                )
        if self.root in parent:
            out.append("root %d appears as a child" % self.root)
        reached: set[int] = set()
        path: set[int] = set()

        def dfs(i: int) -> None:
            if i in path:
                out.append("cycle through node %d" % i)
                return
            if i in reached:
                return
            reached.add(i)
            path.add(i)
            for c in self.nodes[i].children():
                dfs(c)
            path.discard(i)

        dfs(self.root)
        for i in self.node_ids():
            if i not in reached:
                out.append("node %d unreachable from root" % i)
        self._violations = out
        return list(out)

    def require_valid(self) -> None:
        bad = self.validate()
        if bad:
            raise SpaceError("invalid space: " + "; ".join(bad))

    def subtree(self, ident: int) -> frozenset[int]:
        self.require_valid()
        got = self._subtree.get(ident)
        if got is not None:
            return got
        acc = {ident}
        for c in self.node(ident).children():
            acc |= self.subtree(c)
        got = frozenset(acc)
        self._subtree[ident] = got
        return got

    def acc(self, ident: int) -> frozenset[int]:
        self.require_valid()
        got = self._acc.get(ident)
        if got is not None:
            return got
        n = self.node(ident)
        if n.is_leaf():
            raise SpaceError("node %d is a leaf; nothing accumulates" % ident)
        acc: frozenset[int] = frozenset()
        for t in n.recurring:
            acc |= self.subtree(t)
        self._acc[ident] = acc
        return acc

    def rank(self, ident: Optional[int] = None) -> int:
        if ident is None:
            ident = self.root
        self.require_valid()
        got = self._rank.get(ident)
        if got is not None:
            return got
        n = self.node(ident)
        if n.is_leaf():
            r = 0
        else:
            r = 1 + max(self.rank(y) for y in self.acc(ident))
        self._rank[ident] = r
        return r

    def acc_cover(self, ident: int) -> frozenset[int]:
        full = self.acc(ident)
        dominated: set[int] = set()
        for z in full:
            if not self.node(z).is_leaf():
                dominated |= self.acc(z)
        return frozenset(full - dominated)


def descend_path(space: RecursiveSpace, start: int, target: int) -> list[tuple[str, int]]:
    space.require_valid()
    if target not in space.subtree(start):
        raise SpaceError("node %d not below node %d" % (target, start))

    out: list[tuple[str, int]] = []

    def walk(cur: int) -> bool:
        if cur == target:
            return True
        n = space.node(cur)
        for pos, c in enumerate(n.prefix):
            if target in space.subtree(c):
                out.append(("p", pos))
                return walk(c)
        for pos, t in enumerate(n.recurring):
            if target in space.subtree(t):
                out.append(("r", pos))
                return walk(t)
        return False

    walk(start)
    return out


def unrolled_size(space: RecursiveSpace, k: int, ident: Optional[int] = None) -> int:
    space.require_valid()
    if ident is None:
        ident = space.root
    n = space.node(ident)
    if n.is_leaf():
        return 1
    total = 1
    for c in n.prefix:
        total += unrolled_size(space, k, c)
    for t in n.recurring:
        total += (k + 1) * unrolled_size(space, k, t)
    return total


def unroll(space: RecursiveSpace, k: int) -> tuple[TreeSpace, dict[int, int]]:
    space.require_valid()
    if k < 0:
        raise SpaceError("unroll count must be nonnegative")
    size = unrolled_size(space, k)
    if size > UNROLL_NODE_CAP:
        raise ResourceCapError(
            "unroll would create %d nodes (cap %d)" % (size, UNROLL_NODE_CAP)
        )

    node_map: dict[int, int] = {}
    new_nodes: list[SpaceNode] = []
    counter = max(space.nodes) + 1

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    def spine(orig: int) -> None:
        n = space.node(orig)
        prefix: list[int] = []
        for c in n.prefix:
            spine(c)
            prefix.append(c)
        copies: list[int] = []
        recurring: list[int] = []
        for t in n.recurring:
            for _ in range(k):
                cid = fresh()
                copy(t, cid)
                copies.append(cid)
            spine(t)
            recurring.append(t)
        node_map[orig] = orig
        new_nodes.append(
            SpaceNode(orig, tuple(prefix) + tuple(copies), tuple(recurring))
        )

    def copy(orig: int, new_id: int) -> None:
        n = space.node(orig)
        prefix: list[int] = []
        for c in n.prefix:
            cid = fresh()
            copy(c, cid)
            prefix.append(cid)
        copies: list[int] = []
        recurring: list[int] = []
        for t in n.recurring:
            for _ in range(k):
                cid = fresh()
                copy(t, cid)
                copies.append(cid)
            tid = fresh()
            copy(t, tid)
            recurring.append(tid)
        node_map[new_id] = orig
        new_nodes.append(
            SpaceNode(new_id, tuple(prefix) + tuple(copies), tuple(recurring))
        )

    spine(space.root)
    return TreeSpace(new_nodes, space.root), node_map
