"""Finite presentations of countable compact spaces as rooted trees.

A space is a finite rooted tree.  Leaves stand for isolated points.  An
internal node p is a *limit node*: it carries an ordered list of explicit
``prefix`` children (plain points/subspaces sitting next to p, these do not
accumulate anywhere) and an ordered list of ``recurring`` patterns.  Each
recurring pattern is the root of a subtree; the realized space contains one
copy of that subtree for every copy index k = 1, 2, 3, ... and the copies
accumulate exactly at p.  Several patterns at the same node interleave.

Points of the realized space are finite paths from the root: each step either
enters a prefix child (``PrefixStep``) or enters copy k of a recurring
pattern (``RecurringStep``).  A path may stop at any node; stopping at a
limit node is the limit point itself.  A sequence of points entering copies
of p's patterns with copy indices tending to infinity converges to p.

``rank`` measures accumulation depth: leaves have rank 0, a limit node has
rank 1 + the maximal rank over all nodes of its recurring subtrees.  ``acc``
is the set of node classes accumulating at a limit node: every node of every
recurring subtree (prefix children inside those subtrees included).

Structural queries read one depth-first preorder, recorded by ``validate``
without recursion, so they work at any depth.  In that preorder every
subtree is a contiguous run, and since a node lists its recurring patterns
after its prefix children, acc(p) is one run too: from p's first recurring
child to the end of p's subtree.  The cover of acc(p) (its elements that lie
in the acc of no limit node inside acc(p)) has a closed form: the nodes
reached from a recurring child of p by prefix steps alone.  acc(p) is the
union of {z} ∪ acc(z) over its cover, so :meth:`TreeSpace.fold_cover` builds
a quantity over acc sets in one linear pass along cover edges.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Union

from ._record import record
from .errors import ResourceCapError, SpaceError

UNROLL_NODE_CAP = 10_000


@record
class SpaceNode:
    """One node of the presentation tree.

    ``prefix`` and ``recurring`` hold child node ids.  A node with no
    children at all is a leaf (isolated point class).
    """

    ident: int
    prefix: tuple[int, ...] = ()
    recurring: tuple[int, ...] = ()

    def is_leaf(self) -> bool:
        return not self.prefix and not self.recurring

    def children(self) -> tuple[int, ...]:
        return self.prefix + self.recurring


class TreeSpace:
    """A finite rooted tree of :class:`SpaceNode`.

    Construction only checks that the node table is well formed enough to
    traverse (unique ids, root present, child references resolvable).  All
    remaining invariants are reported by :meth:`validate`, so that malformed
    presentations can be loaded and diagnosed rather than rejected opaquely.
    """

    def __init__(self, nodes: Iterable[SpaceNode], root: int):
        table: dict[int, SpaceNode] = {}
        for n in nodes:
            if n.ident in table:
                raise SpaceError("duplicate node id %d" % n.ident)
            table[n.ident] = n
        if root not in table:
            raise SpaceError("root id %d not among nodes" % root)
        for n in table.values():
            for c in n.children():
                if c not in table:
                    raise SpaceError(
                        "node %d references unknown child %d" % (n.ident, c)
                    )
        self.nodes = table
        self.root = root
        self._violations: Optional[list[str]] = None
        # filled by validate(): the depth-first preorder from the root,
        # each node's position in it, the end of its subtree's run there
        # and each limit node's acc cover
        self._order: list[int] = []
        self._pos: dict[int, int] = {}
        self._end: dict[int, int] = {}
        self._cover: dict[int, list[int]] = {}
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}

    # -- basic access ------------------------------------------------------

    def node(self, ident: int) -> SpaceNode:
        try:
            return self.nodes[ident]
        except KeyError:
            raise SpaceError("no node with id %d" % ident) from None

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def is_leaf(self, ident: int) -> bool:
        return self.node(ident).is_leaf()

    def limit_nodes(self) -> list[int]:
        return [i for i in self.node_ids() if not self.nodes[i].is_leaf()]

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeSpace):
            return NotImplemented
        return self.root == other.root and self.nodes == other.nodes

    def __repr__(self) -> str:
        return "TreeSpace(%d nodes, root=%d)" % (len(self.nodes), self.root)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[str]:
        """Return all invariant violations, [] iff the presentation is valid.

        Checked: every node has at most one parent, no cycles, every node is
        reachable from the root, and every node with children has at least
        one recurring pattern (otherwise nothing accumulates at it and it
        would not present a limit point).
        """
        if self._violations is not None:
            return list(self._violations)
        out: list[str] = []
        parent = self._parent
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
        # reachability and cycle detection by one DFS from the root, which
        # also records the preorder, where each subtree's run ends, and the
        # acc cover each node joins: a recurring child joins its parent's, a
        # prefix child the one its parent joined
        order, pos, end, owner = self._order, self._pos, self._end, {}
        on_path = {self.root}
        pos[self.root] = 0
        order.append(self.root)
        stack = [(self.root, iter(self.nodes[self.root].children()))]
        while stack:
            i, kids = stack[-1]
            c = next(kids, None)
            if c is None:
                stack.pop()
                on_path.discard(i)
                end[i] = len(order)
            elif c in on_path:
                out.append("cycle through node %d" % c)
            elif c not in pos:
                up = i if c in self.nodes[i].recurring else owner.get(i)
                if up is not None:
                    owner[c] = up
                    self._cover.setdefault(up, []).append(c)
                pos[c] = len(order)
                order.append(c)
                on_path.add(c)
                stack.append((c, iter(self.nodes[c].children())))
        for i in self.node_ids():
            if i not in pos:
                out.append("node %d unreachable from root" % i)
        self._violations = out
        return list(out)

    def require_valid(self) -> None:
        bad = self._violations
        if bad is None:
            bad = self.validate()
        if bad:
            raise SpaceError("invalid space: " + "; ".join(bad))

    # -- structure ---------------------------------------------------------

    def _span(self, ident: int) -> tuple[int, int]:
        """Where the subtree of ``ident`` runs in the preorder: [lo, hi)."""
        self.require_valid()
        self.node(ident)
        return self._pos[ident], self._end[ident]

    def _limit(self, ident: int) -> SpaceNode:
        self.require_valid()
        n = self.node(ident)
        if n.is_leaf():
            raise SpaceError("node %d is a leaf; nothing accumulates" % ident)
        return n

    def subtree(self, ident: int) -> frozenset[int]:
        """All node ids of the subtree rooted at ``ident`` (inclusive)."""
        lo, hi = self._span(ident)
        return frozenset(self._order[lo:hi])

    def acc(self, ident: int) -> frozenset[int]:
        """Node classes accumulating at a limit node.

        Every node of every recurring subtree, transitively; the prefix
        children of ``ident`` itself are excluded (they do not accumulate).
        Raises for leaves, which have no accumulation.
        """
        n = self._limit(ident)
        return frozenset(self._order[self._pos[n.recurring[0]]:self._end[ident]])

    def in_acc(self, ident: int, y: int) -> bool:
        """Whether y lies in acc(ident), read from the preorder in constant
        time; False at a leaf and for ids the space does not have."""
        self.require_valid()
        n = self.nodes.get(ident)
        if n is None or not n.recurring or y not in self._pos:
            return False
        return self._pos[n.recurring[0]] <= self._pos[y] < self._end[ident]

    def rank(self, ident: Optional[int] = None) -> int:
        """Accumulation rank: 0 at leaves, else 1 + max rank over acc.

        Rank falls strictly along acc, and acc(x) is the union of
        {z} ∪ acc(z) over the cover, so the max over acc is one over the
        cover."""
        if ident is None:
            ident = self.root
        self.require_valid()
        self.node(ident)
        if not self._rank:
            self._rank.update(self.fold_cover(
                lambda x, cover, r: 1 + max(r[z] for z in cover) if cover else 0
            ))
        return self._rank[ident]

    def acc_cover(self, ident: int) -> frozenset[int]:
        """Maximal elements of acc(ident) under y-accumulates-below-z.

        These are the nodes reached from a recurring child of ``ident`` by
        prefix steps alone: a second recurring step puts a node in the acc
        of a limit node inside acc(ident).  So acc(ident) is the union of
        {z} ∪ acc(z) over the cover, and a transitive condition such as
        u(ident) ≤ u(y) on acc follows from it on all cover edges.
        """
        self._limit(ident)
        return frozenset(self._cover[ident])

    def fold_cover(self, visit: Callable[[int, Iterable[int], dict], object]) -> dict:
        """out[x] = visit(x, acc_cover(x) or () at a leaf, out), children
        first: reversed preorder puts each node after its subtree.  A node
        lies in at most one cover, so the pass is linear."""
        self.require_valid()
        out: dict = {}
        for x in reversed(self._order):
            out[x] = visit(x, self._cover.get(x, ()), out)
        return out


# -- point references --------------------------------------------------------


@record
class PrefixStep:
    child: int  # position in the prefix tuple


@record
class RecurringStep:
    pattern: int  # position in the recurring tuple
    copy: int  # copy index, >= 1


Step = Union[PrefixStep, RecurringStep]


@record
class PointRef:
    """A point of the realized space: a finite path of steps from the root."""

    steps: tuple[Step, ...] = ()

    def extend(self, *more: Step) -> "PointRef":
        return PointRef(self.steps + tuple(more))


def walk(space: TreeSpace, point: PointRef) -> Iterator[tuple[Step, int]]:
    """(step, node id it enters) along the path, from the root; raises
    ``SpaceError`` at the first step the space does not have."""
    space.require_valid()
    cur = space.root
    for i, s in enumerate(point.steps):
        n = space.nodes[cur]
        if isinstance(s, PrefixStep):
            if not 0 <= s.child < len(n.prefix):
                raise SpaceError(
                    "step %d: node %d has no prefix child %d"
                    % (i, cur, s.child)
                )
            cur = n.prefix[s.child]
        else:
            if not 0 <= s.pattern < len(n.recurring):
                raise SpaceError(
                    "step %d: node %d has no recurring pattern %d"
                    % (i, cur, s.pattern)
                )
            if s.copy < 1:
                raise SpaceError("step %d: copy index must be >= 1" % i)
            cur = n.recurring[s.pattern]
        yield s, cur


def resolve(space: TreeSpace, point: PointRef) -> int:
    """Node id reached by following the path; raises on malformed paths."""
    cur = space.root
    for _, cur in walk(space, point):
        pass
    return cur


def descend_path(space: TreeSpace, start: int, target: int) -> list[tuple[str, int]]:
    """Tree path from node ``start`` down to node ``target`` as a list of
    (slot, position) pairs, slot being "p" or "r".  Raises if target is not
    in the subtree of start."""
    lo, hi = space._span(start)
    if not lo <= space._pos.get(target, -1) < hi:
        raise SpaceError("node %d not below node %d" % (target, start))
    out: list[tuple[str, int]] = []
    cur = target
    while cur != start:
        up = space.nodes[space._parent[cur]]
        if cur in up.prefix:
            out.append(("p", up.prefix.index(cur)))
        else:
            out.append(("r", up.recurring.index(cur)))
        cur = up.ident
    out.reverse()
    return out


def point_at(space: TreeSpace, target: int, copy_index: int = 1) -> PointRef:
    """Canonical realization of a node: follow the tree path from the root,
    taking ``copy_index`` at every recurring step."""
    steps: list[Step] = []
    for slot, pos in descend_path(space, space.root, target):
        if slot == "p":
            steps.append(PrefixStep(pos))
        else:
            steps.append(RecurringStep(pos, copy_index))
    return PointRef(tuple(steps))


# -- unrolling ---------------------------------------------------------------


def unrolled_size(space: TreeSpace, k: int) -> int:
    """Node count of unroll(space, k) without building it."""
    space.require_valid()
    size: dict[int, int] = {}
    for i in reversed(space._order):
        n = space.nodes[i]
        size[i] = (
            1
            + sum(size[c] for c in n.prefix)
            + (k + 1) * sum(size[t] for t in n.recurring)
        )
    return size[space.root]


def unroll(space: TreeSpace, k: int) -> tuple[TreeSpace, dict[int, int]]:
    """Materialize k copies of every recurring pattern as prefix children.

    Every limit node keeps its recurring tail, and additionally gains, for
    each of its patterns in order, k deep copies of the (already unrolled)
    pattern subtree as new prefix children appended after the existing
    prefix children.  Copy c corresponds to copy index c of the pattern.

    Returns the new space together with a map sending every new node id to
    the original node it represents; original ids are preserved and map to
    themselves.  Raises :class:`ResourceCapError` beyond 10_000 nodes.
    """
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

    def frame(orig: int, new_id: int, keep: bool):
        """Work for one unrolled node: its children as (original, keeps
        original ids, slot) with slot 0 prefix, 1 copy, 2 recurring.  The
        original spine keeps its ids; copies get fresh ones throughout."""
        n = space.nodes[orig]
        kids = [(c, keep, 0) for c in n.prefix]
        for t in n.recurring:
            kids += [(t, False, 1)] * k + [(t, keep, 2)]
        return orig, new_id, iter(kids), ([], [], [])

    stack = [frame(space.root, space.root, True)]
    while stack:
        orig, new_id, kids, slots = stack[-1]
        kid = next(kids, None)
        if kid is None:
            stack.pop()
            node_map[new_id] = orig
            new_nodes.append(
                SpaceNode(new_id, tuple(slots[0] + slots[1]), tuple(slots[2]))
            )
            continue
        child, keep, slot = kid
        if keep:
            cid = child
        else:
            cid = counter
            counter += 1
        slots[slot].append(cid)
        stack.append(frame(child, cid, keep))
    return TreeSpace(new_nodes, space.root), node_map


# -- canonical presentations -------------------------------------------------


def chain_space(depth: int) -> TreeSpace:
    """The depth-fold accumulation chain: node i recurs node i+1, node
    ``depth`` is the single leaf.  depth=0 is the one-point space."""
    if depth < 0:
        raise SpaceError("depth must be nonnegative")
    nodes = [
        SpaceNode(i, (), (i + 1,) if i < depth else ())
        for i in range(depth + 1)
    ]
    return TreeSpace(nodes, 0)
