"""Multi-level aggregation trees for distributed queries.

Inspired by Dremel and iMR, PathDump's controller can distribute a query
along a *multi-level aggregation tree*: every interior node executes the
query on its local TIB, forwards query+tree to its children, and merges the
children's partial results before passing a single (reduced) result upward
(Section 3.2).  The evaluation uses a logical 4-level tree over 112 end
hosts: 7 children under the controller, each with 4 children, each of those
with 4 leaves.

:class:`AggregationTree` builds such trees for arbitrary host counts and
exposes the per-level structure the query executor and the response-time
model need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import wire

#: The fan-outs of the paper's 4-level tree (controller -> 7 -> 4 -> 4).
PAPER_TREE_FANOUT = (7, 4, 4)


@dataclass
class TreeNode:
    """One node of the aggregation tree.

    Attributes:
        host: the end host this node runs on (``None`` for the controller
            root, which runs no local query).
        children: child nodes.
        level: 0 for the root (controller), increasing downward.
        spec: the subtree's wire description (its hosts, pre-order), which
            rides next to the query in the request its parent sends.
        spec_len: what ``spec`` adds to that request (0 at the root).
    """

    host: Optional[str]
    children: List["TreeNode"] = field(default_factory=list)
    level: int = 0
    spec: wire.SubtreeSpec = wire.SubtreeSpec("", ())
    spec_len: int = 0

    def descend(self) -> List["TreeNode"]:
        """All nodes of the subtree rooted here (pre-order)."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.descend())
        return nodes


class AggregationTree:
    """A multi-level aggregation tree over a set of end hosts.

    Built in two linear passes - the shape level by level, then one
    pre-order walk naming the hosts and setting every node's ``spec`` and
    ``spec_len`` - and reusable by every query over the same hosts and
    fan-out.  Hosts are named in pre-order, so every subtree is a
    contiguous slice of ``hosts``: a worker group owning a contiguous
    shard folds whole subtrees, and only a subtree straddling a shard
    boundary spans groups.

    Args:
        hosts: the hosts participating in the query.
        fanout: children per node at each level below the controller; the
            last fan-out is reused if the tree needs to be deeper.  Defaults
            to the paper's (7, 4, 4) structure.
    """

    def __init__(self, hosts: Sequence[str],
                 fanout: Sequence[int] = PAPER_TREE_FANOUT) -> None:
        if not hosts:
            raise ValueError("aggregation tree needs at least one host")
        if any(f < 1 for f in fanout):
            raise ValueError("fan-out values must be positive")
        self.hosts = list(hosts)
        self.fanout = tuple(fanout)
        self.root = self._build()
        named = 0
        for child in self.root.children:
            named = self._describe(child, named)[0]
        self.root.spec = wire.SubtreeSpec("", tuple(self.hosts))

    # ------------------------------------------------------------------ build
    def _build(self) -> TreeNode:
        """The tree's shape, built level by level (breadth-first).

        Every tree node (except the controller root) is an end host that both
        executes the query locally and aggregates its children's results, so
        interior levels fill first, each parent taking up to its level's
        fan-out, and the remaining positions become leaves.  The nodes are
        unnamed here; :meth:`_describe` names them in pre-order.
        """
        root = TreeNode(host=None, level=0)
        frontier, placed, level = [root], 0, 0
        while placed < len(self.hosts):
            fanout = self.fanout[min(level, len(self.fanout) - 1)]
            next_frontier: List[TreeNode] = []
            for parent in frontier:
                width = min(fanout, len(self.hosts) - placed)
                parent.children = [TreeNode(host=None, level=level + 1)
                                   for _ in range(width)]
                placed += width
                next_frontier += parent.children
            frontier = next_frontier
            level += 1
        self._depth = level
        return root

    def _describe(self, node: TreeNode, first: int) -> Tuple[int, int]:
        """Name ``node``'s subtree in pre-order from ``hosts[first]`` on and
        set its nodes' ``spec`` and ``spec_len``.  Returns the index past
        the subtree's slice and its names' encoded length."""
        host = node.host = self.hosts[first]
        end, names = first + 1, wire.str_len(host)
        for child in node.children:
            end, child_names = self._describe(child, end)
            names += child_names
        node.spec = wire.SubtreeSpec(host, tuple(self.hosts[first:end]))
        node.spec_len = wire.spec_len(host, end - first, names)
        return end, names

    # ------------------------------------------------------------------ views
    def depth(self) -> int:
        """Number of host levels (excluding the controller root)."""
        return self._depth

    def nodes(self) -> List[TreeNode]:
        """Every node including the root, pre-order."""
        return self.root.descend()

    def host_nodes(self) -> List[TreeNode]:
        """Every node that runs on an end host."""
        return [n for n in self.nodes() if n.host is not None]

    def levels(self) -> Dict[int, List[TreeNode]]:
        """Nodes grouped by level."""
        grouped: Dict[int, List[TreeNode]] = {}
        for node in self.nodes():
            grouped.setdefault(node.level, []).append(node)
        return grouped

    def validate(self) -> None:
        """Sanity-check the construction (every host appears exactly once)."""
        assigned = [n.host for n in self.host_nodes()]
        if sorted(assigned) != sorted(self.hosts):
            raise RuntimeError("aggregation tree lost or duplicated hosts")
