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
from typing import Dict, List, Optional, Sequence

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
    """

    host: Optional[str]
    children: List["TreeNode"] = field(default_factory=list)
    level: int = 0

    def descend(self) -> List["TreeNode"]:
        """All nodes of the subtree rooted here (pre-order)."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.descend())
        return nodes

    def subtree_hosts(self) -> List[str]:
        """Every host in this subtree (including this node), pre-order."""
        hosts = [] if self.host is None else [self.host]
        for child in self.children:
            hosts.extend(child.subtree_hosts())
        return hosts

    def subtree_spec(self):
        """The wire-codec description of this node's subtree.

        A parent forwarding a multi-level query tells each child which part
        of the tree it is responsible for; this is the message that rides
        in the batched request frame next to the query.
        """
        from repro.core import wire
        return wire.SubtreeSpec(self.host or "", tuple(self.subtree_hosts()))


class AggregationTree:
    """A multi-level aggregation tree over a set of end hosts.

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

    # ------------------------------------------------------------------ build
    def _build(self) -> TreeNode:
        """Assign hosts to tree positions level by level (breadth-first).

        Every tree node (except the controller root) is an end host that both
        executes the query locally and aggregates its children's results, so
        hosts are consumed by interior levels first and remaining hosts
        become leaves.
        """
        root = TreeNode(host=None, level=0)
        remaining = list(self.hosts)
        frontier = [root]
        level = 0
        while remaining:
            fanout = self.fanout[min(level, len(self.fanout) - 1)]
            next_frontier: List[TreeNode] = []
            for parent in frontier:
                for _ in range(fanout):
                    if not remaining:
                        break
                    node = TreeNode(host=remaining.pop(0), level=level + 1)
                    parent.children.append(node)
                    next_frontier.append(node)
            if not next_frontier:
                break
            frontier = next_frontier
            level += 1
        return root

    # ------------------------------------------------------------------ views
    def depth(self) -> int:
        """Number of host levels (excluding the controller root)."""
        return max(node.level for node in self.root.descend())

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
