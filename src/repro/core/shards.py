"""A query's plan cut along the worker shards, and the full plan's facts
put back together.

In the worker modes a served query is folded where its data is.
:func:`cut_plan` splits a scatter plan into *fold units*, each lying
wholly in one worker group's shard, which the group folds into one
partial apiece, and the *collapsed* plan the controller folds over those
partials (:func:`fold_shards`); :func:`splice` then rebuilds the gather of
the full plan from the collapsed fold and the workers' per-host reports,
so the full plan is priced - legs, failures, response time - as a fold of
it on one thread would be.

A fold unit is either

* a maximal run of consecutive sibling subtrees that all lie in one shard
  (a direct plan: every target one group serves in a row; a multi-level
  plan: the runs of whole subtrees under each node), whose partial stands
  for the run in the collapsed plan as one leaf, labelled by the run's
  first host; or
* the local result alone of a *mixed* node, one whose subtree spans
  shards: the node stays in the collapsed plan, merging its children's
  partials and its own, as it does in the full plan.

The root (the controller) is always mixed and has no local result.
Every merge the two folds make is one the full plan's fold makes, or a
regrouping of consecutive arrivals of one, which the merge contract
(``tests/test_merge_contract.py``) holds byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core import wire
from repro.core.executor import GatherResult, HostReport, PlanNode
from repro.core.query import Query, QueryEngine, QueryResult

#: A host's facts from its worker: ``(exec_s, merge_s, response bytes)``.
Fact = Tuple[float, float, int]


@dataclass
class ShardPart:
    """What one worker group is asked: its fold units in plan order (a
    unit's partial feeds the collapsed-plan node of its first host), the
    hosts they name (plan pre-order), per unit the full-plan node whose
    merge its own fold belongs to (``None``: the root), and the units
    encoded."""

    units: List[PlanNode] = field(default_factory=list)
    hosts: List[str] = field(default_factory=list)
    parents: List[Optional[str]] = field(default_factory=list)
    #: The units as a shard query carries them.
    encoded: bytes = b""


@dataclass
class ShardCut:
    """A plan cut along the shards: the collapsed ``plan``, each group's
    :class:`ShardPart` by key (in first-touch order), the ``mixed`` hosts
    (nodes of the collapsed plan) and every host of the full plan in
    pre-order."""

    plan: PlanNode
    parts: Dict[str, ShardPart]
    mixed: Set[str]
    hosts: List[str]


def cut_plan(plan: PlanNode, group_of: Callable[[str], str],
             regroup: bool = True) -> ShardCut:
    """Cut ``plan`` into fold units along the shards ``group_of(host)``
    names (a host no worker serves is a group of its own, which fails
    when asked).  Without ``regroup`` (a merge that must see its
    arrivals one by one) every unit is one host's own result, and the
    collapsed plan is ``plan`` itself."""
    owner: Dict[int, Optional[str]] = {}  # id(node) -> its subtree's group
    hosts: List[str] = []

    def whole(node: PlanNode) -> Optional[str]:
        hosts.append(node.host)  # type: ignore[arg-type]
        key: Optional[str] = group_of(node.host)  # type: ignore[arg-type]
        for child in node.children:
            if whole(child) != key or not regroup:
                key = None
        owner[id(node)] = key
        return key

    for child in plan.children:
        whole(child)
    parts: Dict[str, ShardPart] = {}
    mixed: Set[str] = set()

    def unit(key: str, subtrees: List[PlanNode],
             parent: Optional[str]) -> None:
        part = parts.setdefault(key, ShardPart())
        part.units.append(PlanNode(None, children=subtrees))
        part.parents.append(parent)
        stack = list(reversed(subtrees))
        while stack:
            node = stack.pop()
            part.hosts.append(node.host)  # type: ignore[arg-type]
            stack += reversed(node.children)

    def collapse(node: PlanNode) -> PlanNode:
        host = node.host
        out = PlanNode(host)
        if host is not None:
            mixed.add(host)
            unit(group_of(host), [PlanNode(host)], host)
        run: List[PlanNode] = []
        run_key: Optional[str] = None
        for child in node.children:
            key = owner[id(child)]
            if run and (key != run_key or not regroup):
                out.children.append(PlanNode(run[0].host))
                unit(run_key, run, host)  # type: ignore[arg-type]
                run = []
            if key is None:
                out.children.append(collapse(child))
            else:
                run.append(child)
                run_key = key
        if run:
            out.children.append(PlanNode(run[0].host))
            unit(run_key, run, host)  # type: ignore[arg-type]
        return out

    collapsed = collapse(plan)
    for part in parts.values():
        part.encoded = wire.encode_fold_units(part.units)
    return ShardCut(collapsed, parts, mixed, hosts)


def fold_shards(engine: QueryEngine, query: Query, plan: PlanNode,
                cut: ShardCut, fetched: GatherResult
                ) -> Tuple[GatherResult, GatherResult]:
    """Fold ``cut``'s collapsed plan over the partials the answered
    groups sent (``fetched.value``: their shard results by group key) -
    the fold every mode runs - and rebuild ``plan``'s gather from it and
    the groups' reports: ``(the full plan's gather, the collapsed
    fold's)``.  The fetch's warnings, wall, voided envelopes and slowest
    exchange carry over to the full plan's gather."""
    partials: Dict[str, QueryResult] = {}
    facts: Dict[str, Fact] = {}
    folds: Dict[Optional[str], float] = {}
    answers: Mapping[str, wire.ShardResult] = fetched.value
    for key, answer in answers.items():
        part = cut.parts[key]
        facts.update((host, (exec_s, merge_s, response))
                     for host, exec_s, merge_s, response in answer.reports)
        for unit, parent, (fold_s, partial) in zip(
                part.units, part.parents, answer.partials):
            partials[unit.children[0].host] = partial  # type: ignore[index]
            folds[parent] = folds.get(parent, 0.0) + fold_s
    for host in cut.mixed & partials.keys():
        # A mixed node's own result, sized as its worker sized it.
        partials[host].wire_bytes = facts[host][2]
    collapsed = engine.fold(query, cut.plan, partials.__getitem__)
    gather = splice(plan, cut, collapsed, facts, folds)
    gather.warnings = fetched.warnings
    gather.wall_s += fetched.wall_s
    gather.duplicate_traffic_bytes += fetched.duplicate_traffic_bytes
    gather.max_exec_s = fetched.max_exec_s
    return gather, collapsed


def splice(plan: PlanNode, cut: ShardCut, collapsed: GatherResult,
           facts: Mapping[str, Fact],
           folds: Mapping[Optional[str], float]) -> GatherResult:
    """The gather a one-thread fold of ``plan`` over the same partials
    would record, from the fold of the collapsed plan and the workers'
    ``facts`` per host of every answered group (``folds``: the time each
    node's fold units spent merging, added to its own ``merge_s``).

    A host of an answered group is ok, its winning request the plan's
    priced one and its response the bytes its worker reported - or, at a
    mixed node, those of the accumulator the collapsed fold sized.  A
    host of a failed group has no winning request (its priced request is
    duplicate traffic, as a failed attempt's) and sends nothing up unless
    it is a mixed node with surviving children.  Every report made one
    attempt: deadlines, retries and transport faults act on the groups'
    fetch, not on the fold (:func:`fold_shards` copies the fetch's
    warnings and ``max_exec_s``).
    """
    reports: Dict[str, HostReport] = {}
    merge_s: Dict[Optional[str], float] = {
        None: folds.get(None, 0.0) + collapsed.merge_s[None]}
    failed: List[str] = []
    traffic = duplicate = 0
    mixed, get_fact, get_fold = cut.mixed, facts.get, folds.get
    stack = plan.children[::-1]
    while stack:
        node = stack.pop()
        if node.children:
            stack += node.children[::-1]
        host: str = node.host  # type: ignore[assignment]
        parts = node.request_parts
        sent = sum(parts)
        fact = get_fact(host)
        if fact is None:
            duplicate += sent
            failed.append(host)
            report = HostReport(host, False, 1, 0.0, None, 0,
                                "no partial: its worker group failed")
            merge = 0.0
        else:
            exec_s, merge, response = fact
            report = HostReport(host, True, 1, exec_s,
                                sent if parts else None, response)
            traffic += sent
        if host in mixed:
            report.response_bytes = collapsed.reports[host].response_bytes
            merge += collapsed.merge_s[host]
        merge_s[host] = merge + get_fold(host, 0.0)
        reports[host] = report
        traffic += report.response_bytes or 0
    return GatherResult(
        value=collapsed.value, hosts_failed=failed, warnings=[],
        partial=bool(failed), wall_s=collapsed.wall_s, traffic_bytes=traffic,
        duplicate_traffic_bytes=duplicate, merge_s=merge_s,
        root_merges=collapsed.root_merges, max_exec_s=0.0, reports=reports)
