"""Flow-record schema shared by the trajectory memory and the TIB.

Section 3.2 of the paper defines the TIB record as

    ``<flow ID, path, stime, etime, #bytes, #pkts>``

and the trajectory-memory record as the pre-path-construction variant keyed
by ``(flow ID, link IDs)``.  This module defines both as slotted dataclasses
(the trajectory-memory record is allocated on the packet fast path, the TIB
record once per stored row), the record's plain-dict document form and the
size of that document under the Section 5.3 storage accounting
(:meth:`PathFlowRecord.document_bytes` - the TIB keeps the hot tier's
footprint as a running sum of it and stores no documents).  A record's wire
size is the frame codec's to measure (``repro.core.wire.record_wire_bytes``;
this package imports nothing from ``repro.core``).

Both storage tiers read through what follows the schema: one read request
(:class:`ScanSpec`), one numbering of undirected links
(:class:`LinkNumbering`) that both tiers' link postings are keyed by, and
one link selection over those postings (:func:`select`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Any, Callable, Collection, Dict, FrozenSet, List,
                    Optional, Sequence, Tuple, TypeVar, Union)

from repro.network.packet import FlowId


def is_wild(value: Any) -> bool:
    """Whether a link-endpoint / time-bound value is a wildcard.

    The canonical wildcard test of the query API (``None``, ``"*"`` or
    ``"?"``), shared by :class:`ScanSpec`, the plan ``Filter`` and the
    TIB's time-range normalisation so they can never diverge.
    """
    return value is None or value in ("*", "?")

#: The part of :meth:`PathFlowRecord.document_bytes` every record shares:
#: 16 B per document, the twelve key names (``_id`` and the eleven of
#: ``to_document``), 8 B for each of the eight numbers (``_id``, two ports,
#: protocol, two timestamps, two counters) and 4 B for the path list.
_DOCUMENT_FIXED_BYTES = 16 + len(
    "_id" "src_ip" "dst_ip" "src_port" "dst_port" "protocol" "flow_key"
    "path" "stime" "etime" "bytes" "pkts") + 8 * 8 + 4


@dataclass(slots=True)
class PathFlowRecord:
    """A per-path flow record (one row of the TIB).

    Attributes:
        flow_id: the flow's 5-tuple.
        path: the end-to-end switch path (source ToR .. destination ToR).
        stime: time the first packet of this record was observed.
        etime: time the last packet was observed.
        bytes: bytes observed.
        pkts: packets observed.
    """

    flow_id: FlowId
    path: Tuple[str, ...]
    stime: float
    etime: float
    bytes: int = 0
    pkts: int = 0
    #: Lazily computed set of the path's directed link pairs; ``path`` never
    #: changes once the record is stored, so the set is computed at most once.
    _link_pairs: Optional[FrozenSet[Tuple[str, str]]] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------- accessors
    @property
    def duration(self) -> float:
        """Observed duration of this record in seconds."""
        return max(0.0, self.etime - self.stime)

    def links(self) -> List[Tuple[str, str]]:
        """Directed links along the recorded path."""
        return list(zip(self.path, self.path[1:]))

    def link_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """The path's directed links as a (cached) frozen set."""
        pairs = self._link_pairs
        if pairs is None:
            pairs = frozenset(zip(self.path, self.path[1:]))
            self._link_pairs = pairs
        return pairs

    def traverses_link(self, a: str, b: str) -> bool:
        """Whether the record's path uses the (undirected) link ``a``-``b``."""
        pairs = self.link_pairs()
        return (a, b) in pairs or (b, a) in pairs

    def update(self, nbytes: int, npkts: int, when: float) -> None:
        """Fold another observation into this record.

        Reference implementation of the fold: the TIB's merge path
        (``Tib._merge_into``) inlines this arithmetic for speed and must
        stay equivalent.
        """
        self.bytes += nbytes
        self.pkts += npkts
        if when < self.stime:
            self.stime = when
        if when > self.etime:
            self.etime = when

    # ---------------------------------------------------------- serialization
    def document_bytes(self) -> int:
        """Size of this record's stored document (Section 5.3 accounting).

        Exactly what a :class:`~repro.storage.docstore.Collection` charges
        for ``to_document()`` plus its ``_id``.  Every number costs 8 B
        whatever its value and a string its UTF-8 length + 1, so the size
        depends only on the flow ID and the path - a merge never changes it.
        """
        flow_id = self.flow_id
        strings = (flow_id.src_ip, flow_id.dst_ip, flow_key(flow_id),
                   *self.path)
        return (_DOCUMENT_FIXED_BYTES + len(strings)
                + len("".join(strings).encode("utf-8")))

    def to_document(self) -> Dict[str, Any]:
        """Serialise to a plain-dict document for the document store."""
        return {
            "src_ip": self.flow_id.src_ip,
            "dst_ip": self.flow_id.dst_ip,
            "src_port": self.flow_id.src_port,
            "dst_port": self.flow_id.dst_port,
            "protocol": self.flow_id.protocol,
            "flow_key": flow_key(self.flow_id),
            "path": list(self.path),
            "stime": self.stime,
            "etime": self.etime,
            "bytes": self.bytes,
            "pkts": self.pkts,
        }

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "PathFlowRecord":
        """Reconstruct a record from its document form."""
        flow_id = FlowId(document["src_ip"], document["dst_ip"],
                         document["src_port"], document["dst_port"],
                         document["protocol"])
        return cls(flow_id=flow_id, path=tuple(document["path"]),
                   stime=document["stime"], etime=document["etime"],
                   bytes=document["bytes"], pkts=document["pkts"])


@dataclass(slots=True)
class TrajectoryMemoryRecord:
    """A per-path flow record *before* path construction.

    This is what the modified OVS maintains: the packet's link-ID samples are
    still raw (not yet resolved against the topology), and the record is
    evicted to the TIB on FIN/RST or after an idle timeout.
    """

    flow_id: FlowId
    link_ids: Tuple[int, ...]
    stime: float
    etime: float
    bytes: int = 0
    pkts: int = 0
    src_host: str = ""

    def update(self, nbytes: int, when: float) -> None:
        """Fold one more packet into the record.

        Reference implementation of the per-packet fold: the fast path
        (``TrajectoryMemory.update``) inlines this arithmetic and must
        stay equivalent.
        """
        self.bytes += nbytes
        self.pkts += 1
        if when < self.stime:
            self.stime = when
        if when > self.etime:
            self.etime = when


@lru_cache(maxsize=1 << 16)
def flow_key(flow_id: FlowId) -> str:
    """Canonical string key for a flow (used as an index field).

    Uses ``|`` as the field separator because host names themselves contain
    dashes and colons are used inside the endpoint fields.  The result is
    memoized per flow ID: building the string once per *flow* instead of
    once per call keeps repeated key derivations (record upserts, query
    grouping) off the hot paths.
    """
    return (f"{flow_id.src_ip}:{flow_id.src_port}|{flow_id.dst_ip}:"
            f"{flow_id.dst_port}|{flow_id.protocol}")


@lru_cache(maxsize=1 << 16)
def parse_flow_key(key: str) -> FlowId:
    """Inverse of :func:`flow_key` (memoized like its counterpart: the
    archive's promotion path re-parses the same live keys repeatedly)."""
    left, right, proto = key.split("|")
    src_ip, src_port = left.rsplit(":", 1)
    dst_ip, dst_port = right.rsplit(":", 1)
    return FlowId(src_ip, dst_ip, int(src_port), int(dst_port), int(proto))


#: The record schema as the declarative plan IR sees it: the addressable
#: field names of one :class:`PathFlowRecord`, in canonical (emission)
#: order.  ``flow`` is the canonical :func:`flow_key` string, not the raw
#: :class:`FlowId` - plans group and rank by the same key the TIB's flow
#: index and per-flow aggregates use.
RECORD_FIELDS: Tuple[str, ...] = ("flow", "path", "stime", "etime",
                                  "bytes", "pkts")
#: The schema fields a record (and a cold row) stores as themselves, one
#: value each - what an order-free column read (``Tib.fold``) can name.
#: ``flow`` is derived from five stored values, so it is not one of them.
COLUMN_FIELDS: Tuple[str, ...] = RECORD_FIELDS[1:]


def record_field(record: PathFlowRecord, name: str) -> Any:
    """Read one schema field off a record (the plan IR's field accessor).

    Shared by the plan reference evaluator and the pushdown executor so a
    field name can never mean two different things on the two paths.
    """
    if name == "flow":
        return flow_key(record.flow_id)
    if name in ("path", "stime", "etime", "bytes", "pkts"):
        return getattr(record, name)
    raise KeyError(f"unknown record field {name!r}")


@dataclass(frozen=True)
class ScanSpec:
    """One declarative read request, implemented by both storage tiers.

    ``Tib.scan`` (hot) and ``ColdArchive.scan`` (cold) both take a spec and
    return id-ordered ``(record id, record)`` pairs, so the tier-spanning
    merge and the built-in query handlers are written once against a single
    surface.

    Attributes:
        start: inclusive window start, or ``None`` for open-ended.  A record
            matches when its *observed interval* overlaps the window
            (``etime >= start and stime <= end``).
        end: inclusive window end, or ``None``.
        links: conjunction of link constraints ``(a, b)``.  An endpoint may
            be a wildcard (``None``/``"*"``/``"?"``, normalised to ``None``),
            meaning "path traverses this node"; a fully-wild pair constrains
            nothing and is dropped.  Concrete pairs are undirected.
        flow_keys: disjunction of canonical flow keys (see
            :func:`flow_key`), or ``None`` for unconstrained.
    """

    start: Optional[float] = None
    end: Optional[float] = None
    links: Tuple[Tuple[Optional[str], Optional[str]], ...] = ()
    flow_keys: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        start = None if is_wild(self.start) else float(self.start)
        end = None if is_wild(self.end) else float(self.end)
        if start is not None and end is not None and end < start:
            raise ValueError(
                f"scan window end ({end}) precedes start ({start})")
        links = []
        for a, b in self.links:
            a = None if is_wild(a) else a
            b = None if is_wild(b) else b
            if a is None and b is None:
                continue
            links.append((a, b))
        flow_keys = self.flow_keys
        if flow_keys is not None and not isinstance(flow_keys, frozenset):
            flow_keys = frozenset(flow_keys)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "links", tuple(links))
        object.__setattr__(self, "flow_keys", flow_keys)

    @property
    def unconstrained(self) -> bool:
        """True when every record matches."""
        return (self.start is None and self.end is None
                and not self.links and self.flow_keys is None)

    def matches(self, record: PathFlowRecord) -> bool:
        """Exact predicate — the reference semantics for the pruned scan.

        Index-routed and pruned scan paths (both tiers' link postings, the
        cold tier's zone maps and flow-key blooms) may only ever *skip*
        work this predicate would reject, and every row they return
        satisfies it (the ``scan`` rule of the TIB state machine,
        ``tests/test_tib_machine.py``, checks exactly this equivalence).
        """
        if self.start is not None and record.etime < self.start:
            return False
        if self.end is not None and record.stime > self.end:
            return False
        if (self.flow_keys is not None
                and flow_key(record.flow_id) not in self.flow_keys):
            return False
        for a, b in self.links:
            if a is None or b is None:
                node = a if b is None else b
                if len(record.path) < 2 or node not in record.path:
                    return False
            elif not record.traverses_link(a, b):
                return False
        return True


#: A compiled link conjunction: per constraint, the link ordinals any one
#: of which satisfies it (a concrete link's own ordinal, a wildcard node's
#: incident links; none when no path seen so far traverses such a link).
LinkConstraints = Sequence[Tuple[int, ...]]


class LinkNumbering:
    """Ordinals of undirected links, shared by a TIB's two tiers.

    A link ``(a, b)`` is numbered as ``(min, max)`` the first time a path
    traverses it; :attr:`incident` keeps every node's link ordinals and
    each path's ordinals are memoized, so a path's hops are walked once.
    The numbering only grows (bounded by the distinct links and paths
    seen): both tiers' postings hold its ordinals, so it is never reset.
    """

    __slots__ = ("ordinal", "incident", "_paths")

    def __init__(self) -> None:
        #: ``(min, max)`` node pair -> the link's ordinal.
        self.ordinal: Dict[Tuple[str, str], int] = {}
        #: node -> the ordinals of its incident links, in numbering order.
        self.incident: Dict[str, List[int]] = {}
        self._paths: Dict[Tuple[str, ...], Tuple[int, ...]] = {}

    def of_path(self, path: Tuple[str, ...]) -> Tuple[int, ...]:
        """The distinct ordinals of the links ``path`` traverses (none for
        a path of fewer than two nodes), numbering links not seen before."""
        links = self._paths.get(path)
        if links is None:
            ordinals: Dict[int, None] = {}
            for a, b in zip(path, path[1:]):
                link = (a, b) if a <= b else (b, a)
                ordinal = self.ordinal.get(link)
                if ordinal is None:
                    ordinal = self.ordinal[link] = len(self.ordinal)
                    for node in dict.fromkeys(link):
                        self.incident.setdefault(node, []).append(ordinal)
                ordinals[ordinal] = None
            links = self._paths[path] = tuple(ordinals)
        return links

    def constraints(self, links: Sequence[Tuple[Optional[str],
                                                Optional[str]]]
                    ) -> LinkConstraints:
        """A :class:`ScanSpec`'s link conjunction in ordinals (see
        :data:`LinkConstraints`); numbers nothing."""
        compiled: List[Tuple[int, ...]] = []
        for a, b in links:
            if a is None:
                a, b = b, a  # a wildcard endpoint goes second
            if a is None:
                continue  # fully wild: constrains nothing
            if b is None:
                compiled.append(tuple(self.incident.get(a, ())))
            else:
                ordinal = self.ordinal.get((a, b) if a <= b else (b, a))
                compiled.append(() if ordinal is None else (ordinal,))
        return compiled


_Run = TypeVar("_Run", bound=Collection[int])


def select(constraints: LinkConstraints, run: Callable[[int], _Run]
           ) -> Union[None, _Run, List[int]]:
    """The ids satisfying every constraint, where ``run(ordinal)`` gives
    the ids on one link: per constraint the union of its ordinals' runs (a
    wildcard node is on any of its links), then the intersection across
    the conjunction.  Empty when no id does, ``None`` when there is no
    constraint.  A lone run comes back as ``run`` gave it; anything
    combined is an ascending list."""
    selected: Union[None, _Run, List[int]] = None
    for ordinals in constraints:
        ids: Union[_Run, List[int]]
        if len(ordinals) == 1:
            ids = run(ordinals[0])
        else:
            ids = sorted(set().union(*map(run, ordinals)))
        if selected is not None:
            ids = sorted(set(selected).intersection(ids))
        if not ids:
            return []
        selected = ids
    return selected
