"""Versioned binary wire codec for PathDump's control-plane messages.

Every "wire byte" in the query traffic accounting is a *measurement*: this
module defines a compact, struct-packed binary encoding of every message
that crosses the controller <-> agent boundary, and the accounting layers
report ``len(encoded)`` of these frames (sized without encoding, see
*Exact sizes*).  No wire size is estimated anywhere.

The same frames are what actually travels to the
:mod:`~repro.core.worker` processes in both worker modes:
**no pickle is used anywhere on the query path** (pickle would both distort
the byte accounting and execute arbitrary code on unpacking).

Frame layout
------------

Every frame starts with a 4-byte header::

    +----+----+---------+----------+
    | 'P'| 'D'| version | msg type |
    +----+----+---------+----------+

followed by a message-type specific body.  Integers are LEB128 varints
(zigzag for signed values, so huge Python ints round-trip losslessly),
floats are little-endian IEEE doubles, strings are UTF-8 with a varint
length prefix - the primitives of :mod:`repro.codec`, which the cold
archive's segment codec (:mod:`repro.storage.segment`) shares.
Arbitrary query parameters and result payloads use a tagged-value
encoding (``NONE``/``TRUE``/``FALSE``/``INT``/``FLOAT``/``STR``/
``BYTES``/``LIST``/``TUPLE``/``DICT``/``SET``/``FROZENSET``/``FLOWID``/
``PLAN``) that preserves container and :class:`FlowId` types
exactly - the property the "payload-identical across execution modes"
guarantee is verified against, byte for byte.  A declarative
:class:`~repro.core.plan.Plan` is one more tagged value (each op its code
followed by its dataclass fields), so a plan query is an ordinary query
request carrying the plan as a parameter.

Message kinds: query requests (query + optional aggregation-subtree spec,
batched into one frame exactly as the executor batches the logical edge
payloads), record batches (the simulator -> agent-server ingest stream),
query results / partial aggregates (with any pending host alarms
piggybacked - the asynchronous agent -> controller alert channel drains on
the reply - and a tail of per-plan scan-stat counters), the event-plane
frames (transfer-observation batches, monitor ticks, alarm batches,
monitor-state snapshots/pulls, the payload-less re-open command behind
``reset_stats``), and the small control frames of the agent-server
protocol (error, ping/pong, reset, sleep, shutdown).  Every frame to a
worker rides a ``MSG_GROUP_BATCH`` envelope entry naming its host; a
sweep's tick, a re-open and a served query's shard query (answered by a
shard result, see *Shard queries*) name :data:`EVERY_HOST` instead, one
entry for the whole shard.

How the codec is written
------------------------

In CPython the codec's cost is its number of Python-level calls, not its
bytes, so the hot legs are written against that:

* **Reading** goes through :class:`_Reader`, a cursor over one frame.
  Each primitive (``uvarint``/``varint``/``str_``/``double``/...) is *one*
  call that works on local ``data``/``pos`` - a one-byte varint returns
  on its first index, a string is decoded straight from its slice - and
  ``values(count)`` reads a whole run of tagged values in one loop with
  the leaves (ints, strings) inline, spending a call only per container.
  Truncation is caught where it is free: an ``IndexError`` from indexing
  past the end, one length compare before a slice (slices never raise),
  both surfacing as the same ``WireError("truncated frame")``.  Every
  ``decode_*`` entry point is made by :func:`_decoder`: it opens its frame
  once, rejects any byte its body leaves unread (a frame is length-
  delimited, so leftover bytes are corruption) and is wrapped by
  :func:`~repro.codec.guarded`, so a caller sees ``WireError`` or a
  value - nothing else, whatever the bytes.
* **Writing** mirrors it: ``_w_values`` appends a run of tagged values
  with the same inline leaves; the fixed-layout writers (``_w_record``,
  ``_w_observation``, ...) spend one call per field.
* **Sizing** builds no bytes: ``value_len`` / ``result_wire_bytes`` /
  ``record_wire_bytes`` / ``alarms_wire_bytes`` add up what the writers
  would append, leg by leg (*Exact sizes* below).  The accounting layers
  size every partial result and every interior accumulator of an
  aggregation tree in every mode - a size must not cost a serialization.

Alarm lists
-----------

A sweep's alarms repeat their strings: every alarm of a host names it
twice (source and host), most share a reason and a detail, and a few
hundred destinations recur.  So an alarm list - an alarm batch's body and
a result's alarm tail alike - writes each string once and refers to it
after that::

    list  := count:uvarint alarm*
    alarm := src dst reason host detail      (five string refs)
             src_port:varint dst_port:varint protocol:varint
             time:double
             paths:uvarint (nodes:uvarint node-ref*)*
    ref   := uvarint k: 0 - a new string follows (uvarint length, UTF-8),
             and becomes the list's next string; k >= 1 - the list's k-th

The table is the list's own: it starts empty with every list.  A ref to a
string the list has not defined yet is corruption (``WireError``), never
a wrong alarm.  ``_w_alarms`` writes, ``alarms_wire_bytes`` sizes and
``_Reader.alarms`` reads - one of each.

Shard queries
-------------

A served query asks a worker group once: one group-addressed entry
holding the bare query request and the *fold units* of the plan that lie
in the group's shard - each unit a forest of plan subtrees the worker
folds into one partial - and the reply is one shard result::

    shard query  := request:bytes fold-units
    fold-units   := hosts:uvarint units:uvarint forest*
    forest       := count:uvarint (host:str forest)*
    shard result := hosts:uvarint report* units:uvarint
                    (merge_s:double partial:bytes)* alarm-list span-tail
    report       := host:str exec_s:double merge_s:double response:uvarint

``hosts`` counts every host the frame names, so a reader learns a shard
frame's width without walking it (:func:`hosts_named`).  A plan's fold
units are encoded once (:func:`encode_fold_units`) and sent with every
query over that plan.  The reports follow
the query's host order (each unit's subtrees, pre-order): the host's
execution time, its merge time (0.0 at a leaf) and the bytes of the
response it sends its parent - its own result at a leaf, its
accumulator at an interior node - sized, not encoded.  A partial is a
``MSG_QUERY_RESULT`` frame with its unit's own merge time; the hosts'
piggybacked alarms travel once, in the alarm list, each naming its host.

What pins all of this from outside is in ``tests/test_wire.py``: a golden
table (a frame per message type, one value per tag and width, hex
generated by the previous implementation and compared byte for byte; every
strict prefix of every golden frame must raise ``WireError``, and so must
every golden frame with a byte appended), a seeded property test that
each size equals the encoded length and rejects exactly what the writers
reject, and a pinned count of the Python-level calls two hot frames cost
to decode.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
import time
from itertools import chain
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple, TypeVar, Union)

from repro.codec import (DOUBLE, TRUNCATED, Reader, WireDecodeError,
                         WireError, flow_id_len, guarded, str_len,
                         uvarint_len, varint_len, w_flow_id, w_str,
                         w_uvarint, w_varint)
from repro.core.alarms import Alarm
from repro.core.executor import PlanNode, micros
from repro.core.monitor import (MonitorSnapshot, TcpFlowStats,
                                TransferObservation)
from repro.core import plan as _plan
from repro.network.packet import FlowId
from repro.storage.records import PathFlowRecord

#: Frame magic + codec version (bump on any incompatible layout change).
#: Version 2: result frames carry a piggybacked alarm batch, pongs carry
#: the worker's monitor flow count, and the event-plane frame kinds exist.
#: Version 3: pongs carry the worker TIB's two-tier stats (hot/cold record
#: counts and bytes) and the retention-config frame kind exists.
#: Version 4: archive log entries moved to a field-offset row layout (since
#: replaced by the column-major segment codec of :mod:`repro.storage.
#: segment`; segment blobs never travel, so that replacement did not move
#: the version).
#: Version 5: the group transport exists - hello frames, correlated
#: ``MSG_GROUP_BATCH`` envelopes that coalesce per-host frames for a whole
#: worker group, the torn-close debug command, and the length-delimited
#: stream framing every worker connection speaks.
#: Version 6: two plan frame kinds exist - a plan request carrying a
#: declarative :mod:`repro.core.plan` pipeline (one frame kind for *any*
#: question, so new questions never add frames again) and a plan result
#: extending the result layout with the per-plan scan-stat counters
#: (hot-index routing + cold pruning work).
#: (``MSG_MONITOR_REOPEN`` joined version 6 later without a bump: a new
#: payload-less command moves no existing byte, and the two ends of a
#: worker connection are always the same build.)
#: Version 7: one query frame family - a plan is a tagged value carried as
#: an ordinary ``MSG_QUERY_REQUEST`` parameter, every ``MSG_QUERY_RESULT``
#: ends with the scan-stat tail (one ``0`` byte when empty), the result's
#: size-estimate varint is gone, and the two plan frame kinds are retired
#: (their numbers, 20 and 21, are not reused).
#: (The group hello, type 17, left version 7 later without a bump: a
#: worker's connection is made for its shard, so nothing names the shard
#: on the wire; no remaining frame moves a byte, and 17 is not reused.)
#: (Group-addressed envelope entries - host :data:`EVERY_HOST` - joined
#: version 7 later without a bump: an empty host string was always
#: encodable, so no frame's layout moved; only its meaning is new.)
#: Version 8: an alarm list (an alarm batch's body, a result's alarm
#: tail) writes each string once and refers to it by number after that
#: (see *Alarm lists*); and the span tail - a query request's spec byte
#: and a monitor tick's threshold byte became flag bytes whose bit 1 asks
#: the worker to trace (an untraced request is byte-identical to version
#: 7), a traced result's scan-stat map carries the worker's
#: ``t.<stage>`` entries, and every alarm batch ends with the same
#: ``str -> varint`` map (one ``0`` byte when the tick was not traced).
#: Version 9: a served query reaches a worker as one shard query per group
#: - the bare query request and the fold units of the plan that lie in
#: the group's shard, its hosts in plan order - answered by one shard
#: result: a report per host, one folded partial (a result frame) per
#: unit, the hosts' alarms and the span tail (see *Shard queries*).
MAGIC = b"PD"
WIRE_VERSION = 9

_HEADER = struct.Struct("<2sBB")
#: Bytes of the fixed frame header.
HEADER_BYTES = _HEADER.size

#: Message types.
MSG_QUERY_REQUEST = 1
MSG_SUBTREE_SPEC = 2
MSG_RECORD_BATCH = 3
MSG_QUERY_RESULT = 4
MSG_ERROR = 5
MSG_PING = 6
MSG_PONG = 7
MSG_RESET = 8
MSG_SHUTDOWN = 9
MSG_SLEEP = 10
MSG_OBSERVATION_BATCH = 11
MSG_MONITOR_TICK = 12
MSG_ALARM_BATCH = 13
MSG_MONITOR_STATE = 14
MSG_MONITOR_PULL = 15
MSG_RETENTION = 16
MSG_GROUP_BATCH = 18
MSG_CLOSE_TORN = 19
MSG_MONITOR_REOPEN = 22
MSG_SHARD_QUERY = 23
MSG_SHARD_RESULT = 24

#: The host of a group-addressed ``MSG_GROUP_BATCH`` entry: "every host of
#: this worker", in shard order - or, for a shard query, the hosts the
#: frame itself names.  Only a monitor tick (answered by one alarm batch
#: holding every host's alarms), a monitor re-open and a shard query
#: (answered by one shard result) may be addressed so; a worker answers
#: any other frame addressed so with an error frame.
EVERY_HOST = ""

#: Request flag bits: a query request's (bit 0: a subtree spec follows) and
#: a monitor tick's (bit 0: a threshold follows); bit 1 asks the worker to
#: trace - to answer with its stages in the reply's span tail.
_F_FOLLOWS = 1
_F_TRACE = 2

#: The prefix of a stage key in a span tail (``t.decode``, ...): the
#: worker's stages, in whole microseconds, in the map a result's scan
#: stats and an alarm batch's tail share.
STAGE_PREFIX = "t."

#: Tagged-value type codes.
_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_BYTES = 6
_V_LIST = 7
_V_TUPLE = 8
_V_DICT = 9
_V_SET = 10
_V_FROZENSET = 11
_V_FLOWID = 12
_V_PLAN = 13

#: What the codec reads off ``plan.OPS``: each op class's dataclass field
#: names (written, in this order, after its code) and the class per code.
_OP_FIELD_NAMES = {op: tuple(field.name for field in dataclasses.fields(op))
                   for op in _plan.OPS}
_OP_BY_CODE = {op.code: op for op in _plan.OPS}


class SubtreeSpec(NamedTuple):
    """The aggregation-subtree description shipped with a multi-level query.

    Attributes:
        root: the host responsible for this subtree.
        hosts: every host in the subtree (including ``root``), pre-order.
    """

    root: str
    hosts: Tuple[str, ...]


# --------------------------------------------------------------------------
# Writers
# --------------------------------------------------------------------------
# (See "How the codec is written" in the module docstring: the three legs of
# the tagged-value encoding - ``_w_values``, ``_values_len``,
# ``_Reader.values`` - are the same loop with the same inline leaves.)
def _w_values(buf: bytearray, values: Iterable[Any]) -> None:
    """Append every value of ``values``, tagged."""
    append = buf.append
    for value in values:
        kind = type(value)
        if kind is int:
            append(_V_INT)
            value = value << 1 if value >= 0 else ((-value) << 1) - 1
            while value > 0x7F:
                append((value & 0x7F) | 0x80)
                value >>= 7
            append(value)
        elif kind is str:
            append(_V_STR)
            data = value.encode("utf-8")
            count = len(data)
            if count > 0x7F:
                w_uvarint(buf, count)
            else:
                append(count)
            buf += data
        elif kind is tuple or kind is list:
            append(_V_TUPLE if kind is tuple else _V_LIST)
            count = len(value)
            if count > 0x7F:
                w_uvarint(buf, count)
            else:
                append(count)
            _w_values(buf, value)
        elif kind is FlowId:
            append(_V_FLOWID)
            w_flow_id(buf, value)
        elif kind is dict:
            append(_V_DICT)
            w_uvarint(buf, len(value))
            _w_values(buf, chain.from_iterable(value.items()))
        elif value is None:
            append(_V_NONE)
        elif kind is bool:
            append(_V_TRUE if value else _V_FALSE)
        elif kind is float:
            append(_V_FLOAT)
            buf += DOUBLE.pack(value)
        elif kind is set or kind is frozenset:
            append(_V_SET if kind is set else _V_FROZENSET)
            w_uvarint(buf, len(value))
            # Sorted by encoding so equal sets encode to equal bytes.
            for chunk in sorted(map(encode_value, value)):
                buf += chunk
        elif kind is bytes or kind is bytearray:
            append(_V_BYTES)
            w_uvarint(buf, len(value))
            buf += value
        # Slow path: subclasses (bool is final and handled above;
        # NamedTuples other than FlowId encode as plain tuples).
        elif isinstance(value, int):
            append(_V_INT)
            w_varint(buf, value)
        elif isinstance(value, float):
            append(_V_FLOAT)
            buf += DOUBLE.pack(value)
        elif isinstance(value, FlowId):
            append(_V_FLOWID)
            w_flow_id(buf, value)
        elif isinstance(value, (tuple, list)):
            append(_V_TUPLE if isinstance(value, tuple) else _V_LIST)
            w_uvarint(buf, len(value))
            _w_values(buf, value)
        elif kind is _plan.Plan:
            append(_V_PLAN)
            w_uvarint(buf, len(value.ops))
            for op in value.ops:
                fields = _op_fields(op)
                append(op.code)
                _w_values(buf, fields)
        else:
            raise WireError(f"cannot encode value of type {kind.__name__}")


def _op_fields(op: Any) -> List[Any]:
    """A plan op's field values, in ``dataclasses.fields`` order - what
    the codec writes after the op's code."""
    names = _OP_FIELD_NAMES.get(type(op))
    if names is None:
        raise WireError(f"cannot encode plan op of type {type(op).__name__}")
    return [getattr(op, name) for name in names]


def _w_value(buf: bytearray, value: Any) -> None:
    _w_values(buf, (value,))


def _w_record(buf: bytearray, record: PathFlowRecord) -> None:
    w_flow_id(buf, record.flow_id)
    w_uvarint(buf, len(record.path))
    for node in record.path:
        w_str(buf, node)
    buf += DOUBLE.pack(record.stime)
    buf += DOUBLE.pack(record.etime)
    w_varint(buf, record.bytes)
    w_varint(buf, record.pkts)


def _w_spec(buf: bytearray, spec: SubtreeSpec) -> None:
    w_str(buf, spec.root)
    w_uvarint(buf, len(spec.hosts))
    for host in spec.hosts:
        w_str(buf, host)


def _w_forest(buf: bytearray, nodes: Sequence[PlanNode],
              hosts: List[str]) -> None:
    """Append plan subtrees (see *Shard queries*), pre-order; their hosts
    extend ``hosts``."""
    w_uvarint(buf, len(nodes))
    for node in nodes:
        if node.host is None:
            raise WireError("a fold unit's subtree has no host")
        hosts.append(node.host)
        w_str(buf, node.host)
        _w_forest(buf, node.children, hosts)


def _w_alarms(buf: bytearray, alarms: Sequence[Alarm]) -> None:
    """Append an alarm list (see *Alarm lists*): the count, then each
    alarm, every string a ref into the list's own string table."""
    append = buf.append
    if not alarms:
        append(0)
        return
    w_uvarint(buf, len(alarms))
    refs: Dict[str, int] = {}
    ref = refs.get
    pack = DOUBLE.pack
    for alarm in alarms:
        flow = alarm.flow_id
        for value in (flow.src_ip, flow.dst_ip, alarm.reason, alarm.host,
                      alarm.detail):
            known = ref(value)
            if known is not None and known <= 0x7F:
                append(known)
            else:
                _w_ref(buf, refs, value)
        for number in (flow.src_port, flow.dst_port, flow.protocol):
            number = number << 1 if number >= 0 else ((-number) << 1) - 1
            while number > 0x7F:
                append((number & 0x7F) | 0x80)
                number >>= 7
            append(number)
        buf += pack(alarm.time)
        paths = alarm.paths
        if not paths:
            append(0)
            continue
        w_uvarint(buf, len(paths))
        for path in paths:
            w_uvarint(buf, len(path))
            for node in path:
                _w_ref(buf, refs, node)


def _w_ref(buf: bytearray, refs: Dict[str, int], value: str) -> None:
    """Append the ref to ``value``: its number in ``refs`` (the list's
    strings so far, numbered from 1), or ``0`` and the string itself,
    which takes the next number."""
    known = refs.get(value)
    if known is None:
        refs[value] = len(refs) + 1
        buf.append(0)
        w_str(buf, value)
    else:
        w_uvarint(buf, known)


def _w_observation(buf: bytearray, obs: TransferObservation) -> None:
    w_flow_id(buf, obs.flow_id)
    w_varint(buf, obs.retransmissions)
    w_varint(buf, obs.consecutive)
    w_varint(buf, obs.timeouts)
    w_varint(buf, obs.bytes_sent)
    buf += DOUBLE.pack(obs.when)


def _w_counters(buf: bytearray, counters: Dict[str, int]) -> None:
    """A ``str -> varint`` map, keys sorted: a result's scan stats, and
    the span tail a traced reply adds to it (or carries alone)."""
    append = buf.append
    if not counters:
        append(0)
        return
    w_uvarint(buf, len(counters))
    for key in sorted(counters):
        data = key.encode("utf-8")
        if len(data) > 0x7F:
            w_uvarint(buf, len(data))
        else:
            append(len(data))
        buf += data
        value = counters[key]
        value = value << 1 if value >= 0 else ((-value) << 1) - 1
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)


def _w_flow_stats(buf: bytearray, stats: TcpFlowStats) -> None:
    w_flow_id(buf, stats.flow_id)
    w_varint(buf, stats.retransmissions)
    w_varint(buf, stats.consecutive_retransmissions)
    w_varint(buf, stats.max_consecutive_retransmissions)
    w_varint(buf, stats.timeouts)
    w_varint(buf, stats.bytes_sent)
    buf += DOUBLE.pack(stats.last_update)
    buf.append(1 if stats.alerted else 0)


# --------------------------------------------------------------------------
# Exact sizes
# --------------------------------------------------------------------------
# ``len(encode(x))`` without the encode: one leg per writer above, adding up
# what that writer would append.  A property test pins each leg equal to its
# writer, and a value the writer rejects is rejected here with the same
# error (so a payload that cannot cross a wire fails where it is sized).
def _values_len(values: Iterable[Any]) -> int:
    """What :func:`_w_values` would append for ``values``, in bytes."""
    size = 0
    for value in values:
        kind = type(value)
        if kind is int:
            value = value << 1 if value >= 0 else ((-value) << 1) - 1
            size += 2 if value <= 0x7F else 1 + (value.bit_length() + 6) // 7
        elif kind is str:
            count = len(value) if value.isascii() \
                else len(value.encode("utf-8"))
            size += count + (2 if count <= 0x7F else 1 + uvarint_len(count))
        elif kind is tuple or kind is list or kind is set \
                or kind is frozenset:
            # (A set's members are written sorted; the sizes add up alike.)
            count = len(value)
            size += (2 if count <= 0x7F else 1 + uvarint_len(count)) \
                + _values_len(value)
        elif kind is FlowId:
            size += 1 + flow_id_len(value)
        elif kind is dict:
            size += (1 + uvarint_len(len(value)) + _values_len(value)
                     + _values_len(value.values()))
        elif value is None or kind is bool:
            size += 1
        elif kind is float:
            size += 1 + DOUBLE.size
        elif kind is bytes or kind is bytearray:
            size += 1 + uvarint_len(len(value)) + len(value)
        # Slow path: the subclasses ``_w_values`` accepts, nothing else.
        elif isinstance(value, int):
            size += 1 + varint_len(value)
        elif isinstance(value, float):
            size += 1 + DOUBLE.size
        elif isinstance(value, FlowId):
            size += 1 + flow_id_len(value)
        elif isinstance(value, (tuple, list)):
            size += 1 + uvarint_len(len(value)) + _values_len(value)
        elif kind is _plan.Plan:
            size += 1 + uvarint_len(len(value.ops))
            for op in value.ops:
                size += 1 + _values_len(_op_fields(op))
        else:
            raise WireError(f"cannot encode value of type {kind.__name__}")
    return size


def value_len(value: Any) -> int:
    """Exact ``len(encode_value(value))``, built from no bytes."""
    return _values_len((value,))


def alarms_wire_bytes(alarms: Sequence[Alarm]) -> int:
    """What :func:`_w_alarms` would append for ``alarms``, in bytes: an
    alarm batch's body (span tail aside) and a result's alarm tail."""
    if not alarms:
        return 1
    size = uvarint_len(len(alarms))
    refs: Dict[str, int] = {}
    for alarm in alarms:
        flow = alarm.flow_id
        strings = [flow.src_ip, flow.dst_ip, alarm.reason, alarm.host,
                   alarm.detail]
        size += (varint_len(flow.src_port) + varint_len(flow.dst_port)
                 + varint_len(flow.protocol) + DOUBLE.size
                 + uvarint_len(len(alarm.paths)))
        for path in alarm.paths:
            size += uvarint_len(len(path))
            strings += path
        for value in strings:
            known = refs.get(value)
            if known is None:
                refs[value] = len(refs) + 1
                size += 1 + str_len(value)
            else:
                size += uvarint_len(known)
    return size


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------
_unpack_double = DOUBLE.unpack_from
#: ``_new_tuple(FlowId, fields)``: a NamedTuple from its field sequence
#: without the Python-level ``__new__`` call.
_new_tuple: Callable[..., Any] = tuple.__new__
#: The slot of a string ref's first byte that names no string yet.
_UNSEEN = object()
#: An empty alarm list followed by an empty map: how most replies end.
_TWO_EMPTY_TAILS = b"\x00\x00"


class _Reader(Reader):
    """The primitive :class:`~repro.codec.Reader` plus the frame codec's
    composite reads.

    :meth:`values` reads a run of tagged values in one loop (which is why
    it spells the varint loop out again instead of calling :meth:`varint`:
    that would be a call per integer); the fixed layouts (records, alarms,
    ...) spend one primitive call per field.
    """

    __slots__ = ()

    def values(self, count: int) -> List[Any]:
        """The next ``count`` tagged values."""
        data = self.data
        pos = self.pos
        items: List[Any] = []
        append = items.append
        try:
            for _ in range(count):
                tag = data[pos]
                pos += 1
                if tag == _V_INT:
                    value = data[pos]
                    if value > 0x7F:
                        value &= 0x7F
                        shift = 7
                        while True:
                            pos += 1
                            byte = data[pos]
                            value |= (byte & 0x7F) << shift
                            if byte <= 0x7F:
                                break
                            shift += 7
                    pos += 1
                    append(-((value + 1) >> 1) if value & 1 else value >> 1)
                elif tag == _V_STR and data[pos] <= 0x7F:
                    end = pos + 1 + data[pos]
                    if end > len(data):
                        raise WireError(TRUNCATED)
                    append(str(data[pos + 1:end], "utf-8"))
                    pos = end
                elif tag == _V_NONE:
                    append(None)
                elif tag == _V_TRUE:
                    append(True)
                elif tag == _V_FALSE:
                    append(False)
                else:
                    # Containers and the rarer leaves go through the
                    # cursor on the instance.
                    self.pos = pos
                    if tag == _V_TUPLE:
                        append(tuple(self.values(self.uvarint())))
                    elif tag == _V_LIST:
                        append(self.values(self.uvarint()))
                    elif tag == _V_FLOWID:
                        append(self.flow_id())
                    elif tag == _V_DICT:
                        flat = self.values(2 * self.uvarint())
                        append(dict(zip(flat[::2], flat[1::2])))
                    elif tag == _V_STR:
                        append(self.str_())
                    elif tag == _V_FLOAT:
                        append(self.double())
                    elif tag == _V_BYTES:
                        append(self.bytes_())
                    elif tag == _V_SET:
                        append(set(self.values(self.uvarint())))
                    elif tag == _V_FROZENSET:
                        append(frozenset(self.values(self.uvarint())))
                    elif tag == _V_PLAN:
                        append(self.plan())
                    else:
                        raise WireError(f"unknown value tag {tag}")
                    pos = self.pos
        except IndexError:
            raise WireError(TRUNCATED) from None
        except UnicodeDecodeError as error:
            raise WireError(f"invalid UTF-8 string: {error}") from None
        self.pos = pos
        return items

    def value(self) -> Any:
        return self.values(1)[0]

    def plan(self) -> "_plan.Plan":
        """A plan's ops, each looked up by its code in ``plan.OPS`` and
        rebuilt from its fields; the plan is re-validated so a corrupt or
        hostile frame can never smuggle an ill-formed pipeline past the
        constructor normalisation."""
        ops: List[Any] = []
        for _ in range(self.uvarint()):
            code = self.u8()
            op_type = _OP_BY_CODE.get(code)
            if op_type is None:
                raise WireError(f"unknown plan op code {code}")
            ops.append(op_type(*self.values(len(_OP_FIELD_NAMES[op_type]))))
        plan = _plan.Plan(ops=tuple(ops))
        try:
            _plan.validate(plan)
        except _plan.PlanError as exc:
            raise WireError(f"invalid plan: {exc}") from exc
        return plan

    def counters(self) -> Tuple[Dict[str, int], Optional[Dict[str, int]],
                                int]:
        """A map :func:`_w_counters` wrote, as ``(counters, stages,
        stage bytes)``: its span-tail entries (keys prefixed
        :data:`STAGE_PREFIX`) apart - ``None`` when it has none - and the
        bytes they took, count varint included."""
        count = self.uvarint()
        counters: Dict[str, int] = {}
        if not count:
            return counters, None, 0
        stages: Optional[Dict[str, int]] = None
        taken = 0
        data = self.data
        pos = self.pos
        try:
            for _ in range(count):
                # A traced reply carries one map like this per host, so
                # the leaves are read inline, as in :meth:`values`.
                start = pos
                size = data[pos]
                if size > 0x7F:
                    self.pos = pos
                    key = self.str_()
                    pos = self.pos
                else:
                    pos += 1 + size
                    if pos > len(data):
                        raise WireError(TRUNCATED)
                    key = str(data[start + 1:pos], "utf-8")
                value = data[pos]
                if value > 0x7F:
                    value &= 0x7F
                    shift = 7
                    while True:
                        pos += 1
                        byte = data[pos]
                        value |= (byte & 0x7F) << shift
                        if byte <= 0x7F:
                            break
                        shift += 7
                pos += 1
                value = -((value + 1) >> 1) if value & 1 else value >> 1
                if key.startswith(STAGE_PREFIX):
                    if stages is None:
                        stages = {}
                    stages[key] = value
                    taken += pos - start
                else:
                    counters[key] = value
        except IndexError:
            raise WireError(TRUNCATED) from None
        except UnicodeDecodeError as error:
            raise WireError(f"invalid UTF-8 string: {error}") from None
        self.pos = pos
        if stages:
            taken += uvarint_len(count) - uvarint_len(count - len(stages))
        return counters, stages, taken

    def flags(self, known: int) -> int:
        """A request's flag byte, no bit outside ``known`` set."""
        flags = self.u8()
        if flags & ~known:
            raise WireError(f"unknown request flags {flags:#x}")
        return flags

    def strs(self) -> Tuple[str, ...]:
        """A counted run of strings (a path, a host list)."""
        str_ = self.str_
        return tuple([str_() for _ in range(self.uvarint())])

    def forest(self, hosts: List[str]) -> List[PlanNode]:
        """Plan subtrees :func:`_w_forest` wrote; their hosts extend
        ``hosts``."""
        str_, forest = self.str_, self.forest
        nodes: List[PlanNode] = []
        for _ in range(self.uvarint()):
            host = str_()
            hosts.append(host)
            nodes.append(PlanNode(host, children=forest(hosts)))
        return nodes

    def reports(self) -> List[Tuple[str, float, float, int]]:
        """A shard result's counted reports, ``(host, exec_s, merge_s,
        response bytes)`` each."""
        str_, double, uvarint = self.str_, self.double, self.uvarint
        return [(str_(), double(), double(), uvarint())
                for _ in range(uvarint())]

    def record(self) -> PathFlowRecord:
        return PathFlowRecord(self.flow_id(), self.strs(), self.double(),
                              self.double(), self.varint(), self.varint())

    def spec(self) -> SubtreeSpec:
        return SubtreeSpec(self.str_(), self.strs())

    def alarms(self) -> List[Alarm]:
        """An alarm list (see *Alarm lists*), in one pass with the cursor
        in a local, the way :meth:`values` reads its leaves.

        A ref resolves through ``short``: 256 slots, one per value of a
        ref's first byte, holding string *k* at slot *k* once the list
        defined it and :data:`_UNSEEN` everywhere else - so a one-byte ref
        to a known string is a single index, and every other first byte
        (``0``, a new string; ``> 0x7F``, a longer ref; a ref to a string
        not defined yet) lands on the sentinel and goes to ``ref_at``,
        which reads it in full or raises.
        """
        count = self.uvarint()
        if not count:  # most replies: no table to build
            return []
        data = self.data
        table: List[str] = []
        short: List[Any] = [_UNSEEN] * 256
        cursor = _Reader(data)

        def ref_at(pos: int) -> Tuple[str, int]:
            """The string the ref at ``pos`` names, and the position after
            it."""
            cursor.pos = pos
            number = cursor.uvarint()
            if number:
                if number > len(table):
                    raise WireError(
                        f"string ref {number} names no string of the "
                        f"list ({len(table)} defined)")
                return table[number - 1], cursor.pos
            value = cursor.str_()
            table.append(value)
            if len(table) <= 0x7F:
                short[len(table)] = value
            return value, cursor.pos

        pos = self.pos
        alarms: List[Alarm] = []
        append = alarms.append
        try:
            for _ in range(count):
                src = short[data[pos]]
                if src is _UNSEEN:
                    src, pos = ref_at(pos)
                else:
                    pos += 1
                dst = short[data[pos]]
                if dst is _UNSEEN:
                    dst, pos = ref_at(pos)
                else:
                    pos += 1
                reason = short[data[pos]]
                if reason is _UNSEEN:
                    reason, pos = ref_at(pos)
                else:
                    pos += 1
                host = short[data[pos]]
                if host is _UNSEEN:
                    host, pos = ref_at(pos)
                else:
                    pos += 1
                detail = short[data[pos]]
                if detail is _UNSEEN:
                    detail, pos = ref_at(pos)
                else:
                    pos += 1
                # The flow's ports and protocol: three varints, each
                # spelt out (a loop or a call costs more than the read).
                value = data[pos]
                if value > 0x7F:
                    value &= 0x7F
                    shift = 7
                    while True:
                        pos += 1
                        byte = data[pos]
                        value |= (byte & 0x7F) << shift
                        if byte <= 0x7F:
                            break
                        shift += 7
                pos += 1
                sport = -((value + 1) >> 1) if value & 1 else value >> 1
                value = data[pos]
                if value > 0x7F:
                    value &= 0x7F
                    shift = 7
                    while True:
                        pos += 1
                        byte = data[pos]
                        value |= (byte & 0x7F) << shift
                        if byte <= 0x7F:
                            break
                        shift += 7
                pos += 1
                dport = -((value + 1) >> 1) if value & 1 else value >> 1
                value = data[pos]
                if value > 0x7F:
                    value &= 0x7F
                    shift = 7
                    while True:
                        pos += 1
                        byte = data[pos]
                        value |= (byte & 0x7F) << shift
                        if byte <= 0x7F:
                            break
                        shift += 7
                pos += 1
                proto = -((value + 1) >> 1) if value & 1 else value >> 1
                when = _unpack_double(data, pos)[0]
                pos += 8
                paths: List[Tuple[str, ...]] = []
                if data[pos]:
                    self.pos = pos
                    for _path in range(self.uvarint()):
                        nodes = []
                        for _node in range(self.uvarint()):
                            node, self.pos = ref_at(self.pos)
                            nodes.append(node)
                        paths.append(tuple(nodes))
                    pos = self.pos
                else:
                    pos += 1
                append(Alarm(_new_tuple(FlowId, (src, dst, sport, dport,
                                                 proto)),
                             reason, paths, host, when, detail))
        except (IndexError, struct.error):
            raise WireError(TRUNCATED) from None
        self.pos = pos
        return alarms

    def observation(self) -> TransferObservation:
        return TransferObservation(
            flow_id=self.flow_id(), retransmissions=self.varint(),
            consecutive=self.varint(), timeouts=self.varint(),
            bytes_sent=self.varint(), when=self.double())

    def flow_stats(self) -> TcpFlowStats:
        flow_id = self.flow_id()
        retransmissions = self.varint()
        consecutive = self.varint()
        max_consecutive = self.varint()
        timeouts = self.varint()
        bytes_sent = self.varint()
        last_update = self.double()
        alerted = bool(self.u8())
        return TcpFlowStats(
            flow_id=flow_id, retransmissions=retransmissions,
            consecutive_retransmissions=consecutive,
            max_consecutive_retransmissions=max_consecutive,
            timeouts=timeouts, bytes_sent=bytes_sent,
            last_update=last_update, alerted=alerted)


# --------------------------------------------------------------------------
# Frames
# --------------------------------------------------------------------------
def _frame(msg_type: int, body: bytes = b"") -> bytes:
    return _HEADER.pack(MAGIC, WIRE_VERSION, msg_type) + body


def _open(data: bytes) -> Tuple[int, _Reader]:
    if len(data) < HEADER_BYTES:
        raise WireError("frame shorter than header")
    magic, version, msg_type = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version} "
                        f"(speaking {WIRE_VERSION})")
    return msg_type, _Reader(data, HEADER_BYTES)


@guarded
def open_frame(data: bytes) -> Tuple[int, _Reader]:
    """Validate a frame header; return ``(msg_type, body reader)``."""
    return _open(data)


@guarded
def frame_type(data: bytes) -> int:
    """The message type of a frame (header validated)."""
    return _open(data)[0]


def is_error(data: bytes) -> bool:
    """Whether a frame's type byte reads ``MSG_ERROR``: a peek that checks
    nothing else - the decoder that reads the frame next validates it."""
    return len(data) >= HEADER_BYTES and data[HEADER_BYTES - 1] == MSG_ERROR


_T = TypeVar("_T")


def _decoder(msg_type: Optional[int]
             ) -> Callable[[Callable[..., _T]], Callable[..., _T]]:
    """Make ``read(reader, *args)`` - the reader of one ``msg_type`` frame's
    body, or of one bare tagged value when ``msg_type`` is ``None`` - the
    decode entry point ``decode(data, *args)``.

    The entry point opens the frame once and checks its type, and the body
    must end where the bytes do: a frame is length-delimited, so a byte the
    body leaves unread is corruption, never part of a value.  Like every
    entry point it is :func:`~repro.codec.guarded`.
    """
    def entry_point(read: Callable[..., _T]) -> Callable[..., _T]:
        @functools.wraps(read)
        def decode(data: bytes, *args: Any) -> _T:
            if msg_type is None:
                reader = _Reader(data)
            else:
                kind, reader = _open(data)
                if kind != msg_type:
                    raise WireError(
                        f"expected message type {msg_type}, got {kind}")
            value = read(reader, *args)
            if reader.pos != len(data):
                raise WireError("trailing bytes after value")
            return value
        return guarded(decode)
    return entry_point


@functools.lru_cache(maxsize=None)
def _query_types() -> Tuple[Any, Any]:
    """``(Query, QueryResult)``, resolved on first use: :mod:`~repro.core.
    query` imports this module, so the import cannot sit at the top - and
    must not run on every decode either."""
    from repro.core.query import Query, QueryResult
    return Query, QueryResult


# ------------------------------------------------------------------- values
def encode_value(value: Any) -> bytes:
    """Encode one tagged value (payloads, parameters)."""
    buf = bytearray()
    _w_value(buf, value)
    return bytes(buf)


@_decoder(None)
def decode_value(reader: _Reader) -> Any:
    """Inverse of :func:`encode_value`."""
    return reader.value()


# ------------------------------------------------------------------ queries
def _w_query(buf: bytearray, query) -> None:
    w_str(buf, query.name)
    params = query.params
    w_uvarint(buf, len(params))
    for key, value in params.items():
        w_str(buf, key)
        _w_value(buf, value)
    _w_value(buf, query.period)


def encode_query(query) -> bytes:
    """Encode a bare query request (no subtree spec)."""
    return encode_query_request(query, None)


def encode_query_request(query, spec: Optional[SubtreeSpec],
                         trace: bool = False) -> bytes:
    """Encode the batched parent->child edge message: query + optional
    aggregation-subtree description in one frame.  Every query travels
    in it - a plan query as ``name="plan"`` with the plan a tagged value
    under ``params["plan"]``.  ``trace`` asks the worker for its stages
    (one flag bit: a traced request is as long as an untraced one)."""
    body = bytearray()
    _w_query(body, query)
    body.append((0 if spec is None else _F_FOLLOWS)
                | (_F_TRACE if trace else 0))
    if spec is not None:
        _w_spec(body, spec)
    return _frame(MSG_QUERY_REQUEST, bytes(body))


def spec_len(root: str, host_count: int, hosts_len: int) -> int:
    """Exact ``len(encode_query_request(q, spec)) -
    len(encode_query_request(q, None))`` for the spec of a subtree rooted
    at ``root`` over ``host_count`` hosts whose names encode to
    ``hosts_len`` bytes (the sum of their :func:`str_len`), built from no
    bytes: a multi-level plan sizes its edges bottom-up without listing
    any subtree's hosts."""
    return str_len(root) + uvarint_len(host_count) + hosts_len


@_decoder(MSG_QUERY_REQUEST)
def decode_query_request(reader: _Reader
                         ) -> Tuple[Any, Optional[SubtreeSpec], bool]:
    """Decode a query request; returns ``(Query, Optional[SubtreeSpec],
    traced)``."""
    name = reader.str_()
    params = {}
    for _ in range(reader.uvarint()):
        key = reader.str_()
        params[key] = reader.value()
    period = reader.value()
    flags = reader.flags(_F_FOLLOWS | _F_TRACE)
    spec = reader.spec() if flags & _F_FOLLOWS else None
    query_type, _ = _query_types()
    return (query_type(name=name, params=params, period=period), spec,
            bool(flags & _F_TRACE))


def encode_subtree_spec(spec: SubtreeSpec) -> bytes:
    """Encode a standalone subtree description (used for sizing the spec
    part of a batched request)."""
    body = bytearray()
    _w_spec(body, spec)
    return _frame(MSG_SUBTREE_SPEC, bytes(body))


@_decoder(MSG_SUBTREE_SPEC)
def decode_subtree_spec(reader: _Reader) -> SubtreeSpec:
    """Inverse of :func:`encode_subtree_spec`."""
    return reader.spec()


# ------------------------------------------------------------------ records
def record_wire_bytes(record: PathFlowRecord) -> int:
    """Measured serialized size of one record (its batch-body bytes)."""
    path = record.path
    return (flow_id_len(record.flow_id) + uvarint_len(len(path))
            + sum(map(str_len, path)) + 2 * DOUBLE.size
            + varint_len(record.bytes) + varint_len(record.pkts))


#: Append one record's batch-body bytes: with :func:`finish_batch`, the
#: incremental form of :func:`encode_record_batch` (the worker plane's
#: outbox encodes bodies as records arrive and frames them once).
append_record = _w_record


def finish_batch(msg_type: int, count: int,
                 bodies: Union[bytes, bytearray]) -> bytes:
    """Frame ``count`` already-encoded batch bodies (``bodies`` is their
    concatenation) as one ``MSG_RECORD_BATCH``/``MSG_OBSERVATION_BATCH``."""
    head = bytearray()
    w_uvarint(head, count)
    return _frame(msg_type, bytes(head) + bodies)


def encode_record_batch(records: Sequence[PathFlowRecord]) -> bytes:
    """Encode a record batch (the simulator -> agent-server ingest frame)."""
    body = bytearray()
    for record in records:
        _w_record(body, record)
    return finish_batch(MSG_RECORD_BATCH, len(records), body)


@_decoder(MSG_RECORD_BATCH)
def decode_record_batch(reader: _Reader) -> List[PathFlowRecord]:
    """Inverse of :func:`encode_record_batch`."""
    record = reader.record
    return [record() for _ in range(reader.uvarint())]


# ------------------------------------------------------------------ results
def encode_result(result, stages: Optional[Dict[str, int]] = None
                  ) -> bytes:
    """Encode a (partial) query result.

    ``wire_bytes`` itself is *not* part of the encoding - it is defined as
    the length of this frame, so the field is reconstructed on decode
    (and :meth:`~repro.core.query.QueryEngine.execute` sets it the same
    way), keeping the accounting identical on both sides of the pipe.

    Any alarms on ``result.alarms`` are piggybacked at the tail of the
    frame: an agent-server worker has no channel of its own back to the
    controller's alarm bus, so alarms its query handlers raise (e.g.
    ``path_conformance``'s PC_FAIL) ride the reply and are dispatched on
    decode - the strict request/reply pipe's version of the asynchronous
    agent -> controller alert channel.  A result without alarms (every
    in-process execution) pays one count byte, so sizes stay identical
    across execution modes for alarm-free queries.

    The frame ends with the per-plan scan-stat counters (sorted key/value
    pairs): how the hot tier routed a plan's pushed filter and how much
    decode work cold pruning avoided on *this* plan.  Only plan queries
    report any; every other result pays the one empty-count byte.  A
    traced reply's ``stages`` (``t.<stage>`` keys, whole microseconds)
    join that map, with ``t.encode`` - this encode, tail aside - stamped
    here; a stage that took no whole microsecond is left out (absent
    reads as 0), which spares the common ones (a memoized decode, no
    cold tier) their bytes and their decode.
    """
    started = time.perf_counter() if stages is not None else 0.0
    body = bytearray()
    w_str(body, result.query.name)
    w_str(body, result.host)
    w_varint(body, result.records_scanned)
    _w_value(body, result.payload)
    _w_alarms(body, getattr(result, "alarms", ()))
    scan_stats = getattr(result, "scan_stats", None) or {}
    if stages is not None:
        stages["t.encode"] = micros(time.perf_counter() - started)
        scan_stats = {**scan_stats,
                      **{key: us for key, us in stages.items() if us}}
    _w_counters(body, scan_stats)
    return _frame(MSG_QUERY_RESULT, bytes(body))


def result_wire_bytes(result: Any) -> int:
    """Measured serialized size of a result frame (defines ``wire_bytes``):
    exactly ``len(encode_result(result))``, added up leg by leg (see
    *Exact sizes*) - sizing a result costs no encode."""
    alarms = getattr(result, "alarms", ())
    scan_stats = getattr(result, "scan_stats", None) or {}
    size = (HEADER_BYTES + str_len(result.query.name)
            + str_len(result.host) + varint_len(result.records_scanned)
            + value_len(result.payload) + alarms_wire_bytes(alarms)
            + uvarint_len(len(scan_stats)))
    for key, count in scan_stats.items():
        size += str_len(key) + varint_len(count)
    return size


@_decoder(MSG_QUERY_RESULT)
def decode_result(reader: _Reader, query: Any = None) -> Any:
    """Decode a result frame into a :class:`~repro.core.query.QueryResult`.

    ``query`` supplies the caller's query object (the frame carries only the
    name); when omitted a parameter-less placeholder is reconstructed.
    ``wire_bytes`` is set to ``len(data)`` - the measured frame size - less
    a traced reply's span-tail entries, which move to ``stages``: the
    accounting prices the answer, traced or not.
    """
    query_type, result_type = _query_types()
    name = reader.str_()
    host = reader.str_()
    scanned = reader.varint()
    payload = reader.value()
    if reader.data[reader.pos:] == _TWO_EMPTY_TAILS:  # most replies
        reader.pos += 2
        alarms: Tuple[Alarm, ...] = ()
        scan_stats: Dict[str, int] = {}
        stages: Optional[Dict[str, int]] = None
        stage_bytes = 0
    else:
        alarms = tuple(reader.alarms())
        scan_stats, stages, stage_bytes = reader.counters()
    if query is not None and query.name != name:
        raise WireError(f"result for query {name!r} does not answer "
                        f"{query.name!r}")
    return result_type(
        query=query if query is not None else query_type(name),
        payload=payload, wire_bytes=len(reader.data) - stage_bytes,
        records_scanned=scanned, host=host, alarms=alarms,
        scan_stats=scan_stats, stages=stages)


# ------------------------------------------------------------------ control
def encode_error(detail: str) -> bytes:
    """Encode an agent-server error reply."""
    body = bytearray()
    w_str(body, detail)
    return _frame(MSG_ERROR, bytes(body))


@_decoder(MSG_ERROR)
def decode_error(reader: _Reader) -> str:
    """Inverse of :func:`encode_error`."""
    return reader.str_()


def encode_ping() -> bytes:
    """Encode a liveness probe."""
    return _frame(MSG_PING)


def encode_pong(record_count: int, monitor_flows: int = 0,
                hot_records: int = 0, hot_bytes: int = 0,
                cold_records: int = 0, cold_bytes: int = 0) -> bytes:
    """Encode a liveness reply.

    Carries the worker TIB's *total* record count (hot + cold - the
    ingest sync barrier checks it) and the monitor's flow-ledger size,
    plus the two-tier stats: hot/cold record counts and measured bytes,
    so the controller reads a capped worker's tier split straight off the
    liveness probe instead of needing a separate exchange.
    """
    body = bytearray()
    w_uvarint(body, record_count)
    w_uvarint(body, monitor_flows)
    w_uvarint(body, hot_records)
    w_uvarint(body, hot_bytes)
    w_uvarint(body, cold_records)
    w_uvarint(body, cold_bytes)
    return _frame(MSG_PONG, bytes(body))


@_decoder(MSG_PONG)
def decode_pong(reader: _Reader) -> Tuple[int, int, int, int, int, int]:
    """Inverse of :func:`encode_pong`: ``(record_count, monitor_flows,
    hot_records, hot_bytes, cold_records, cold_bytes)``."""
    return (reader.uvarint(), reader.uvarint(), reader.uvarint(),
            reader.uvarint(), reader.uvarint(), reader.uvarint())


def encode_retention(max_records: Optional[int],
                     max_bytes: Optional[int]) -> bytes:
    """Encode a hot-tier retention config (``None`` = unbounded bound).

    Sent to an agent-server worker so it applies the same record-count /
    byte cap host-side that the controller's local agents apply - the
    capped worker ages records into its own cold archive exactly like the
    in-process TIB does.
    """
    body = bytearray()
    for bound in (max_records, max_bytes):
        if bound is None:
            body.append(0)
        else:
            body.append(1)
            w_uvarint(body, bound)
    return _frame(MSG_RETENTION, bytes(body))


@_decoder(MSG_RETENTION)
def decode_retention(reader: _Reader) -> Tuple[Optional[int], Optional[int]]:
    """Inverse of :func:`encode_retention`: ``(max_records, max_bytes)``."""
    max_records = reader.uvarint() if reader.u8() else None
    max_bytes = reader.uvarint() if reader.u8() else None
    return max_records, max_bytes


def encode_reset() -> bytes:
    """Encode a TIB-clear command."""
    return _frame(MSG_RESET)


def encode_shutdown() -> bytes:
    """Encode a clean-shutdown command."""
    return _frame(MSG_SHUTDOWN)


def encode_sleep(seconds: float) -> bytes:
    """Encode a debug stall: the worker sleeps before its next frame.

    Used by tests and benchmarks to turn a worker into a deterministic
    straggler (e.g. to hold a query in flight while the process is killed).
    """
    return _frame(MSG_SLEEP, DOUBLE.pack(seconds))


@_decoder(MSG_SLEEP)
def decode_sleep(reader: _Reader) -> float:
    """Inverse of :func:`encode_sleep`."""
    return reader.double()


# -------------------------------------------------------------- event plane
def encode_alarm_batch(alarms: Sequence[Alarm],
                       stages: Optional[Dict[str, int]] = None) -> bytes:
    """Encode an alarm batch (the agent -> controller alert event frame):
    the alarm list, then the span tail - a traced tick's ``stages`` with
    ``t.encode`` (this encode, tail aside) stamped here, or one ``0``
    byte."""
    started = time.perf_counter() if stages is not None else 0.0
    body = bytearray()
    _w_alarms(body, alarms)
    if stages is None:
        body.append(0)
    else:
        stages["t.encode"] = micros(time.perf_counter() - started)
        _w_counters(body, stages)
    return _frame(MSG_ALARM_BATCH, bytes(body))


class AlarmBatch(List[Alarm]):
    """A decoded alarm batch: a plain list of its alarms, in order, plus
    ``stages`` - the worker's span tail (``t.<stage>`` microseconds;
    empty when the tick was not traced)."""

    __slots__ = ("stages",)

    def __init__(self, alarms: Iterable[Alarm] = (),
                 stages: Optional[Dict[str, int]] = None) -> None:
        super().__init__(alarms)
        self.stages = stages if stages is not None else {}


@_decoder(MSG_ALARM_BATCH)
def decode_alarm_batch(reader: _Reader) -> AlarmBatch:
    """Inverse of :func:`encode_alarm_batch`."""
    if reader.data[reader.pos:] == _TWO_EMPTY_TAILS:  # an idle tick's
        reader.pos += 2
        return AlarmBatch()
    alarms = reader.alarms()
    _counters, stages, _stage_bytes = reader.counters()
    return AlarmBatch(alarms, stages)


#: Append one observation's batch-body bytes (see :data:`append_record`).
append_observation = _w_observation


def encode_observation_batch(observations: Sequence[TransferObservation]
                             ) -> bytes:
    """Encode a transfer-observation batch (the monitor ingest stream,
    batched like record batches)."""
    body = bytearray()
    for obs in observations:
        _w_observation(body, obs)
    return finish_batch(MSG_OBSERVATION_BATCH, len(observations), body)


@_decoder(MSG_OBSERVATION_BATCH)
def decode_observation_batch(reader: _Reader) -> List[TransferObservation]:
    """Inverse of :func:`encode_observation_batch`."""
    observation = reader.observation
    return [observation() for _ in range(reader.uvarint())]


def encode_monitor_tick(now: float, threshold: Optional[int] = None,
                        trace: bool = False) -> bytes:
    """Encode a monitor-tick command: run one periodic check at ``now``.

    The worker replies with an alarm batch carrying every alarm the check
    raised plus any alarms still pending from earlier activity.  Addressed
    to :data:`EVERY_HOST` (a sweep), the check runs on every host of the
    shard, in shard order, and the one batch holds all of their alarms,
    each naming its host.  ``trace`` asks for the check's stages in the
    batch's span tail.
    """
    body = bytearray()
    body += DOUBLE.pack(now)
    body.append((0 if threshold is None else _F_FOLLOWS)
                | (_F_TRACE if trace else 0))
    if threshold is not None:
        w_varint(body, threshold)
    return _frame(MSG_MONITOR_TICK, bytes(body))


@_decoder(MSG_MONITOR_TICK)
def decode_monitor_tick(reader: _Reader
                        ) -> Tuple[float, Optional[int], bool]:
    """Inverse of :func:`encode_monitor_tick`: ``(now, threshold,
    traced)``."""
    now = reader.double()
    flags = reader.flags(_F_FOLLOWS | _F_TRACE)
    threshold = reader.varint() if flags & _F_FOLLOWS else None
    return now, threshold, bool(flags & _F_TRACE)


def encode_monitor_state(snapshot: MonitorSnapshot) -> bytes:
    """Encode a full monitor-state snapshot (startup sync / state pull)."""
    body = bytearray()
    w_str(body, snapshot.host)
    body += DOUBLE.pack(snapshot.period)
    w_varint(body, snapshot.poor_threshold)
    w_varint(body, snapshot.alerts_raised)
    w_uvarint(body, len(snapshot.flows))
    for stats in snapshot.flows:
        _w_flow_stats(body, stats)
    return _frame(MSG_MONITOR_STATE, bytes(body))


@_decoder(MSG_MONITOR_STATE)
def decode_monitor_state(reader: _Reader) -> MonitorSnapshot:
    """Inverse of :func:`encode_monitor_state`."""
    host = reader.str_()
    period = reader.double()
    threshold = reader.varint()
    alerts = reader.varint()
    flow_stats = reader.flow_stats
    flows = tuple([flow_stats() for _ in range(reader.uvarint())])
    return MonitorSnapshot(host=host, period=period, poor_threshold=threshold,
                           alerts_raised=alerts, flows=flows)


def encode_monitor_pull() -> bytes:
    """Encode a monitor-state pull request (reply: a state snapshot)."""
    return _frame(MSG_MONITOR_PULL)


def encode_monitor_reopen() -> bytes:
    """Encode the re-open-alerting command: the worker runs its monitor's
    ``reset_stats()`` (alert counter zeroed, every ``alerted`` latch
    cleared) - the operation itself, where a state frame would ship its
    result flow by flow.  ``reset_stats`` addresses one to
    :data:`EVERY_HOST` per worker."""
    return _frame(MSG_MONITOR_REOPEN)


# ------------------------------------------------------------ shard queries
class ShardQuery(NamedTuple):
    """A decoded shard query (see *Shard queries*).

    Attributes:
        request: the bare ``MSG_QUERY_REQUEST`` frame every host answers.
        units: one fold per partial to send back: a host-less root whose
            children are the unit's plan subtrees, in plan order.
        hosts: every host the units name, in plan order.
    """

    request: bytes
    units: List[PlanNode]
    hosts: List[str]


def encode_fold_units(units: Sequence[PlanNode]) -> bytes:
    """Encode the fold units of a shard query: each a host-less root over
    plan subtrees that lie wholly in one group's shard, which the worker
    folds into one partial (a direct plan's run of hosts, a multi-level
    plan's run of sibling subtrees, or one host's own result)."""
    body = bytearray()
    hosts: List[str] = []
    w_uvarint(body, len(units))
    for unit in units:
        _w_forest(body, unit.children, hosts)
    head = bytearray()
    w_uvarint(head, len(hosts))
    return bytes(head + body)


def encode_shard_query(request: bytes, units: bytes) -> bytes:
    """Encode the one query entry a worker group is sent: the bare
    ``request`` frame and the group's :func:`encode_fold_units`.
    Addressed to :data:`EVERY_HOST`; the frame names its hosts."""
    head = bytearray()
    w_uvarint(head, len(request))
    return _frame(MSG_SHARD_QUERY, bytes(head) + request + units)


@_decoder(MSG_SHARD_QUERY)
def decode_shard_query(reader: _Reader) -> ShardQuery:
    """Inverse of :func:`encode_shard_query`."""
    request = reader.bytes_()
    width = reader.uvarint()
    hosts: List[str] = []
    units: List[PlanNode] = []
    for _ in range(reader.uvarint()):
        subtrees = reader.forest(hosts)
        if not subtrees:
            raise WireError("empty fold unit in a shard query")
        units.append(PlanNode(None, children=subtrees))
    if len(hosts) != width:
        raise WireError(f"shard query names {width} hosts but holds "
                        f"{len(hosts)}")
    return ShardQuery(request, units, hosts)


class ShardResult(NamedTuple):
    """A decoded shard result (see *Shard queries*).

    Attributes:
        reports: ``(host, exec_s, merge_s, response bytes)`` per host, in
            the query's host order.
        partials: ``(merge_s, QueryResult)`` per fold unit, in order: the
            unit's own merge time and its folded partial.
        alarms: every host's piggybacked alarms, in host order.
        stages: the worker's span tail (empty when not traced).
    """

    reports: List[Tuple[str, float, float, int]]
    partials: List[Tuple[float, Any]]
    alarms: List[Alarm]
    stages: Dict[str, int]


def encode_shard_result(reports: Sequence[Tuple[str, float, float, int]],
                        partials: Sequence[Tuple[float, bytes]],
                        alarms: Sequence[Alarm],
                        stages: Optional[Dict[str, int]] = None) -> bytes:
    """Encode a worker group's answer to a shard query: ``reports`` per
    host, each fold unit's ``(merge_s, partial)`` - the partial an
    :func:`encode_result` frame carrying no alarm: the hosts' ``alarms``
    travel once, after the partials - then the span tail: a traced
    query's ``stages`` with ``t.encode`` (this encode, tail aside)
    stamped here, or one ``0`` byte."""
    started = time.perf_counter() if stages is not None else 0.0
    body = bytearray()
    w_uvarint(body, len(reports))
    for host, exec_s, merge_s, response in reports:
        w_str(body, host)
        body += DOUBLE.pack(exec_s)
        body += DOUBLE.pack(merge_s)
        w_uvarint(body, response)
    w_uvarint(body, len(partials))
    for merge_s, frame in partials:
        body += DOUBLE.pack(merge_s)
        w_uvarint(body, len(frame))
        body += frame
    _w_alarms(body, alarms)
    if stages is None:
        body.append(0)
    else:
        stages["t.encode"] = micros(time.perf_counter() - started)
        _w_counters(body, stages)
    return _frame(MSG_SHARD_RESULT, bytes(body))


@_decoder(MSG_SHARD_RESULT)
def decode_shard_result(reader: _Reader, query: Any = None) -> ShardResult:
    """Inverse of :func:`encode_shard_result`; each partial is decoded by
    :func:`decode_result` (``query`` as there), its ``wire_bytes`` its
    frame's length."""
    reports = reader.reports()
    partials: List[Tuple[float, Any]] = []
    for _ in range(reader.uvarint()):
        merge_s = reader.double()
        partials.append((merge_s, decode_result(reader.bytes_(), query)))
    alarms = reader.alarms()
    _counters, stages, _stage_bytes = reader.counters()
    return ShardResult(reports, partials, alarms, stages or {})


def hosts_named(frame: bytes) -> Optional[int]:
    """How many hosts a shard query or shard result names, read off its
    head; ``None`` for any other frame, or one too short to say."""
    kind = frame[HEADER_BYTES - 1] if len(frame) > HEADER_BYTES else None
    if kind != MSG_SHARD_QUERY and kind != MSG_SHARD_RESULT:
        return None
    reader = Reader(frame, HEADER_BYTES)
    try:
        if kind == MSG_SHARD_QUERY:
            request = reader.uvarint()
            reader.pos += request  # past the request
        return reader.uvarint()
    except WireError:
        return None


# ----------------------------------------------------------- group transport
def encode_group_batch(correlation_id: int,
                       entries: Sequence[Tuple[str, bytes]]) -> bytes:
    """Encode a coalesced per-group envelope.

    ``entries`` is ``(host, inner frame)`` per host - ingest batches or
    query requests for every host a worker group owns packed into *one*
    message, amortizing the per-frame transport cost the event-plane bench
    exposed.  A question asked of the whole shard is one entry whose host
    is :data:`EVERY_HOST`: a sweep's monitor tick (its reply one alarm
    batch for the shard) and a re-open.  ``correlation_id`` tags the
    envelope so one multiplexed connection can interleave request/reply
    pairs: the reply is a ``MSG_GROUP_BATCH`` echoing the same id with one
    reply frame per entry, in entry order, each under the host its entry
    named.  Id ``0`` marks a fire-and-forget envelope (ingest streams,
    re-opens) that produces no reply.
    """
    body = bytearray()
    w_uvarint(body, correlation_id)
    w_uvarint(body, len(entries))
    for host, inner in entries:
        w_str(body, host)
        w_uvarint(body, len(inner))
        body += inner
    return _frame(MSG_GROUP_BATCH, bytes(body))


def group_batch_len(correlation_id: int,
                    entries: Sequence[Tuple[str, bytes]]) -> int:
    """Exact ``len(encode_group_batch(correlation_id, entries))``, built
    from no bytes."""
    size = (HEADER_BYTES + uvarint_len(correlation_id)
            + uvarint_len(len(entries)))
    for host, inner in entries:
        size += str_len(host) + uvarint_len(len(inner)) + len(inner)
    return size


@_decoder(MSG_GROUP_BATCH)
def decode_group_batch(reader: _Reader
                       ) -> Tuple[int, List[Tuple[str, bytes]]]:
    """Inverse of :func:`encode_group_batch`:
    ``(correlation_id, [(host, inner frame), ...])``."""
    correlation_id = reader.uvarint()
    entries = []
    str_, bytes_ = reader.str_, reader.bytes_
    for _ in range(reader.uvarint()):
        host = str_()
        inner = bytes_()
        if len(inner) < HEADER_BYTES:
            raise WireError("group-batch entry shorter than a frame header")
        entries.append((host, inner))
    return correlation_id, entries


def encode_close_torn() -> bytes:
    """Encode the torn-close debug command (chaos harness).

    A group worker receiving this writes a *deliberately torn* stream
    frame - a length prefix promising more bytes than it sends - and then
    closes its connection, reproducing a worker dying mid-frame.  The
    controller's stream reader must surface that as
    :class:`WireDecodeError`-driven worker failure, never a hang or a
    desynchronised read.
    """
    return _frame(MSG_CLOSE_TORN)


# ------------------------------------------------------------ stream framing
# A worker connection is a byte stream with no message boundaries, so
# each frame travels length-delimited: a 4-byte little-endian length
# prefix, then the frame bytes.  The reader below reassembles frames from
# arbitrarily split reads and converts every malformed stream - oversized
# lengths, EOF inside a prefix or a frame, garbage where a header should
# be - into :class:`WireDecodeError`, the same worker-failure signal a
# corrupt reply raises.

_STREAM_PREFIX = struct.Struct("<I")
#: Bytes of the stream length prefix.
STREAM_PREFIX_BYTES = _STREAM_PREFIX.size
#: Upper bound on one stream frame; a length prefix beyond it means the
#: stream is corrupt (or adversarial) and the connection is torn down
#: rather than buffered against.
MAX_FRAME_BYTES = 64 << 20


def stream_frame(frame: bytes) -> bytes:
    """Length-delimit one frame for a stream transport."""
    if len(frame) < HEADER_BYTES:
        raise WireError("stream frame shorter than a frame header")
    if len(frame) > MAX_FRAME_BYTES:
        raise WireError(f"stream frame of {len(frame)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte cap")
    return _STREAM_PREFIX.pack(len(frame)) + frame


class StreamFrameReader:
    """Incremental reassembler of length-delimited frames.

    Feed it whatever ``recv`` returned; it yields every frame completed so
    far and buffers the rest.  All validation failures poison the reader:
    once a stream has produced garbage there is no resynchronisation
    point, so every later ``feed``/``eof`` raises too.
    """

    __slots__ = ("_buf", "_failed")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._failed = False

    def _fail(self, detail: str) -> WireDecodeError:
        self._failed = True
        return WireDecodeError(detail)

    def feed(self, data: bytes) -> List[bytes]:
        """Buffer ``data``; return the frames it completed (possibly [])."""
        if self._failed:
            raise WireDecodeError("stream reader already failed")
        self._buf += data
        frames: List[bytes] = []
        while True:
            if len(self._buf) < STREAM_PREFIX_BYTES:
                return frames
            length = _STREAM_PREFIX.unpack_from(self._buf, 0)[0]
            if length > MAX_FRAME_BYTES:
                raise self._fail(
                    f"stream frame length {length} exceeds the "
                    f"{MAX_FRAME_BYTES}-byte cap")
            if length < HEADER_BYTES:
                raise self._fail(
                    f"stream frame length {length} shorter than a header")
            if len(self._buf) < STREAM_PREFIX_BYTES + length:
                return frames
            frame = bytes(
                self._buf[STREAM_PREFIX_BYTES:STREAM_PREFIX_BYTES + length])
            del self._buf[:STREAM_PREFIX_BYTES + length]
            try:
                open_frame(frame)
            except WireError as error:
                raise self._fail(f"corrupt frame in stream: {error}")
            frames.append(frame)

    def eof(self) -> None:
        """Declare end-of-stream; raises if it cut a frame short."""
        if self._failed:
            raise WireDecodeError("stream reader already failed")
        if self._buf:
            raise self._fail(
                f"stream truncated mid-frame ({len(self._buf)} dangling "
                f"bytes)")

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame (diagnostics)."""
        return len(self._buf)
