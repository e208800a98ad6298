"""Versioned binary wire codec for PathDump's control-plane messages.

Until this module existed, every "wire byte" in the query traffic accounting
was an *estimate*: per-payload-kind size constants in :mod:`repro.core.query`,
a fixed-plus-per-hop formula in :mod:`repro.storage.records`, a
bytes-per-host guess in :mod:`repro.core.aggregation`.  This module defines
the real thing - a compact, struct-packed binary encoding of every message
that crosses the controller <-> agent boundary - and the accounting layers
now report ``len(encoded)`` of these frames (the old estimators survive as
cross-checks only).

The same frames are what actually travels to the
:mod:`~repro.core.agentserver` worker processes in ``mode="process"``:
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
length prefix.  Arbitrary query parameters and result payloads use a
tagged-value encoding (``NONE``/``TRUE``/``FALSE``/``INT``/``FLOAT``/
``STR``/``BYTES``/``LIST``/``TUPLE``/``DICT``/``SET``/``FROZENSET``/
``FLOWID``) that preserves container and :class:`FlowId` types exactly -
the property the "payload-identical across execution modes" guarantee is
verified against, byte for byte.

Message kinds: query requests (query + optional aggregation-subtree spec,
batched into one frame exactly as the executor batches the logical edge
payloads), record batches (the simulator -> agent-server ingest stream),
query results / partial aggregates (with any pending host alarms
piggybacked - the asynchronous agent -> controller alert channel drains on
the reply), the event-plane frames (transfer-observation batches, monitor
ticks, alarm batches, monitor-state snapshots/pulls), and the small control
frames of the agent-server protocol (error, ping/pong, reset, sleep,
shutdown).
"""

from __future__ import annotations

import functools
import struct
from array import array
from itertools import accumulate
from operator import itemgetter
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar, Union, cast)

from repro.core.alarms import Alarm
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
#: replaced by the column-major segment codec below; segment blobs never
#: travel, so that replacement did not move the version).
#: Version 5: the group transport exists - hello frames, correlated
#: ``MSG_GROUP_BATCH`` envelopes that coalesce per-host frames for a whole
#: worker group, the torn-close debug command, and the length-delimited
#: stream framing socket mode speaks.
#: Version 6: the generic plan frames exist - ``MSG_PLAN_REQUEST`` carries
#: a declarative :mod:`repro.core.plan` pipeline (one frame kind for *any*
#: question, so new questions never add frames again) and
#: ``MSG_PLAN_RESULT`` extends the result layout with the per-plan
#: scan-stat counters (hot-index routing + cold pruning work).
MAGIC = b"PD"
WIRE_VERSION = 6

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
MSG_GROUP_HELLO = 17
MSG_GROUP_BATCH = 18
MSG_CLOSE_TORN = 19
MSG_PLAN_REQUEST = 20
MSG_PLAN_RESULT = 21

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

_DOUBLE = struct.Struct("<d")


class WireError(ValueError):
    """A message could not be encoded or decoded."""


class WireDecodeError(WireError):
    """A frame was corrupt in a way a decoder did not anticipate.

    The reader's explicit validations raise :class:`WireError` directly;
    anything else a truncated or bit-flipped frame provokes deep inside a
    decoder (``struct.error``, ``IndexError``, ``UnicodeDecodeError``,
    ``OverflowError``, ...) is wrapped into this subclass by the decode
    entry points - callers handle every corruption uniformly with
    ``except WireError`` and never see a raw internal exception.  The
    agent-server pool treats it as a worker failure: an undecodable reply
    means the strict request/reply protocol is desynchronised, so the
    worker is killed (and, when supervised, restarted and re-seeded).
    """


_Decoder = TypeVar("_Decoder", bound=Callable[..., Any])


def _guarded(decoder: _Decoder) -> _Decoder:
    """Wrap a decode entry point so unexpected corruption surfaces as
    :class:`WireDecodeError` instead of a raw internal exception."""
    @functools.wraps(decoder)
    def decode(*args: Any, **kwargs: Any) -> Any:
        try:
            return decoder(*args, **kwargs)
        except WireError:
            raise
        except Exception as error:
            raise WireDecodeError(
                f"corrupt frame: {type(error).__name__}: {error}") from error
    return cast(_Decoder, decode)


class SubtreeSpec(NamedTuple):
    """The aggregation-subtree description shipped with a multi-level query.

    Attributes:
        root: the host responsible for this subtree.
        hosts: every host in the subtree (including ``root``), pre-order.
    """

    root: str
    hosts: Tuple[str, ...]


# --------------------------------------------------------------------------
# Primitive writers
# --------------------------------------------------------------------------
def _w_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"negative value {value} for unsigned varint")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _w_varint(buf: bytearray, value: int) -> None:
    # Zigzag: arbitrary-precision safe in both directions.
    _w_uvarint(buf, value << 1 if value >= 0 else ((-value) << 1) - 1)


def _w_str(buf: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    _w_uvarint(buf, len(data))
    buf += data


def _w_flow_id(buf: bytearray, flow_id: FlowId) -> None:
    _w_str(buf, flow_id.src_ip)
    _w_str(buf, flow_id.dst_ip)
    _w_varint(buf, flow_id.src_port)
    _w_varint(buf, flow_id.dst_port)
    _w_varint(buf, flow_id.protocol)


def _w_value(buf: bytearray, value: Any) -> None:
    kind = type(value)
    if value is None:
        buf.append(_V_NONE)
    elif kind is bool:
        buf.append(_V_TRUE if value else _V_FALSE)
    elif kind is int:
        buf.append(_V_INT)
        _w_varint(buf, value)
    elif kind is float:
        buf.append(_V_FLOAT)
        buf += _DOUBLE.pack(value)
    elif kind is str:
        buf.append(_V_STR)
        _w_str(buf, value)
    elif kind is FlowId:
        buf.append(_V_FLOWID)
        _w_flow_id(buf, value)
    elif kind is tuple or kind is list:
        buf.append(_V_TUPLE if kind is tuple else _V_LIST)
        _w_uvarint(buf, len(value))
        for item in value:
            _w_value(buf, item)
    elif kind is dict:
        buf.append(_V_DICT)
        _w_uvarint(buf, len(value))
        for key, item in value.items():
            _w_value(buf, key)
            _w_value(buf, item)
    elif kind is set or kind is frozenset:
        buf.append(_V_SET if kind is set else _V_FROZENSET)
        _w_uvarint(buf, len(value))
        # Sorted by encoding so equal sets encode to equal bytes.
        chunks = []
        for item in value:
            chunk = bytearray()
            _w_value(chunk, item)
            chunks.append(bytes(chunk))
        for chunk in sorted(chunks):
            buf += chunk
    elif kind is bytes or kind is bytearray:
        buf.append(_V_BYTES)
        _w_uvarint(buf, len(value))
        buf += value
    # Slow path: subclasses (bool already handled; NamedTuples other than
    # FlowId encode as plain tuples).
    elif isinstance(value, bool):
        buf.append(_V_TRUE if value else _V_FALSE)
    elif isinstance(value, int):
        buf.append(_V_INT)
        _w_varint(buf, value)
    elif isinstance(value, float):
        buf.append(_V_FLOAT)
        buf += _DOUBLE.pack(value)
    elif isinstance(value, FlowId):
        buf.append(_V_FLOWID)
        _w_flow_id(buf, value)
    elif isinstance(value, (tuple, list)):
        buf.append(_V_TUPLE if isinstance(value, tuple) else _V_LIST)
        _w_uvarint(buf, len(value))
        for item in value:
            _w_value(buf, item)
    else:
        raise WireError(f"cannot encode value of type {kind.__name__}")


def _w_record(buf: bytearray, record: PathFlowRecord) -> None:
    _w_flow_id(buf, record.flow_id)
    _w_uvarint(buf, len(record.path))
    for node in record.path:
        _w_str(buf, node)
    buf += _DOUBLE.pack(record.stime)
    buf += _DOUBLE.pack(record.etime)
    _w_varint(buf, record.bytes)
    _w_varint(buf, record.pkts)


def _w_spec(buf: bytearray, spec: SubtreeSpec) -> None:
    _w_str(buf, spec.root)
    _w_uvarint(buf, len(spec.hosts))
    for host in spec.hosts:
        _w_str(buf, host)


def _w_alarm(buf: bytearray, alarm: Alarm) -> None:
    _w_flow_id(buf, alarm.flow_id)
    _w_str(buf, alarm.reason)
    _w_uvarint(buf, len(alarm.paths))
    for path in alarm.paths:
        _w_uvarint(buf, len(path))
        for node in path:
            _w_str(buf, node)
    _w_str(buf, alarm.host)
    buf += _DOUBLE.pack(alarm.time)
    _w_str(buf, alarm.detail)


def _w_observation(buf: bytearray, obs: TransferObservation) -> None:
    _w_flow_id(buf, obs.flow_id)
    _w_varint(buf, obs.retransmissions)
    _w_varint(buf, obs.consecutive)
    _w_varint(buf, obs.timeouts)
    _w_varint(buf, obs.bytes_sent)
    buf += _DOUBLE.pack(obs.when)


def _w_flow_stats(buf: bytearray, stats: TcpFlowStats) -> None:
    _w_flow_id(buf, stats.flow_id)
    _w_varint(buf, stats.retransmissions)
    _w_varint(buf, stats.consecutive_retransmissions)
    _w_varint(buf, stats.max_consecutive_retransmissions)
    _w_varint(buf, stats.timeouts)
    _w_varint(buf, stats.bytes_sent)
    buf += _DOUBLE.pack(stats.last_update)
    buf.append(1 if stats.alerted else 0)


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------
class _Reader:
    """Sequential decoder over one frame's bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def _need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise WireError("truncated frame")

    def u8(self) -> int:
        self._need(1)
        value = self.data[self.pos]
        self.pos += 1
        return value

    def uvarint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def varint(self) -> int:
        value = self.uvarint()
        return -((value + 1) >> 1) if value & 1 else value >> 1

    def double(self) -> float:
        self._need(8)
        value = _DOUBLE.unpack_from(self.data, self.pos)[0]
        self.pos += 8
        return value

    def str_(self) -> str:
        count = self.uvarint()
        self._need(count)
        value = self.data[self.pos:self.pos + count]
        self.pos += count
        try:
            return bytes(value).decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireError(f"invalid UTF-8 string: {error}") from None

    def bytes_(self) -> bytes:
        count = self.uvarint()
        self._need(count)
        value = bytes(self.data[self.pos:self.pos + count])
        self.pos += count
        return value

    def flow_id(self) -> FlowId:
        return FlowId(self.str_(), self.str_(), self.varint(),
                      self.varint(), self.varint())

    def value(self) -> Any:
        tag = self.u8()
        if tag == _V_NONE:
            return None
        if tag == _V_TRUE:
            return True
        if tag == _V_FALSE:
            return False
        if tag == _V_INT:
            return self.varint()
        if tag == _V_FLOAT:
            return self.double()
        if tag == _V_STR:
            return self.str_()
        if tag == _V_BYTES:
            return self.bytes_()
        if tag == _V_FLOWID:
            return self.flow_id()
        if tag in (_V_LIST, _V_TUPLE):
            count = self.uvarint()
            items = [self.value() for _ in range(count)]
            return tuple(items) if tag == _V_TUPLE else items
        if tag == _V_DICT:
            count = self.uvarint()
            return {self.value(): self.value() for _ in range(count)}
        if tag in (_V_SET, _V_FROZENSET):
            count = self.uvarint()
            items = {self.value() for _ in range(count)}
            return items if tag == _V_SET else frozenset(items)
        raise WireError(f"unknown value tag {tag}")

    def record(self) -> PathFlowRecord:
        flow_id = self.flow_id()
        count = self.uvarint()
        path = tuple(self.str_() for _ in range(count))
        stime = self.double()
        etime = self.double()
        nbytes = self.varint()
        pkts = self.varint()
        return PathFlowRecord(flow_id=flow_id, path=path, stime=stime,
                              etime=etime, bytes=nbytes, pkts=pkts)

    def spec(self) -> SubtreeSpec:
        root = self.str_()
        count = self.uvarint()
        return SubtreeSpec(root, tuple(self.str_() for _ in range(count)))

    def alarm(self) -> Alarm:
        flow_id = self.flow_id()
        reason = self.str_()
        paths = []
        for _ in range(self.uvarint()):
            hops = self.uvarint()
            paths.append(tuple(self.str_() for _ in range(hops)))
        host = self.str_()
        when = self.double()
        detail = self.str_()
        return Alarm(flow_id=flow_id, reason=reason, paths=paths, host=host,
                     time=when, detail=detail)

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


@_guarded
def open_frame(data: bytes) -> Tuple[int, _Reader]:
    """Validate a frame header; return ``(msg_type, body reader)``."""
    if len(data) < HEADER_BYTES:
        raise WireError("frame shorter than header")
    magic, version, msg_type = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version} "
                        f"(speaking {WIRE_VERSION})")
    return msg_type, _Reader(data, HEADER_BYTES)


def frame_type(data: bytes) -> int:
    """The message type of a frame (header validated)."""
    return open_frame(data)[0]


def _expect(data: bytes, msg_type: int) -> _Reader:
    kind, reader = open_frame(data)
    if kind != msg_type:
        raise WireError(f"expected message type {msg_type}, got {kind}")
    return reader


# ------------------------------------------------------------------- values
def encode_value(value: Any) -> bytes:
    """Encode one tagged value (payloads, parameters)."""
    buf = bytearray()
    _w_value(buf, value)
    return bytes(buf)


@_guarded
def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`."""
    reader = _Reader(data)
    value = reader.value()
    if reader.pos != len(data):
        raise WireError("trailing bytes after value")
    return value


def payload_wire_bytes(payload: Any) -> int:
    """Measured serialized size of a result payload."""
    buf = bytearray()
    _w_value(buf, payload)
    return len(buf)


# ------------------------------------------------------------------ queries
def _w_query(buf: bytearray, query) -> None:
    _w_str(buf, query.name)
    params = query.params
    _w_uvarint(buf, len(params))
    for key, value in params.items():
        _w_str(buf, key)
        _w_value(buf, value)
    _w_value(buf, query.period)


def encode_query(query) -> bytes:
    """Encode a bare query request (no subtree spec)."""
    return encode_query_request(query, None)


def encode_query_request(query, spec: Optional[SubtreeSpec]) -> bytes:
    """Encode the batched parent->child edge message: query + optional
    aggregation-subtree description in one frame.

    Plan queries (``query.name == "plan"``) route to the generic
    :func:`encode_plan_request` frame; every other name keeps the legacy
    ``MSG_QUERY_REQUEST`` layout byte for byte.
    """
    if query.name == _plan.PLAN_QUERY_NAME:
        return encode_plan_request(query, spec)
    body = bytearray()
    _w_query(body, query)
    if spec is None:
        body.append(0)
    else:
        body.append(1)
        _w_spec(body, spec)
    return _frame(MSG_QUERY_REQUEST, bytes(body))


def request_with_spec(request: bytes, spec: SubtreeSpec) -> bytes:
    """``encode_query_request(query, spec)`` built from the bare frame
    ``encode_query_request(query, None)``, byte for byte.

    Both request layouts end in the optional-spec tail, so a multi-level
    scatter encodes its query once and splices each tree edge's subtree
    description in instead of re-encoding the query per host.
    """
    if request[-1:] != b"\x00":
        raise WireError("not a bare query request frame")
    body = bytearray(request[:-1])
    body.append(1)
    _w_spec(body, spec)
    return bytes(body)


@_guarded
def decode_query_request(data: bytes):
    """Decode a query request; returns ``(Query, Optional[SubtreeSpec])``.

    Accepts both frame kinds a controller ships: the legacy
    ``MSG_QUERY_REQUEST`` layout and the generic ``MSG_PLAN_REQUEST``.
    """
    kind, reader = open_frame(data)
    if kind == MSG_PLAN_REQUEST:
        return _read_plan_request(reader)
    if kind != MSG_QUERY_REQUEST:
        raise WireError(f"expected message type {MSG_QUERY_REQUEST}, "
                        f"got {kind}")
    from repro.core.query import Query
    name = reader.str_()
    params = {}
    for _ in range(reader.uvarint()):
        key = reader.str_()
        params[key] = reader.value()
    period = reader.value()
    spec = reader.spec() if reader.u8() else None
    return Query(name=name, params=params, period=period), spec


def encode_subtree_spec(spec: SubtreeSpec) -> bytes:
    """Encode a standalone subtree description (used for sizing the spec
    part of a batched request)."""
    body = bytearray()
    _w_spec(body, spec)
    return _frame(MSG_SUBTREE_SPEC, bytes(body))


@_guarded
def decode_subtree_spec(data: bytes) -> SubtreeSpec:
    """Inverse of :func:`encode_subtree_spec`."""
    return _expect(data, MSG_SUBTREE_SPEC).spec()


# -------------------------------------------------------------------- plans
def _w_plan(buf: bytearray, plan: "_plan.Plan") -> None:
    """Encode one declarative plan: op count, then one tagged op body per
    pipeline stage.  Every registered ``OP_*`` has its encoder leg here
    (lint rule R9 ``plan-op-completeness`` gates exactly that)."""
    _w_uvarint(buf, len(plan.ops))
    for op in plan.ops:
        if isinstance(op, _plan.Filter):
            buf.append(_plan.OP_FILTER)
            _w_value(buf, op.start)
            _w_value(buf, op.end)
            _w_uvarint(buf, len(op.links))
            for a, b in op.links:
                _w_value(buf, a)
                _w_value(buf, b)
            _w_uvarint(buf, len(op.flow_keys))
            for fkey in op.flow_keys:
                _w_str(buf, fkey)
            _w_value(buf, op.path)
        elif isinstance(op, _plan.Project):
            buf.append(_plan.OP_PROJECT)
            _w_uvarint(buf, len(op.fields))
            for name in op.fields:
                _w_str(buf, name)
        elif isinstance(op, _plan.Aggregate):
            buf.append(_plan.OP_AGGREGATE)
            _w_str(buf, op.func)
            _w_uvarint(buf, len(op.fields))
            for name in op.fields:
                _w_str(buf, name)
            _w_uvarint(buf, len(op.by))
            for name in op.by:
                _w_str(buf, name)
            _w_uvarint(buf, op.binsize)
        elif isinstance(op, _plan.TopK):
            buf.append(_plan.OP_TOPK)
            _w_uvarint(buf, op.k)
            _w_str(buf, op.key)
            _w_str(buf, op.order)
        else:
            raise WireError(f"unencodable plan op {type(op).__name__}")


def _r_plan(reader: _Reader) -> "_plan.Plan":
    """Decoder legs of the plan ops; the decoded plan is re-validated so a
    corrupt or hostile frame can never smuggle an ill-formed pipeline past
    the constructor normalisation."""
    ops: List[Any] = []
    for _ in range(reader.uvarint()):
        code = reader.u8()
        if code == _plan.OP_FILTER:
            start = reader.value()
            end = reader.value()
            links = tuple((reader.value(), reader.value())
                          for _ in range(reader.uvarint()))
            flow_keys = tuple(reader.str_()
                              for _ in range(reader.uvarint()))
            path = reader.value()
            ops.append(_plan.Filter(start=start, end=end, links=links,
                                    flow_keys=flow_keys, path=path))
        elif code == _plan.OP_PROJECT:
            fields = tuple(reader.str_() for _ in range(reader.uvarint()))
            ops.append(_plan.Project(fields=fields))
        elif code == _plan.OP_AGGREGATE:
            func = reader.str_()
            fields = tuple(reader.str_() for _ in range(reader.uvarint()))
            by = tuple(reader.str_() for _ in range(reader.uvarint()))
            binsize = reader.uvarint()
            ops.append(_plan.Aggregate(func=func, fields=fields, by=by,
                                       binsize=binsize))
        elif code == _plan.OP_TOPK:
            k = reader.uvarint()
            key = reader.str_()
            order = reader.str_()
            ops.append(_plan.TopK(k=k, key=key, order=order))
        else:
            raise WireError(f"unknown plan op code {code}")
    plan = _plan.Plan(ops=tuple(ops))
    try:
        _plan.validate(plan)
    except _plan.PlanError as exc:
        raise WireError(f"invalid plan: {exc}") from exc
    return plan


def encode_plan_request(query, spec: Optional[SubtreeSpec] = None) -> bytes:
    """Encode the generic plan request frame: the declarative pipeline plus
    the same period / optional-subtree tail a legacy query request carries,
    so plans ride every transport (pipe, socket, ``MSG_GROUP_BATCH``
    coalescing) without transport changes."""
    plan = query.params.get("plan")
    if query.name != _plan.PLAN_QUERY_NAME or \
            not isinstance(plan, _plan.Plan):
        raise WireError("a plan request needs name 'plan' and a Plan "
                        "under params['plan']")
    body = bytearray()
    _w_plan(body, plan)
    _w_value(body, query.period)
    if spec is None:
        body.append(0)
    else:
        body.append(1)
        _w_spec(body, spec)
    return _frame(MSG_PLAN_REQUEST, bytes(body))


def _read_plan_request(reader: _Reader):
    from repro.core.query import Query
    plan = _r_plan(reader)
    period = reader.value()
    spec = reader.spec() if reader.u8() else None
    return Query(name=_plan.PLAN_QUERY_NAME, params={"plan": plan},
                 period=period), spec


@_guarded
def decode_plan_request(data: bytes):
    """Inverse of :func:`encode_plan_request`; returns
    ``(Query, Optional[SubtreeSpec])`` like :func:`decode_query_request`."""
    return _read_plan_request(_expect(data, MSG_PLAN_REQUEST))


def encode_plan_result(result) -> bytes:
    """Encode a (partial) plan result.

    Same layout as :func:`encode_result` plus a tail of per-plan scan-stat
    counters (sorted key/value pairs): how the hot tier routed the pushed
    filter and how much decode work cold pruning avoided on *this* plan.
    """
    body = bytearray()
    _w_str(body, result.query.name)
    _w_str(body, result.host)
    _w_varint(body, result.records_scanned)
    _w_varint(body, result.estimated_wire_bytes)
    _w_value(body, result.payload)
    alarms = getattr(result, "alarms", ())
    _w_uvarint(body, len(alarms))
    for alarm in alarms:
        _w_alarm(body, alarm)
    scan_stats = getattr(result, "scan_stats", None) or {}
    _w_uvarint(body, len(scan_stats))
    for key in sorted(scan_stats):
        _w_str(body, key)
        _w_varint(body, scan_stats[key])
    return _frame(MSG_PLAN_RESULT, bytes(body))


@_guarded
def decode_plan_result(data: bytes, query=None):
    """Inverse of :func:`encode_plan_result`; returns a
    :class:`~repro.core.query.QueryResult` with ``scan_stats`` populated."""
    from repro.core.query import Query, QueryResult
    reader = _expect(data, MSG_PLAN_RESULT)
    name = reader.str_()
    host = reader.str_()
    scanned = reader.varint()
    estimated = reader.varint()
    payload = reader.value()
    alarms = tuple(reader.alarm() for _ in range(reader.uvarint()))
    scan_stats = {}
    for _ in range(reader.uvarint()):
        key = reader.str_()
        scan_stats[key] = reader.varint()
    if query is not None and query.name != name:
        raise WireError(f"result for query {name!r} does not answer "
                        f"{query.name!r}")
    return QueryResult(query=query if query is not None else Query(name),
                       payload=payload, wire_bytes=len(data),
                       records_scanned=scanned, estimated_wire_bytes=estimated,
                       host=host, alarms=alarms, scan_stats=scan_stats)


# ------------------------------------------------------------------ records
def record_wire_bytes(record: PathFlowRecord) -> int:
    """Measured serialized size of one record (its batch-body bytes)."""
    buf = bytearray()
    _w_record(buf, record)
    return len(buf)


#: Append one record's batch-body bytes: with :func:`finish_batch`, the
#: incremental form of :func:`encode_record_batch` (the worker plane's
#: outbox encodes bodies as records arrive and frames them once).
append_record = _w_record


def finish_batch(msg_type: int, count: int,
                 bodies: Union[bytes, bytearray]) -> bytes:
    """Frame ``count`` already-encoded batch bodies (``bodies`` is their
    concatenation) as one ``MSG_RECORD_BATCH``/``MSG_OBSERVATION_BATCH``."""
    head = bytearray()
    _w_uvarint(head, count)
    return _frame(msg_type, bytes(head) + bodies)


def encode_record_batch(records: Sequence[PathFlowRecord]) -> bytes:
    """Encode a record batch (the simulator -> agent-server ingest frame)."""
    body = bytearray()
    for record in records:
        _w_record(body, record)
    return finish_batch(MSG_RECORD_BATCH, len(records), body)


@_guarded
def decode_record_batch(data: bytes) -> List[PathFlowRecord]:
    """Inverse of :func:`encode_record_batch`."""
    reader = _expect(data, MSG_RECORD_BATCH)
    return [reader.record() for _ in range(reader.uvarint())]


# ----------------------------------------------------------- cold segments
# A sealed segment of the cold archive (:mod:`repro.storage.archive`) is one
# immutable ``bytes`` blob laid out column-major::
#
#     +--------+------+----------------+-----------------+
#     | "PDSG" | rows | 15 type codes  | 15 byte sizes   |  header
#     +--------+------+----------------+-----------------+
#     | id | stime | etime | bytes | pkts |                  one value per row
#     | src_port | dst_port | protocol |
#     | src | dst | path |                                   one index per row
#     +--------------------------------------------------+
#     | path_ends | path_nodes |                             path table
#     | name_ends | name_text  |                             name dictionary
#     +--------------------------------------------------+
#
# ``src``/``dst`` index the segment's name dictionary and ``path`` its path
# table: path ``p`` is the names at ``path_nodes[path_ends[p-1]:
# path_ends[p]]``, name ``i`` the characters ``[name_ends[i-1]:
# name_ends[i])`` of the UTF-8 ``name_text``.  Both dictionaries are in
# first-appearance order, so equal row streams pack to equal bytes in every
# process.  Every numeric section is a fixed-width array in native byte
# order (segment blobs never travel) whose width is chosen per segment from
# the values present - ports cost two bytes, not eight - and reads back
# through ``memoryview.cast``: zero-copy, no parse loop.  The integer
# domain is all of ``int``: a column holding a value that no 64-bit width
# fits is stored as zigzag varints (type code ``V``), losslessly.  The two
# time columns are IEEE doubles.

#: The per-row columns in blob order; the ``SEG_*`` constants index them.
SEGMENT_COLUMNS = ("id", "stime", "etime", "bytes", "pkts", "src_port",
                   "dst_port", "protocol", "src", "dst", "path")
(SEG_ID, SEG_STIME, SEG_ETIME, SEG_BYTES, SEG_PKTS, SEG_SRC_PORT,
 SEG_DST_PORT, SEG_PROTOCOL, SEG_SRC, SEG_DST, SEG_PATH) = range(11)
_SEG_PATH_ENDS, _SEG_PATH_NODES, _SEG_NAME_ENDS, _SEG_NAME_TEXT = range(11, 15)

_SEGMENT_MAGIC = b"PDSG"
_SEGMENT_HEAD = struct.Struct("=4sI15s15I")
_CODE_WIDE, _CODE_TEXT = "V", "U"
#: Fixed-width cell codecs per type code (``=``: native order, unpadded).
_CELLS = {code: struct.Struct("=" + code) for code in "BHIQbhiqd"}


def _pack_ints(values: Sequence[int]) -> Tuple[str, bytes]:
    """One integer column as ``(type code, bytes)`` at the narrowest width
    that holds every value present - unsigned widths first, then signed,
    then the varint escape for values no 64-bit width fits."""
    for code in "BHIQbhiq":
        try:
            return code, array(code, values).tobytes()
        except OverflowError:
            continue
    buf = bytearray()
    for value in values:
        _w_varint(buf, value)
    return _CODE_WIDE, bytes(buf)


def _select(values: Sequence[Any], rows: Sequence[int]) -> Sequence[Any]:
    """``values[row]`` for every row of a non-empty ``rows``, at C speed."""
    picked = itemgetter(*rows)(values)
    return picked if len(rows) > 1 else (picked,)


class _SegmentRows:
    """The read surface sealed and unsealed rows share: columns by
    ``SEG_*`` index plus the two dictionaries, and record materialisation
    written once on top of them."""

    __slots__ = ()

    def column(self, index: int) -> Sequence[Any]:
        """Column ``index`` (a ``SEG_*`` constant), one value per row."""
        raise NotImplementedError

    def cell(self, index: int, row: int) -> Any:
        """One value of column ``index`` (the point-read half)."""
        raise NotImplementedError

    def names(self) -> Sequence[str]:
        """The name dictionary, in index order."""
        raise NotImplementedError

    def paths(self) -> Sequence[Tuple[str, ...]]:
        """The path table, in index order."""
        raise NotImplementedError

    def records(self, rows: Optional[Sequence[int]] = None
                ) -> List[Tuple[int, PathFlowRecord]]:
        """Materialise ``rows`` (every row when ``None``) as ``(record id,
        record)`` pairs: dictionary lookups and two constructors a row.
        Every record is a fresh object - promotions merge into records in
        place, so nothing handed out here may alias a later one."""
        columns = [self.column(index)
                   for index in range(len(SEGMENT_COLUMNS))]
        if rows is not None:
            if not rows:
                return []
            columns = [_select(column, rows) for column in columns]
        names = self.names()
        paths = self.paths()
        return [(record_id, PathFlowRecord(
                    FlowId(names[src], names[dst], src_port, dst_port,
                           protocol),
                    paths[path], stime, etime, nbytes, pkts))
                for (record_id, stime, etime, nbytes, pkts, src_port,
                     dst_port, protocol, src, dst, path) in zip(*columns)]


class SegmentBuilder(_SegmentRows):
    """Unsealed rows: one Python list per column plus the dictionaries
    under construction.  Appending encodes nothing; :meth:`pack` turns the
    lists into a segment blob at C speed."""

    __slots__ = ("columns", "name_index", "path_index")

    def __init__(self) -> None:
        self.columns: Tuple[List[Any], ...] = tuple(
            [] for _ in SEGMENT_COLUMNS)
        self.name_index: Dict[str, int] = {}
        self.path_index: Dict[Tuple[str, ...], int] = {}

    @property
    def count(self) -> int:
        """Rows appended so far."""
        return len(self.columns[SEG_ID])

    def column(self, index: int) -> Sequence[Any]:
        return self.columns[index]

    def cell(self, index: int, row: int) -> Any:
        return self.columns[index][row]

    def names(self) -> List[str]:
        return list(self.name_index)

    def paths(self) -> List[Tuple[str, ...]]:
        return list(self.path_index)

    def _path(self, path: Tuple[str, ...]) -> int:
        index = self.path_index.get(path)
        if index is None:
            index = self.path_index[path] = len(self.path_index)
            names = self.name_index
            for node in path:
                names.setdefault(node, len(names))
        return index

    def append(self, record_id: int, record: PathFlowRecord) -> int:
        """Append one row; returns its row number."""
        names = self.name_index
        flow_id = record.flow_id
        (ids, stimes, etimes, nbytes, pkts, src_ports, dst_ports, protocols,
         srcs, dsts, paths) = self.columns
        ids.append(record_id)
        stimes.append(float(record.stime))
        etimes.append(float(record.etime))
        nbytes.append(record.bytes)
        pkts.append(record.pkts)
        src_ports.append(flow_id.src_port)
        dst_ports.append(flow_id.dst_port)
        protocols.append(flow_id.protocol)
        srcs.append(names.setdefault(flow_id.src_ip, len(names)))
        dsts.append(names.setdefault(flow_id.dst_ip, len(names)))
        paths.append(self._path(record.path))
        return len(ids) - 1

    def extend(self, source: _SegmentRows, rows: Sequence[int]) -> None:
        """Splice the non-empty ``rows`` of ``source`` in column by column
        (compaction), re-mapping its dictionary indexes onto this
        builder's."""
        names = self.name_index
        source_names = source.names()
        source_paths = source.paths()
        for index, column in enumerate(self.columns):
            moved = _select(source.column(index), rows)
            if index in (SEG_SRC, SEG_DST):
                mapping = {value: names.setdefault(source_names[value],
                                                   len(names))
                           for value in dict.fromkeys(moved)}
                moved = [mapping[value] for value in moved]
            elif index == SEG_PATH:
                mapping = {value: self._path(source_paths[value])
                           for value in dict.fromkeys(moved)}
                moved = [mapping[value] for value in moved]
            column += moved

    def pack(self) -> bytes:
        """The rows as one segment blob (what sealing stores, and whose
        length is the size an unsealed tail is accounted at)."""
        names = self.name_index
        sections = [("d", array("d", values).tobytes())
                    if index in (SEG_STIME, SEG_ETIME) else _pack_ints(values)
                    for index, values in enumerate(self.columns)]
        sections += [
            _pack_ints(list(accumulate(map(len, self.path_index)))),
            _pack_ints([names[node] for path in self.path_index
                        for node in path]),
            _pack_ints(list(accumulate(map(len, names)))),
            (_CODE_TEXT, "".join(names).encode("utf-8"))]
        head = _SEGMENT_HEAD.pack(
            _SEGMENT_MAGIC, self.count,
            "".join(code for code, _ in sections).encode("ascii"),
            *(len(data) for _, data in sections))
        return head + b"".join(data for _, data in sections)

    def seal(self) -> "Segment":
        """The rows as an opened :class:`Segment` that keeps this builder's
        dictionaries beside the blob, so reading it never decodes one."""
        return Segment(self.pack(), self.names(), self.paths())


class Segment(_SegmentRows):
    """An opened segment blob.

    Opening parses and checks the header only; each column is a view made
    when asked for and each dictionary is decoded on first use (then kept
    for the life of this object), so a windowed scan that rejects every
    row on the two time columns pays for nothing else.  Whatever a
    truncated or bit-flipped blob provokes surfaces as
    :class:`WireDecodeError`.
    """

    __slots__ = ("data", "count", "_codes", "_offsets", "_names", "_paths")

    def __init__(self, data: bytes, names: Optional[List[str]] = None,
                 paths: Optional[List[Tuple[str, ...]]] = None) -> None:
        try:
            magic, count, codes, *sizes = _SEGMENT_HEAD.unpack_from(data)
        except struct.error as error:
            raise WireDecodeError(f"corrupt segment: {error}") from None
        offsets = list(accumulate(sizes, initial=_SEGMENT_HEAD.size))
        if magic != _SEGMENT_MAGIC or offsets[-1] != len(data):
            raise WireDecodeError("corrupt segment: bad magic or length")
        self.data = data
        self.count: int = count
        self._codes: str = codes.decode("latin-1")
        self._offsets = offsets
        self._names = names
        self._paths = paths

    def _section(self, index: int) -> Sequence[Any]:
        code = self._codes[index]
        start, end = self._offsets[index], self._offsets[index + 1]
        cell = _CELLS.get(code)
        if cell is not None and not (end - start) % cell.size:
            view: Any = memoryview(self.data)[start:end]
            return view.cast(code)
        if code != _CODE_WIDE:
            raise WireDecodeError(f"corrupt segment: section {index}")
        reader = _Reader(self.data[start:end])
        values = []
        while reader.pos < end - start:
            values.append(reader.varint())
        return values

    def column(self, index: int) -> Sequence[Any]:
        """A zero-copy typed view of the blob (a list for a wide-int
        column)."""
        values = self._section(index)
        if len(values) != self.count:
            raise WireDecodeError(
                f"corrupt segment: column {SEGMENT_COLUMNS[index]!r} does "
                f"not hold {self.count} rows")
        return values

    def cell(self, index: int, row: int) -> Any:
        """Read at the value's computed offset - no column is opened."""
        cell = _CELLS.get(self._codes[index])
        if cell is None:
            return self.column(index)[row]
        offset = self._offsets[index] + row * cell.size
        if not self._offsets[index] <= offset <= \
                self._offsets[index + 1] - cell.size:
            raise WireDecodeError(f"segment has no row {row}")
        return cell.unpack_from(self.data, offset)[0]

    @_guarded
    def names(self) -> Sequence[str]:
        names = self._names
        if names is None:
            text = self.data[self._offsets[_SEG_NAME_TEXT]:].decode("utf-8")
            ends = list(self._section(_SEG_NAME_ENDS))
            names = self._names = [
                text[start:end] for start, end in zip([0] + ends, ends)]
        return names

    @_guarded
    def paths(self) -> Sequence[Tuple[str, ...]]:
        paths = self._paths
        if paths is None:
            # Every hop resolved to its name in one C-level pass; a path
            # is then one slice of that list.
            hops = list(map(self.names().__getitem__,
                            self._section(_SEG_PATH_NODES)))
            ends = list(self._section(_SEG_PATH_ENDS))
            paths = self._paths = [tuple(hops[start:end])
                                   for start, end in zip([0] + ends, ends)]
        return paths

    #: A corrupt index column must surface as a decode error too.
    records = _guarded(_SegmentRows.records)


# ------------------------------------------------------------------ results
def encode_result(result) -> bytes:
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

    Plan results route to the generic :func:`encode_plan_result` frame
    (same layout plus the per-plan scan-stat tail); every other query
    keeps the legacy ``MSG_QUERY_RESULT`` bytes untouched.
    """
    if result.query.name == _plan.PLAN_QUERY_NAME:
        return encode_plan_result(result)
    body = bytearray()
    _w_str(body, result.query.name)
    _w_str(body, result.host)
    _w_varint(body, result.records_scanned)
    _w_varint(body, result.estimated_wire_bytes)
    _w_value(body, result.payload)
    alarms = getattr(result, "alarms", ())
    _w_uvarint(body, len(alarms))
    for alarm in alarms:
        _w_alarm(body, alarm)
    return _frame(MSG_QUERY_RESULT, bytes(body))


def result_wire_bytes(result) -> int:
    """Measured serialized size of a result frame (defines ``wire_bytes``)."""
    return len(encode_result(result))


@_guarded
def decode_result(data: bytes, query=None):
    """Decode a result frame into a :class:`~repro.core.query.QueryResult`.

    ``query`` supplies the caller's query object (the frame carries only the
    name); when omitted a parameter-less placeholder is reconstructed.
    ``wire_bytes`` is set to ``len(data)`` - the measured frame size.
    Accepts both result kinds: the legacy ``MSG_QUERY_RESULT`` layout and
    the generic ``MSG_PLAN_RESULT``.
    """
    if frame_type(data) == MSG_PLAN_RESULT:
        return decode_plan_result(data, query)
    from repro.core.query import Query, QueryResult
    reader = _expect(data, MSG_QUERY_RESULT)
    name = reader.str_()
    host = reader.str_()
    scanned = reader.varint()
    estimated = reader.varint()
    payload = reader.value()
    alarms = tuple(reader.alarm() for _ in range(reader.uvarint()))
    if query is not None and query.name != name:
        raise WireError(f"result for query {name!r} does not answer "
                        f"{query.name!r}")
    return QueryResult(query=query if query is not None else Query(name),
                       payload=payload, wire_bytes=len(data),
                       records_scanned=scanned, estimated_wire_bytes=estimated,
                       host=host, alarms=alarms)


# ------------------------------------------------------------------ control
def encode_error(detail: str) -> bytes:
    """Encode an agent-server error reply."""
    body = bytearray()
    _w_str(body, detail)
    return _frame(MSG_ERROR, bytes(body))


@_guarded
def decode_error(data: bytes) -> str:
    """Inverse of :func:`encode_error`."""
    return _expect(data, MSG_ERROR).str_()


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
    _w_uvarint(body, record_count)
    _w_uvarint(body, monitor_flows)
    _w_uvarint(body, hot_records)
    _w_uvarint(body, hot_bytes)
    _w_uvarint(body, cold_records)
    _w_uvarint(body, cold_bytes)
    return _frame(MSG_PONG, bytes(body))


@_guarded
def decode_pong(data: bytes) -> int:
    """The (total) TIB record count of a pong frame."""
    return _expect(data, MSG_PONG).uvarint()


@_guarded
def decode_pong_state(data: bytes) -> Tuple[int, int]:
    """The ``(record_count, monitor_flows)`` prefix of a pong frame."""
    reader = _expect(data, MSG_PONG)
    return reader.uvarint(), reader.uvarint()


@_guarded
def decode_pong_tiers(data: bytes) -> Tuple[int, int, int, int, int, int]:
    """Inverse of :func:`encode_pong`: ``(record_count, monitor_flows,
    hot_records, hot_bytes, cold_records, cold_bytes)``."""
    reader = _expect(data, MSG_PONG)
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
            _w_uvarint(body, bound)
    return _frame(MSG_RETENTION, bytes(body))


@_guarded
def decode_retention(data: bytes) -> Tuple[Optional[int], Optional[int]]:
    """Inverse of :func:`encode_retention`: ``(max_records, max_bytes)``."""
    reader = _expect(data, MSG_RETENTION)
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
    return _frame(MSG_SLEEP, _DOUBLE.pack(seconds))


@_guarded
def decode_sleep(data: bytes) -> float:
    """Inverse of :func:`encode_sleep`."""
    return _expect(data, MSG_SLEEP).double()


# -------------------------------------------------------------- event plane
def alarm_wire_bytes(alarm: Alarm) -> int:
    """Measured serialized size of one alarm (its batch-body bytes)."""
    buf = bytearray()
    _w_alarm(buf, alarm)
    return len(buf)


def encode_alarm_batch(alarms: Sequence[Alarm]) -> bytes:
    """Encode an alarm batch (the agent -> controller alert event frame)."""
    body = bytearray()
    _w_uvarint(body, len(alarms))
    for alarm in alarms:
        _w_alarm(body, alarm)
    return _frame(MSG_ALARM_BATCH, bytes(body))


@_guarded
def decode_alarm_batch(data: bytes) -> List[Alarm]:
    """Inverse of :func:`encode_alarm_batch`."""
    reader = _expect(data, MSG_ALARM_BATCH)
    return [reader.alarm() for _ in range(reader.uvarint())]


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


@_guarded
def decode_observation_batch(data: bytes) -> List[TransferObservation]:
    """Inverse of :func:`encode_observation_batch`."""
    reader = _expect(data, MSG_OBSERVATION_BATCH)
    return [reader.observation() for _ in range(reader.uvarint())]


def encode_monitor_tick(now: float,
                        threshold: Optional[int] = None) -> bytes:
    """Encode a monitor-tick command: run one periodic check at ``now``.

    The worker replies with an alarm batch carrying every alarm the check
    raised plus any alarms still pending from earlier activity.
    """
    body = bytearray()
    body += _DOUBLE.pack(now)
    if threshold is None:
        body.append(0)
    else:
        body.append(1)
        _w_varint(body, threshold)
    return _frame(MSG_MONITOR_TICK, bytes(body))


@_guarded
def decode_monitor_tick(data: bytes) -> Tuple[float, Optional[int]]:
    """Inverse of :func:`encode_monitor_tick`: ``(now, threshold)``."""
    reader = _expect(data, MSG_MONITOR_TICK)
    now = reader.double()
    threshold = reader.varint() if reader.u8() else None
    return now, threshold


def encode_monitor_state(snapshot: MonitorSnapshot) -> bytes:
    """Encode a full monitor-state snapshot (startup sync / state pull)."""
    body = bytearray()
    _w_str(body, snapshot.host)
    body += _DOUBLE.pack(snapshot.period)
    _w_varint(body, snapshot.poor_threshold)
    _w_varint(body, snapshot.alerts_raised)
    _w_uvarint(body, len(snapshot.flows))
    for stats in snapshot.flows:
        _w_flow_stats(body, stats)
    return _frame(MSG_MONITOR_STATE, bytes(body))


@_guarded
def decode_monitor_state(data: bytes) -> MonitorSnapshot:
    """Inverse of :func:`encode_monitor_state`."""
    reader = _expect(data, MSG_MONITOR_STATE)
    host = reader.str_()
    period = reader.double()
    threshold = reader.varint()
    alerts = reader.varint()
    flows = tuple(reader.flow_stats() for _ in range(reader.uvarint()))
    return MonitorSnapshot(host=host, period=period, poor_threshold=threshold,
                           alerts_raised=alerts, flows=flows)


def encode_monitor_pull() -> bytes:
    """Encode a monitor-state pull request (reply: a state snapshot)."""
    return _frame(MSG_MONITOR_PULL)


# ----------------------------------------------------------- group transport
def encode_group_hello(group_id: int, hosts: Sequence[str]) -> bytes:
    """Encode the worker -> controller greeting of the group transport.

    A group worker owns a deterministic shard of hosts
    (``WORKER_GROUP_ID`` of ``WORKER_GROUP_COUNT``); the first frame it
    writes after connecting names that shard so the controller's accept
    loop can route the connection - and reject one whose claimed hosts
    disagree with the shard the controller computed.
    """
    body = bytearray()
    _w_uvarint(body, group_id)
    _w_uvarint(body, len(hosts))
    for host in hosts:
        _w_str(body, host)
    return _frame(MSG_GROUP_HELLO, bytes(body))


@_guarded
def decode_group_hello(data: bytes) -> Tuple[int, Tuple[str, ...]]:
    """Inverse of :func:`encode_group_hello`: ``(group_id, hosts)``."""
    reader = _expect(data, MSG_GROUP_HELLO)
    group_id = reader.uvarint()
    hosts = tuple(reader.str_() for _ in range(reader.uvarint()))
    return group_id, hosts


def encode_group_batch(correlation_id: int,
                       entries: Sequence[Tuple[str, bytes]]) -> bytes:
    """Encode a coalesced per-group envelope.

    ``entries`` is ``(host, inner frame)`` per host - monitor ticks, ingest
    batches, or query requests for every host a worker group owns packed
    into *one* message, amortizing the per-frame transport cost the
    event-plane bench exposed.  ``correlation_id`` tags the envelope so one
    multiplexed connection can interleave request/reply pairs: the reply is
    a ``MSG_GROUP_BATCH`` echoing the same id with one reply frame per
    entry, in entry order.  Id ``0`` marks a fire-and-forget envelope
    (ingest streams) that produces no reply.
    """
    body = bytearray()
    _w_uvarint(body, correlation_id)
    _w_uvarint(body, len(entries))
    for host, inner in entries:
        _w_str(body, host)
        _w_uvarint(body, len(inner))
        body += inner
    return _frame(MSG_GROUP_BATCH, bytes(body))


@_guarded
def decode_group_batch(data: bytes
                       ) -> Tuple[int, List[Tuple[str, bytes]]]:
    """Inverse of :func:`encode_group_batch`:
    ``(correlation_id, [(host, inner frame), ...])``."""
    reader = _expect(data, MSG_GROUP_BATCH)
    correlation_id = reader.uvarint()
    entries = []
    for _ in range(reader.uvarint()):
        host = reader.str_()
        inner = reader.bytes_()
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
# Socket mode carries frames over a byte stream, so unlike the pipe
# transport (where ``recv_bytes`` preserves message boundaries) each frame
# travels length-delimited: a 4-byte little-endian length prefix, then the
# frame bytes.  The reader below reassembles frames from arbitrarily split
# reads and converts every malformed stream - oversized lengths, EOF inside
# a prefix or a frame, garbage where a header should be - into
# :class:`WireDecodeError`, the same worker-failure signal the pipe
# transport raises for corrupt replies.

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
