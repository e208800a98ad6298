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
sweep's tick and a re-open name :data:`EVERY_HOST` instead, one entry for
the whole shard.

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
  ``_w_alarm``, ...) spend one call per field.
* **Sizing** builds no bytes: ``value_len`` / ``result_wire_bytes`` /
  ``record_wire_bytes`` / ``alarm_wire_bytes`` add up what the writers
  would append, leg by leg (*Exact sizes* below).  The accounting layers
  size every partial result and every interior accumulator of an
  aggregation tree in every mode - a size must not cost a serialization.

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
from itertools import chain
from typing import (Any, Callable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar, Union)

from repro.codec import (DOUBLE, TRUNCATED, Reader, WireDecodeError,
                         WireError, flow_id_len, guarded, str_len,
                         uvarint_len, varint_len, w_flow_id, w_str,
                         w_uvarint, w_varint)
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
MAGIC = b"PD"
WIRE_VERSION = 7

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

#: The host of a group-addressed ``MSG_GROUP_BATCH`` entry: "every host of
#: this worker", in shard order.  Only a monitor tick (answered by one
#: alarm batch holding every host's alarms) and a monitor re-open may be
#: addressed so; a worker answers any other frame addressed so with an
#: error frame.
EVERY_HOST = ""

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


def _w_alarm(buf: bytearray, alarm: Alarm) -> None:
    w_flow_id(buf, alarm.flow_id)
    w_str(buf, alarm.reason)
    w_uvarint(buf, len(alarm.paths))
    for path in alarm.paths:
        w_uvarint(buf, len(path))
        for node in path:
            w_str(buf, node)
    w_str(buf, alarm.host)
    buf += DOUBLE.pack(alarm.time)
    w_str(buf, alarm.detail)


def _w_observation(buf: bytearray, obs: TransferObservation) -> None:
    w_flow_id(buf, obs.flow_id)
    w_varint(buf, obs.retransmissions)
    w_varint(buf, obs.consecutive)
    w_varint(buf, obs.timeouts)
    w_varint(buf, obs.bytes_sent)
    buf += DOUBLE.pack(obs.when)


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


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------
_unpack_double = DOUBLE.unpack_from
#: ``_new_tuple(FlowId, fields)``: a NamedTuple from its field sequence
#: without the Python-level ``__new__`` call.
_new_tuple: Callable[..., Any] = tuple.__new__


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

    def strs(self) -> Tuple[str, ...]:
        """A counted run of strings (a path, a host list)."""
        str_ = self.str_
        return tuple([str_() for _ in range(self.uvarint())])

    def record(self) -> PathFlowRecord:
        return PathFlowRecord(self.flow_id(), self.strs(), self.double(),
                              self.double(), self.varint(), self.varint())

    def spec(self) -> SubtreeSpec:
        return SubtreeSpec(self.str_(), self.strs())

    def alarm(self) -> Alarm:
        flow_id = self.flow_id()
        reason = self.str_()
        count = self.uvarint()
        paths = [self.strs() for _ in range(count)] if count else []
        return Alarm(flow_id, reason, paths, self.str_(), self.double(),
                     self.str_())

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


def encode_query_request(query, spec: Optional[SubtreeSpec]) -> bytes:
    """Encode the batched parent->child edge message: query + optional
    aggregation-subtree description in one frame.  Every query travels
    in it - a plan query as ``name="plan"`` with the plan a tagged value
    under ``params["plan"]``."""
    body = bytearray()
    _w_query(body, query)
    if spec is None:
        body.append(0)
    else:
        body.append(1)
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
                         ) -> Tuple[Any, Optional[SubtreeSpec]]:
    """Decode a query request; returns ``(Query, Optional[SubtreeSpec])``."""
    name = reader.str_()
    params = {}
    for _ in range(reader.uvarint()):
        key = reader.str_()
        params[key] = reader.value()
    period = reader.value()
    spec = reader.spec() if reader.u8() else None
    query_type, _ = _query_types()
    return query_type(name=name, params=params, period=period), spec


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

    The frame ends with the per-plan scan-stat counters (sorted key/value
    pairs): how the hot tier routed a plan's pushed filter and how much
    decode work cold pruning avoided on *this* plan.  Only plan queries
    report any; every other result pays the one empty-count byte.
    """
    body = bytearray()
    w_str(body, result.query.name)
    w_str(body, result.host)
    w_varint(body, result.records_scanned)
    _w_value(body, result.payload)
    alarms = getattr(result, "alarms", ())
    w_uvarint(body, len(alarms))
    for alarm in alarms:
        _w_alarm(body, alarm)
    scan_stats = getattr(result, "scan_stats", None) or {}
    w_uvarint(body, len(scan_stats))
    for key in sorted(scan_stats):
        w_str(body, key)
        w_varint(body, scan_stats[key])
    return _frame(MSG_QUERY_RESULT, bytes(body))


def result_wire_bytes(result: Any) -> int:
    """Measured serialized size of a result frame (defines ``wire_bytes``):
    exactly ``len(encode_result(result))``, added up leg by leg (see
    *Exact sizes*) - sizing a result costs no encode."""
    alarms = getattr(result, "alarms", ())
    scan_stats = getattr(result, "scan_stats", None) or {}
    size = (HEADER_BYTES + str_len(result.query.name)
            + str_len(result.host) + varint_len(result.records_scanned)
            + value_len(result.payload) + uvarint_len(len(alarms))
            + sum(map(alarm_wire_bytes, alarms))
            + uvarint_len(len(scan_stats)))
    for key, count in scan_stats.items():
        size += str_len(key) + varint_len(count)
    return size


@_decoder(MSG_QUERY_RESULT)
def decode_result(reader: _Reader, query: Any = None) -> Any:
    """Decode a result frame into a :class:`~repro.core.query.QueryResult`.

    ``query`` supplies the caller's query object (the frame carries only the
    name); when omitted a parameter-less placeholder is reconstructed.
    ``wire_bytes`` is set to ``len(data)`` - the measured frame size.
    """
    query_type, result_type = _query_types()
    name = reader.str_()
    host = reader.str_()
    scanned = reader.varint()
    payload = reader.value()
    alarm = reader.alarm
    alarms = tuple([alarm() for _ in range(reader.uvarint())])
    scan_stats = {}
    for _ in range(reader.uvarint()):
        key = reader.str_()
        scan_stats[key] = reader.varint()
    if query is not None and query.name != name:
        raise WireError(f"result for query {name!r} does not answer "
                        f"{query.name!r}")
    return result_type(
        query=query if query is not None else query_type(name),
        payload=payload, wire_bytes=len(reader.data), records_scanned=scanned,
        host=host, alarms=alarms, scan_stats=scan_stats)


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
def alarm_wire_bytes(alarm: Alarm) -> int:
    """Measured serialized size of one alarm (its batch-body bytes)."""
    size = (flow_id_len(alarm.flow_id) + str_len(alarm.reason)
            + uvarint_len(len(alarm.paths)) + str_len(alarm.host)
            + DOUBLE.size + str_len(alarm.detail))
    for path in alarm.paths:
        size += uvarint_len(len(path)) + sum(map(str_len, path))
    return size


def encode_alarm_batch(alarms: Sequence[Alarm]) -> bytes:
    """Encode an alarm batch (the agent -> controller alert event frame)."""
    body = bytearray()
    w_uvarint(body, len(alarms))
    for alarm in alarms:
        _w_alarm(body, alarm)
    return _frame(MSG_ALARM_BATCH, bytes(body))


class _ReaderAlarm(Exception):
    """An alarm :func:`decode_alarm_batch` hands to :meth:`_Reader.alarm`."""


@_decoder(MSG_ALARM_BATCH)
def decode_alarm_batch(reader: _Reader) -> List[Alarm]:
    """Inverse of :func:`encode_alarm_batch`.

    One pass with the cursor in a local, the way :meth:`_Reader.values`
    reads its leaves: an alarm without paths whose strings each fit a
    one-byte length - every monitor alarm - is read inline, with no
    reader call.  Anything else (paths, a longer string, and any bytes
    the inline read cannot finish) is re-read from the alarm's first byte
    by :meth:`_Reader.alarm`, which also raises every error.
    """
    data = reader.data
    count = reader.uvarint()
    pos = reader.pos
    size = len(data)
    alarms: List[Alarm] = []
    append = alarms.append
    for _ in range(count):
        start = pos
        try:
            n = data[pos]
            end = pos + 1 + n
            if n > 0x7F or end > size:
                raise _ReaderAlarm
            src = str(data[pos + 1:end], "utf-8")
            n = data[end]
            pos = end + 1 + n
            if n > 0x7F or pos > size:
                raise _ReaderAlarm
            flow: List[Any] = [src, str(data[end + 1:pos], "utf-8")]
            for _field in range(3):  # src_port, dst_port, protocol
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
                flow.append(-((value + 1) >> 1) if value & 1
                            else value >> 1)
            n = data[pos]
            end = pos + 1 + n
            if n > 0x7F or end > size or data[end]:  # data[end]: path count
                raise _ReaderAlarm
            reason = str(data[pos + 1:end], "utf-8")
            n = data[end + 1]
            pos = end + 2 + n
            if n > 0x7F or pos > size:
                raise _ReaderAlarm
            host = str(data[end + 2:pos], "utf-8")
            when = _unpack_double(data, pos)[0]
            n = data[pos + 8]
            end = pos + 9 + n
            if n > 0x7F or end > size:
                raise _ReaderAlarm
            detail = str(data[pos + 9:end], "utf-8")
            pos = end
            append(Alarm(_new_tuple(FlowId, flow), reason, [], host, when,
                         detail))
        except (_ReaderAlarm, IndexError, struct.error, UnicodeDecodeError):
            reader.pos = start
            append(reader.alarm())
            pos = reader.pos
    reader.pos = pos
    return alarms


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


def encode_monitor_tick(now: float,
                        threshold: Optional[int] = None) -> bytes:
    """Encode a monitor-tick command: run one periodic check at ``now``.

    The worker replies with an alarm batch carrying every alarm the check
    raised plus any alarms still pending from earlier activity.  Addressed
    to :data:`EVERY_HOST` (a sweep), the check runs on every host of the
    shard, in shard order, and the one batch holds all of their alarms,
    each naming its host.
    """
    body = bytearray()
    body += DOUBLE.pack(now)
    if threshold is None:
        body.append(0)
    else:
        body.append(1)
        w_varint(body, threshold)
    return _frame(MSG_MONITOR_TICK, bytes(body))


@_decoder(MSG_MONITOR_TICK)
def decode_monitor_tick(reader: _Reader) -> Tuple[float, Optional[int]]:
    """Inverse of :func:`encode_monitor_tick`: ``(now, threshold)``."""
    now = reader.double()
    threshold = reader.varint() if reader.u8() else None
    return now, threshold


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
