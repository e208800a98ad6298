"""Byte-level primitives shared by the frame codec and the segment codec.

The frames :mod:`repro.core.wire` puts on a worker connection and the
cold-segment blobs :mod:`repro.storage.segment` packs are built from the
same leaves: integers are LEB128 varints (zigzag for signed values, so
huge Python ints round-trip losslessly), floats are little-endian IEEE
doubles, strings are UTF-8 with a varint length prefix, and a
:class:`FlowId` is its five fields in order.  This module holds those
leaves - each writer, its exact-size leg, the primitive :class:`Reader` -
and the two errors every decoder raises.  It imports nothing from
``repro.core``, so ``storage/`` uses it without reaching back into the
package that imports ``storage/``.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable, TypeVar, cast

from repro.network.packet import FlowId

#: A little-endian IEEE double (timestamps, periods).
DOUBLE = struct.Struct("<d")


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


def guarded(decoder: _Decoder) -> _Decoder:
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


# --------------------------------------------------------------------------
# Writers
# --------------------------------------------------------------------------
def w_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"negative value {value} for unsigned varint")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def w_varint(buf: bytearray, value: int) -> None:
    # Zigzag: arbitrary-precision safe in both directions.
    value = value << 1 if value >= 0 else ((-value) << 1) - 1
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def w_str(buf: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    count = len(data)
    if count > 0x7F:
        w_uvarint(buf, count)
    else:
        buf.append(count)
    buf += data


def w_flow_id(buf: bytearray, flow_id: FlowId) -> None:
    w_str(buf, flow_id.src_ip)
    w_str(buf, flow_id.dst_ip)
    w_varint(buf, flow_id.src_port)
    w_varint(buf, flow_id.dst_port)
    w_varint(buf, flow_id.protocol)


# --------------------------------------------------------------------------
# Exact sizes
# --------------------------------------------------------------------------
# ``len`` of what each writer above appends, without the bytes; a value the
# writer rejects is rejected here with the same error.
def uvarint_len(value: int) -> int:
    if value < 0:
        raise WireError(f"negative value {value} for unsigned varint")
    return (value.bit_length() + 6) // 7 or 1


def varint_len(value: int) -> int:
    value = value << 1 if value >= 0 else ((-value) << 1) - 1
    return (value.bit_length() + 6) // 7 or 1


def str_len(value: str) -> int:
    """Exact encoded length of one string field."""
    count = len(value) if value.isascii() else len(value.encode("utf-8"))
    return count + (1 if count <= 0x7F else uvarint_len(count))


def flow_id_len(flow_id: FlowId) -> int:
    return (str_len(flow_id.src_ip) + str_len(flow_id.dst_ip)
            + varint_len(flow_id.src_port) + varint_len(flow_id.dst_port)
            + varint_len(flow_id.protocol))


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------
#: The one message every read past the end of the bytes raises.
TRUNCATED = "truncated frame"
_unpack_double = DOUBLE.unpack_from


class Reader:
    """Sequential decoder over one frame's bytes.

    Every primitive is one Python call working on local ``data``/``pos``:
    a varint's bytes are indexed directly (one-byte values - most counts,
    lengths and tags - return on the first), a string is decoded straight
    from its slice.  Running off the end of the frame is caught where it
    is cheapest - an ``IndexError`` from the index, one length compare for
    a slice (slices never raise) - and always surfaces as the same
    ``WireError("truncated frame")``.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def u8(self) -> int:
        pos = self.pos
        try:
            value = self.data[pos]
        except IndexError:
            raise WireError(TRUNCATED) from None
        self.pos = pos + 1
        return value

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        try:
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
        except IndexError:
            raise WireError(TRUNCATED) from None
        self.pos = pos + 1
        return value

    def varint(self) -> int:
        value = self.uvarint()
        return -((value + 1) >> 1) if value & 1 else value >> 1

    def double(self) -> float:
        pos = self.pos
        try:
            value = _unpack_double(self.data, pos)[0]
        except struct.error:
            raise WireError(TRUNCATED) from None
        self.pos = pos + 8
        return value

    def str_(self) -> str:
        data = self.data
        pos = self.pos
        try:
            count = data[pos]
        except IndexError:
            raise WireError(TRUNCATED) from None
        if count > 0x7F:
            count = self.uvarint()
            pos = self.pos
        else:
            pos += 1
        end = pos + count
        if end > len(data):
            raise WireError(TRUNCATED)
        self.pos = end
        try:
            return str(data[pos:end], "utf-8")
        except UnicodeDecodeError as error:
            raise WireError(f"invalid UTF-8 string: {error}") from None

    def bytes_(self) -> bytes:
        count = self.uvarint()
        pos = self.pos
        end = pos + count
        if end > len(self.data):
            raise WireError(TRUNCATED)
        self.pos = end
        return bytes(self.data[pos:end])

    def flow_id(self) -> FlowId:
        str_ = self.str_
        varint = self.varint
        return FlowId(str_(), str_(), varint(), varint(), varint())
