"""The cold-segment codec.

A sealed segment of the cold archive (:mod:`repro.storage.archive`) is one
immutable ``bytes`` blob laid out column-major::

    +--------+------+----------------+-----------------+
    | "PDSG" | rows | 15 type codes  | 15 byte sizes   |  header
    +--------+------+----------------+-----------------+
    | id | stime | etime | bytes | pkts |                  one value per row
    | src_port | dst_port | protocol |
    | src | dst | path |                                   one index per row
    +--------------------------------------------------+
    | path_ends | path_nodes |                             path table
    | name_ends | name_text  |                             name dictionary
    +--------------------------------------------------+

``src``/``dst`` index the segment's name dictionary and ``path`` its path
table: path ``p`` is the names at ``path_nodes[path_ends[p-1]:
path_ends[p]]``, name ``i`` the characters ``[name_ends[i-1]:
name_ends[i])`` of the UTF-8 ``name_text``.  Both dictionaries are in
first-appearance order, so equal row streams pack to equal bytes in every
process.  Every numeric section is a fixed-width array in native byte
order (segment blobs never travel) whose width is chosen per segment from
the values present - ports cost two bytes, not eight - and reads back
through ``memoryview.cast``: zero-copy, no parse loop.  The integer
domain is all of ``int``: a column holding a value that no 64-bit width
fits is stored as zigzag varints (type code ``V``), losslessly.  The two
time columns are IEEE doubles.
"""

from __future__ import annotations

import struct
from array import array
from itertools import accumulate
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.codec import Reader, WireDecodeError, guarded, w_varint
from repro.network.packet import FlowId
from repro.storage.records import COLUMN_FIELDS, PathFlowRecord

#: The per-row columns in blob order; the ``SEG_*`` constants index them.
SEGMENT_COLUMNS = ("id", "stime", "etime", "bytes", "pkts", "src_port",
                   "dst_port", "protocol", "src", "dst", "path")
(SEG_ID, SEG_STIME, SEG_ETIME, SEG_BYTES, SEG_PKTS, SEG_SRC_PORT,
 SEG_DST_PORT, SEG_PROTOCOL, SEG_SRC, SEG_DST, SEG_PATH) = range(11)
_SEG_PATH_ENDS, _SEG_PATH_NODES, _SEG_NAME_ENDS, _SEG_NAME_TEXT = range(11, 15)
#: The column holding each record field that is stored as itself - the
#: fields an order-free column read (``ColdArchive.fold``) can name.
FIELD_COLUMNS = {name: SEGMENT_COLUMNS.index(name) for name in COLUMN_FIELDS}

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
        w_varint(buf, value)
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
        if rows is not None and not rows:
            return []
        names = self.names()
        return [(record_id, PathFlowRecord(
                    FlowId(names[src], names[dst], src_port, dst_port,
                           protocol),
                    path, stime, etime, nbytes, pkts))
                for (record_id, stime, etime, nbytes, pkts, src_port,
                     dst_port, protocol, src, dst, path)
                in zip(*self.select(range(len(SEGMENT_COLUMNS)), rows))]

    def select(self, indexes: Sequence[int],
               rows: Optional[Sequence[int]] = None
               ) -> Tuple[Sequence[Any], ...]:
        """Columns ``indexes`` (``SEG_*`` constants) in parallel, over the
        non-empty ``rows`` (every row when ``None``) - what :meth:`records`
        builds from, and all an aggregate needs.  No record is built: a
        value column comes back as the view or list it is stored as
        (read-only), and ``SEG_PATH`` as the path table's own tuples - one
        object per distinct path of the segment."""
        picked = []
        for index in indexes:
            values = self.column(index)
            if rows is not None:
                values = _select(values, rows)
            if index == SEG_PATH:
                values = list(map(self.paths().__getitem__, values))
            picked.append(values)
        return tuple(picked)


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
        reader = Reader(self.data[start:end])
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

    @guarded
    def names(self) -> Sequence[str]:
        names = self._names
        if names is None:
            text = self.data[self._offsets[_SEG_NAME_TEXT]:].decode("utf-8")
            ends = list(self._section(_SEG_NAME_ENDS))
            names = self._names = [
                text[start:end] for start, end in zip([0] + ends, ends)]
        return names

    @guarded
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
    records = guarded(_SegmentRows.records)
    select = guarded(_SegmentRows.select)
