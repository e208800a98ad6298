"""Declarative query plans: one frozen IR from the wire to both tiers.

A built-in question is a small declarative plan, not a hand-written
``QueryEngine`` handler with bespoke wire plumbing::

    Filter(time / link / flow-key / path predicates)
        -> Project(fields)
        -> Aggregate(sum / count / histogram / span, by key)
        -> TopK(k, key, order)

A :class:`Plan` is an ordered tuple of frozen op dataclasses.  The module
provides, in one place:

* a **validator** (:func:`validate`) raising :class:`PlanError` with
  structured :class:`PlanIssue` entries, plus structured per-plan
  :class:`PlanWarning` analysis (full scans, residual predicates,
  wildcard-link routing);
* a **reference brute-force evaluator** (:func:`reference_evaluate`) -
  the semantics oracle the property fuzz compares every execution tier
  mix against;
* the **pushdown executor** (:func:`execute_plan`): ``Filter`` compiles
  to a :class:`~repro.storage.records.ScanSpec` (:func:`scan_spec`), so
  both tiers' flow and link postings and the cold tier's segment pruning
  (zone maps, flow-key blooms) apply, keyed aggregates fold columns, and
  the pruning work saved is reported per plan via ``scan_stats``;
* the **merge operators** (concat / histogram-merge / top-k-merge /
  span-merge) selected by the plan's *terminal* op
  (:func:`merge_operator`, :func:`merge_payloads`) - the generic
  reductions the executor's ordered fold runs, each regroupable;
* **built-in compilations** (:func:`compile_get_count`,
  :func:`compile_get_duration`, :func:`compile_top_k_flows`,
  :func:`compile_traffic_matrix`, :func:`compile_flow_size_distribution`):
  the one definition of each, checked in every mode.

:data:`OPS` is the only op table, in pipeline order: each op class
carries its wire ``code``, its ``merge`` operator and its executor leg
(``execute``), and the wire codec writes an op as its code followed by
its dataclass fields.  Adding an op is adding one class to it.

Import discipline: this module sits *below* :mod:`repro.core.wire`
(which encodes a :class:`Plan` as a tagged value, so a plan query is an
ordinary query request with the plan as a parameter) and therefore
imports only the record/ScanSpec layer - never ``wire``, ``query`` or
``tib``.  The executor takes the TIB duck-typed.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import attrgetter, floordiv
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from repro.network.packet import FlowId
from repro.storage.records import (COLUMN_FIELDS, RECORD_FIELDS,
                                   PathFlowRecord, ScanSpec, flow_key,
                                   is_wild, record_field)

#: The query name plan queries travel under (``Query(name=PLAN_QUERY_NAME,
#: params={"plan": <Plan>})``); re-exported as ``Q_PLAN`` by
#: :mod:`repro.core.query`.
PLAN_QUERY_NAME = "plan"

#: Plan op codes: the op tags of the wire encoding (each op class's
#: ``code``).
OP_FILTER = 1
OP_PROJECT = 2
OP_AGGREGATE = 3
OP_TOPK = 4

#: Aggregate functions.
AGG_SUM = "sum"
AGG_COUNT = "count"
AGG_HISTOGRAM = "histogram"
AGG_SPAN = "span"
AGG_FUNCS = (AGG_SUM, AGG_COUNT, AGG_HISTOGRAM, AGG_SPAN)

#: Record fields a sum/histogram may aggregate over.
NUMERIC_FIELDS = ("stime", "etime", "bytes", "pkts")
#: The float ones: a key-wise sum of one would not regroup exactly.
FLOAT_FIELDS = ("stime", "etime")
#: Group keys derived from a record field: name -> (the field, the keys of
#: a column of it; ``None`` is no group), ``tor_pair`` a path's two ToRs.
DERIVED_KEYS: Dict[str, Tuple[str, Callable[[Sequence[Any]], List[Any]]]] = {
    "tor_pair": ("path", lambda paths: [
        (path[1], path[-2]) if len(path) >= 3 else None for path in paths])}

#: TopK rank dimension: rank by the aggregated value (pairs are
#: ``(value, group)``, the legacy top-k shape) or by the group key
#: (pairs are ``(group, value)``).
RANK_VALUE = "value"
RANK_GROUP = "group"

#: TopK order.
ORDER_DESC = "desc"
ORDER_ASC = "asc"

#: Generic merge operators, selected by the plan's terminal op.
MERGE_CONCAT = "concat"
MERGE_HISTOGRAM = "histogram-merge"
MERGE_TOP_K = "top-k-merge"
MERGE_SPAN = "span-merge"

#: Structured issue / warning codes.
PE_EMPTY = "empty-plan"
PE_ORDER = "op-order"
PE_DUPLICATE = "duplicate-op"
PE_WINDOW = "bad-window"
PE_LINK = "bad-link"
PE_FLOW_KEY = "bad-flow-key"
PE_FIELD = "unknown-field"
PE_FUNC = "bad-aggregate"
PE_PROJECTION = "field-not-projected"
PE_TOPK = "bad-topk"
PW_FULL_SCAN = "full-scan"
PW_RESIDUAL_PATH = "residual-path"
PW_WILDCARD_LINK = "wildcard-link"


@dataclass(frozen=True)
class PlanIssue:
    """One structured validation failure."""

    code: str
    op_index: int
    detail: str


@dataclass(frozen=True)
class PlanWarning:
    """One structured per-plan warning (the plan is valid but a predicate
    could not be pushed down, or the plan scans everything)."""

    code: str
    op_index: int
    detail: str


class PlanError(ValueError):
    """A plan failed validation; ``issues`` carries the structured list."""

    def __init__(self, issues: Sequence[PlanIssue]) -> None:
        self.issues: Tuple[PlanIssue, ...] = tuple(issues)
        super().__init__("; ".join(
            f"[{issue.code}@op{issue.op_index}] {issue.detail}"
            for issue in self.issues) or "invalid plan")


def _window_bound(value: Any) -> Optional[float]:
    """Normalise one time bound (wildcards -> ``None``), like the TIB's
    ``normalise_time_range`` does for legacy keyword constraints."""
    return None if is_wild(value) else float(value)


@dataclass(frozen=True)
class Filter:
    """Record predicates.  Time window, link conjunction and flow-key
    disjunction push down into the tiers' indexes via :func:`scan_spec`;
    the exact-path predicate is residual (evaluated on the candidates,
    reported as a :data:`PW_RESIDUAL_PATH` warning).

    Construction normalises exactly like :class:`ScanSpec`: wildcard
    bounds/endpoints become ``None``, fully-wild links are dropped, flow
    keys are deduplicated and sorted (so equal filters encode to equal
    wire bytes).
    """

    start: Optional[float] = None
    end: Optional[float] = None
    links: Tuple[Tuple[Optional[str], Optional[str]], ...] = ()
    flow_keys: Tuple[str, ...] = ()
    path: Optional[Tuple[str, ...]] = None

    code = OP_FILTER
    merge = MERGE_CONCAT

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _window_bound(self.start))
        object.__setattr__(self, "end", _window_bound(self.end))
        links = []
        for pair in self.links:
            a, b = pair
            a = None if is_wild(a) else a
            b = None if is_wild(b) else b
            if a is None and b is None:
                continue
            links.append((a, b))
        object.__setattr__(self, "links", tuple(links))
        object.__setattr__(self, "flow_keys",
                           tuple(sorted(set(self.flow_keys))))
        if self.path is not None:
            object.__setattr__(self, "path", tuple(self.path))

    @property
    def unconstrained(self) -> bool:
        """True when every record matches."""
        return (self.start is None and self.end is None and not self.links
                and not self.flow_keys and self.path is None)

    def execute(self, state: Any, plan: Plan) -> Any:
        """Brute-force predicate: the reference semantics of ``Filter`` (the
        pushdown executor replaces this leg with an index-routed scan and
        keeps only the residual path check)."""
        spec = scan_spec(self)
        return [record for record in state
                if spec.matches(record)
                and (self.path is None or record.path == self.path)]


@dataclass(frozen=True)
class Project:
    """Schema narrowing.  For a record-listing plan (no ``Aggregate``)
    this selects the emitted columns; before an ``Aggregate`` it gates
    which fields downstream ops may reference (validator-enforced)."""

    fields: Tuple[str, ...] = RECORD_FIELDS

    code = OP_PROJECT
    merge = MERGE_CONCAT

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.fields))
        object.__setattr__(self, "fields", deduped)

    def execute(self, state: Any, plan: Plan) -> Any:
        """Terminal projection materialises the emitted rows; before an
        ``Aggregate`` the projection is a validator-enforced schema gate and
        the records pass through unchanged."""
        if plan.aggregate is not None:
            return state
        return _emit_rows(state, self.fields)


@dataclass(frozen=True)
class Aggregate:
    """Reduction over the filtered records.

    ``func``: :data:`AGG_SUM` (sum ``fields``; scalar plans may sum
    several fields, keyed plans exactly one), :data:`AGG_COUNT` (record
    count, no fields), :data:`AGG_HISTOGRAM` (count of records per
    ``binsize``-wide bin of one numeric field), or :data:`AGG_SPAN` (no
    fields or key: see :func:`_clamped_span`).  ``by`` groups: empty
    means a scalar payload (a tuple, one slot per func output); one field
    keys the payload dict by that field's bare value (or derived key's,
    :data:`DERIVED_KEYS`); several key it by the value tuple.  A histogram
    appends ``int(value // binsize)``; keys sort unless a ``TopK`` ranks.
    """

    func: str = AGG_COUNT
    fields: Tuple[str, ...] = ()
    by: Tuple[str, ...] = ()
    binsize: int = 1

    code = OP_AGGREGATE
    #: A scalar aggregate concat-merges instead - see merge_operator.
    merge = MERGE_HISTOGRAM

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "by", tuple(self.by))

    def execute(self, state: Any, plan: Plan) -> Any:
        records: Sequence[PathFlowRecord] = state
        if self.func == AGG_SPAN:
            return _clamped_span(records, plan.filter)
        if not self.by and self.func != AGG_HISTOGRAM:
            if self.func == AGG_COUNT:
                return (len(records),)
            sums = [0] * len(self.fields)
            for record in records:
                for slot, name in enumerate(self.fields):
                    sums[slot] += record_field(record, name)
            return tuple(sums)
        # The top-k input shape (sum one field by one key) is the hot loop
        # of every ranked query; count and histogram count group members.
        grouped: Dict[Any, Any] = {}
        key_of = _key_reader(self)
        value_of = (_field_reader(self.fields[0]) if self.func == AGG_SUM
                    else lambda record: 1)
        for record in records:
            key = key_of(record)
            grouped[key] = grouped.get(key, 0) + value_of(record)
        return _emit_groups(self, plan, grouped)


@dataclass(frozen=True)
class TopK:
    """Keep the k extreme groups of a keyed aggregate.

    ``key`` picks the rank dimension (:data:`RANK_VALUE` emits
    ``(value, group)`` pairs - the legacy top-k shape - and
    :data:`RANK_GROUP` emits ``(group, value)``); full-tuple comparison
    keeps the selection a total order, so per-host selection and the
    partial-result merge stay commutative and associative (the payload
    determinism the aggregation tree rests on).
    """

    k: int = 1000
    key: str = RANK_VALUE
    order: str = ORDER_DESC

    code = OP_TOPK
    merge = MERGE_TOP_K

    def execute(self, state: Any, plan: Plan) -> Any:
        grouped: Dict[Any, Any] = state
        if self.key == RANK_GROUP:
            pairs: Iterable[Tuple[Any, Any]] = (
                (group, value) for group, value in grouped.items())
        else:
            pairs = ((value, group) for group, value in grouped.items())
        return rank_select(pairs, self.k, self.order)


PlanOp = Union[Filter, Project, Aggregate, TopK]

#: The op table: every op class, in pipeline (validation) order.
OPS = (Filter, Project, Aggregate, TopK)


@dataclass(frozen=True)
class Plan:
    """An ordered pipeline of plan ops (at least one)."""

    ops: Tuple[PlanOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    def _op(self, op_type: type) -> Any:
        for op in self.ops:
            if type(op) is op_type:
                return op
        return None

    @cached_property
    def filter(self) -> Optional[Filter]:
        return self._op(Filter)

    @cached_property
    def project(self) -> Optional[Project]:
        return self._op(Project)

    @cached_property
    def aggregate(self) -> Optional[Aggregate]:
        return self._op(Aggregate)

    @cached_property
    def topk(self) -> Optional[TopK]:
        return self._op(TopK)

    def warnings(self) -> Tuple[PlanWarning, ...]:
        """Validate and return the structured per-plan warnings."""
        return validate(self)


# --------------------------------------------------------------------------
# Validation and per-plan warnings
# --------------------------------------------------------------------------
def validate(plan: Plan) -> Tuple[PlanWarning, ...]:
    """Check a plan's shape; raises :class:`PlanError` (with structured
    :class:`PlanIssue` entries) when invalid, returns the structured
    :class:`PlanWarning` analysis when valid.

    Successful validation is memoized on the (frozen) plan instance, so
    re-validating on every execution - the executor always validates -
    costs one dict read after the first pass.
    """
    cached = plan.__dict__.get("_validated_warnings")
    if cached is not None:
        return cached
    issues: List[PlanIssue] = []
    if not plan.ops:
        raise PlanError([PlanIssue(PE_EMPTY, 0, "a plan needs at least "
                                   "one op (use Filter() for 'everything')")])
    last_rank = -1
    seen_ranks: Set[int] = set()
    for index, op in enumerate(plan.ops):
        if type(op) not in OPS:
            issues.append(PlanIssue(PE_ORDER, index,
                                    f"unknown plan op {type(op).__name__}"))
            continue
        rank = OPS.index(type(op))
        if rank in seen_ranks:
            issues.append(PlanIssue(
                PE_DUPLICATE, index,
                f"duplicate {type(op).__name__} op"))
        elif rank <= last_rank:
            issues.append(PlanIssue(
                PE_ORDER, index,
                f"{type(op).__name__} must precede later pipeline stages "
                "(order: Filter -> Project -> Aggregate -> TopK)"))
        seen_ranks.add(rank)
        last_rank = max(last_rank, rank)
        issues.extend(_validate_op(plan, index, op))
    if issues:
        raise PlanError(issues)
    warnings = _warnings(plan)
    object.__setattr__(plan, "_validated_warnings", warnings)
    return warnings


def _validate_op(plan: Plan, index: int, op: PlanOp) -> List[PlanIssue]:
    issues: List[PlanIssue] = []
    if isinstance(op, Filter):
        if (op.start is not None and op.end is not None
                and op.end < op.start):
            issues.append(PlanIssue(
                PE_WINDOW, index,
                f"window end ({op.end}) precedes start ({op.start})"))
        for pair in op.links:
            if len(pair) != 2:
                issues.append(PlanIssue(PE_LINK, index,
                                        f"link must be a pair, got {pair!r}"))
        for fkey in op.flow_keys:
            if not isinstance(fkey, str) or fkey.count("|") != 2:
                issues.append(PlanIssue(
                    PE_FLOW_KEY, index,
                    f"not a canonical flow key: {fkey!r}"))
    elif isinstance(op, Project):
        if not op.fields:
            issues.append(PlanIssue(PE_FIELD, index,
                                    "projection selects no fields"))
        for name in op.fields:
            if name not in RECORD_FIELDS:
                issues.append(PlanIssue(PE_FIELD, index,
                                        f"unknown record field {name!r}"))
    elif isinstance(op, Aggregate):
        issues.extend(_validate_aggregate(plan, index, op))
    elif isinstance(op, TopK):
        aggregate = plan.aggregate
        if aggregate is None or not aggregate.by:
            issues.append(PlanIssue(
                PE_TOPK, index,
                "TopK needs a preceding keyed Aggregate to rank"))
        if op.k < 1:
            issues.append(PlanIssue(PE_TOPK, index, f"k must be >= 1, "
                                    f"got {op.k}"))
        if op.key not in (RANK_VALUE, RANK_GROUP):
            issues.append(PlanIssue(PE_TOPK, index,
                                    f"unknown rank key {op.key!r}"))
        if op.order not in (ORDER_DESC, ORDER_ASC):
            issues.append(PlanIssue(PE_TOPK, index,
                                    f"unknown order {op.order!r}"))
    return issues


def _validate_aggregate(plan: Plan, index: int,
                        op: Aggregate) -> List[PlanIssue]:
    issues: List[PlanIssue] = []
    if op.func not in AGG_FUNCS:
        issues.append(PlanIssue(PE_FUNC, index,
                                f"unknown aggregate func {op.func!r}"))
        return issues
    for name in op.fields + op.by:
        if name not in RECORD_FIELDS and (name in op.fields
                                          or name not in DERIVED_KEYS):
            issues.append(PlanIssue(PE_FIELD, index,
                                    f"unknown record field {name!r}"))
    if op.func == AGG_SUM:
        if not op.fields:
            issues.append(PlanIssue(PE_FUNC, index, "sum needs fields"))
        if op.by and len(op.fields) != 1:
            issues.append(PlanIssue(
                PE_FUNC, index, "a keyed sum aggregates exactly one field"))
        elif op.by and op.fields[0] in FLOAT_FIELDS and plan.topk is None:
            issues.append(PlanIssue(PE_FUNC, index, "a keyed float sum "
                                    "would not regroup: rank it (TopK)"))
        bad = [f for f in op.fields if f in RECORD_FIELDS
               and f not in NUMERIC_FIELDS]
        if bad:
            issues.append(PlanIssue(PE_FUNC, index,
                                    f"sum over non-numeric field(s) {bad}"))
    elif op.func == AGG_COUNT:
        if op.fields:
            issues.append(PlanIssue(PE_FUNC, index,
                                    "count takes no value fields"))
    elif op.func == AGG_SPAN:
        if op.fields or op.by:
            issues.append(PlanIssue(PE_FUNC, index,
                                    "span takes no fields and no key"))
    elif op.func == AGG_HISTOGRAM:
        if len(op.fields) != 1:
            issues.append(PlanIssue(
                PE_FUNC, index, "histogram bins exactly one numeric field"))
        elif op.fields[0] in RECORD_FIELDS and \
                op.fields[0] not in NUMERIC_FIELDS:
            issues.append(PlanIssue(
                PE_FUNC, index,
                f"histogram over non-numeric field {op.fields[0]!r}"))
        if op.binsize < 1:
            issues.append(PlanIssue(PE_FUNC, index,
                                    f"binsize must be >= 1, got {op.binsize}"))
    project = plan.project
    if project is not None:
        reads = (("stime", "etime") if op.func == AGG_SPAN
                 else _read_fields(op))
        missing = [f for f in reads if f not in project.fields]
        if missing:
            issues.append(PlanIssue(
                PE_PROJECTION, index,
                f"aggregate reads field(s) {missing} the projection drops"))
    return issues


def _warnings(plan: Plan) -> Tuple[PlanWarning, ...]:
    warnings: List[PlanWarning] = []
    filter_op = plan.filter
    filter_index = plan.ops.index(filter_op) if filter_op is not None else 0
    if filter_op is None or filter_op.unconstrained:
        warnings.append(PlanWarning(
            PW_FULL_SCAN, filter_index,
            "no pushdown predicate: the plan scans every record of both "
            "tiers on every host"))
    else:
        if filter_op.path is not None:
            warnings.append(PlanWarning(
                PW_RESIDUAL_PATH, filter_index,
                "exact-path predicate is residual (evaluated on scan "
                "candidates, not pushed into an index)"))
        for a, b in filter_op.links:
            if a is None or b is None:
                warnings.append(PlanWarning(
                    PW_WILDCARD_LINK, filter_index,
                    f"wildcard link endpoint ({a!r}, {b!r}) selects the "
                    "union of the node's incident links' postings"))
    return tuple(warnings)


# --------------------------------------------------------------------------
# Pushdown compilation
# --------------------------------------------------------------------------
def scan_spec(filter_op: Optional[Filter]) -> ScanSpec:
    """Compile a plan ``Filter`` to the tiers' shared :class:`ScanSpec`.

    This is the pushdown seam: the hot tier routes the spec through its
    flow and link postings, the cold tier prunes segments with zone maps,
    flow-key blooms and link postings - exactly the machinery the keyword
    reads use.  The exact-path predicate does not push down (no tier
    indexes paths); the executor applies it residually.
    """
    if filter_op is None:
        return ScanSpec()
    return ScanSpec(
        start=filter_op.start, end=filter_op.end, links=filter_op.links,
        flow_keys=(frozenset(filter_op.flow_keys)
                   if filter_op.flow_keys else None))


# --------------------------------------------------------------------------
# Executor helpers (the ops' ``execute`` legs are shared by the reference
# evaluator and the pushdown executor's residual tail)
# --------------------------------------------------------------------------
def _field_reader(name: str) -> Callable[[PathFlowRecord], Any]:
    """Per-field accessor with the name dispatch hoisted out of scan
    loops; same semantics as :func:`record_field` field by field, and a
    :data:`DERIVED_KEYS` one derives its key off its field."""
    if name == "flow":
        return lambda record: flow_key(record.flow_id)
    if name in DERIVED_KEYS:
        field, derive = DERIVED_KEYS[name]
        read = attrgetter(field)
        return lambda record: derive([read(record)])[0]
    return attrgetter(name)


def _key_reader(op: Aggregate) -> Callable[[PathFlowRecord], Any]:
    """The payload-dict key of one record (as :func:`_group` keys a row)."""
    if len(op.by) == 1 and op.func != AGG_HISTOGRAM:
        return _field_reader(op.by[0])
    parts = [_field_reader(name) for name in op.by]
    if op.func == AGG_HISTOGRAM:
        value_of, size = _field_reader(op.fields[0]), op.binsize
        parts.append(lambda record: int(value_of(record) // size))
    if len(parts) == 1:
        return parts[0]
    return lambda record: tuple([part(record) for part in parts])


def _read_fields(op: Aggregate) -> Tuple[str, ...]:
    """The record fields a keyed aggregate reads (a derived key's own)."""
    keys = [DERIVED_KEYS[name][0] if name in DERIVED_KEYS else name
            for name in op.by]
    return tuple(dict.fromkeys(keys + list(op.fields)))


def _group(op: Aggregate, fields: Tuple[str, ...],
           chunks: Iterable[Sequence[Sequence[Any]]]
           ) -> Tuple[Dict[Any, Any], int]:
    """A keyed aggregate's groups over chunks of ``fields`` columns, and
    the rows read: one ``Counter`` update a chunk, or one dict update a
    row; a key is a bare value for one ``by`` field, else a tuple."""
    grouped: Any = {}
    rows = 0
    for chunk in chunks:
        column = dict(zip(fields, chunk))
        rows += len(chunk[0])
        parts: List[Iterable[Any]] = [
            DERIVED_KEYS[name][1](column[DERIVED_KEYS[name][0]])
            if name in DERIVED_KEYS else column[name] for name in op.by]
        if op.func == AGG_HISTOGRAM:
            bins: Iterable[Any] = map(floordiv, column[op.fields[0]],
                                      repeat(op.binsize))
            # An int field floor-divided by an int is int already.
            if type(op.binsize) is not int or op.fields[0] in FLOAT_FIELDS:
                bins = map(int, bins)
            parts.append(bins)
        keys = parts[0] if len(parts) == 1 else zip(*parts)
        if op.func == AGG_SUM:
            for key, value in zip(keys, column[op.fields[0]]):
                grouped[key] = grouped.get(key, 0) + value
        elif grouped:
            grouped.update(keys)
        else:  # no Counter for the many hosts with no row to count
            grouped = Counter(keys)
    return grouped, rows


def _emit_groups(op: Aggregate, plan: Plan, grouped: Dict[Any, Any],
                 label: Optional[str] = None) -> Dict[Any, Any]:
    """A keyed aggregate's groups, sorted unless a TopK ranks them, without
    a derived ``None`` key, and each ``k`` as ``(label, k)`` if labelled."""
    if not DERIVED_KEYS.keys().isdisjoint(op.by):
        grouped.pop(None, None)  # a bare key, or one part of a key tuple
        if len(op.by) > 1 or op.func == AGG_HISTOGRAM:
            grouped = {key: value for key, value in grouped.items()
                       if None not in key}
    if not grouped:
        return {}
    if plan.topk is not None:
        return grouped
    if label is None:
        return {key: grouped[key] for key in sorted(grouped)}
    return {(label, key): grouped[key] for key in sorted(grouped)}


def _clamped_span(records: Sequence[PathFlowRecord],
                  window: Optional[Filter]) -> Tuple[float, ...]:
    """``(min stime, max etime)`` of ``records``, each extent clamped into
    ``window`` (no observation time leaks from outside it), or ``()``."""
    if not records:
        return ()
    first = min(record.stime for record in records)
    last = max(record.etime for record in records)
    if window is not None and window.start is not None:
        first = max(first, window.start)
    if window is not None and window.end is not None:
        last = min(last, window.end)
    return (first, last)


def span_length(span: Sequence[float]) -> float:
    """The duration a span payload reports: ``end - start``, 0 for ``()``."""
    return span[1] - span[0] if span else 0.0


def _emit_rows(records: Sequence[PathFlowRecord],
               fields: Tuple[str, ...]) -> List[Tuple[Any, ...]]:
    """Materialise a record listing: one tuple per record, sorted - the
    canonical order that keeps listing payloads deterministic under any
    scan/merge order."""
    return sorted(tuple(record_field(record, name) for name in fields)
                  for record in records)


def rank_select(pairs: Iterable[Tuple[Any, ...]], k: int,
                order: str = ORDER_DESC) -> List[Tuple[Any, ...]]:
    """The k extreme pairs under full-tuple comparison, sorted.

    A total order over the emitted tuples makes the selection a
    well-defined *set* regardless of input order, so per-host selection
    and the partial-result merge are commutative and associative.  This
    is the general path's selection - the unconstrained flow-byte shape
    slices ``Tib.ranked_flow_bytes`` instead.  The manual bounded-heap
    loop beats ``heapq.nlargest`` by skipping the per-item order
    decoration (losers fall out on one C-level tuple comparison).
    """
    if order == ORDER_ASC:
        return heapq.nsmallest(k, pairs)
    heap: List[Tuple[Any, ...]] = []
    for item in pairs:
        if len(heap) < k:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
    return sorted(heap, reverse=True)


def merge_ranked(payloads: Sequence[Sequence[Tuple[Any, ...]]], k: int,
                 order: str = ORDER_DESC) -> List[Tuple[Any, ...]]:
    """The k extreme pairs across partial top-k lists: the head of the
    stable sort of their concatenation (:func:`rank_select` over them all).

    Partials are normally sorted runs (out of :func:`rank_select` or an
    earlier merge).  Up to 6 pairs per pair kept (an aggregation node's
    few runs), one C-level sort of the concatenation is cheapest; past
    that (a direct gather's hundreds), each run is re-sorted - one C-level
    pass - and heap-merged, ties to the earlier run, popping only the k
    pairs returned.  6 is the measured crossover for k of 30 to 1,000
    (5 to 6 pairs per pair kept; at k = 10 it is ~13, microseconds either
    way).  ``k < 1`` is rejected per host before any merge.
    """
    if k < 1 and any(payloads):
        raise ValueError(f"k must be >= 1, got {k}")
    reverse = order != ORDER_ASC
    if sum(map(len, payloads)) > 6 * k:
        runs = [sorted(payload, reverse=reverse) for payload in payloads]
        return list(islice(heapq.merge(*runs, reverse=reverse), max(k, 0)))
    return sorted(chain.from_iterable(payloads), reverse=reverse)[:k]


def _run_pipeline(plan: Plan, records: Sequence[PathFlowRecord],
                  skip_filter: bool) -> Any:
    """Apply the plan's ops to ``records``, each through its ``execute``
    leg.

    ``skip_filter=True`` is the pushdown executor's residual tail: the
    scan already applied the (index-routed) filter, so only the
    downstream ops run.
    """
    state: Any = records
    for op in plan.ops:
        if skip_filter and op.code == OP_FILTER:
            continue
        state = op.execute(state, plan)
    if plan.aggregate is None and plan.project is None:
        state = _emit_rows(state, RECORD_FIELDS)
    return state


def reference_evaluate(records: Sequence[PathFlowRecord],
                       plan: Plan) -> Any:
    """Brute-force oracle: evaluate ``plan`` over an explicit record set
    with no index routing, no pruning and no fast paths.  Every execution
    path (any tier mix, any mode) must produce exactly this payload."""
    validate(plan)
    return _run_pipeline(plan, list(records), skip_filter=False)


# --------------------------------------------------------------------------
# Pushdown execution against a TIB
# --------------------------------------------------------------------------
class PlanExecution(NamedTuple):
    """One host's plan execution: the payload plus its accounting."""

    payload: Any
    records_scanned: int
    scan_stats: Dict[str, int]


def _scalar_flow_sum(plan: Plan) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Detect the getCount shape: scalar sum over bytes/pkts of exactly
    one flow key, no other predicate - servable from the incrementally
    maintained per-flow aggregates without touching a record."""
    aggregate = plan.aggregate
    filter_op = plan.filter
    if (aggregate is None or filter_op is None or aggregate.by
            or aggregate.func != AGG_SUM
            or not set(aggregate.fields) <= {"bytes", "pkts"}):
        return None
    if (len(filter_op.flow_keys) != 1 or filter_op.start is not None
            or filter_op.end is not None or filter_op.links
            or filter_op.path is not None):
        return None
    if plan.topk is not None:
        return None
    return filter_op.flow_keys[0], aggregate.fields


def _keyed_flow_byte_sum(plan: Plan) -> bool:
    """Detect the unconstrained top-k-flows shape: sum of ``bytes`` keyed
    by ``flow`` with no predicate - servable from the per-flow aggregates
    (they span both tiers), no record touched at all."""
    aggregate = plan.aggregate
    filter_op = plan.filter
    if (aggregate is None or aggregate.func != AGG_SUM
            or aggregate.fields != ("bytes",) or aggregate.by != ("flow",)):
        return False
    return filter_op is None or filter_op.unconstrained


def execute_plan(tib: Any, plan: Plan) -> PlanExecution:
    """:func:`answer` a plan, with ``scan_stats`` the difference of the
    TIB's scan-stat snapshots around it: how the hot tier routed, and how
    much decode work cold pruning avoided, for *this* plan."""
    before = tib.scan_stat_snapshot()
    payload, scanned = answer(tib, plan)
    after = tib.scan_stat_snapshot()
    return PlanExecution(payload, scanned,
                         {key: after[key] - before[key] for key in after})


#: Keyed plans of stored columns answered as one payload, each under a
#: label (as :func:`compile_flow_size_distribution` builds them).
Labelled = Tuple[Tuple[str, Plan], ...]


def answer(tib: Any, plan: Union[Plan, Labelled]) -> Tuple[Any, int]:
    """A plan's payload on one host's TIB and the rows it scanned - or
    labelled plans': key ``k`` as ``(label, k)``, summed in plan order."""
    if isinstance(plan, Plan):
        return _answer(tib, plan)
    payload: Dict[Any, Any] = {}
    scanned = 0
    for label, one in plan:
        groups, rows = _answer(tib, one, label)  # sorted
        scanned += rows
        payload = merge_key_sums(None, [payload, groups]) if payload \
            else groups
    if len(plan) > 1:
        payload = dict(sorted(payload.items()))
    return payload, scanned


def _answer(tib: Any, plan: Plan,
            label: Optional[str] = None) -> Tuple[Any, int]:
    """:func:`answer` of one plan, by its pushdown shape (memoized on the
    frozen plan): maintained per-flow totals, a ``Tib.fold`` of stored
    columns for a keyed aggregate of them, else ``Tib.spec_records``."""
    shape = plan.__dict__.get("_pushdown_shape")
    if shape is None:  # only a valid plan has one
        validate(plan)
        scalar_shape = _scalar_flow_sum(plan)
        op, filter_op = plan.aggregate, plan.filter
        if scalar_shape is not None:
            shape = ("scalar",) + scalar_shape
        elif _keyed_flow_byte_sum(plan):
            topk = plan.topk
            if topk is not None and topk.key == RANK_VALUE:
                shape = ("ranked", topk.k, topk.order != ORDER_ASC)
            else:
                shape = ("keyed", op)
        # A keyed aggregate (or histogram) of stored fields folds columns,
        # unless a residual path must see records or a float sum would add
        # in the tiers' row order.
        elif (op is not None and (bool(op.by) or op.func == AGG_HISTOGRAM)
              and (filter_op is None or filter_op.path is None)
              and not (op.func == AGG_SUM and op.fields[0] in FLOAT_FIELDS)
              and set(_read_fields(op)) <= set(COLUMN_FIELDS)):
            shape = ("fold", scan_spec(filter_op), _read_fields(op), op)
        else:
            shape = ("general", scan_spec(filter_op),
                     filter_op.path if filter_op is not None else None)
        object.__setattr__(plan, "_pushdown_shape", shape)
    kind = shape[0]
    if kind == "fold":
        grouped, scanned = _group(shape[3], shape[2],
                                  tib.fold(shape[1], shape[2]))
    elif kind == "keyed":
        grouped, scanned = tib.flow_byte_totals(), tib.total_record_count()
    elif kind == "scalar":  # one maintained aggregate row, like getCount
        totals = tib.flow_totals(shape[1])
        by_name = {"bytes": totals[0], "pkts": totals[1]}
        return tuple(by_name[name] for name in shape[2]), 1
    elif kind == "ranked":  # a slice of the TIB's flow ranking
        return (tib.ranked_flow_bytes(shape[1], shape[2]),
                tib.total_record_count())
    else:
        rows = tib.spec_records(shape[1])
        scanned = len(rows)
        if shape[2] is not None:
            rows = [record for record in rows if record.path == shape[2]]
        return _run_pipeline(plan, rows, skip_filter=True), scanned
    payload = _emit_groups(shape[-1], plan, grouped, label)
    topk = plan.topk
    return (payload if topk is None else topk.execute(payload, plan)), scanned


# --------------------------------------------------------------------------
# Merge operators (the aggregation-tree reduction, selected by terminal op)
# --------------------------------------------------------------------------
# The concat reduction also merges the hand-written query handlers'
# payloads, and the key sum results' scan stats (:mod:`repro.core.query`),
# which is why the first argument goes unused.
def merge_concat(_: Any, payloads: Sequence[Any]) -> List[Any]:
    """Concatenate listing rows / scalar tuples (the un-merged reduction:
    per-host scalar tuples flatten into one list, exactly as ``getCount``
    partials always have)."""
    merged: List[Any] = []
    for payload in payloads:
        merged.extend(payload)
    return merged


def merge_key_sums(_: Any, payloads: Sequence[Any]) -> Dict[Any, Any]:
    """Sum keyed-aggregate dicts (histograms, matrices) key-wise."""
    merged: Dict[Any, Any] = {}
    for payload in payloads:
        for key, value in payload.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def merge_span(_: Any, payloads: Sequence[Any]) -> Tuple[float, ...]:
    """Min/max-merge ``(start, end)`` spans; ``()`` (a host with no
    matching record) is the identity."""
    spans = [span for span in payloads if span]
    if not spans:
        return ()
    return (min(start for start, _end in spans),
            max(end for _start, end in spans))


def _merge_top_k(plan: Plan, payloads: Sequence[Any]) -> Any:
    """Re-select the global extremes across partial top-k lists -
    ``(n - 1) * k`` pairs die at every aggregation level."""
    op = plan.topk
    assert op is not None  # validator: MERGE_TOP_K only with a TopK op
    return merge_ranked(payloads, op.k, op.order)


_MERGE_FUNCTIONS: Dict[str, Callable[[Any, Sequence[Any]], Any]] = {
    MERGE_CONCAT: merge_concat,
    MERGE_HISTOGRAM: merge_key_sums,
    MERGE_TOP_K: _merge_top_k,
    MERGE_SPAN: merge_span,
}


def merge_operator(plan: Union[Plan, Labelled]) -> str:
    """The generic merge operator the plan's terminal op selects: its
    ``merge``, except that a scalar ``Aggregate`` (no group key)
    concat-merges, or span-merges a span (labelled plans key-sum)."""
    if not isinstance(plan, Plan):
        return MERGE_HISTOGRAM
    terminal = plan.ops[-1]
    if isinstance(terminal, Aggregate) and not terminal.by:
        if terminal.func == AGG_SPAN:
            return MERGE_SPAN
        if terminal.func != AGG_HISTOGRAM:
            return MERGE_CONCAT
    return terminal.merge


def merge_payloads(plan: Union[Plan, Labelled],
                   payloads: Sequence[Any]) -> Any:
    """Merge partial plan payloads (one aggregation-tree reduction)."""
    return _MERGE_FUNCTIONS[merge_operator(plan)](plan, payloads)


# --------------------------------------------------------------------------
# Built-in compilations: the one definition of each host-API question
# --------------------------------------------------------------------------
def _flow_filter(flow: Any, time_range: Optional[Tuple[Any, Any]]) -> Filter:
    """The ``Filter`` of a read of one Flow: a bare :class:`FlowId`, or a
    ``(flowID, Path)`` pair (the path is a residual predicate)."""
    flow_id, path = (flow, None) if isinstance(flow, FlowId) else flow
    start, end = time_range if time_range is not None else (None, None)
    return Filter(start=start, end=end, flow_keys=(flow_key(flow_id),),
                  path=path)


def compile_get_count(flow: Any,
                      time_range: Optional[Tuple[Any, Any]] = None) -> Plan:
    """``getCount(Flow, timeRange)`` as a plan.  Payload: the
    ``(bytes, pkts)`` tuple."""
    return Plan(ops=(_flow_filter(flow, time_range),
                     Aggregate(func=AGG_SUM, fields=("bytes", "pkts"))))


def compile_get_duration(flow: Any,
                         time_range: Optional[Tuple[Any, Any]] = None
                         ) -> Plan:
    """``getDuration(Flow, timeRange)`` as a plan.  Payload: the span, which
    merges exactly where a duration would not (see :func:`span_length`)."""
    return Plan(ops=(_flow_filter(flow, time_range),
                     Aggregate(func=AGG_SPAN)))


def compile_top_k_flows(k: int = 1000, link: Any = None,
                        time_range: Optional[Tuple[Any, Any]] = None) -> Plan:
    """``top_k_flows(k, link, timeRange)`` as a plan.

    Payload: the descending ``(bytes, flow key)`` list - a slice of the
    TIB's flow ranking when unconstrained.
    """
    start, end = time_range if time_range is not None else (None, None)
    links: Tuple[Tuple[Optional[str], Optional[str]], ...] = ()
    if link is not None:
        links = (tuple(link),)  # Filter normalisation drops a fully-wild pair
    return Plan(ops=(
        Filter(start=start, end=end, links=links),
        Aggregate(func=AGG_SUM, fields=("bytes",), by=("flow",)),
        TopK(k=k, key=RANK_VALUE, order=ORDER_DESC),
    ))


def compile_traffic_matrix(time_range: Optional[Tuple[Any, Any]] = None
                           ) -> Plan:
    """``traffic_matrix(timeRange)`` (Section 2.3) as a plan.  Payload:
    bytes by (source ToR, destination ToR), sorted."""
    start, end = time_range if time_range is not None else (None, None)
    return Plan(ops=(Filter(start=start, end=end), Aggregate(
        func=AGG_SUM, fields=("bytes",), by=("tor_pair",))))


def compile_flow_size_distribution(
        links: Optional[Sequence[Any]] = None, link: Any = None,
        time_range: Optional[Tuple[Any, Any]] = None,
        binsize: int = 10_000) -> Labelled:
    """``flow_size_distribution`` (Section 2.3): a ``bytes`` histogram for
    each of ``links``, else the one ``link``, labelled ``"a-b"`` as given
    (an empty endpoint ``*``, no link ``"*-*"``).  Payload: counts by
    ``(label, bin)``, sorted."""
    start, end = time_range if time_range is not None else (None, None)
    labelled: List[Tuple[str, Plan]] = []
    for link in links if links is not None else (link,):
        a, b = ("*", "*") if link is None else link
        labelled.append((f"{a or '*'}-{b or '*'}", Plan(ops=(
            Filter(start=start, end=end, links=((a, b),)),
            Aggregate(func=AGG_HISTOGRAM, fields=("bytes",),
                      binsize=binsize)))))
    return tuple(labelled)
