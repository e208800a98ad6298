"""One stateful oracle for a host's TIB: every write and read, in lock-step.

A hypothesis state machine feeds the same writes to a capped ``Tib`` (a
hot-tier bound over a ``ColdArchive`` of two- or eight-row segments, a
two-entry write-behind buffer and auto-compaction at 30 % garbage, so
nearly every write evicts, stages, flushes, seals, promotes, folds
off-tier or compacts), to its uncapped twin, and to a model: the records
in a dict in first-arrival order (a key's position is its record id),
merged with ``PathFlowRecord.update`` and read by brute force only -
``ScanSpec.matches``, ``planlib.reference_evaluate``,
``planlib.rank_select`` and the record loops the flow-size histogram and
the traffic matrix ran before they became column-folding plans.  Every
read rule asks all three and compares payloads under ``wire.encode_value``
and record ids; the invariants hold the ids, the per-flow totals, the hot
bytes and every index to brute force after each step.  A failing schedule shrinks
to a minimal op list; ``SCHEDULES`` keeps such lists, one per known
fault, and replays them as written.
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule,
                                 run_state_machine_as_test)

from repro.core import plan as planlib
from repro.core import wire
from repro.core.plan import Aggregate, Filter, Plan, Project, TopK
from repro.core.query import (Q_FLOW_SIZE_DISTRIBUTION, Q_GET_COUNT,
                              Q_GET_DURATION, Q_GET_FLOWS, Q_GET_PATHS,
                              Q_PATH_CONFORMANCE, Q_SUBFLOW_IMBALANCE,
                              Q_TOP_K_FLOWS, Q_TRAFFIC_MATRIX, Query,
                              QueryEngine)
from repro.core.tib import Tib
from repro.network.packet import PROTO_TCP, FlowId
from repro.storage import ColdArchive, PathFlowRecord, RetentionPolicy
from repro.storage.records import (COLUMN_FIELDS, RECORD_FIELDS, ScanSpec,
                                   flow_key)
from repro.storage.segment import (SEG_ETIME, SEG_ID, SEG_PATH, SEG_STIME,
                                   Segment)

# Unicode and empty names ride through the segment dictionaries.
FLOWS = tuple(FlowId(src, "d", 1000 + port, 80, PROTO_TCP)
              for src in ("h0", "zürich-7", "中中", "") for port in range(3))


def paths_of(src):
    """Direction twins, a one-hop-apart twin, a longer path, paths of one
    hop and of none, and one through a single switch."""
    return ((src, "s0", "s1", "d"), (src, "s1", "s0", "d"),
            (src, "s0", "s9", "d"), (src, "s0", "s1", "s2", "d"),
            (src, "d"), ("d",), (), (src, "s0", "d"))


FLOW_PATHS = st.sampled_from(tuple((flow, path) for flow in FLOWS
                                   for path in paths_of(flow.src_ip)))
FLOW_OR_PAIR = st.sampled_from(FLOWS) | FLOW_PATHS
LINK_SWEEP = (("s0", "s1"), ("s1", "s0"), ("s0", "s9"), ("s1", None),
              (None, "s2"), ("*", "*"), ("?", None), ("h0", "d"),
              ("no-such", None), ("s0", "no"))
LINKS = st.sampled_from(LINK_SWEEP)
GRID = st.integers(0, 11).map(float)  # record bounds land on window bounds
BOUND = st.none() | st.just("*") | GRID
WINDOWS = st.tuples(BOUND, BOUND)
ORDERED = WINDOWS.map(lambda window: tuple(sorted(window))
                      if type(window[0]) is type(window[1]) is float
                      else window)
RECORDS = st.builds(
    lambda flow_path, stime, span, nbytes, pkts: (
        *flow_path, stime, stime + span, nbytes, pkts),
    FLOW_PATHS, GRID, st.sampled_from((0, 1, 3)),
    st.sampled_from((0, 100, 300)) | st.integers(2 ** 40, 2 ** 40 + 2),
    st.sampled_from((1, 2)))


def rec(flow, path, stime, span=0, nbytes=0, pkts=1):
    """A record as ``RECORDS`` draws it, its flow and path named by their
    places in ``FLOWS`` and ``paths_of``."""
    flow = FLOWS[flow]
    return (flow, paths_of(flow.src_ip)[path], float(stime),
            float(stime + span), nbytes, pkts)


SPECS = st.builds(
    lambda window, links, keys: ScanSpec(*window, tuple(links), keys),
    ORDERED, st.lists(LINKS, max_size=2), st.none() | st.frozensets(
        st.sampled_from(FLOWS).map(flow_key) | st.just("no:1|such:2|6"),
        max_size=2))
BY = st.sampled_from((("flow",), ("flow", "path"), ("path",)))
KEYED_SUM = st.builds(Aggregate, st.just("sum"), st.just(("bytes",)), BY)
TAILS = st.one_of(
    st.just(()),
    st.lists(st.sampled_from(RECORD_FIELDS), min_size=1, unique=True).map(
        lambda fields: (Project(tuple(fields)),)),
    st.tuples(st.one_of(
        KEYED_SUM, st.just(Aggregate(func="span")),
        st.builds(Aggregate, st.just("sum"), st.lists(st.sampled_from(
            ("bytes", "pkts")), min_size=1, unique=True).map(tuple)),
        st.builds(Aggregate, st.just("count"), st.just(()), BY | st.just(())),
        st.builds(Aggregate, st.just("histogram"), st.sampled_from(
            planlib.NUMERIC_FIELDS).map(lambda name: (name,)),
            BY | st.just(()), st.sampled_from((1, 100, 2 ** 40))))),
    st.tuples(KEYED_SUM, st.builds(
        TopK, st.sampled_from((1, 3, 8, 2 ** 64)),
        st.sampled_from((planlib.RANK_VALUE, planlib.RANK_GROUP)),
        st.sampled_from((planlib.ORDER_DESC, planlib.ORDER_ASC)))))
# Every pushdown shape, and the built-ins' own plans.
PLANS = st.one_of(
    st.builds(lambda spec, path, tail: Plan((Filter(
        spec.start, spec.end, spec.links, tuple(spec.flow_keys or ()),
        path),) + tail), SPECS, st.none() | FLOW_PATHS.map(
            lambda pair: pair[1]), TAILS),
    st.builds(planlib.compile_get_count, FLOW_OR_PAIR, st.none() | ORDERED),
    st.builds(planlib.compile_get_duration, FLOW_OR_PAIR,
              st.none() | ORDERED),
    st.builds(planlib.compile_top_k_flows, st.sampled_from((1, 4, 30)),
              st.none() | LINKS, st.none() | ORDERED))
#: The knobs a built-in may read besides its window, links and flow.
KNOBS = tuple({"k": k, "binsize": binsize, "max_hops": hops,
               "forbidden": avoid, "ratio": ratio}
              for k, binsize, hops, avoid, ratio in (
                  (1, 1, None, (), 1.0), (3, 100, 1, ("s9",), 2.0),
                  (30, 2.5, 2, (), 1.0), (3, 2 ** 40, None, ("s9",), 2.0)))


def query(name, window=None, link=None, links=None, flow=FLOWS[0],
          knobs=KNOBS[0]):
    """A built-in's query with every parameter any handler reads; ``flow``
    is a flow id or a ``(flow id, path)`` pair."""
    return Query(name, dict(
        knobs, time_range=window, link=link, links=links, flow=flow,
        flow_id=flow if isinstance(flow, FlowId) else flow[0]))


# Every built-in that reads the TIB (poor_tcp_flows reads the TCP monitor).
# A handler reads only the parameters it takes; a window may be reversed,
# and lists stand where a decoded frame puts them.
QUERIES = st.builds(
    query, st.sampled_from((
        Q_GET_FLOWS, Q_GET_PATHS, Q_GET_COUNT, Q_GET_DURATION,
        Q_TOP_K_FLOWS, Q_FLOW_SIZE_DISTRIBUTION, Q_TRAFFIC_MATRIX,
        Q_PATH_CONFORMANCE, Q_SUBFLOW_IMBALANCE)),
    st.none() | WINDOWS | WINDOWS.map(list), st.none() | LINKS,
    st.none() | st.lists(st.none() | LINKS | LINKS.map(list), min_size=1,
                         max_size=3), FLOW_OR_PAIR, st.sampled_from(KNOBS))


def values(records):
    return [(r.flow_id, r.path, r.stime, r.etime, r.bytes, r.pkts)
            for r in records]


def fold_rows(chunks):
    """A fold's rows, sorted; no chunk is empty or ragged."""
    chunks = list(chunks)
    for chunk in chunks:
        assert len({len(column) for column in chunk} - {0}) == 1, chunk
    return sorted(row for chunk in chunks for row in zip(*chunk))


def ruled_out(spec, rows):
    """Whether a sealed segment's zone map or link postings rule it out:
    no row, garbage included, in the window, or none on the links."""
    stimes, etimes, paths = rows.select((SEG_STIME, SEG_ETIME, SEG_PATH))
    on_links = ScanSpec(links=spec.links).matches
    return (spec.start is not None and max(etimes) < spec.start
            or spec.end is not None and min(stimes) > spec.end
            or not any(on_links(PathFlowRecord(FLOWS[0], path, 0.0, 0.0))
                       for path in set(paths)))


def filter_rows(op, records):
    """The records a ``Filter`` keeps, read off its own fields (not through
    ``scan_spec``): window overlap, any flow key, the exact path, and every
    link - a concrete one as an undirected hop, a wildcard endpoint as a
    node on some hop."""
    def keeps(record):
        hops = {frozenset(hop) for hop in zip(record.path, record.path[1:])}
        return ((op.start is None or record.etime >= op.start)
                and (op.end is None or record.stime <= op.end)
                and (not op.flow_keys or flow_key(record.flow_id)
                     in op.flow_keys)
                and (op.path is None or record.path == op.path)
                and all(frozenset(link) in hops if None not in link
                        else any(node in hop for hop in hops
                                 for node in link if node is not None)
                        for link in op.links))
    return list(filter(keeps, records))


def on(params, link):
    """The model's filter for a handler's ``link`` and ``time_range``."""
    start, end = params["time_range"] or (None, None)
    return ScanSpec(start, end, () if link is None else (link,)).matches


def link_label(link):
    """A histogram's label for a link parameter: ``"a-b"``, a ``None`` or
    empty endpoint read as ``*``."""
    if link is None:
        return "*-*"
    a, b = link
    return f"{a or '*'}-{b or '*'}"


def record_loop_fsd(records, params):
    """Rows on each link counted by ``(label, int(bytes // binsize))``: a
    plan histogram's bin, an int for a float binsize too."""
    histogram = Counter(
        (link_label(link), int(record.bytes // params["binsize"]))
        for link in params["links"] or [params["link"]]
        for record in filter(on(params, link), records))
    return dict(sorted(histogram.items())), sum(histogram.values())


def record_loop_matrix(records, params):
    matched = list(filter(on(params, None), records))
    matrix = Counter()
    for record in matched:
        if len(record.path) >= 3:
            matrix[record.path[1], record.path[-2]] += record.bytes
    return dict(sorted(matrix.items())), len(matched)


def distinct_paths(records, params):
    paths = list(dict.fromkeys(
        r.path for r in filter(on(params, params["link"]), records)
        if r.flow_id == params["flow_id"]))
    return paths, len(paths)


def planned(compile_plan, *names):
    """A plan-built query's payload; its records scanned is not modelled."""
    return lambda records, params: (planlib.reference_evaluate(
        records, compile_plan(*map(params.get, names + ("time_range",)))),
        None)


#: query name -> the model's ``(payload, records scanned or None)``.
REFERENCES = {
    Q_GET_FLOWS: lambda records, params: (list(dict.fromkeys(
        (r.flow_id, r.path) for r in filter(on(params, params["link"]),
                                            records))), len(records)),
    Q_GET_PATHS: distinct_paths,
    Q_GET_COUNT: planned(planlib.compile_get_count, "flow"),
    Q_GET_DURATION: planned(planlib.compile_get_duration, "flow"),
    Q_TOP_K_FLOWS: planned(planlib.compile_top_k_flows, "k", "link"),
    Q_FLOW_SIZE_DISTRIBUTION: record_loop_fsd,
    Q_TRAFFIC_MATRIX: record_loop_matrix,
}


def answer(read, *args):
    """``(payload type, payload bytes, records scanned)`` of a read, or the
    ``ValueError`` it raised."""
    try:
        payload, scanned = read(*args)
    except ValueError:
        return ValueError
    return type(payload), wire.encode_value(payload), scanned


def served(tib, query):
    result = QueryEngine().execute(SimpleNamespace(
        host="c", tib=tib, alarm=lambda *alarm: None), query)
    return result.payload, result.records_scanned


#: What the machine's runs exercised, summed over the whole test run.
FIRED = Counter()


class TibMachine(RuleBasedStateMachine):

    @initialize(max_records=st.integers(0, 6),
                preload=st.lists(RECORDS, max_size=40),
                segment_records=st.sampled_from((2, 8)))
    def start(self, max_records, preload, segment_records):
        """Small TIBs take every path once the ranking re-sorts past half
        of its flows changed and compaction waits for 2 rows (not 5 %,
        64); 8-row segments let the unsealed tail grow between reads."""
        archive = ColdArchive(segment_records=segment_records,
                              compact_dead_ratio=0.3, write_behind_records=2)
        archive.COMPACT_MIN_RECORDS = 2
        self.capped = Tib("c", RetentionPolicy(max_records), archive)
        self.twin, self.model, self.fired = Tib("c"), {}, Counter()
        self.tibs = (self.capped, self.twin)
        for tib in self.tibs:
            tib.RANK_REBUILD_SHARE = 0.5

        # A cold admission and a promotion that installs hot leave no mark
        # of their own (an off-tier fold is a promotion installing nothing).
        def counted(name, call):
            def counting(*args):
                result = call(*args)
                self.fired[name] += result is not False
                return result
            return counting
        self.capped._admit_cold = counted("cold_admissions",
                                          self.capped._admit_cold)
        self.capped._install_promoted = counted(
            "installs", self.capped._install_promoted)
        self.add_records(preload, adopt=False)

    def teardown(self):
        cold, hot = self.capped.archive.stats, self.capped.stats
        FIRED.update(
            self.fired, segments_skipped=cold.segments_skipped,
            entries_skipped=cold.entries_skipped,
            auto_compactions=cold.compactions
            - self.fired["manual_compactions"],
            staged_flushes=cold.flushes, promotions=hot.promotions,
            off_tier_folds=hot.promotions - self.fired["installs"],
            **{name: getattr(hot, name) for name in (
                "hot_flow_routed", "hot_link_routed", "hot_time_routed",
                "hot_full_scans")})

    # ------------------------------------------------------------- writes
    @rule(batch=st.lists(RECORDS, min_size=1, max_size=8),
          adopt=st.booleans())
    def add_records(self, batch, adopt):
        self.add(batch, adopt, lambda tib, records: tib.add_records(
            records, adopt=adopt))

    @rule(record=RECORDS, adopt=st.booleans())
    def add_record(self, record, adopt):
        self.add([record], adopt, lambda tib, records: tib.add_record(
            *records, adopt=adopt))

    def add(self, batch, adopt, write):
        for tib in self.tibs:
            records = [PathFlowRecord(*fields) for fields in batch]
            write(tib, records)
            assert adopt or values(records) == batch  # a caller's, untouched
        for flow_id, path, stime, etime, nbytes, pkts in batch:
            held = self.model.get((flow_key(flow_id), path))
            if held is None:
                self.model[flow_key(flow_id), path] = PathFlowRecord(
                    flow_id, path, stime, etime, nbytes, pkts)
            else:  # the reference fold, then the start extends
                held.update(nbytes, pkts, etime)
                held.stime = min(held.stime, stime)

    @rule(max_records=st.none() | st.integers(0, 6),
          max_bytes=st.none() | st.integers(0, 1_500))
    def configure_retention(self, max_records, max_bytes):
        self.capped.configure_retention(max_records, max_bytes)

    @precondition(lambda self: self.capped.archive.live_count)
    @rule()
    def promote_archived(self):
        """Lift the cap and write to every archived key again, newest id
        first: each promotion puts an old id at the tail of the hot cache
        and of its flow's posting, and the archive is left empty, so the
        reads that follow - the whole TIB, then each promoted flow alone -
        are the hot tier's and must put the ids back in order."""
        capped = self.capped
        capped.configure_retention(None, None)
        ids = {key: i for i, key in enumerate(self.model)}
        keys = sorted(capped.archive._key_index, key=ids.__getitem__,
                      reverse=True)
        self.add([(record.flow_id, record.path, record.stime, record.etime,
                   0, 1) for record in map(self.model.__getitem__, keys)],
                 False, lambda tib, records: tib.add_records(records))
        assert not capped.archive.live_count
        self.check_scan(ScanSpec(), ["bytes"])
        for fkey in dict.fromkeys(fkey for fkey, _path in keys):
            self.check_scan(ScanSpec(flow_keys=frozenset({fkey})), ["bytes"])

    @rule(report=st.booleans())
    def flush_archive(self, report):
        """``tier_stats()`` flushes first, as ``flush_archive()`` does."""
        capped = self.capped
        if report:
            stats = capped.tier_stats()
            assert (stats["hot_records"], stats["hot_bytes"],
                    stats["cold_records"]) == (
                capped.record_count(), capped.estimated_bytes(),
                capped.archive.live_count)
        else:
            capped.flush_archive()
        assert capped.archive.staged_count == 0

    @precondition(lambda self: self.capped.archive.dead_ratio > 0)
    @rule()
    def compact(self):
        archive = self.capped.archive
        size = archive.archive_bytes()
        archive.compact()
        self.fired["manual_compactions"] += 1
        assert archive.dead_ratio == 0.0
        assert archive.archive_bytes() < size

    @rule()
    def reopen_segments(self):
        """Every sealed segment re-opened from its bytes alone."""
        for segment in self.capped.archive._segments.values():
            segment.rows = Segment(segment.rows.data)

    @precondition(lambda self: len(self.model) >= 8)
    @rule()
    def clear(self):
        for tib in self.tibs:
            tib.clear()
        self.model.clear()

    # -------------------------------------------------------------- reads
    @rule(spec=SPECS, fields=st.lists(st.sampled_from(COLUMN_FIELDS),
                                      min_size=1, unique=True))
    def scan(self, spec, fields):
        """The drawn spec, then its window and flow keys on every link of
        the sweep: a read costs little beside drawing a step."""
        for links in (spec.links, *((link,) for link in LINK_SWEEP)):
            self.check_scan(dataclasses.replace(spec, links=links), fields)

    def check_scan(self, spec, fields):
        want = [(i, r) for i, r in enumerate(self.model.values())
                if spec.matches(r)]
        for tib in self.tibs:  # the fold first: it must flush staged rows
            assert fold_rows(tib.fold(spec, fields)) == sorted(
                tuple(getattr(r, name) for name in fields) for _, r in want)
            assert values(tib.spec_records(spec)) == values(r for _, r in want)
        # Each tier's half, with ids; a fold prunes as a scan does and
        # materialises nothing.
        capped, archive = self.capped, self.capped.archive
        hot, stats = capped.scan(spec), [dataclasses.asdict(archive.stats)]
        cold = archive.scan(spec)
        stats.append(dataclasses.asdict(archive.stats))
        assert fold_rows(archive.fold(spec, ("bytes", "path"))) == \
            sorted((r.bytes, r.path) for _, r in cold)
        stats.append(dataclasses.asdict(archive.stats))
        assert hot == [pair for pair in want if pair[0] in capped._cache]
        assert cold == [pair for pair in want
                        if pair[0] not in capped._cache]
        scanned, folded = [{name: after[name] - before[name]
                            for name in before}
                           for before, after in zip(stats, stats[1:])]
        assert scanned["entries_decoded"] == len(cold)
        assert folded == dict(scanned, entries_decoded=0)
        assert scanned["segments_skipped"] + scanned["segment_decodes"] == \
            len(archive._segments)
        if spec.flow_keys is None:  # zone maps and postings prune exactly
            assert scanned["segments_skipped"] == sum(
                ruled_out(spec, segment.rows)
                for segment in archive._segments.values())

    @rule(window=WINDOWS)
    def keyword_read(self, window):
        """``records(link=..., time_range=...)`` on no link and on each of
        the sweep's: the reads one hot index serves alone; a reversed
        window is a ``ValueError``."""
        for link in (None, *LINK_SWEEP):
            want = answer(lambda: (values(filter(on(
                {"time_range": window}, link), self.model.values())), None))
            for tib in self.tibs:
                assert answer(lambda: (values(tib.records(
                    link=link, time_range=window)), None)) == want, link

    @rule(k=st.integers(1, 26), descending=st.booleans())
    def ranked(self, k, descending):
        want = planlib.rank_select(
            [(nbytes, fkey) for fkey, nbytes in self.totals(0).items()], k,
            planlib.ORDER_DESC if descending else planlib.ORDER_ASC)
        for tib in self.tibs:
            stale = len(tib._rank_stale)
            self.fired["rank_rebuilds" if stale > len(tib._flow_totals)
                       * tib.RANK_REBUILD_SHARE else "rank_repairs" if stale
                       else "rank_clean_reads"] += 1
            assert tib.ranked_flow_bytes(k, descending) == want
            assert not tib._rank_stale

    @rule(plan=PLANS)
    def plan(self, plan):
        records = list(self.model.values())
        want = wire.encode_value(planlib.reference_evaluate(records, plan))
        got = [planlib.execute_plan(tib, plan) for tib in self.tibs]
        assert [wire.encode_value(execution.payload)
                for execution in got] == [want, want], plan
        assert got[0].records_scanned == got[1].records_scanned
        if plan.aggregate is None and plan.filter is not None:
            # A listing's rows against the Filter's own fields: the
            # reference filters through the same scan_spec as the tiers.
            assert want == wire.encode_value(planlib.reference_evaluate(
                filter_rows(plan.filter, records), Plan(tuple(
                    Filter() if op is plan.filter else op
                    for op in plan.ops)))), plan
        if plan.topk is None:  # top-k merges re-select, so they differ
            # Two hosts' partials merge to the reference over their union,
            # up to key order.
            want = planlib.reference_evaluate(records, plan)
            merged = planlib.merge_payloads(plan, [
                planlib.reference_evaluate(records[half::2], plan)
                for half in (0, 1)])
            if planlib.merge_operator(plan) != planlib.MERGE_CONCAT:
                assert merged == want
            elif plan.aggregate is None:
                assert sorted(merged) == want
            else:  # one scalar tuple a host, concatenated
                assert len(merged) == 2 * len(want)

    @rule(query=QUERIES)
    def builtin(self, query):
        got, twin = (answer(served, tib, query) for tib in self.tibs)
        assert got == twin, query
        reference = REFERENCES.get(query.name)
        if reference is not None:
            want = answer(reference, list(self.model.values()), query.params)
            if want is not ValueError and want[2] is None:
                got, want = got[:2], want[:2]  # records scanned not modelled
            assert got == want, query

    # --------------------------------------------------------- invariants
    def totals(self, slot):
        """The model's per-flow bytes (``slot`` 0) or packets (1), in
        first-record order."""
        totals = Counter()
        for record in self.model.values():
            totals[flow_key(record.flow_id)] += (record.bytes,
                                                 record.pkts)[slot]
        return totals

    @invariant()
    def ids_totals_and_hot_bytes_agree(self):
        capped, twin = self.tibs
        ids = {key: i for i, key in enumerate(self.model)}
        cold = capped.archive._key_index
        assert len(capped._primary) + len(cold) == len(ids)
        assert {**capped._primary, **cold} == twin._primary == ids
        assert capped._next_id == twin._next_id == len(ids)
        nbytes, pkts = self.totals(0), self.totals(1)
        for tib in self.tibs:
            assert list(tib.flow_byte_totals().items()) == \
                list(nbytes.items())
            assert [tib.flow_totals(fkey)[1] for fkey in pkts] == \
                list(pkts.values())
        for tib, records in ((capped, capped._cache.values()),
                             (twin, self.model.values())):
            assert tib.estimated_bytes() == sum(
                record.document_bytes() for record in records)
        assert not capped.retention.exceeded_by(capped.record_count(),
                                                capped.estimated_bytes())

    @invariant()
    def hot_indexes_are_consistent(self):
        """The ranking holds every flow's total as of the last ranked read
        (a written flow's held total is in ``_rank_stale``), and the link
        postings hold each hot record under every undirected hop of its
        path, in the numbering the capped TIB shares with its archive -
        read without folding anything."""
        assert self.capped.links is self.capped.archive.links
        for tib in self.tibs:
            held = {fkey: totals[0]
                    for fkey, totals in tib._flow_totals.items()}
            held.update(tib._rank_stale)
            assert tib._ranking == sorted(
                (nbytes, fkey) for fkey, nbytes in held.items()
                if nbytes is not None)
            postings = {}
            for i, record in tib._cache.items():
                for hop in zip(record.path, record.path[1:]):
                    ordinal = tib.links.ordinal[min(hop), max(hop)]
                    postings.setdefault(ordinal, set()).add(i)
            assert {ordinal: ids for ordinal, ids
                    in tib._link_postings.items() if ids} == postings

    @invariant()
    def cold_indexes_are_brute_force(self):
        """Every log position's dead set and (once built) link postings,
        and the key index - read without flushing or building anything."""
        archive = self.capped.archive
        links = {ordinal: link
                 for link, ordinal in archive.links.ordinal.items()}
        built = archive._tail_index
        positions = [(number, segment.rows, segment.postings, segment.dead)
                     for number, segment in archive._segments.items()]
        positions.append((archive._tail_no, archive._tail, built[1] if built
                          and built[0] == archive._tail.count else None,
                          archive._tail_dead))
        for segment in archive._segments.values():  # full, with tight zones
            assert segment.rows.count == archive.segment_records
            assert (segment.min_stime, segment.max_etime) == (
                min(segment.rows.column(SEG_STIME)),
                max(segment.rows.column(SEG_ETIME)))
        garbage = 0
        for number, rows, postings, dead in positions:
            ids = rows.column(SEG_ID)
            assert dead == {row for row in range(rows.count) if archive.
                            _locator.get(ids[row]) != number << 32 | row}
            garbage += len(dead)
            runs = {}
            for row, path in enumerate(rows.select((SEG_PATH,))[0]):
                for a, b in zip(path, path[1:]):
                    runs.setdefault((min(a, b), max(a, b)), []).append(row)
            assert postings is None or runs == {
                links[i]: list(postings.run(i)) for i in postings.links}
        assert garbage == archive._total_rows - len(archive._locator)
        assert sorted(archive._key_index.values()) == sorted(
            [*archive._locator, *archive._staged])
        incident = {}
        for link, ordinal in archive.links.ordinal.items():
            for node in link:
                incident.setdefault(node, set()).add(ordinal)
        assert incident == {node: set(ordinals) for node, ordinals
                            in archive.links.incident.items()}


TestTibMachine = TibMachine.TestCase


def test_the_run_is_not_vacuous():
    """What the deleted seeded fuzzers asserted of their own schedules:
    over the machine's run every tier path fired."""
    if not FIRED:  # run on its own: drive the machine first
        run_state_machine_as_test(TibMachine)
    assert not [name for name in (
        "segments_skipped", "entries_skipped", "auto_compactions",
        "promotions", "off_tier_folds", "cold_admissions", "staged_flushes",
        "rank_clean_reads", "rank_repairs", "rank_rebuilds",
        "hot_flow_routed", "hot_link_routed", "hot_time_routed",
        "hot_full_scans")
        if not FIRED[name]], dict(FIRED)


#: Short schedules, each named for a fault it catches: a mutant of the
#: TIB, its archive, the segment codec, the plan executor or a handler,
#: found by the machine (or written by hand where the generated run
#: missed it) and shrunk to the steps that show it.  Replayed as written,
#: with every invariant after each step, they keep each fault caught
#: whatever examples a hypothesis release draws.
SCHEDULES = {
    "zone-map-misses-last-row": (
        ("start", 0, [], 8),
        ("add_records", [rec(0, 0, 0), rec(0, 3, 0), rec(11, 0, 0)], False),
        ("add_record", rec(0, 2, 0), False),
        ("configure_retention", None, 645),
        ("add_records",
         [rec(0, 0, 0), rec(0, 1, 8), rec(0, 4, 1), rec(10, 0, 0)], False),
        ("add_records", [rec(0, 6, 1), rec(6, 0, 0), rec(8, 0, 8)], False)),
    "tail-pruned-under-a-window": (
        ("start", 0, [rec(0, 0, 0)], 8), ("keyword_read", ("*", 4.0))),
    "hot-walk-drops-etime-at-start": (
        ("start", 0, [], 8), ("add_records", [rec(0, 0, 3)], False),
        ("scan", ScanSpec(start=3.0), ["pkts"])),
    "hot-walk-drops-stime-at-end": (
        ("start", 0, [rec(0, 0, 4)], 8), ("keyword_read", ("*", 4.0))),
    "promotion-skips-hot-bytes": (
        ("start", 0, [], 8),
        ("add_records", [rec(3, 0, 0), rec(3, 0, 0)], False)),
    "compaction-drops-last-live-row": (
        ("start", 0, [rec(0, 0, 0)], 2), ("add_record", rec(3, 0, 0), False),
        ("add_records", [rec(0, 0, 0), rec(1, 0, 7), rec(0, 0, 0)], False),
        ("keyword_read", (7.0, "*"))),
    "cold-admission-misses-rank-mark": (
        ("start", 1, [], 2), ("add_record", rec(9, 0, 4), False),
        ("plan", planlib.compile_top_k_flows(1)),
        ("add_record", rec(9, 3, 0, 0, 100), False)),
    "insert-misses-rank-mark": (
        ("start", 0, [], 8), ("add_records", [rec(11, 2, 0)], False),
        ("plan", planlib.compile_top_k_flows(4)),
        ("add_records", [rec(11, 0, 0, 0, 100)], False)),
    "merge-misses-rank-mark": (
        ("start", 0, [], 8), ("add_records", [rec(6, 2, 0)], False),
        ("ranked", 1, False), ("add_records", [rec(6, 2, 0, 0, 100)], False)),
    "off-tier-fold-misses-rank-mark": (
        ("start", 1, [], 2), ("add_records", [rec(5, 3, 0)], False),
        ("add_records", [rec(0, 0, 7)], False), ("ranked", 1, False),
        ("add_records", [rec(5, 3, 0, 0, 100)], False)),
    "rank-repair-keeps-held-entry": (
        ("start", 0, [rec(0, 0, 0)], 2), ("add_record", rec(10, 0, 0), False),
        ("plan", planlib.compile_top_k_flows(1)),
        ("add_record", rec(0, 0, 0), False),
        ("plan", planlib.compile_top_k_flows(30))),
    "rank-resort-keeps-stale-entries": (
        ("start", 0, [], 8), ("add_record", rec(0, 0, 0), False),
        ("plan", planlib.compile_top_k_flows(1)),
        ("add_records", [rec(0, 0, 0)], False), ("ranked", 1, False)),
    "clear-keeps-ranking": (
        ("start", 0, [], 8), ("add_record", rec(0, 3, 0), False),
        ("plan", planlib.compile_top_k_flows(4)),
        ("add_records",
         [rec(0, 5, 0), rec(7, 0, 0), rec(0, 0, 0), rec(10, 0, 0),
          rec(0, 1, 0), rec(6, 0, 0), rec(0, 4, 0)], False), ("clear",)),
    "cold-admission-loses-new-flow-mark": (
        ("start", 1, [rec(0, 0, 8), rec(6, 0, 0)], 8),),
    "take-leaves-row-live": (
        ("start", 0, [rec(0, 0, 0), rec(0, 1, 0), rec(0, 0, 0)], 8),),
    "wildcard-node-constrains-one-link": (
        ("start", 1, [], 2), ("add_records", [rec(0, 3, 3)], False),
        ("add_records", [rec(0, 1, 0), rec(0, 0, 0)], False),
        ("keyword_read", ("*", "*"))),
    "tail-postings-never-rebuilt": (
        ("start", 0, [rec(11, 0, 0)], 8), ("scan", ScanSpec(), ["bytes"]),
        ("add_record", rec(0, 0, 0), False), ("scan", ScanSpec(), ["bytes"])),
    "compaction-keeps-dead-rows": (
        ("start", 0, [], 2), ("add_record", rec(10, 6, 0), False),
        ("add_record", rec(0, 0, 0), False),
        ("add_record", rec(0, 0, 0), False),
        ("add_record", rec(0, 6, 0), False)),
    "eviction-skips-hot-bytes": (
        ("start", 0, [rec(0, 0, 0)], 8),),
    "eviction-keeps-link-posting": (
        ("start", 0, [], 8),
        ("add_records", [rec(3, 0, 2), rec(3, 0, 0)], False)),
    "promotion-skips-link-postings": (
        ("start", 1, [], 8), ("add_records", [rec(6, 2, 0)], False),
        ("add_records", [rec(0, 0, 0), rec(6, 2, 7)], False)),
    "zone-map-prunes-stime-at-end": (
        ("start", 1, [rec(0, 0, 7)], 2),
        ("add_records", [rec(5, 0, 6)], False),
        ("add_records", [rec(0, 1, 2)], False),
        ("builtin", query(Q_TRAFFIC_MATRIX, window=("*", 2.0)))),
    "column-predicate-drops-etime-at-start": (
        ("start", 0, [], 8), ("add_record", rec(0, 0, 3), False),
        ("scan", ScanSpec(start=3.0), ["pkts"])),
    "off-tier-fold-drops-packets": (
        ("start", 1, [], 2), ("add_records", [rec(8, 3, 0)], False),
        ("add_records", [rec(0, 0, 5)], False),
        ("add_records", [rec(8, 3, 0)], False),
        ("scan", ScanSpec(), ["stime"])),
    "merge-never-lowers-stime": (
        ("start", 0, [rec(1, 1, 7)], 2), ("add_record", rec(1, 1, 0), False),
        ("scan", ScanSpec(), ["bytes"])),
    "cold-admission-reuses-an-id": (
        ("start", 1, [rec(0, 0, 8), rec(0, 4, 0)], 8),),
    "insert-skips-flow-posting": (
        ("start", 0, [], 8), ("add_records", [rec(1, 0, 0)], False),
        ("scan", ScanSpec(flow_keys=frozenset({flow_key(FLOWS[1])})),
         ["bytes"])),
    "insert-skips-first-link": (
        ("start", 0, [rec(0, 4, 0)], 2), ("scan", ScanSpec(), ["bytes"])),
    "merge-drops-packets": (
        ("start", 0, [rec(2, 4, 0), rec(2, 4, 0)], 8),
        ("keyword_read", (None, None))),
    "merge-drops-flow-packets": (
        ("start", 0, [rec(2, 4, 0), rec(2, 4, 0)], 8),),
    "merge-drops-flow-bytes": (
        ("start", 0, [rec(2, 4, 0), rec(2, 4, 0, 0, 100)], 8),),
    "raised-etime-not-evictable": (
        ("start", 0, [rec(2, 1, 0)], 2),
        ("add_records", [rec(2, 1, 7)], False)),
    "merge-never-raises-etime": (
        ("start", 0, [], 8),
        ("add_records", [rec(11, 2, 0), rec(11, 2, 4)], False),
        ("keyword_read", (None, None))),
    "off-tier-fold-never-lowers-stime": (
        ("start", 1, [], 2), ("add_records", [rec(8, 3, 4)], False),
        ("add_records", [rec(0, 0, 5)], False),
        ("add_records", [rec(8, 3, 0)], False),
        ("scan", ScanSpec(), ["stime"])),
    "off-tier-fold-never-raises-etime": (
        ("start", 1, [], 2), ("add_records", [rec(9, 2, 0)], False),
        ("add_records", [rec(0, 0, 5), rec(9, 2, 1)], False),
        ("scan", ScanSpec(), ["stime"])),
    "off-tier-fold-drops-bytes": (
        ("start", 1, [], 2), ("add_records", [rec(10, 0, 0, 0, 100)], False),
        ("add_records", [rec(10, 4, 4, 0, 100), rec(10, 0, 0, 0, 100)], False),
        ("builtin", query(Q_SUBFLOW_IMBALANCE))),
    "off-tier-fold-drops-flow-bytes": (
        ("start", 1, [], 8), ("add_record", rec(8, 0, 0), False),
        ("add_records", [rec(0, 0, 9)], False),
        ("add_record", rec(8, 0, 0, 0, 100), False)),
    "off-tier-fold-drops-flow-packets": (
        ("start", 1, [], 8), ("add_record", rec(8, 0, 0), False),
        ("add_records", [rec(0, 0, 9)], False),
        ("add_record", rec(8, 0, 0), False)),
    "promotion-appends-flow-posting": (
        ("start", 2, [rec(0, 0, 0), rec(1, 0, 5), rec(2, 0, 6)], 2),
        ("add_record", rec(0, 1, 7), False),
        ("add_record", rec(0, 0, 8), False),
        ("scan", ScanSpec(flow_keys=frozenset({flow_key(FLOWS[0])})),
         ["bytes"])),
    "promotion-keeps-cache-order-clean": (
        ("start", 1, [rec(0, 0, 0), rec(1, 0, 5)], 2),
        ("configure_retention", None, None),
        ("add_record", rec(0, 0, 1), False), ("scan", ScanSpec(), ["bytes"])),
    "promotion-skips-links": (
        ("start", 1, [], 2),
        ("add_records", [rec(0, 0, 6), rec(3, 1, 0)], False),
        ("add_records", [rec(3, 1, 3, 3)], False),
        ("builtin", query(Q_TOP_K_FLOWS, link=("s1", "s0")))),
    "promotion-not-evictable": (
        ("start", 0, [], 2), ("add_records", [rec(0, 0, 0)], False),
        ("add_records", [rec(0, 0, 0)], False)),
    "archived-merge-skips-retention": (
        ("start", 0, [], 8), ("add_records", [rec(0, 0, 0)], False),
        ("add_records", [rec(0, 0, 0)], False)),
    "clear-keeps-id-sequence": (
        ("start", 0,
         [rec(0, 6, 0), rec(0, 0, 0), rec(0, 3, 0), rec(0, 4, 0), rec(1, 0, 0),
          rec(0, 2, 0), rec(0, 1, 0), rec(6, 0, 0)], 8), ("clear",)),
    "retention-change-keeps-heap": (
        ("start", 0, [], 8), ("configure_retention", None, None),
        ("add_records", [rec(0, 0, 0)], False),
        ("configure_retention", 0, None)),
    "flow-keys-union-unsorted": (
        ("start", 0, [], 2), ("add_records", [rec(1, 0, 0)], False),
        ("add_records", [rec(9, 0, 0)], False),
        ("scan",
         ScanSpec(flow_keys=frozenset({flow_key(FLOWS[1]),
                                       flow_key(FLOWS[9])})), ["pkts"])),
    "flow-route-drops-etime-at-start": (
        ("start", 0, [], 2), ("add_records", [rec(7, 0, 9)], False),
        ("scan",
         ScanSpec(start=9.0, flow_keys=frozenset({flow_key(FLOWS[7])})),
         ["pkts"])),
    "link-route-ignores-later-links": (
        ("start", 0, [], 2), ("add_records", [rec(0, 0, 0)], False),
        ("scan", ScanSpec(links=(("s0", "s1"), ("s0", "no"))), ["stime"])),
    "link-route-reads-wrong-endpoint": (
        ("start", 0, [rec(0, 3, 0)], 8), ("keyword_read", ("*", 4.0))),
    "window-drops-stime-at-end": (
        ("start", 0, [], 8), ("add_record", rec(0, 0, 9), False),
        ("keyword_read", (5.0, 9.0))),
    "window-drops-etime-at-start": (
        ("start", 0, [rec(0, 0, 2), rec(0, 5, 9)], 8),
        ("scan", ScanSpec(start=2.0, end=8.0), ["etime"])),
    "scan-walk-drops-etime-at-start": (
        ("start", 0, [rec(8, 2, 8)], 2), ("configure_retention", None, None),
        ("add_records", [rec(8, 2, 0)], False),
        ("scan", ScanSpec(start=8.0), ["pkts"])),
    "descending-rank-reversed": (
        ("start", 0, [], 8),
        ("add_records", [rec(0, 0, 0), rec(6, 0, 0)], False),
        ("ranked", 2, True)),
    "tier-merge-unsorted": (
        ("start", 1, [rec(0, 0, 0), rec(0, 4, 0)], 8),
        ("keyword_read", (None, None))),
    "hot-fold-drops-last-row": (
        ("start", 0, [rec(0, 0, 0)], 8), ("builtin", query(Q_TRAFFIC_MATRIX))),
    "point-window-rejected": (
        ("start", 0, [], 2), ("keyword_read", (6.0, 6.0))),
    "postings-run-of-a-missing-link": (
        ("start", 0, [], 2), ("add_record", rec(0, 0, 0), False),
        ("add_record", rec(0, 6, 0), False),
        ("add_record", rec(0, 2, 0), False), ("scan", ScanSpec(), ["stime"])),
    "zone-map-prunes-etime-at-start": (
        ("start", 0, [], 2),
        ("add_records", [rec(7, 0, 9), rec(0, 0, 0)], False),
        ("scan", ScanSpec(start=9.0), ["pkts"])),
    "segments-seal-one-row-late": (
        ("start", 0, [rec(0, 0, 0), rec(0, 4, 0)], 8),
        ("add_records",
         [rec(0, 0, 0), rec(11, 0, 0), rec(0, 6, 0), rec(8, 0, 0),
          rec(0, 0, 0), rec(7, 0, 0), rec(0, 2, 0), rec(0, 0, 0)], False)),
    "take-reads-bytes-as-packets": (
        ("start", 0, [], 2), ("add_records", [rec(8, 3, 0)], False),
        ("add_records", [rec(0, 0, 0)], False),
        ("add_records", [rec(8, 3, 0)], False),
        ("scan", ScanSpec(), ["stime"])),
    "compaction-packs-rows-on-one-spot": (
        ("start", 0, [], 8),
        ("add_records", [rec(0, 5, 0), rec(6, 1, 0)], False),
        ("add_records", [rec(0, 5, 0), rec(6, 1, 0)], False)),
    "cold-scan-unsorted": (
        ("start", 1, [rec(0, 0, 1), rec(0, 6, 0), rec(0, 5, 7)], 8),
        ("scan", ScanSpec(), ["etime"])),
    "cold-fold-ignores-selection": (
        ("start", 0, [], 8), ("add_records", [rec(0, 4, 0)], False),
        ("add_records", [rec(0, 0, 0)], False),
        ("scan", ScanSpec(), ["bytes"])),
    "compaction-keeps-source-path-indexes": (
        ("start", 0, [rec(0, 4, 0), rec(0, 0, 0), rec(0, 1, 0)], 2),
        ("add_records",
         [rec(8, 0, 0), rec(7, 0, 0), rec(0, 0, 0), rec(0, 0, 0)], False)),
    "scalar-flow-sum-reads-bytes-as-packets": (
        ("start", 0, [], 8), ("add_records", [rec(7, 0, 0)], False),
        ("builtin", query(Q_GET_COUNT, flow=FLOWS[7]))),
    "ranked-plan-order-flipped": (
        ("start", 0, [], 8),
        ("add_records", [rec(0, 0, 0), rec(6, 0, 0)], False),
        ("plan", planlib.compile_top_k_flows(4))),
    "scalar-sum-ignores-window": (
        ("start", 0, [rec(1, 0, 0)], 8),
        ("plan",
         Plan((Filter(start=6.0, flow_keys=("h0:1001|d:80|6",)),
               Aggregate("sum", ("bytes", "pkts")))))),
    "histogram-merge-keeps-last": (
        ("start", 0, [rec(8, 0, 1, 1), rec(8, 6, 2)], 8),
        ("plan",
         Plan((Filter(start=2.0), Aggregate("count", (), ("flow",)))))),
    "span-merge-takes-latest-start": (
        ("start", 0, [rec(11, 0, 1)], 2), ("add_record", rec(11, 5, 0), False),
        ("plan",
         Plan((Filter(flow_keys=(":1002|d:80|6",)), Aggregate("span"))))),
    "matrix-counts-chunks": (
        ("start", 0, [rec(0, 0, 0), rec(0, 4, 0)], 8),
        ("builtin", query(Q_TRAFFIC_MATRIX))),
    "fold-spec-drops-link": (
        ("start", 0, [rec(0, 0, 0)], 8),
        ("builtin",
         query(Q_FLOW_SIZE_DISTRIBUTION,
               links=[("no-such", None), ["s0", "s1"]]))),
    "total-count-hot-only": (
        ("start", 0, [], 8), ("add_record", rec(0, 0, 0), False),
        ("plan", planlib.compile_top_k_flows(4))),
    "off-tier-fold-stages-incoming-record": (
        ("start", 1, [], 2), ("add_records", [rec(10, 0, 0)], False),
        ("add_records", [rec(0, 0, 9), rec(10, 0, 0), rec(10, 0, 0)], False)),
    "staged-take-leaves-entry-staged": (
        ("start", 5, [rec(0, 0, 7)], 8),
        ("add_records",
         [rec(0, 5, 1), rec(3, 2, 0), rec(4, 0, 0), rec(0, 3, 0), rec(0, 6, 0),
          rec(3, 2, 1)], False)),
    "postings-runs-unsorted": (
        ("start", 0,
         [rec(0, 0, 0), rec(0, 6, 0), rec(9, 0, 0), rec(0, 3, 0), rec(0, 0, 0),
          rec(1, 0, 0), rec(0, 2, 0), rec(0, 1, 0)], 8),),
    "point-read-one-row-late": (
        ("start", 0, [], 2), ("add_records", [rec(10, 0, 0)], False),
        ("add_records",
         [rec(0, 0, 0, 0, 2 ** 40 + 1), rec(10, 4, 0, 0, 100), rec(10, 0, 0)],
         False), ("builtin", query(Q_SUBFLOW_IMBALANCE))),
    "builder-swaps-time-columns": (
        ("start", 0, [rec(0, 0, 0, 3)], 8), ("keyword_read", ("*", 4.0))),
    "fsd-counts-bins-not-rows": (
        ("start", 6, [rec(0, 0, 0, 0, 100), rec(1, 0, 0, 0, 100)], 2),
        ("builtin", query(Q_FLOW_SIZE_DISTRIBUTION, knobs=KNOBS[1]))),
    "fsd-bins-one-wider": (
        ("start", 0, [rec(0, 0, 0, 0, 100)], 8),
        ("builtin", query(Q_FLOW_SIZE_DISTRIBUTION))),
    "scan-walk-drops-stime-at-end": (
        ("start", 1, [rec(0, 0, 4)], 8), ("scan", ScanSpec(end=4.0), ["pkts"])),
    "window-walk-ignores-cache-order": (
        ("start", 1, [rec(0, 0, 0), rec(1, 0, 5)], 2),
        ("configure_retention", None, None),
        ("add_record", rec(0, 0, 1), False), ("scan", ScanSpec(start=0.0),
                                               ["bytes"])),
    "scan-spec-keeps-first-flow-key": (
        ("start", 0, [rec(0, 0, 0), rec(1, 0, 0)], 8),
        ("plan", Plan((Filter(flow_keys=(flow_key(FLOWS[0]),
                                         flow_key(FLOWS[1]))),)))),
    "matrix-skips-one-switch-paths": (
        ("start", 0, [rec(0, 7, 0)], 8), ("builtin", query(Q_TRAFFIC_MATRIX))),
    "get-paths-ignores-link": (
        ("start", 0, [], 2), ("add_records", [rec(1, 0, 0)], False),
        ("builtin",
         query(Q_GET_PATHS, link=("s0", "no"), flow=(FLOWS[1], ("d",))))),
}


@pytest.mark.parametrize("steps", SCHEDULES.values(), ids=SCHEDULES)
def test_pinned_schedule(steps):
    machine = TibMachine()
    for rule_name, *args in steps:
        getattr(machine, rule_name)(*args)
        machine.ids_totals_and_hot_bytes_agree()
        machine.hot_indexes_are_consistent()
        machine.cold_indexes_are_brute_force()
