"""pathbench workloads: inputs, deployments, the measured loop, the oracle.

Every workload is one live PathDump deployment on a k=8 fat-tree: tagged
packets arrive at edge agents, finished records land in TIBs, an operator
runs the 8-class query mix through both mechanisms, monitors raise alarms
and idle ticks go by.  The five workloads differ only in *shape* (hosts,
records per host, hot-tier cap, execution mode, how much of each
operation an iteration does), so a different layer dominates each
end-to-end metric - see ``WORKLOADS`` for why each shape exists.

Inputs come from ``--seed`` only; the program under test receives the
generated records, packets and queries and nothing else.  State is
*stationary*: no write ever creates a new TIB key after set-up (packets
and merge-upserts land on populated ``(flow, path)`` keys), so a run that
completes more iterations does the same work per operation on the same
amount of data - which is what lets the loop be bounded by ``--seconds``
and still be compared across commits of different speed.

For the untraced run this module touches only: ``QueryCluster``,
``PathDumpController.execute/tick/on_alarm/reset_stats``,
``PathDumpAgent.on_packet_delivered/flush/ingest_path_record`` and
``agent.monitor.observe_flow``, ``Query`` + the ``Q_*`` names, the plan IR,
``RetentionPolicy``, ``Fabric``/tagger (input generation only),
``wire.encode_value``, and ``cluster.tier_report`` /
``total_tib_records`` for the space metric and the oracle.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        INVALID_TRAJECTORY, PathDumpController,
                        Q_FLOW_SIZE_DISTRIBUTION, Q_GET_COUNT, Q_GET_FLOWS,
                        Q_PLAN, Q_POOR_TCP_FLOWS, Q_TOP_K_FLOWS,
                        Q_TRAFFIC_MATRIX, Query, QueryCluster, wire)
from repro.core.plan import (AGG_SUM, Aggregate, Filter, Plan, TopK,
                             reference_evaluate)
from repro.network.packet import PROTO_TCP, FlowId, Packet, TcpFlags, VlanTag
from repro.network.simulator import Fabric
from repro.storage.archive import RetentionPolicy
from repro.storage.records import PathFlowRecord
from repro.topology.fattree import FatTreeTopology
from repro.topology.linkid import apply_assignment, assign_link_ids
from repro.tracing.cherrypick import make_tagger

#: Fat-tree arity of every workload (128 hosts; smaller deployments run on
#: the first N hosts, so sources in other pods still send over the core).
FAT_TREE_K = 8
#: ``--quick`` runs on a k=4 fat-tree (16 hosts).
QUICK_FAT_TREE_K = 4

MODE_SERIAL = "serial"
MODE_SOCKET = "socket"
#: Two groups, because this box has two cores: 8 groups would measure the
#: scheduler, not the transport.
GROUP_COUNT = 2

MECHANISMS = (MECHANISM_DIRECT, MECHANISM_MULTILEVEL)
#: The query mix, in sweep order.
QUERY_CLASSES = ("topk", "topk_link_window", "fsd", "fsd_link", "matrix",
                 "flows_link_window", "count", "poor_tcp")
#: Parameter variants the sweeps cycle through.
VARIANTS = 16
#: A cycle is this many iterations; the last of each cycle runs ``fsd`` and
#: ``matrix`` over the full history.  Query metrics are taken over whole
#: cycles so the share of full-history sweeps is the same in every run.
CYCLE = 4

#: Fixed across variants and seeds: they set payload sizes, and a seed must
#: not decide how many bytes an answer has.
TOP_K = 100
FSD_BINSIZE = 10_000
MONITORED_FLOWS = 32
POOR_FLOWS = 4
IDLE_TIMEOUT_S = 5.0
MSS = 1460
MAX_FLOW_PACKETS = 30
#: Simulated seconds per iteration: long enough for every flow of the
#: iteration's packet batch to idle out before the next one begins.
STEP_S = 2 * IDLE_TIMEOUT_S
#: Packets between two periodic ``flush(now)`` calls inside a batch.
FLUSH_EVERY = 8192
#: Share of a packet batch's flows that reuse a recently touched key.
HOT_REUSE = 0.2

#: Flow sizes (bytes) and their cumulative probabilities: the web-search
#: distribution, scaled so the 30-packet truncation leaves a mean of about
#: ten packets per flow.
_SIZE_CDF = ((2_000, 0.15), (4_500, 0.20), (6_500, 0.30), (11_000, 0.40),
             (18_000, 0.53), (45_000, 0.60), (220_000, 0.70),
             (450_000, 0.80), (1_100_000, 0.90), (2_200_000, 0.97),
             (6_600_000, 1.0))


@dataclass(frozen=True)
class Shape:
    """One workload: a deployment shape plus per-iteration op counts."""

    name: str
    why: str
    hosts: int
    records_per_host: int
    cap: Optional[int]
    mode: str
    #: Sources whose ECMP paths to each host are discovered for inputs.
    srcs_per_host: int
    #: Hosts that receive packets, and flows per such host per iteration.
    pkt_hosts: int
    pkt_flows: int
    #: Keys the packets land on: the newest N populated records of a
    #: packet host, or (``lru_packets``) all of them, oldest-touched first.
    pkt_keys: int
    lru_packets: bool
    upserts_per_host: int
    alarm_sweeps: int
    idle_ticks: int
    #: Query windows: width, largest offset, and whether they trail the
    #: simulated clock (packet-driven TIBs) or the populated horizon.
    window_s: float
    max_offset_s: float
    recent_windows: bool
    #: Simulated seconds the populated records span.
    horizon_s: float
    full_history: bool
    twin: bool = False
    fat_tree_k: int = FAT_TREE_K

    def quick(self) -> "Shape":
        """The smoke scale: same structure, numbers not comparable."""
        hosts = max(1, min(self.hosts, 16) // (1 if self.hosts <= 4 else 2))
        records = max(40, self.records_per_host // 10)
        cap = None if self.cap is None else max(20, self.cap // 10)
        pkt_flows = max(8, self.pkt_flows // 20)
        return replace(
            self, hosts=hosts, records_per_host=records, cap=cap,
            srcs_per_host=min(self.srcs_per_host, 6), pkt_flows=pkt_flows,
            pkt_keys=records if self.lru_packets else min(32, records),
            horizon_s=(lru_horizon_s(records, pkt_flows)
                       if self.lru_packets else self.horizon_s),
            upserts_per_host=min(self.upserts_per_host, 4),
            alarm_sweeps=1, idle_ticks=2, fat_tree_k=QUICK_FAT_TREE_K)


def lru_horizon_s(records: int, pkt_flows: int) -> float:
    """The populated span that makes an LRU packet workload stationary:
    records are laid out at the pace the packets will re-touch them, so
    the age distribution of keys never changes while the loop runs."""
    return records * STEP_S / (pkt_flows * (1.0 - HOT_REUSE))


WORKLOADS: Dict[str, Shape] = {shape.name: shape for shape in (
    Shape(
        name="edge-ingest",
        why="one capped agent fed tagged packets: vswitch, trajectory "
            "memory, construction, TIB upsert, eviction and archive writes "
            "do the work; fan-out, wire and merge layers do nothing",
        hosts=1, records_per_host=20_000, cap=2_000, mode=MODE_SERIAL,
        srcs_per_host=127, pkt_hosts=1, pkt_flows=2_500, pkt_keys=20_000,
        lru_packets=True, upserts_per_host=512, alarm_sweeps=2, idle_ticks=8,
        window_s=4.0, max_offset_s=5.0, recent_windows=True,
        horizon_s=lru_horizon_s(20_000, 2_500), full_history=False),
    Shape(
        name="query-hot",
        why="32 uncapped hosts x 1,500 records, serial: plan, query "
            "handlers, hot-index reads and merges dominate; no wire "
            "transport, no archive",
        hosts=32, records_per_host=1_500, cap=None, mode=MODE_SERIAL,
        srcs_per_host=16, pkt_hosts=2, pkt_flows=32, pkt_keys=64,
        lru_packets=False, upserts_per_host=4, alarm_sweeps=2, idle_ticks=8,
        window_s=120.0, max_offset_s=3_400.0, recent_windows=False,
        horizon_s=3_600.0, full_history=True),
    Shape(
        name="query-cold",
        why="4 hosts x 5,000 records capped at 500 (4,500 cold each, more "
            "than the 4,096-entry decode cache): archive pruning and decode "
            "dominate reads; merge-upserts onto archived keys write beside "
            "them",
        hosts=4, records_per_host=5_000, cap=500, mode=MODE_SERIAL,
        srcs_per_host=32, pkt_hosts=2, pkt_flows=32, pkt_keys=64,
        lru_packets=False, upserts_per_host=32, alarm_sweeps=2, idle_ticks=8,
        window_s=120.0, max_offset_s=3_400.0, recent_windows=False,
        horizon_s=3_600.0, full_history=True, twin=True),
    Shape(
        name="fanout-serial",
        why="128 hosts x 40 records, serial: tiny TIBs leave executor, "
            "cluster, merge and result sizing as the cost; the bypass for "
            "every worker-plane optimisation (prediction: no change)",
        hosts=128, records_per_host=40, cap=None, mode=MODE_SERIAL,
        srcs_per_host=8, pkt_hosts=2, pkt_flows=32, pkt_keys=32,
        lru_packets=False, upserts_per_host=4, alarm_sweeps=4, idle_ticks=16,
        window_s=120.0, max_offset_s=3_400.0, recent_windows=False,
        horizon_s=3_600.0, full_history=True),
    Shape(
        name="fanout-socket",
        why="the same ops and data as fanout-serial after switching to "
            "socket mode (2 groups, unix sockets): wire, groupserver and "
            "executor dominate and 3 processes share 2 cores",
        hosts=128, records_per_host=40, cap=None, mode=MODE_SOCKET,
        srcs_per_host=8, pkt_hosts=2, pkt_flows=32, pkt_keys=32,
        lru_packets=False, upserts_per_host=4, alarm_sweeps=4, idle_ticks=16,
        window_s=120.0, max_offset_s=3_400.0, recent_windows=False,
        horizon_s=3_600.0, full_history=True),
)}


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Route:
    """One discovered path into a host, with the tags a packet carries
    when it arrives (the vswitch never mutates the shared tag list)."""

    src: str
    path: Tuple[str, ...]
    vlan_stack: List[VlanTag]


@dataclass(frozen=True)
class Variant:
    """One seeded parameter set of the query mix."""

    link: Tuple[str, str]
    offset_s: float
    flow: FlowId
    k: int
    binsize: int


@dataclass
class Inputs:
    """Everything generated from the seed before set-up is timed."""

    shape: Shape
    seed: int
    topo: FatTreeTopology
    assignment: Any
    hosts: List[str]
    #: Per host: the populate stream, in time (= eviction) order.
    records: Dict[str, List[PathFlowRecord]]
    #: Per host: the route each populated record took (packets for the
    #: record's key must carry that route's tags).
    record_routes: Dict[str, List[Route]]
    monitored: Dict[str, List[Tuple[FlowId, bool]]]
    variants: List[Variant]
    generate_s: float = 0.0


def _sample_size(rng: random.Random) -> int:
    """One flow size: inverse-CDF with linear interpolation."""
    u = rng.random()
    low_size, low_p = 500, 0.0
    for size, p in _SIZE_CDF:
        if u <= p:
            share = (u - low_p) / (p - low_p)
            return int(low_size + share * (size - low_size))
        low_size, low_p = size, p
    return _SIZE_CDF[-1][0]


def _flow_packets(size: int) -> int:
    return max(1, min(MAX_FLOW_PACKETS, size // MSS))


def _discover_routes(topo: FatTreeTopology, assignment: Any,
                     hosts: Sequence[str], srcs_per_host: int,
                     rng: random.Random) -> Dict[str, List[Route]]:
    """Send probe packets through the repo's own fabric and tagger, so the
    packets a workload delivers carry real CherryPick tags and the records
    it ingests hold real ECMP paths."""
    fabric = Fabric(topo, seed=rng.randrange(1 << 30))
    fabric.install_tagger(make_tagger(topo, assignment))
    everyone = list(topo.hosts)
    routes: Dict[str, List[Route]] = {}
    for host in hosts:
        others = [name for name in everyone if name != host]
        rng.shuffle(others)
        found: Dict[Tuple[str, Tuple[int, ...]], Route] = {}
        for src in others[:srcs_per_host]:
            for port in range(6):
                probe = Packet(flow=FlowId(src, host, 1_000 + port, 80,
                                           PROTO_TCP), size=64)
                outcome = fabric.inject(probe)
                if not outcome.delivered:
                    raise RuntimeError(f"probe {src}->{host} was not "
                                       f"delivered: {outcome.drop_reason}")
                vids = tuple(tag.vid for tag in probe.vlan_stack)
                found.setdefault((src, vids), Route(
                    src, tuple(outcome.hops), list(probe.vlan_stack)))
        routes[host] = list(found.values())
    return routes


def _stratified_variants(shape: Shape, hosts: Sequence[str],
                         records: Dict[str, List[PathFlowRecord]],
                         rng: random.Random) -> List[Variant]:
    """The 16 parameter sets.  The seed decides which link, window and
    flow each names, but not how hard the set is as a whole: links are
    taken at fixed quantiles of the records-per-link distribution (the
    last switch-to-switch hop, which every host under that ToR can hold
    records for), offsets at fixed strata of the horizon."""
    population: Dict[Tuple[str, str], int] = {}
    for host in hosts:
        for record in records[host]:
            if len(record.path) >= 5:
                link = (record.path[-3], record.path[-2])
                population[link] = population.get(link, 0) + 1
    ranked = sorted(population, key=lambda link: (population[link], link))
    order = list(range(VARIANTS))
    rng.shuffle(order)
    variants = []
    for index in range(VARIANTS):
        link = ranked[(2 * index + 1) * len(ranked) // (2 * VARIANTS)]
        stratum = shape.max_offset_s / VARIANTS
        host = hosts[rng.randrange(len(hosts))]
        variants.append(Variant(
            link=link,
            offset_s=(order[index] + rng.random()) * stratum,
            flow=records[host][rng.randrange(len(records[host]))].flow_id,
            k=TOP_K, binsize=FSD_BINSIZE))
    rng.shuffle(variants)
    return variants


def generate_inputs(shape: Shape, seed: int) -> Inputs:
    """Build the workload's inputs from the seed (untimed, reported as
    ``trace.inputgen_s``)."""
    started = time.perf_counter()
    rng = random.Random(f"pathbench-{shape.name}-{seed}")
    topo = FatTreeTopology(shape.fat_tree_k)
    assignment = assign_link_ids(topo)
    apply_assignment(topo, assignment)
    hosts = list(topo.hosts)[:shape.hosts]
    routes = _discover_routes(topo, assignment, hosts, shape.srcs_per_host,
                              rng)
    everyone = list(topo.hosts)
    records: Dict[str, List[PathFlowRecord]] = {}
    record_routes: Dict[str, List[Route]] = {}
    monitored: Dict[str, List[Tuple[FlowId, bool]]] = {}
    step = shape.horizon_s / shape.records_per_host
    for host in hosts:
        host_routes = routes[host]
        stream, taken = [], []
        for index in range(shape.records_per_host):
            route = host_routes[rng.randrange(len(host_routes))]
            size = _sample_size(rng)
            # Time-ordered, so hot-tier eviction (oldest etime first)
            # follows populate order and a window holds a fixed share.
            stime = index * step
            etime = stime + step * rng.random()
            stream.append(PathFlowRecord(
                FlowId(route.src, host, 20_000 + index, 80, PROTO_TCP),
                route.path, stime, etime, size, max(1, size // MSS)))
            taken.append(route)
        records[host] = stream
        record_routes[host] = taken
        monitored[host] = [
            (FlowId(host, everyone[rng.randrange(len(everyone))],
                    40_000 + n, 80, PROTO_TCP), n < POOR_FLOWS)
            for n in range(MONITORED_FLOWS)]
    variants = _stratified_variants(shape, hosts, records, rng)
    inputs = Inputs(shape, seed, topo, assignment, hosts, records,
                    record_routes, monitored, variants)
    inputs.generate_s = time.perf_counter() - started
    return inputs


def build_queries(shape: Shape, variant: Variant, anchor: float,
                  full_history: bool) -> Dict[str, Query]:
    """The 8-class mix for one sweep.  ``fsd`` and ``matrix`` take the
    window, or the whole history on a full-history sweep."""
    end = anchor - variant.offset_s
    window = (end - shape.window_s, end)
    wide = None if full_history else window
    return {
        "topk": Query(Q_TOP_K_FLOWS, {"k": variant.k}),
        "topk_link_window": Query(Q_PLAN, {"plan": Plan(ops=(
            Filter(start=window[0], end=window[1], links=(variant.link,)),
            Aggregate(func=AGG_SUM, fields=("bytes",), by=("flow",)),
            TopK(k=variant.k)))}),
        "fsd": Query(Q_FLOW_SIZE_DISTRIBUTION, {
            "links": [None], "binsize": variant.binsize,
            "time_range": wide}),
        # Link only where the records' times are fixed: hot TIBs route it
        # through the link index, archives prune it by bloom alone.
        "fsd_link": Query(Q_FLOW_SIZE_DISTRIBUTION, {
            "links": [variant.link], "binsize": variant.binsize,
            "time_range": window if shape.recent_windows else None}),
        "matrix": Query(Q_TRAFFIC_MATRIX, {"time_range": wide}),
        "flows_link_window": Query(Q_GET_FLOWS, {
            "link": variant.link, "time_range": window}),
        "count": Query(Q_GET_COUNT, {"flow": variant.flow}),
        "poor_tcp": Query(Q_POOR_TCP_FLOWS, {}),
    }


# --------------------------------------------------------------------------
# Deployment
# --------------------------------------------------------------------------
@dataclass
class Deployment:
    """A populated cluster, its controller and the alarm tap."""

    cluster: QueryCluster
    controller: PathDumpController
    #: (``perf_counter`` stamp, alarm) of every alarm the subscriber got
    #: since the list was last cleared.
    delivered: List[Tuple[float, Any]] = field(default_factory=list)
    invalid_trajectories: int = 0
    #: Seconds ``configure_executor(mode="socket")`` took (0 when serial).
    startup_s: float = 0.0

    def close(self) -> None:
        self.cluster.close()


def set_up(inputs: Inputs, shape: Optional[Shape] = None) -> Deployment:
    """Build cluster + controller, populate TIBs and monitors, start and
    sync workers, run one warm-up sweep.  This is what ``setup_s`` times;
    the oracle's twin is the same inputs set up under another shape."""
    shape = shape or inputs.shape
    # Private trajectory caches: the shared one is keyed by (source, link
    # ids) without the destination, so two agents under one ToR hand each
    # other paths that end at the wrong host (found by this oracle).
    cluster = QueryCluster(
        inputs.topo, inputs.assignment, hosts=inputs.hosts,
        shared_cache=False,
        retention=(RetentionPolicy(max_records=shape.cap)
                   if shape.cap is not None else None),
        group_count=GROUP_COUNT, socket_transport="unix")
    try:
        controller = PathDumpController(cluster)
        deployment = Deployment(cluster, controller)

        def on_alarm(alarm: Any) -> None:
            deployment.delivered.append((time.perf_counter(), alarm))
            if alarm.reason == INVALID_TRAJECTORY:
                deployment.invalid_trajectories += 1

        controller.on_alarm(on_alarm)
        for host in inputs.hosts:
            agent = cluster.agent(host)
            ingest = agent.ingest_path_record
            for record in inputs.records[host]:
                ingest(record)
            observe = agent.monitor.observe_flow
            for index, (flow, poor) in enumerate(inputs.monitored[host]):
                observe(flow, retransmissions=6 if poor else 1,
                        consecutive=5 if poor else 1, bytes_sent=MSS,
                        when=float(index))
        if shape.mode == MODE_SOCKET:
            started = time.perf_counter()
            cluster.configure_executor(mode=MODE_SOCKET)
            deployment.startup_s = time.perf_counter() - started
        queries = build_queries(shape, inputs.variants[0],
                                shape.horizon_s, False)
        for mechanism in MECHANISMS:
            for query in queries.values():
                controller.execute(None, query, mechanism)
        controller.tick(shape.horizon_s)
        return deployment
    except BaseException:
        cluster.close()
        raise


# --------------------------------------------------------------------------
# The measured loop
# --------------------------------------------------------------------------
@dataclass
class Samples:
    """Raw samples of one run, by iteration."""

    #: (iteration, class, mechanism, seconds, traffic bytes)
    queries: List[Tuple[int, str, str, float, int]] = field(
        default_factory=list)
    #: (iteration, packets, seconds)
    packet_batches: List[Tuple[int, int, float]] = field(default_factory=list)
    #: (iteration, records, seconds)
    record_batches: List[Tuple[int, int, float]] = field(default_factory=list)
    #: (iteration, seconds from tick start to the subscriber callback)
    alarm_delays: List[Tuple[int, float]] = field(default_factory=list)
    #: (iteration, seconds)
    idle_ticks: List[Tuple[int, float]] = field(default_factory=list)
    #: (iteration, wall seconds of the whole iteration)
    iterations: List[Tuple[int, float]] = field(default_factory=list)
    #: Per iteration: the speed factor measured around it.
    speed: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    oracle_checks: int = 0
    oracle_s: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """One oracle comparison: an attempted op that fails when the
        program's output differs from the expected one."""
        self.attempted += 1
        self.oracle_checks += 1
        if not ok:
            self.fail(f"oracle: {what}")


class SpeedGauge:
    """How fast this box runs Python right now, relative to its quiet state.

    The box this benchmark was built on switches, every few seconds to
    every few minutes, between a quiet state and one where everything runs
    1.3x-2x slower (a neighbour on the host: both cores slow down together,
    idle or not).  Whole runs land in one state or the other, so two sets
    of runs of the same commit differed by 1.5x.  ``factor()`` times two
    fixed pieces of work that share nothing with the program under test -
    an arithmetic loop (interpreter speed) and random reads over a table
    larger than the L2 cache (memory speed) - against what they take here
    when quiet; every timing is divided by the factor measured around it,
    which more than halves the spread (README, "This box is not quiet").
    A change to the program moves the timings and not the factor.
    """

    ARITH_REF_S = 0.9e-3
    MEMORY_REF_S = 1.4e-3
    ARITH_STEPS = 20_000
    TABLE_ENTRIES = 60_000
    READS = 2_000

    def __init__(self) -> None:
        self._table = {(index, str(index)): [index, index + 1]
                       for index in range(self.TABLE_ENTRIES)}
        self._keys = list(self._table)
        random.Random(0).shuffle(self._keys)
        self._at = 0

    def factor(self) -> float:
        started = time.perf_counter()
        total = 0
        for index in range(self.ARITH_STEPS):
            total += index * index % 7
        arith = time.perf_counter()
        table = self._table
        for key in self._keys[self._at:self._at + self.READS]:
            row = table[key]
            row[0] += 1
            total += row[1]
        memory = time.perf_counter()
        self._at = (self._at + self.READS) % (len(self._keys) - self.READS)
        return 0.5 * ((arith - started) / self.ARITH_REF_S
                      + (memory - arith) / self.MEMORY_REF_S)


class Phases:
    """Hook the traced run overrides to learn which op is being timed."""

    def begin(self, phase: str) -> None:
        pass

    def end(self, phase: str, wall_s: float, ops: int) -> None:
        pass

    def replay(self, queries: Dict[str, Query],
               record_batches: List[Tuple[str, List[PathFlowRecord]]]
               ) -> None:
        pass


class Driver:
    """Runs iterations of a workload against one deployment, keeping the
    ground-truth model of every key alongside."""

    def __init__(self, inputs: Inputs, deployment: Deployment,
                 samples: Samples, gauge: SpeedGauge,
                 phases: Optional[Phases] = None,
                 twin: Optional[Deployment] = None) -> None:
        self.gauge = gauge
        self.inputs = inputs
        self.shape = inputs.shape
        self.deployment = deployment
        self.samples = samples
        self.phases = phases or Phases()
        self.twin = twin
        shape = self.shape
        self.now = shape.horizon_s + STEP_S  # the simulated clock
        self.pkt_hosts = inputs.hosts[:shape.pkt_hosts]
        self.pkt_cursor = {host: 0 for host in self.pkt_hosts}
        self.upsert_cursor = 0
        #: Ground truth per host and populated index:
        #: [stime, etime, bytes, pkts].
        self.truth = {
            host: [[r.stime, r.etime, r.bytes, r.pkts] for r in stream]
            for host, stream in inputs.records.items()}
        self.expected_alarms = len(inputs.hosts) * POOR_FLOWS
        #: What the last iteration ran, for the traced run's hooks.
        self.last_result: Any = None
        self.last_queries: Dict[str, Query] = {}
        self.last_record_batches: List[Tuple[str,
                                             List[PathFlowRecord]]] = []

    # -------------------------------------------------------------- packets
    def _packet_batch(self, host: str, rng: random.Random
                      ) -> Tuple[List[Tuple[float, Packet, List[VlanTag]]],
                                 List[Tuple[int, int, float]]]:
        """One host's packets for this iteration, in arrival order, and the
        (key index, packets, last arrival) of every flow for the truth."""
        shape = self.shape
        stream = self.inputs.records[host]
        taken = self.inputs.record_routes[host]
        total = len(stream)
        base = total - shape.pkt_keys
        cursor = self.pkt_cursor[host]
        recent = max(1, min(shape.pkt_keys // 2,
                            (shape.cap or total) * 3 // 4))
        plain = TcpFlags(ack=True)
        final = TcpFlags(fin=True, ack=True)
        schedule = []
        flows = []
        for _ in range(shape.pkt_flows):
            if rng.random() < HOT_REUSE and cursor:
                slot = (cursor - 1 - rng.randrange(min(cursor, recent)))
            else:
                slot = cursor
                cursor += 1
            index = base + slot % shape.pkt_keys
            flow = stream[index].flow_id
            stack = taken[index].vlan_stack
            count = _flow_packets(_sample_size(rng))
            start = self.now + rng.random()
            body = Packet(flow=flow, size=MSS, flags=plain)
            for seq in range(count - 1):
                schedule.append((start + seq * 0.001, body, stack))
            last = start + (count - 1) * 0.001
            # Half the flows end in FIN (evicted inline); the rest idle out
            # at the flush after the batch.
            closing = rng.random() < 0.5
            schedule.append((last, Packet(flow=flow, size=MSS,
                                          flags=final if closing else plain),
                             stack))
            flows.append((index, count, last))
        self.pkt_cursor[host] = cursor
        schedule.sort(key=lambda entry: entry[0])
        return schedule, flows

    def _write(self, phase: str,
               write: Callable[[Deployment], int]) -> Tuple[int, float]:
        """Time ``write`` on the deployment, then repeat it untimed on the
        oracle's twin; returns (ops written, seconds)."""
        gc.collect()
        self.phases.begin(phase)
        started = time.perf_counter()
        count = 0
        try:
            count = write(self.deployment)
        except Exception as error:  # counted, reported, the run goes on
            self.samples.fail(f"{phase}: {type(error).__name__}: {error}")
        wall = time.perf_counter() - started
        self.phases.end(phase, wall, count)
        self.samples.attempted += count
        if self.twin is not None:
            write(self.twin)
        return count, wall

    def ingest_packets(self, iteration: int) -> None:
        rng = random.Random(f"{self.inputs.seed}-{iteration}-packets")
        batches = [(host, *self._packet_batch(host, rng))
                   for host in self.pkt_hosts]
        flush_at = self.now + 1.0 + MAX_FLOW_PACKETS * 0.001 + IDLE_TIMEOUT_S

        def write(deployment: Deployment) -> int:
            for host, schedule, _flows in batches:
                agent = deployment.cluster.agent(host)
                deliver = agent.on_packet_delivered
                for low in range(0, len(schedule), FLUSH_EVERY):
                    chunk = schedule[low:low + FLUSH_EVERY]
                    for when, packet, stack in chunk:
                        packet.vlan_stack = stack
                        deliver(host, packet, when)
                    agent.flush(chunk[-1][0])
                agent.flush(flush_at)
            return sum(len(schedule) for _, schedule, _ in batches)

        packets, wall = self._write("packets", write)
        self.samples.packet_batches.append((iteration, packets, wall))
        for host, _schedule, flows in batches:
            truth = self.truth[host]
            for index, count, last in flows:
                entry = truth[index]
                entry[1] = max(entry[1], last)
                entry[2] += count * MSS
                entry[3] += count

    # -------------------------------------------------------------- records
    def ingest_records(self, iteration: int) -> None:
        """Merge-upserts onto populated keys, timestamps inside the key's
        span (so windows keep matching the same records): on ``query-cold``
        they land on archived keys - tombstone, re-stage, write-behind,
        compaction - and the next read pays the flush barrier."""
        shape = self.shape
        total = shape.records_per_host
        # Which keys: where the packets own the newest keys, the upserts
        # walk the rest (the archived ones, when capped).  An LRU packet
        # workload's archive is already written by its packets - a
        # compaction landing in a batch this small would decide its rate -
        # so there the upserts follow the packets onto hot keys.
        eligible = total - max(shape.cap or 0, shape.pkt_keys)
        work = []
        for host in self.inputs.hosts:
            stream = self.inputs.records[host]
            truth = self.truth[host]
            behind = self.pkt_cursor.get(host, 0) - 1
            batch = []
            for n in range(shape.upserts_per_host):
                if shape.lru_packets:
                    index = (behind - n) % total
                else:
                    index = (self.upsert_cursor + n) * 7 % eligible
                record = stream[index]
                when = truth[index][0]
                batch.append(PathFlowRecord(record.flow_id, record.path,
                                            when, when, MSS, 1))
                truth[index][2] += MSS
                truth[index][3] += 1
            work.append((host, batch))
        self.upsert_cursor += shape.upserts_per_host
        self.last_record_batches = work

        def write(deployment: Deployment) -> int:
            for host, batch in work:
                ingest = deployment.cluster.agent(host).ingest_path_record
                for record in batch:
                    ingest(record)
            return sum(len(batch) for _, batch in work)

        count, wall = self._write("records", write)
        self.samples.record_batches.append((iteration, count, wall))

    # -------------------------------------------------------------- queries
    def sweep_queries(self, iteration: int) -> Dict[str, Query]:
        shape = self.shape
        variant = self.inputs.variants[iteration % VARIANTS]
        anchor = self.now if shape.recent_windows else shape.horizon_s
        full = shape.full_history and iteration % CYCLE == CYCLE - 1
        return build_queries(shape, variant, anchor, full)

    def query_sweep(self, iteration: int) -> None:
        samples = self.samples
        execute = self.deployment.controller.execute
        queries = self.last_queries = self.sweep_queries(iteration)
        payloads: Dict[Tuple[str, str], Any] = {}
        gc.collect()
        for mechanism in MECHANISMS:
            for name, query in queries.items():
                samples.attempted += 1
                self.phases.begin("query")
                started = time.perf_counter()
                try:
                    result = execute(None, query, mechanism)
                except Exception as error:
                    self.phases.end("query", time.perf_counter() - started, 0)
                    samples.fail(f"query {name}/{mechanism}: "
                                 f"{type(error).__name__}: {error}")
                    continue
                wall = time.perf_counter() - started
                self.last_result = result
                self.phases.end("query", wall, 1)
                if result.partial or result.hosts_failed or result.warnings:
                    samples.fail(f"query {name}/{mechanism}: partial="
                                 f"{result.partial} warnings="
                                 f"{[w.code for w in result.warnings]}")
                    continue
                samples.queries.append((iteration, name, mechanism, wall,
                                        result.traffic_bytes))
                payloads[(name, mechanism)] = result.payload
        for name in queries:
            direct = payloads.get((name, MECHANISM_DIRECT))
            multilevel = payloads.get((name, MECHANISM_MULTILEVEL))
            if direct is not None and multilevel is not None:
                samples.check(_canonical(direct) == _canonical(multilevel),
                              f"{name}: direct != multilevel at "
                              f"iteration {iteration}")

    # ---------------------------------------------------------------- ticks
    def alarm_sweeps(self, iteration: int) -> None:
        samples, deployment = self.samples, self.deployment
        controller = deployment.controller
        for sweep_index in range(self.shape.alarm_sweeps):
            # Re-opens alerting (clears every latch); part of the
            # experiment protocol, not of alarm delivery.
            self.phases.begin("reset")
            started = time.perf_counter()
            controller.reset_stats()
            self.phases.end("reset", time.perf_counter() - started, 1)
            deployment.delivered.clear()
            samples.attempted += 1
            gc.collect()
            self.phases.begin("alarm")
            started = time.perf_counter()
            try:
                sweep = controller.tick(self.now + sweep_index * 0.2)
            except Exception as error:
                self.phases.end("alarm", time.perf_counter() - started, 0)
                samples.fail(f"alarm sweep: {type(error).__name__}: {error}")
                continue
            self.phases.end("alarm", time.perf_counter() - started,
                            len(deployment.delivered))
            if sweep.partial or sweep.warnings or \
                    len(deployment.delivered) != self.expected_alarms:
                samples.fail(f"alarm sweep delivered "
                             f"{len(deployment.delivered)} of "
                             f"{self.expected_alarms} alarms")
                continue
            samples.alarm_delays.extend(
                (iteration, stamp - started)
                for stamp, _alarm in deployment.delivered)
        # The bus keeps every alarm it ever saw; forgetting them here keeps
        # memory independent of how many iterations a run completes.
        controller.alarm_bus.clear()

    def idle_ticks(self, iteration: int) -> None:
        samples, deployment = self.samples, self.deployment
        tick = deployment.controller.tick
        base = self.now + 1.0
        gc.collect()
        for index in range(self.shape.idle_ticks):
            samples.attempted += 1
            deployment.delivered.clear()
            self.phases.begin("idle")
            started = time.perf_counter()
            try:
                sweep = tick(base + index * 0.2)
            except Exception as error:
                self.phases.end("idle", time.perf_counter() - started, 0)
                samples.fail(f"idle tick: {type(error).__name__}: {error}")
                continue
            wall = time.perf_counter() - started
            self.phases.end("idle", wall, 1)
            if deployment.delivered or sweep.partial:
                samples.fail("idle tick raised alarms or was partial")
                continue
            samples.idle_ticks.append((iteration, wall))

    # ------------------------------------------------------------- the loop
    def iterate(self, iteration: int) -> None:
        """One iteration: writes first, so the sweep's first read pays the
        flush barrier (and, in socket mode, waits for the mirror)."""
        speed = self.gauge.factor()
        started = time.perf_counter()
        self.ingest_packets(iteration)
        self.ingest_records(iteration)
        self.query_sweep(iteration)
        self.alarm_sweeps(iteration)
        self.idle_ticks(iteration)
        self.phases.replay(self.last_queries, self.last_record_batches)
        if self.deployment.invalid_trajectories:
            self.samples.fail("INVALID_TRAJECTORY alarm during ingest")
            self.deployment.invalid_trajectories = 0
        self.now += STEP_S
        self.samples.iterations.append(
            (iteration, time.perf_counter() - started))
        self.samples.speed.append(0.5 * (speed + self.gauge.factor()))

    def run(self, seconds: float, first: int = 0) -> int:
        """Run whole cycles until ``seconds`` have passed (a cycle that
        would overshoot by more than it undershoots is not started);
        returns the next iteration index."""
        began = time.perf_counter()
        iteration = first
        while True:
            cycle_started = time.perf_counter()
            for _ in range(CYCLE):
                self.iterate(iteration)
                iteration += 1
            now = time.perf_counter()
            if now - began + 0.5 * (now - cycle_started) >= seconds:
                return iteration


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------
def _canonical(payload: Any) -> Any:
    """Order-free form of a payload: the two mechanisms merge the same
    partials along different trees, so concatenations and dict insertion
    orders differ while the answer does not."""
    if isinstance(payload, dict):
        return sorted(payload.items())
    if isinstance(payload, list):
        return sorted(payload)
    return payload


def _alarm_stream(delivered: Sequence[Tuple[float, Any]]) -> bytes:
    return wire.encode_value([
        (a.host, tuple(a.flow_id), a.reason, a.time, a.detail)
        for _stamp, a in delivered])


def verify(driver: Driver, iteration: int) -> None:
    """Untimed byte-level checks of the deployment's current state:
    direct == multilevel for every class; the ``Q_PLAN`` class against
    ``plan.reference_evaluate`` over the ground truth; TIB totals against
    the ground truth; a capped deployment against its uncapped serial
    twin; a socket deployment against itself flipped to serial (payloads
    and the alarm stream)."""
    started = time.perf_counter()
    samples, shape, inputs = driver.samples, driver.shape, driver.inputs
    deployment = driver.deployment
    cluster, controller = deployment.cluster, deployment.controller
    queries = driver.sweep_queries(iteration)
    answers: Dict[Tuple[str, str], bytes] = {}
    canonical: Dict[Tuple[str, str], bytes] = {}
    for mechanism in MECHANISMS:
        for name, query in queries.items():
            result = controller.execute(None, query, mechanism)
            samples.check(not (result.partial or result.warnings),
                          f"{name}/{mechanism} partial at verify")
            answers[(name, mechanism)] = wire.encode_value(result.payload)
            canonical[(name, mechanism)] = wire.encode_value(
                _canonical(result.payload))
    for name in queries:
        samples.check(canonical[(name, MECHANISM_DIRECT)]
                      == canonical[(name, MECHANISM_MULTILEVEL)],
                      f"{name}: direct bytes != multilevel bytes")

    # Ground truth -> records, for the plan reference and the totals.
    truth_records = []
    total_bytes = 0
    for host in inputs.hosts:
        for record, (stime, etime, nbytes, pkts) in zip(
                inputs.records[host], driver.truth[host]):
            truth_records.append(PathFlowRecord(
                record.flow_id, record.path, stime, etime, nbytes, pkts))
            total_bytes += nbytes
    plan = queries["topk_link_window"].params["plan"]
    samples.check(wire.encode_value(reference_evaluate(truth_records, plan))
                  == answers[("topk_link_window", MECHANISM_DIRECT)],
                  "topk_link_window != plan.reference_evaluate(truth)")
    held = cluster.total_tib_records()
    samples.check(held == len(truth_records),
                  f"TIBs hold {held} records, ground truth "
                  f"{len(truth_records)}")
    everything = controller.execute(
        None, Query(Q_TOP_K_FLOWS, {"k": len(truth_records) + 1}))
    samples.check(len(everything.payload) == len(truth_records)
                  and sum(pair[0] for pair in everything.payload)
                  == total_bytes,
                  "per-flow byte totals != ground truth")
    rng = random.Random(f"{inputs.seed}-{iteration}-verify")
    for _ in range(8):
        host = inputs.hosts[rng.randrange(len(inputs.hosts))]
        index = rng.randrange(shape.records_per_host)
        flow = inputs.records[host][index].flow_id
        counted = controller.execute([host], Query(Q_GET_COUNT,
                                                   {"flow": flow}))
        entry = driver.truth[host][index]
        samples.check(list(counted.payload) == [entry[2], entry[3]],
                      f"get_count({flow}) = {counted.payload}, ground "
                      f"truth {(entry[2], entry[3])}")

    if driver.twin is not None:
        execute = driver.twin.controller.execute
        for (name, mechanism), encoded in answers.items():
            twin_result = execute(None, queries[name], mechanism)
            samples.check(wire.encode_value(twin_result.payload) == encoded,
                          f"{name}/{mechanism}: capped != uncapped twin")

    if shape.mode == MODE_SOCKET:
        when = driver.now + 0.9
        controller.reset_stats()
        deployment.delivered.clear()
        controller.tick(when)
        socket_stream = _alarm_stream(deployment.delivered)
        cluster.configure_executor(mode=MODE_SERIAL)
        try:
            for (name, mechanism), encoded in answers.items():
                result = controller.execute(None, queries[name], mechanism)
                samples.check(wire.encode_value(result.payload) == encoded,
                              f"{name}/{mechanism}: socket != serial")
            controller.reset_stats()
            deployment.delivered.clear()
            controller.tick(when)
            samples.check(
                _alarm_stream(deployment.delivered) == socket_stream
                and len(deployment.delivered) == driver.expected_alarms,
                "alarm stream: socket != serial")
        finally:
            cluster.configure_executor(mode=MODE_SOCKET)
    deployment.delivered.clear()
    samples.oracle_s += time.perf_counter() - started
