"""The counter contracts: every stats holder is a :class:`Counters`, and
every owner's ``reset_stats()`` zeroes every holder it can reach.

``TestCounters`` holds each ``Counters`` subclass to the shape that makes a
per-field reset and a misspelt counter name impossible: numeric zero
defaults, one generic ``reset()``, slots.  ``TestOwnerResets`` walks each
owner's object graph for the holders it reaches, sets every counter to a
sentinel and requires zeros after the owner's ``reset_stats()`` - so a
holder an owner forgets fails here, and so does an owner that swaps in a
fresh holder instead of resetting in place (a reference taken before the
reset would keep the old counts).  The two-tier flush-first and chaos
re-base behaviours are pinned below them.
"""

import dataclasses
import gc

import pytest

import repro.network  # noqa: F401 - defines Counters subclasses too
from repro.core import PathDumpController, QueryCluster, Tib
from repro.core.executor import LoopbackTransport
from repro.core.monitor import ActiveMonitor
from repro.core.query import Q_TOP_K_FLOWS, Query
from repro.core.supervisor import ChaosPolicy
from repro.counters import Counters
from repro.storage import DocumentStore, RetentionPolicy
from repro.storage.archive import ColdArchive
from repro.storage.records import ScanSpec
from repro.topology.graph import Topology

from test_supervisor import populate, small_topology
from test_two_tier_tib import make_record

SENTINEL = 7

#: Holders named when the base landed; more may join, none may leave.
KNOWN_HOLDERS = {
    "ArchiveStats", "CollectionStats", "ControllerStats", "GroupPoolStats",
    "LinkStats", "MonitorStats", "RpcStats", "SwitchCounters", "TibStats",
    "TransportStats", "VSwitchStats",
}


def counter_classes():
    """Every ``Counters`` subclass of the ``core``, ``storage`` and
    ``network`` packages (all imported above).  A slotted dataclass
    replaces the class it decorates; collect first so the replaced
    originals are gone from ``__subclasses__``."""
    gc.collect()
    found, stack = [], [Counters]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.append(sub)
            stack.append(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


class TestCounters:
    def test_covers_every_holder(self):
        assert KNOWN_HOLDERS <= {cls.__name__ for cls in counter_classes()}
        assert {cls.__module__.split(".")[1] for cls in counter_classes()} \
            == {"core", "storage", "network"}

    @pytest.mark.parametrize("cls", counter_classes(),
                             ids=lambda cls: cls.__name__)
    def test_contract(self, cls):
        counters = dataclasses.fields(cls)
        assert counters, f"{cls.__name__} declares no counter"
        for counter in counters:
            assert type(counter.default) in (int, float), counter.name
            assert counter.default == 0, counter.name
        stats = cls()
        for counter in counters:
            setattr(stats, counter.name, SENTINEL)
        assert stats.get(counters[0].name) == SENTINEL
        stats.reset()
        assert all(getattr(stats, counter.name) == 0
                   for counter in counters)
        # Slots: an undeclared name is an error on write and on read.
        with pytest.raises(AttributeError):
            stats.no_such_counter = 1
        with pytest.raises(AttributeError):
            stats.no_such_counter


# ------------------------------------------------------------------ owners
def capped_tib():
    tib = Tib("h", retention=RetentionPolicy(max_records=20),
              archive=ColdArchive(segment_records=32))
    for i in range(200):
        tib.add_record(make_record(i))
    tib.archive.scan(ScanSpec(start=0.0, end=50.0))
    return tib


def document_store():
    store = DocumentStore()
    collection = store.collection("people")
    collection.insert({"name": "ada", "age": 36})
    collection.find({"age": {"$gt": 30}})
    return store


def active_monitor():
    monitor = ActiveMonitor("h0")
    monitor.observe_flow(make_record(0).flow_id, retransmissions=9,
                         consecutive=5)
    monitor.run_check(now=1.0)
    return monitor


def loopback_transport():
    transport = LoopbackTransport()
    transport.respond("h0", 10)
    return transport


def serial_cluster():
    cluster = QueryCluster(small_topology())
    cluster.configure_retention(max_records=5)
    populate(cluster)
    cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 3}))
    return cluster


def path_dump_controller():
    ctl = PathDumpController(serial_cluster())
    ctl.execute(None, Query(Q_TOP_K_FLOWS, {"k": 3}))
    return ctl


def link_registry():
    return small_topology().links


#: owner factory -> holder classes its graph must at least reach.
OWNERS = {
    "Tib": (capped_tib, {"TibStats", "ArchiveStats"}),
    "Collection": (document_store, {"CollectionStats"}),
    "ActiveMonitor": (active_monitor, {"MonitorStats"}),
    "LoopbackTransport": (loopback_transport, {"TransportStats"}),
    "QueryCluster": (serial_cluster, {"RpcStats", "TibStats",
                                      "ArchiveStats", "MonitorStats",
                                      "VSwitchStats"}),
    "PathDumpController": (path_dump_controller, {"ControllerStats",
                                                  "RpcStats", "TibStats",
                                                  "MonitorStats"}),
    "LinkRegistry": (link_registry, {"LinkStats"}),
}


def reachable_counters(root):
    """Every ``Counters`` reachable from ``root`` through attributes and
    containers of ``repro`` objects.  A ``Topology`` other than the root is
    not walked: it is the simulated fabric's, shared by every owner built
    on it, and its link counters are reset by ``LinkRegistry``."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Counters):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro.") and \
                (obj is root or not isinstance(obj, Topology)):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return found


class TestOwnerResets:
    @pytest.mark.parametrize("owner", sorted(OWNERS))
    def test_reset_stats_zeroes_every_reachable_holder(self, owner):
        factory, expected = OWNERS[owner]
        root = factory()
        holders = reachable_counters(root)
        assert expected <= {type(stats).__name__ for stats in holders}
        for stats in holders:
            for counter in dataclasses.fields(stats):
                setattr(stats, counter.name, SENTINEL)
        root.reset_stats()
        for stats in holders:
            for counter in dataclasses.fields(stats):
                assert getattr(stats, counter.name) == 0, \
                    f"{owner}: {type(stats).__name__}.{counter.name}"

    def test_held_stats_reference_reads_zero_after_reset(self):
        # Resets happen in place: a reference taken before reset_stats()
        # sees the new interval (a replaced holder would keep old counts).
        for owner in ("Tib", "ActiveMonitor", "LoopbackTransport",
                      "PathDumpController"):
            root = OWNERS[owner][0]()
            held = root.stats
            assert any(getattr(held, counter.name)
                       for counter in dataclasses.fields(held)), owner
            root.reset_stats()
            assert not any(getattr(held, counter.name)
                           for counter in dataclasses.fields(held)), owner


# ------------------------------------------------------------- behaviours
class TestTwoTierCounters:
    def test_tib_reset_zeroes_write_behind_and_decode_counters(self):
        tib = capped_tib()
        before = tib.tier_stats()
        assert before["evictions"] > 0
        assert before["write_behind_flushes"] > 0
        assert before["write_behind_records"] > 0
        assert before["segment_decodes"] + before["entries_decoded"] > 0
        tib.reset_stats()
        after = tib.tier_stats()
        for counter in ("evictions", "promotions", "archive_compactions",
                        "segments_skipped", "segment_decodes",
                        "entries_decoded", "entries_skipped",
                        "decode_cache_hits", "write_behind_flushes",
                        "write_behind_records"):
            assert after[counter] == 0, counter
        # Sizes are state, not stats: the tiers still hold the records.
        assert after["hot_records"] > 0
        assert after["cold_records"] > 0

    def test_tib_reset_flushes_staged_evictions_first(self):
        # reset_stats must flush before zeroing: staged evictions from
        # the previous interval are the predecessor's work, and the new
        # interval must start from a settled tier.
        tib = Tib("h", retention=RetentionPolicy(max_records=5))
        for i in range(30):
            tib.add_record(make_record(i))
        tib.reset_stats()
        assert tib.archive.staged_count == 0
        assert tib.tier_stats()["write_behind_flushes"] == 0


class TestChaosCounters:
    def test_chaos_reset_stats_zeroes_counters_not_schedules(self):
        chaos = ChaosPolicy(kill_at_frame={"h9": 99},
                            corrupt_reply_at={"h9": 42})
        # Simulate protocol traffic without a real pool: the hooks only
        # need (pool, host, frame) and never touch the pool unless a
        # fault fires.
        for _ in range(3):
            chaos.before_send(None, "h1", b"frame")
        chaos.on_reply("h1", b"reply")
        assert chaos.frames_sent == {"h1": 3}
        assert chaos.replies_seen == {"h1": 1}
        chaos.reset_stats()
        assert chaos.frames_sent == {}
        assert chaos.replies_seen == {}
        assert chaos.injected == []
        # Fault schedules are configuration, not stats: still armed.
        assert chaos._kill_at == {"h9": 99}
        assert chaos._corrupt_at == {"h9": 42}

    def test_chaos_reset_rebases_frame_numbering(self):
        chaos = ChaosPolicy(hang_at_frame={"h1": 2}, hang_s=0.0)
        chaos.before_send(None, "h1", b"a")
        chaos.reset_stats()
        # After the reset the next frame is frame 1 again; the hang
        # scheduled for frame 2 fires on the *second* post-reset frame.
        assert chaos.before_send(None, "h1", b"b") == []
        extras = chaos.before_send(None, "h1", b"c")
        assert len(extras) == 1
        assert [what for _, what in chaos.injected] == \
            ["hang 0.0s at frame 2"]
