"""Regression locks for ``reset_stats()`` completeness (lint rule R2).

Each test pins one counter family surfaced by the static analyzer's
reset-completeness audit: the PR 5/7 two-tier counters (write-behind,
decode cache, pruning) travelling through ``tier_stats``, the PR 6
supervision counters on ``GroupPoolStats``, the chaos harness's injection
counters (which had *no* reset path before the audit), and the
introspective contract that every numeric field of a stats dataclass is
re-zeroed - so adding a counter without extending ``reset()`` fails here
before it silently poisons a measurement interval.
"""

import dataclasses

from repro.core import Tib
from repro.core.groupserver import GroupPoolStats
from repro.core.rpc import RpcStats
from repro.core.supervisor import ChaosPolicy
from repro.storage import RetentionPolicy
from repro.storage.archive import ColdArchive
from repro.storage.records import ScanSpec

from test_two_tier_tib import make_record


def _assert_dataclass_reset_zeroes_everything(stats) -> None:
    """Set every numeric field to a sentinel, reset, require all zero."""
    for field in dataclasses.fields(stats):
        if field.type in ("int", "float", int, float):
            setattr(stats, field.name, 7)
    stats.reset()
    for field in dataclasses.fields(stats):
        if field.type in ("int", "float", int, float):
            assert getattr(stats, field.name) == 0, field.name


class TestStatsDataclasses:
    def test_pool_stats_reset_covers_every_field(self):
        # Introspective: a counter added to GroupPoolStats without a
        # matching line in reset() (restarts/reseed_ms/... were added in
        # PR 6) fails here by construction.
        _assert_dataclass_reset_zeroes_everything(GroupPoolStats())

    def test_rpc_stats_reset_covers_every_field(self):
        _assert_dataclass_reset_zeroes_everything(RpcStats())


class TestTwoTierCounters:
    def test_tib_reset_zeroes_write_behind_and_decode_counters(self):
        # Small segments so evictions seal real segments and the scan
        # exercises the decode/pruning counters.
        tib = Tib("h", retention=RetentionPolicy(max_records=20),
                  archive=ColdArchive(segment_records=32))
        for i in range(200):
            tib.add_record(make_record(i))
        # The cold half of the read surface moves the decode counters.
        tib.archive.scan(ScanSpec(start=0.0, end=50.0))
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

    def test_archive_reset_zeroes_every_stats_key(self):
        # The archive resets by iterating its own stats dict, so a newly
        # added counter is covered automatically - lock that shape.
        tib = Tib("h", retention=RetentionPolicy(max_records=10))
        for i in range(100):
            tib.add_record(make_record(i))
        tib.flush_archive()
        assert any(tib.archive.stats.values())
        tib.archive.reset_stats()
        assert set(tib.archive.stats) == {
            "appends", "takes", "segments_sealed", "compactions",
            "segment_decodes", "segments_skipped", "entries_decoded",
            "entries_skipped", "decode_cache_hits", "flushes",
            "flushed_records"}
        assert not any(tib.archive.stats.values())

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
