"""Storage substrate: in-memory document store, flow-record schema and the
log-structured cold archive of the two-tier TIB with its segment codec."""

from repro.storage.archive import ColdArchive, RetentionPolicy
from repro.storage.docstore import Collection, DocumentStore, QueryError
from repro.storage.records import (PathFlowRecord, ScanSpec,
                                   TrajectoryMemoryRecord, flow_key,
                                   parse_flow_key)

__all__ = [
    "ColdArchive", "RetentionPolicy",
    "Collection", "DocumentStore", "QueryError",
    "PathFlowRecord", "ScanSpec", "TrajectoryMemoryRecord", "flow_key",
    "parse_flow_key",
]
