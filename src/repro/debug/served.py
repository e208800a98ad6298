"""A debug app's read: a partial result is no verdict."""

from typing import Any

from repro.core.cluster import DistributedQueryResult


class PartialReadError(RuntimeError):
    """A debug app's read missed some hosts' partial results."""


def complete(result: DistributedQueryResult) -> Any:
    """The payload; a partial one raises, naming ``hosts_failed``."""
    if result.partial:
        raise PartialReadError(f"read missed hosts {result.hosts_failed}")
    return result.payload
