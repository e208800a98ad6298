"""The one shape every stats holder takes.

A measurement interval (one experiment of the evaluation) starts with
``reset_stats()``.  Every counter lives as a field of a :class:`Counters`
subclass, so a reset is one generic loop over the declared fields - there
is no per-field reset to forget - and slots turn a misspelt counter name
into an ``AttributeError`` on read and on write instead of a silent new
key or a silent 0.

Subclasses are ``@dataclass(slots=True)`` too and declare only ``int`` or
``float`` fields with plain zero defaults.  This module imports nothing
from the package, so ``storage/``, ``network/`` and ``core/`` can all use
it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Any, Tuple


@cache
def _defaults(cls: type[Counters]) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default)`` of every counter ``cls`` declares, read once per
    class: a reset runs for every host of a worker on each re-open, and
    ``dataclasses.fields`` rebuilds its list on every call."""
    return tuple((counter.name, counter.default) for counter in fields(cls))


@dataclass(slots=True)
class Counters:
    """Base of every stats holder: reset in place, read by attribute."""

    def reset(self) -> None:
        """Restore every declared counter to its default."""
        for name, default in _defaults(type(self)):
            setattr(self, name, default)

    def get(self, name: str, default: Any = None) -> Any:
        """A counter by name.  Only pathbench's tracer, which reads archive
        and docstore counters by name, needs it; code in ``src/`` reads
        counters by attribute."""
        return getattr(self, name, default)
