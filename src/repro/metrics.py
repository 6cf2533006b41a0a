"""The process-wide counter registry.

Every module that counts work declares its counter names here when it is
imported, then increments them inline on its hot path
(``COUNTERS["solver_checks"] += 1``: one dict store, no call).  A counter
only grows for the life of the process: nothing resets it, and clearing a
cache leaves its counts alone.  Every reader therefore takes the
difference of two readings; :func:`repro.core.engine.stages.run_unit`
ships the difference around one unit as ``UnitOutcome.counters``, and the
merge sums those into ``CampaignStatistics.counters``.

:class:`LruCache` is the bounded memo behind every process-wide cache that
evicts (compiler prefix, lexer lines, snapshot reparse/typecheck/interp/
shape, test generation, generated programs); it counts its lookups as
``<name>_hits`` and ``<name>_misses``.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from typing import Dict, Hashable

#: Counter name -> count in this process.  Mutated in place and never
#: rebound, so modules import it by name.
COUNTERS: Dict[str, int] = {}


def declare(*names: str) -> None:
    """Register counters at zero, so every reading carries them."""

    for name in names:
        COUNTERS.setdefault(name, 0)


def snapshot() -> Dict[str, int]:
    """One reading: every counter, plus the collector's per-generation
    collection counts (``gc_gen*_collections``)."""

    reading = dict(COUNTERS)
    for generation, stats in enumerate(gc.get_stats()):
        reading[f"gc_gen{generation}_collections"] = stats["collections"]
    return reading


#: What :meth:`LruCache.get` returns on a miss, so ``None`` can be cached.
MISSING = object()


class LruCache:
    """A memo of at most ``maxsize`` entries; the least recently used goes.

    The source-keyed caches key on the program text itself: CPython caches
    a string's hash, so that costs one hash per string object, cheaper
    than a digest.
    """

    def __init__(self, name: str, maxsize: int) -> None:
        self.maxsize = maxsize
        self._hits = f"{name}_hits"
        self._misses = f"{name}_misses"
        declare(self._hits, self._misses)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable) -> object:
        """The cached value, or :data:`MISSING`; counts a hit or a miss."""

        value = self._entries.get(key, MISSING)
        if value is MISSING:
            COUNTERS[self._misses] += 1
        else:
            self._entries.move_to_end(key)
            COUNTERS[self._hits] += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Cache ``value`` after a miss; past ``maxsize``, evict the least
        recently used entry."""

        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (the counters keep growing)."""

        self._entries.clear()
