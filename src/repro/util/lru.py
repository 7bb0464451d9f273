"""LRU helpers over ``OrderedDict`` memos shared by service threads.

Every memo these helpers manage caches a *pure* function, so a lost entry
only costs a recomputation.  Under the service pool two threads may touch
one memo at once: a hit's ``move_to_end`` can find its key evicted by a
concurrent insert, and an insert's eviction loop can find the memo
already drained.  Both races lose nothing worth raising for, so both are
tolerated here instead of surfacing as a ``KeyError`` mid-query.
"""

from __future__ import annotations

from collections import OrderedDict


def lru_get(cache: OrderedDict, key):
    """The cached value for ``key`` (refreshing its recency), or ``None``."""
    hit = cache.get(key)
    if hit is not None:
        try:
            cache.move_to_end(key)
        except KeyError:  # evicted by a concurrent insert since the get
            pass
    return hit


def lru_put(cache: OrderedDict, key, value, cap: int) -> None:
    """Insert ``key`` and evict least-recently-used entries down to ``cap``."""
    cache[key] = value
    while len(cache) > cap:
        try:
            cache.popitem(last=False)
        except KeyError:  # drained by a concurrent eviction
            break
