"""LRU cache of prefix-JER sweep profiles, keyed on pool fingerprints.

The expensive part of an AltrM selection is the ``O(N^2)`` prefix sweep; the
answer to *any* altruistic query over a pool (for any ``max_size``) can be
read off the pool's odd-prefix JER profile.  The batch engine therefore
caches one profile per pool fingerprint: queries arriving later — in the
same batch or a later one — reuse it for free.

Fingerprints are *content* hashes, which is what makes the cache safe under
live pools (:mod:`repro.service.registry`): a :class:`LivePool` mutation
bumps the pool's version and changes its fingerprint, so a stale profile can
never be served for the new state — and a mutation sequence that restores
the previous membership restores the previous fingerprint, so earlier cache
entries become hits again.  :meth:`PrefixSweepCache.invalidate` additionally
supports explicit eviction (e.g. when a registry pool is dropped).

Profiles are stored as ``(ns, jers)`` float64 arrays (a few KiB per pool) and
evicted least-recently-used beyond ``maxsize``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["PrefixSweepCache"]

#: Default number of pool profiles retained by an engine's cache.
DEFAULT_CACHE_SIZE = 128


class PrefixSweepCache:
    """Least-recently-used cache ``fingerprint -> (ns, jers)`` profile.

    Parameters
    ----------
    maxsize:
        Maximum number of profiles retained.  ``0`` disables storage
        entirely (every :meth:`get` misses): an engine built with
        ``cache_size=0`` keeps no profile between passes.

    Examples
    --------
    >>> cache = PrefixSweepCache(maxsize=2)
    >>> import numpy as np
    >>> cache.put("fp1", np.array([1, 3]), np.array([0.1, 0.07]))
    >>> cache.get("fp1")[0].tolist()
    [1, 3]
    >>> cache.hits, cache.misses
    (1, 0)
    """

    __slots__ = ("_maxsize", "_entries", "hits", "misses", "evictions")

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self._maxsize = maxsize
        self._entries: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def maxsize(self) -> int:
        """Capacity in profiles."""
        return self._maxsize

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Return the cached ``(ns, jers)`` profile, or ``None`` on a miss."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry

    def put(self, fingerprint: str, ns: np.ndarray, jers: np.ndarray) -> None:
        """Store a profile, evicting the least recently used beyond capacity."""
        if self._maxsize == 0:
            return
        self._entries[fingerprint] = (ns, jers)
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, fingerprint: str) -> bool:
        """Explicitly evict one profile; returns whether it was present.

        Content-keyed entries never go *wrong*, but entries for dropped
        registry pools are dead weight — this frees them without waiting for
        LRU pressure.
        """
        if self._entries.pop(fingerprint, None) is None:
            return False
        self.evictions += 1
        return True

    def clear(self) -> None:
        """Drop all cached profiles and reset the hit/miss/eviction counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
