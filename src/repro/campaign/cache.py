"""Content-addressed result cache for campaign points.

Every evaluated point is stored under a key that *is* its content
address: the SHA-256 of the point's canonical-JSON identity (scenario,
resolved parameters, instance index, spec seed, variation model)
combined with a **code-version salt**.  Consequences:

* a killed campaign resumes — completed points are found by address
  and only the missing ones recompute;
* editing one sweep axis only recomputes the new points — unchanged
  points hash to the same address;
* renaming a campaign changes nothing — the spec's ``name`` is not
  part of the identity;
* bumping :data:`CACHE_SALT` (whenever the physics or the metric
  definitions change meaning) invalidates every stale entry at once
  without touching files — stale entries are evicted lazily on
  :meth:`ResultCache.prune`.

Entries are one JSON file per key, written atomically
(``tempfile`` + ``os.replace`` in the cache directory), so a crash
mid-write can never leave a truncated entry behind.  Hits, misses,
writes, and evictions tick both local tallies (returned by
:meth:`ResultCache.stats`) and ``campaign.cache.*`` counters in
:mod:`repro.instrument`, so run manifests show the cache behaviour.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Dict, Optional

from .. import instrument
from ..errors import CampaignError
from .spec import CampaignPoint, canonical_json

__all__ = ["CACHE_SALT", "ResultCache"]

#: Code-version salt folded into every cache key.  Bump the trailing
#: number whenever a change alters what a cached metric *means* —
#: scenario physics, variation draw order, metric definitions — so old
#: entries can never masquerade as current results.
CACHE_SALT = "repro.campaign/1"

_ENTRY_SCHEMA = "repro.campaign-cache-entry"


class ResultCache:
    """A directory of content-addressed point results.

    Parameters
    ----------
    directory:
        Cache root; created if missing.
    salt:
        Code-version salt; defaults to :data:`CACHE_SALT`.  Tests use
        a custom salt to simulate a code-version bump.

    One instance may be shared across sequential runs *and* across
    threads: a :class:`~repro.workers.pool.WorkerPool` runs reader and
    heartbeat threads beside the caller's, and nothing stops a caller
    from reading :meth:`stats` off its own thread.  Entry I/O is
    already safe (content-addressed keys, atomic same-dir renames);
    the tally dict is guarded by a lock so concurrent reads see
    consistent totals.
    """

    def __init__(self, directory, salt: str = CACHE_SALT):
        self.directory = os.path.abspath(os.fspath(directory))
        self.salt = str(salt)
        os.makedirs(self.directory, exist_ok=True)
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "evictions": 0,
        }

    # -- keying ------------------------------------------------------------

    def key(self, point: CampaignPoint) -> str:
        """The content address of *point* under the current salt."""
        material = canonical_json(point.identity()) + "\n" + self.salt
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # -- read / write ------------------------------------------------------

    def get(self, point: CampaignPoint) -> Optional[dict]:
        """The cached metrics for *point*, or ``None`` on a miss.

        A corrupt or schema-mismatched entry is evicted (unlinked and
        counted) and reported as a miss — the runner recomputes and
        overwrites it.
        """
        key = self.key(point)
        path = self._path(key)
        try:
            with open(path, "r") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self._tick("misses")
            return None
        except (OSError, json.JSONDecodeError):
            self._evict(path)
            self._tick("misses")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != _ENTRY_SCHEMA
            or entry.get("salt") != self.salt
            or not isinstance(entry.get("metrics"), dict)
        ):
            self._evict(path)
            self._tick("misses")
            return None
        self._tick("hits")
        return entry["metrics"]

    def put(self, point: CampaignPoint, metrics: dict) -> str:
        """Store *metrics* for *point*; returns the key.

        The entry records the full identity next to the metrics so a
        cache directory is self-describing (and auditable without the
        spec that produced it).
        """
        if not isinstance(metrics, dict):
            raise CampaignError(
                f"metrics must be a dict, got {type(metrics).__name__}"
            )
        key = self.key(point)
        entry = {
            "schema": _ENTRY_SCHEMA,
            "salt": self.salt,
            "key": key,
            "identity": point.identity(),
            "metrics": metrics,
        }
        payload = json.dumps(entry, indent=2, sort_keys=True) + "\n"
        fd, tmp_path = tempfile.mkstemp(
            dir=self.directory, prefix=".entry-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._tick("writes")
        return key

    # -- maintenance -------------------------------------------------------

    def prune(self) -> int:
        """Evict entries written under a different code-version salt.

        Returns the number of files removed.  Keys already encode the
        salt, so stale entries can never be *read*; pruning reclaims
        their disk space.
        """
        removed = 0
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "r") as handle:
                    entry = json.load(handle)
                stale = (
                    not isinstance(entry, dict)
                    or entry.get("schema") != _ENTRY_SCHEMA
                    or entry.get("salt") != self.salt
                )
            except (OSError, json.JSONDecodeError):
                stale = True
            if stale:
                self._evict(path)
                removed += 1
        return removed

    def __len__(self) -> int:
        """Number of entry files currently in the cache directory."""
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    def stats(self) -> Dict[str, int]:
        """This instance's hit/miss/write/eviction tallies."""
        with self._stats_lock:
            return dict(self._stats)

    # -- internals ---------------------------------------------------------

    def _tick(self, name: str) -> None:
        with self._stats_lock:
            self._stats[name] += 1
        instrument.count(f"campaign.cache.{name}")

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            return
        self._tick("evictions")
