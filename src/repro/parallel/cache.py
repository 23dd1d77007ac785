"""Content-addressed incremental compilation cache.

Each entry is one module's compiled isom text, keyed by a SHA-256
digest over (cache format version, isom format version, HLOConfig
fingerprint, module name, source text).  Because the key is derived
entirely from the inputs of the per-module compile, a module whose
source and configuration are unchanged hits the cache on every rebuild
— including a rebuild whose file was touched but not edited — while
any change to the source *or* the config derives a fresh key and
recompiles.

The cache is two-level: an in-memory map (always on, lives for the
toolchain's lifetime) over an optional on-disk store (``--cache-dir``)
that persists across processes and builds.  Disk entries are plain
isom files, so they carry the isom header's CRC-32; a corrupt or
truncated entry fails isom validation and is treated as a miss and
evicted, composing with the resilience layer's degradation ladder
instead of poisoning a build.

Counters distinguish three outcomes per lookup:

- **hit** — the key's isom text was present and parsed cleanly;
- **miss** — the key was never stored (a brand-new module);
- **invalidation** — the module *name* was cached under a different
  key (its source or config changed), counted alongside the miss.

The disk tier can be bounded (``max_mb``): every hit refreshes the
entry's mtime, and a store that pushes the tier over the cap evicts
the least-recently-used objects (oldest mtime first) until it fits,
counting each removal in ``stats.size_evictions``, so one cache
directory can stay warm across any number of builds without growing
without limit.  All public entry points take an internal lock.
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, List, Optional, Tuple

from ..ir.module import Module
from ..resilience.errors import IsomError

# Bump when the key derivation or entry layout changes.
CACHE_FORMAT_VERSION = 1


class CacheStats:
    """Hit/miss/invalidation counters, monotonically increasing."""

    __slots__ = ("hits", "misses", "invalidations", "stores", "size_evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0
        # Disk objects removed by the size bound (never part of the
        # 4-tuple snapshot, which predates the bounded tier).
        self.size_evictions = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (self.hits, self.misses, self.invalidations, self.stores)

    def since(self, mark: Tuple[int, int, int, int]) -> Tuple[int, int, int, int]:
        """(hits, misses, invalidations, stores) accumulated after ``mark``."""
        return (
            self.hits - mark[0],
            self.misses - mark[1],
            self.invalidations - mark[2],
            self.stores - mark[3],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<CacheStats {}h/{}m/{}i>".format(
            self.hits, self.misses, self.invalidations
        )


def _safe_stem(name: str) -> str:
    """A filesystem-safe stem for a module name."""
    cleaned = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:12]
    return "{}.{}".format(cleaned[:40] or "mod", digest)


class ModuleCache:
    """Content-addressed store of compiled (isom-serialized) modules."""

    def __init__(
        self, directory: Optional[str] = None, max_mb: Optional[float] = None
    ):
        self.directory = directory
        self.max_bytes = int(max_mb * 1024 * 1024) if max_mb else None
        self._memory: Dict[str, str] = {}  # key -> isom text
        self._name_keys: Dict[str, str] = {}  # module name -> last key seen
        self.stats = CacheStats()
        self._lock = threading.RLock()
        if directory:
            os.makedirs(os.path.join(directory, "objects"), exist_ok=True)
            os.makedirs(os.path.join(directory, "names"), exist_ok=True)

    # ------------------------------------------------------------------
    # Key derivation
    # ------------------------------------------------------------------

    @staticmethod
    def key_for(name: str, source: str, fingerprint: str = "") -> str:
        from ..linker.isom import ISOM_VERSION

        digest = hashlib.sha256()
        for part in (
            "repro-module-cache",
            str(CACHE_FORMAT_VERSION),
            str(ISOM_VERSION),
            fingerprint,
            name,
            source,
        ):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def fetch(self, name: str, key: str) -> Optional[Module]:
        """The cached module for ``key``, or ``None`` on a miss.

        Every call returns a *freshly parsed* module: cached text, not
        cached objects, so two builds never alias (and then mutate) the
        same IR.
        """
        from ..linker.isom import from_isom_text

        with self._lock:
            text = self._memory.get(key)
            if text is None:
                text = self._read_object(key)
            if text is not None:
                try:
                    module = from_isom_text(text)
                except IsomError:
                    # Corrupt/truncated cache entry: evict and recompile.
                    self._evict(key)
                    text = None
                else:
                    self.stats.hits += 1
                    self._memory[key] = text
                    self._remember_name(name, key)
                    self._touch(key)
                    return module
            previous = self._last_key(name)
            if previous is not None and previous != key:
                self.stats.invalidations += 1
            self.stats.misses += 1
            return None

    def store(self, name: str, key: str, isom_text: str) -> None:
        with self._lock:
            self._memory[key] = isom_text
            self._remember_name(name, key)
            self.stats.stores += 1
            if not self.directory:
                return
            self._write_atomic(self._object_path(key), isom_text)
            self._write_atomic(self._name_path(name), key)
            self._enforce_disk_bound(keep=key)

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.directory, "objects", key + ".isom")

    def _name_path(self, name: str) -> str:
        return os.path.join(self.directory, "names", _safe_stem(name))

    def _read_object(self, key: str) -> Optional[str]:
        if not self.directory:
            return None
        try:
            with open(self._object_path(key)) as handle:
                return handle.read()
        except OSError:
            return None

    def _last_key(self, name: str) -> Optional[str]:
        key = self._name_keys.get(name)
        if key is not None or not self.directory:
            return key
        try:
            with open(self._name_path(name)) as handle:
                return handle.read().strip() or None
        except OSError:
            return None

    def _remember_name(self, name: str, key: str) -> None:
        self._name_keys[name] = key
        if self.directory:
            self._write_atomic(self._name_path(name), key)

    def _evict(self, key: str) -> None:
        self._memory.pop(key, None)
        if self.directory:
            try:
                os.remove(self._object_path(key))
            except OSError:
                pass

    def _touch(self, key: str) -> None:
        """Refresh an entry's mtime so the size bound evicts true LRU."""
        if not self.directory:
            return
        try:
            os.utime(self._object_path(key))
        except OSError:
            pass

    def disk_bytes(self) -> int:
        """Total size of the on-disk object tier (0 when memory-only)."""
        if not self.directory:
            return 0
        total = 0
        try:
            with os.scandir(os.path.join(self.directory, "objects")) as it:
                for entry in it:
                    if entry.name.endswith(".isom"):
                        try:
                            total += entry.stat().st_size
                        except OSError:
                            continue
        except OSError:
            return 0
        return total

    def _enforce_disk_bound(self, keep: str) -> None:
        """Evict least-recently-used disk objects over ``max_bytes``.

        The entry just stored (``keep``) is never evicted — a single
        over-budget module still has to compile, and thrashing it in
        and out of the tier would defeat the cache entirely.
        """
        if not self.directory or self.max_bytes is None:
            return
        entries: List[Tuple[float, int, str, str]] = []
        total = 0
        try:
            with os.scandir(os.path.join(self.directory, "objects")) as it:
                for entry in it:
                    if not entry.name.endswith(".isom"):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    entries.append(
                        (stat.st_mtime, stat.st_size, entry.path, entry.name)
                    )
                    total += stat.st_size
        except OSError:
            return
        if total <= self.max_bytes:
            return
        keep_name = keep + ".isom"
        entries.sort()  # oldest mtime first
        for _mtime, size, path, filename in entries:
            if total <= self.max_bytes:
                break
            if filename == keep_name:
                continue
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            self.stats.size_evictions += 1
            # Drop the memory copy too, so the process's resident set
            # tracks the bounded tier instead of shadowing it.
            self._memory.pop(filename[: -len(".isom")], None)

    def _write_atomic(self, path: str, text: str) -> None:
        tmp = path + ".tmp.{}".format(os.getpid())
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full cache directory degrades to the
            # in-memory layer; it must never fail the build.
            try:
                os.remove(tmp)
            except OSError:
                pass
