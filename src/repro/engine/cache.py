"""Content-addressed on-disk trial store, mergeable across hosts.

Records live in JSON-lines shard files under a cache root (default
``.repro-cache/``), sharded by the first byte of the trial key so no
single file grows unboundedly and concurrent sweeps touch disjoint
files most of the time.  Appends are atomic at the line level; on
replay the *last* record for a key wins, so an interrupted run can
simply be re-run, and :meth:`TrialCache.compact` rewrites the files
down to that last record per key when append growth matters.

The store is built for distributed merge, and it is the one way a
sharded run's results come home: because every record is keyed by its
trial's content hash, two caches can only ever disagree on *presence*,
never on *value* — so ``merge`` is a plain key union (idempotent,
commutative), and the ``isolation`` mode points writes at a private
root (one per shard of a sharded run) that unions cleanly back into
the shared root afterward.  A root moves between hosts as plain files
— a shared filesystem or any copy — and ``merge`` takes it from
wherever it landed.  All readers tolerate a torn trailing line, the
worst a killed writer or a cut-short copy can leave behind.

The cache is deliberately dumb: it stores whatever JSON-safe record
the runner hands it, keyed by the trial's content hash.  Invalidation
is handled upstream by :data:`repro.engine.spec.CACHE_VERSION` being
part of every key.  Its accounting is process telemetry (the
``cache.hits``, ``cache.misses``, ``cache.puts`` and shard-load, merge
and compaction counters of :mod:`repro.obs`); the one count a cache
keeps itself is ``torn_lines``, which ``run --from`` reports per cache.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.obs import get_telemetry

__all__ = ["TrialCache", "DEFAULT_CACHE_DIR"]

_LOG = logging.getLogger("repro.engine")

DEFAULT_CACHE_DIR = ".repro-cache"


def _parse_lines(
    path: str, on_torn: Callable[[], None] | None = None
) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(key, record)`` pairs from one shard file.

    A missing file reads as empty.  Every other line that is not a
    record — an object with a non-empty string ``key`` and an object
    ``record`` — is skipped rather than poisoning the run: mostly the
    torn tail a killed writer leaves, sometimes a stray value.
    ``on_torn`` is called once per skip so callers can account for them
    instead of silently under-reading.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    entry = None  # torn write at the tail of the file
                if not (
                    isinstance(entry, dict)
                    and isinstance(entry.get("key"), str)
                    and entry["key"]
                    and isinstance(entry.get("record"), dict)
                ):
                    if on_torn is not None:
                        on_torn()
                    continue
                yield entry["key"], entry["record"]
    except OSError:
        return  # missing file == empty file


def _scan_root(
    root: str, on_torn: Callable[[], None] | None = None
) -> dict[str, dict[str, Any]]:
    """Last-record-per-key view of every ``*.jsonl`` directly in a root."""
    entries: dict[str, dict[str, Any]] = {}
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return entries
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        for key, record in _parse_lines(os.path.join(root, name), on_torn):
            entries[key] = record
    return entries


def _dump_line(key: str, record: dict[str, Any]) -> str:
    return json.dumps({"key": key, "record": record}, sort_keys=True)


@dataclass
class TrialCache:
    """A sharded key -> JSON-record store with an in-memory index.

    ``isolation``, when set, is a private directory all *writes* go to
    while reads consult both it and ``root`` (the private copy wins).
    A sharded run gives each shard ``TrialCache(shared_root,
    isolation=private_root)``: shards reuse whatever the shared root
    already holds but never contend on its files, and afterward
    ``TrialCache(shared_root).merge(private_root)`` folds each private
    root back in.
    """

    root: str = DEFAULT_CACHE_DIR
    isolation: str | None = None

    def __post_init__(self) -> None:
        self._index: dict[str, dict[str, Any]] = {}
        self._loaded: set[str] = set()
        #: Lines that are not a record, skipped while reading this
        #: cache's roots and merge sources — mostly the torn tails
        #: killed writers leave.
        self.torn_lines = 0
        # Fail fast on an unusable cache root, before any trial work
        # whose results would otherwise be computed and then lost.
        os.makedirs(self.root, exist_ok=True)
        if self.isolation:
            os.makedirs(self.isolation, exist_ok=True)

    # -- sharding ------------------------------------------------------

    def _shard_name(self, key: str) -> str:
        return f"{key[:2]}.jsonl"

    def _read_roots(self) -> list[str]:
        # Isolation last: its records overwrite the shared root's on
        # load, matching "the private copy wins".
        return [self.root] + ([self.isolation] if self.isolation else [])

    def _count_torn(self) -> None:
        self.torn_lines += 1
        get_telemetry().incr("cache.torn_lines_skipped")

    def _load_shard(self, name: str) -> None:
        if name in self._loaded:
            return
        self._loaded.add(name)
        get_telemetry().incr("cache.shard_files_loaded")
        for root in self._read_roots():
            for key, record in _parse_lines(
                os.path.join(root, name), self._count_torn
            ):
                self._index[key] = record

    def _peek(self, key: str) -> dict[str, Any] | None:
        """Lookup without touching hit/miss accounting."""
        self._load_shard(self._shard_name(key))
        return self._index.get(key)

    def _shard_names_on_disk(self) -> list[str]:
        names: set[str] = set()
        for root in self._read_roots():
            try:
                names.update(
                    name for name in os.listdir(root) if name.endswith(".jsonl")
                )
            except OSError:
                continue
        return sorted(names)

    def load_all(self) -> None:
        """Pull every on-disk record into the in-memory index."""
        for name in self._shard_names_on_disk():
            self._load_shard(name)

    # -- lookup / store ------------------------------------------------

    def contains(self, key: str) -> bool:
        """Presence probe that does not touch hit/miss accounting."""
        return self._peek(key) is not None

    def get(self, key: str) -> dict[str, Any] | None:
        record = self._peek(key)
        get_telemetry().incr("cache.misses" if record is None else "cache.hits")
        return record

    def put(self, key: str, record: dict[str, Any]) -> None:
        self.put_many([(key, record)])

    def put_many(self, items: Iterable[tuple[str, dict[str, Any]]]) -> None:
        by_shard: dict[str, list[str]] = {}
        for key, record in items:
            name = self._shard_name(key)
            # Load the shard's existing records before the write marks
            # it loaded, so later gets of sibling keys still see disk.
            self._load_shard(name)
            self._index[key] = record
            by_shard.setdefault(name, []).append(_dump_line(key, record))
            get_telemetry().incr("cache.puts")
        if not by_shard:
            return
        write_root = self.isolation or self.root
        os.makedirs(write_root, exist_ok=True)
        for name, lines in by_shard.items():
            data = ("\n".join(lines) + "\n").encode("utf-8")
            with open(os.path.join(write_root, name), "ab+") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        # A killed writer left a torn tail: end it, or
                        # the first new record would be glued onto it.
                        data = b"\n" + data
                handle.write(data)

    def __len__(self) -> int:
        return len(self._index)

    # -- transport: merge ---------------------------------------------

    def _absorb(self, incoming: dict[str, dict[str, Any]]) -> int:
        """Key-union incoming records; newcomers win only when they differ.

        Records are content-addressed, so a key collision with a
        *different* record should be impossible — but if it happens
        (hand-edited files), last writer wins, matching replay
        semantics.  Identical records are not re-appended, which is
        what keeps merge idempotent on disk as well as in the index.
        """
        fresh = [
            (key, record)
            for key, record in sorted(incoming.items())
            if self._peek(key) != record
        ]
        self.put_many(fresh)
        return len(fresh)

    def merge(self, other_root: str) -> int:
        """Union another cache root's records into this cache.

        ``merge`` is idempotent (re-merging adds nothing) and
        commutative up to file layout (any merge order yields the same
        key -> record mapping) because keys are content hashes: two
        caches can only disagree on presence.  Returns how many records
        were new; torn source lines land in ``torn_lines`` and
        the ``cache.torn_lines_skipped`` counter.
        """
        if not os.path.isdir(other_root):
            raise ValueError(f"cache root {other_root!r} does not exist")
        added = self._absorb(_scan_root(other_root, self._count_torn))
        telemetry = get_telemetry()
        telemetry.incr("cache.merges")
        telemetry.incr("cache.merge_new_records", added)
        _LOG.debug("merged %s into %s: %d new record(s)", other_root, self.root, added)
        return added

    # -- maintenance ---------------------------------------------------

    def compact(self) -> tuple[int, int]:
        """Rewrite shard files keeping only the last record per key.

        Returns ``(kept, dropped)`` line counts.  Appends accumulate a
        line per put — re-runs after merges or interruptions write keys
        that already exist — and compaction is the one operation that
        reclaims that space.  Lines that are not a record (mostly the
        half-written tail a killed writer leaves) are dropped and
        counted too.  Each file is rewritten atomically (temp file +
        ``os.replace``) and only when it actually shrinks; the read view
        is unchanged, since replay already kept only the last record per
        key and skipped every other line.

        **Single-writer only**: unlike every other operation here,
        compaction is read-modify-replace, so records appended by a
        concurrent writer between the read pass and the replace would
        be clobbered.  Run it between sweeps (the CI smoke compacts
        after ``run --from``), or point concurrent shards at isolation
        roots so the shared root has no other writer.
        """
        kept = 0
        dropped = 0
        roots = [self.root] + (
            [self.isolation]
            if self.isolation and self.isolation != self.root
            else []
        )
        for root in roots:
            try:
                names = sorted(os.listdir(root))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".jsonl"):
                    continue
                path = os.path.join(root, name)
                entries: dict[str, dict[str, Any]] = {}
                lines = 0
                torn = []
                for key, record in _parse_lines(path, lambda: torn.append(1)):
                    entries[key] = record
                    lines += 1
                kept += len(entries)
                stale = lines + len(torn) - len(entries)
                dropped += stale
                if not stale:
                    continue  # already compact: skip the rewrite
                tmp = path + ".compact"
                with open(tmp, "w", encoding="utf-8") as handle:
                    for key, record in sorted(entries.items()):
                        handle.write(_dump_line(key, record) + "\n")
                os.replace(tmp, path)
        telemetry = get_telemetry()
        telemetry.incr("cache.compactions")
        telemetry.incr("cache.records_compacted", dropped)
        _LOG.debug(
            "compacted %s: kept %d, dropped %d stale line(s)",
            self.root, kept, dropped,
        )
        return kept, dropped
