"""Content-addressed on-disk store of per-circuit artifacts.

The engine layer memoizes expensive per-circuit artifacts (path
enumerations, target sets) per *process*; every CLI invocation and every
pool worker rebuilds them from scratch.  :class:`ArtifactStore` persists
them across invocations:

* **content-addressed keys** -- an entry's filename is derived from
  ``blake2b(netlist canonical form)`` plus the artifact kind, the full
  parameter envelope and the payload-format version
  (:func:`artifact_key`), so a changed circuit, parameter or format can
  never alias a stale entry; the envelope is additionally stored inside
  the entry and re-validated on load;
* **atomic publishing** -- entries are written to a unique temporary
  file in the store directory and ``os.replace``d into place, so readers
  only ever observe complete entries and concurrent writers (N pool
  workers publishing the same artifact) simply last-write-win the
  identical bytes;
* **versioned binary payloads** -- one ``.npz`` per entry: numpy arrays
  for the bulk data plus a canonical-JSON metadata record (envelope,
  scalar fields, integrity digest);
* **integrity digests** -- the metadata embeds a blake2b digest over the
  envelope and every array's bytes, recomputed on load; a mismatch (or
  any other decode failure: truncated file, not-a-zip garbage, missing
  arrays) is treated as a **miss, never an error** -- the caller
  recomputes and republishes, and the event is counted as
  ``artifact.corrupt``;
* **self-healing quarantine** -- a corrupt or stale entry is *moved* to
  ``<store>/quarantine/`` the moment a load trips over it (counted as
  ``artifact.quarantined``), so one bad file is paid for once instead of
  being re-decoded and re-counted on every subsequent run; the republish
  then lands a fresh entry at the original path.  ``repro-pdf cache
  verify --repair`` quarantines whatever a full scan finds and drains
  the quarantine directory.

Cache outcomes are recorded on an optional EngineStats-compatible sink
(anything with ``count``/``hit``/``miss``/``timer``): ``artifact.hit`` /
``artifact.miss`` per consult (corrupt and stale entries count as
misses, corrupt ones additionally as ``artifact.corrupt``) and
``artifact.write`` per publish.

Maintenance (the ``repro-pdf cache`` CLI): :meth:`ArtifactStore.entries`
lists the store, :meth:`ArtifactStore.verify` fully decodes every entry,
and :meth:`ArtifactStore.gc` applies a size-bounded LRU policy by file
mtime -- loads touch the entry's mtime, so recently-used artifacts
survive a ``gc`` that evicts cold ones.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ..circuit.netlist import Netlist

__all__ = [
    "PAYLOAD_VERSION",
    "ArtifactEntry",
    "ArtifactStore",
    "netlist_canonical_form",
    "netlist_digest",
    "artifact_key",
]

#: Version of the on-disk payload format.  Part of every key *and* every
#: stored envelope: bumping it orphans (never corrupts) old entries.
#: Version 2: enumerations no longer list a path twice through a gate that
#: reads the same signal on two fanin slots.
PAYLOAD_VERSION = 2

#: Failure modes of decoding an arbitrary file as an entry.  Kept broad on
#: purpose: a cache read must degrade to a miss for *any* malformed input
#: (zero-byte file, truncated zip, non-npz garbage, missing arrays,
#: invalid JSON), never propagate.
_DECODE_ERRORS = (
    OSError,
    EOFError,
    ValueError,
    KeyError,
    UnicodeDecodeError,
    json.JSONDecodeError,
    zipfile.BadZipFile,
)


def _canonical_json(payload) -> str:
    """Canonical JSON: sorted keys, no whitespace (stable for hashing)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def netlist_canonical_form(netlist: Netlist) -> str:
    """Canonical serialization of a netlist's *structure*.

    Nodes in declaration order (dense indices are declaration order, and
    stored artifacts reference nodes by dense index), each as
    ``[name, gate_type, [fanin...]]``, plus the declared outputs.  The
    circuit's display ``name`` is deliberately excluded so a
    :func:`~repro.circuit.transform.renamed` copy shares its artifacts.
    """
    return _canonical_json(
        {
            "nodes": [
                [node.name, node.gate_type.value, list(node.fanin)]
                for node in netlist.nodes
            ],
            "outputs": list(netlist.output_names),
        }
    )


def netlist_digest(netlist: Netlist) -> str:
    """``blake2b`` digest of :func:`netlist_canonical_form`."""
    return hashlib.blake2b(
        netlist_canonical_form(netlist).encode(), digest_size=16
    ).hexdigest()


def artifact_key(circuit_digest: str, kind: str, params: Mapping) -> str:
    """Content address of one artifact: circuit + kind + envelope + version."""
    envelope = _canonical_json(
        {
            "circuit": circuit_digest,
            "kind": kind,
            "params": dict(params),
            "v": PAYLOAD_VERSION,
        }
    )
    return hashlib.blake2b(envelope.encode(), digest_size=16).hexdigest()


def _payload_digest(meta: Mapping, arrays: Mapping[str, np.ndarray]) -> str:
    """Integrity digest over the metadata and every array's raw bytes."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(_canonical_json(meta).encode())
    for name in sorted(arrays):
        array = arrays[name]
        digest.update(
            f"{name}:{array.dtype.str}:{array.shape}".encode()
        )
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ArtifactEntry:
    """One store entry as listed by :meth:`ArtifactStore.entries`."""

    path: Path
    kind: str
    key: str
    size: int
    mtime: float

    def describe(self, meta: Mapping | None = None) -> str:
        circuit = params = ""
        if meta is not None:
            circuit = str(meta.get("netlist", {}).get("name", "?"))
            params = _canonical_json(meta.get("params", {}))
        return (
            f"{self.kind:<12} {self.key}  {self.size:>8}B  "
            f"{circuit} {params}".rstrip()
        )


class ArtifactStore:
    """Content-addressed persistent artifact cache rooted at ``directory``.

    ``stats`` is an optional default EngineStats-compatible sink; callers
    that own richer instrumentation (sessions) pass theirs per call.
    """

    def __init__(self, directory: str | Path, stats=None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = stats

    # -- core protocol -------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        """Entry file for a (kind, content key) pair."""
        return self.directory / f"{kind}-{key}.npz"

    def _count(self, stats, name: str, n: int = 1) -> None:
        stats = stats if stats is not None else self.stats
        if stats is not None:
            stats.count(name, n)

    def publish(
        self,
        netlist_digest: str,
        kind: str,
        params: Mapping,
        arrays: Mapping[str, np.ndarray],
        payload: Mapping,
        *,
        netlist_name: str = "",
        stats=None,
    ) -> Path:
        """Write one artifact atomically; returns the entry path.

        ``params`` is the full parameter envelope (what the key hashes
        and :meth:`load` revalidates); ``payload`` carries the artifact's
        scalar fields; ``arrays`` its bulk data.  ``netlist_name`` is
        display-only metadata (``cache ls``) and not part of the key.
        """
        key = artifact_key(netlist_digest, kind, params)
        meta = {
            "v": PAYLOAD_VERSION,
            "kind": kind,
            "netlist": {"name": netlist_name, "digest": netlist_digest},
            "params": dict(params),
            "payload": dict(payload),
        }
        meta["digest"] = _payload_digest(meta, arrays)
        buffer = io.BytesIO()
        np.savez(
            buffer,
            __meta__=np.frombuffer(
                _canonical_json(meta).encode(), dtype=np.uint8
            ),
            **arrays,
        )
        path = self.path_for(kind, key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(buffer.getvalue())
        os.replace(tmp, path)
        self._count(stats, "artifact.write")
        return path

    def _decode(self, path: Path) -> tuple[dict, dict[str, np.ndarray]]:
        """Decode and integrity-check one entry file (raises on corruption)."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            if not isinstance(meta, dict):
                raise ValueError("metadata is not an object")
            arrays = {
                name: data[name] for name in data.files if name != "__meta__"
            }
        expected = meta.pop("digest", None)
        if expected is None or _payload_digest(meta, arrays) != expected:
            raise ValueError("integrity digest mismatch")
        return meta, arrays

    def load(
        self,
        netlist_digest: str,
        kind: str,
        params: Mapping,
        *,
        stats=None,
    ) -> tuple[dict, dict[str, np.ndarray]] | None:
        """Stored ``(payload, arrays)`` for an artifact, or ``None``.

        ``None`` covers the three miss flavours: *absent* (no file,
        silent), *corrupt* (present but undecodable or failing its
        integrity digest; counted as ``artifact.corrupt``) and *stale*
        (decodes, but its stored envelope disagrees with the request --
        only possible via a key collision or a mislabelled file, so it is
        treated as corrupt too).  Every call counts exactly one of
        ``artifact.hit`` / ``artifact.miss``.  Corrupt and stale entries
        are quarantined on first contact (see :meth:`quarantine_entry`),
        so the recompute-and-republish that follows this miss heals the
        store instead of fighting the bad file.
        """
        key = artifact_key(netlist_digest, kind, params)
        path = self.path_for(kind, key)
        if not path.exists():
            self._count(stats, "artifact.miss")
            return None
        try:
            meta, arrays = self._decode(path)
        except _DECODE_ERRORS:
            self._count(stats, "artifact.miss")
            self._count(stats, "artifact.corrupt")
            self.quarantine_entry(path, stats=stats)
            return None
        if (
            meta.get("v") != PAYLOAD_VERSION
            or meta.get("kind") != kind
            or meta.get("netlist", {}).get("digest") != netlist_digest
            or meta.get("params") != dict(params)
        ):
            self._count(stats, "artifact.miss")
            self._count(stats, "artifact.corrupt")
            self.quarantine_entry(path, stats=stats)
            return None
        self._count(stats, "artifact.hit")
        self._touch(path)
        return dict(meta.get("payload", {})), arrays

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime (the LRU clock for :meth:`gc`)."""
        try:
            os.utime(path)
        except OSError:
            pass  # read-only store: loads still work, gc just sees it colder

    # -- quarantine (self-healing) --------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are parked (outside ``entries()``'s glob,
        so a quarantined file stops being scanned, loaded or gc-ranked)."""
        return self.directory / "quarantine"

    def quarantine_entry(self, path: Path, *, stats=None) -> Path | None:
        """Move one corrupt entry file into the quarantine (atomic rename).

        Counted as ``artifact.quarantined``.  Collisions get a numbered
        suffix (two corruption events of a republished key must not
        overwrite each other's evidence).  Failures -- read-only store,
        the file already gone because a concurrent writer republished
        over it -- return ``None``; quarantining is an optimization,
        never a load error.
        """
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError:
            return None
        self._count(stats, "artifact.quarantined")
        return target

    def quarantined(self) -> list[Path]:
        """Quarantined files, oldest name first."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(p for p in self.quarantine_dir.iterdir() if p.is_file())

    def drain_quarantine(self) -> list[Path]:
        """Delete every quarantined file; returns what was removed."""
        removed = []
        for path in self.quarantined():
            try:
                path.unlink()
            except OSError:
                continue
            removed.append(path)
        return removed

    # -- maintenance (the `repro-pdf cache` subcommands) ----------------

    def entries(self) -> list[ArtifactEntry]:
        """Every entry file, newest mtime first."""
        found = []
        for path in self.directory.glob("*-*.npz"):
            kind, _, key = path.stem.rpartition("-")
            try:
                status = path.stat()
            except OSError:
                continue
            found.append(
                ArtifactEntry(
                    path=path,
                    kind=kind,
                    key=key,
                    size=status.st_size,
                    mtime=status.st_mtime,
                )
            )
        found.sort(key=lambda entry: (-entry.mtime, entry.path.name))
        return found

    def read_meta(self, entry: ArtifactEntry) -> dict | None:
        """Decoded metadata of one entry, ``None`` when undecodable."""
        try:
            meta, _ = self._decode(entry.path)
        except _DECODE_ERRORS:
            return None
        return meta

    def verify(
        self, repair: bool = False, stats=None
    ) -> tuple[list[ArtifactEntry], list[ArtifactEntry]]:
        """Fully decode every entry: ``(intact, corrupt)`` lists.

        An entry is intact when it decodes, passes its integrity digest
        and its stored envelope re-derives its own filename (so a renamed
        or mislabelled entry is flagged as corrupt as well).  With
        ``repair=True`` each corrupt entry is quarantined on the spot and
        the quarantine directory is drained afterwards -- the
        ``cache verify --repair`` behaviour.
        """
        intact, corrupt = [], []
        for entry in self.entries():
            meta = self.read_meta(entry)
            if meta is None:
                corrupt.append(entry)
                continue
            digest = meta.get("netlist", {}).get("digest", "")
            expected = artifact_key(digest, meta.get("kind", ""), meta.get("params", {}))
            if meta.get("kind") != entry.kind or expected != entry.key:
                corrupt.append(entry)
            else:
                intact.append(entry)
        if repair:
            for entry in corrupt:
                self.quarantine_entry(entry.path, stats=stats)
            self.drain_quarantine()
        return intact, corrupt

    def gc(self, max_bytes: int) -> list[ArtifactEntry]:
        """Evict least-recently-used entries until the store fits.

        Entries are kept newest-mtime-first while their cumulative size
        stays within ``max_bytes``; the rest are unlinked and returned.
        Loads refresh mtimes, so this is LRU, not FIFO.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        removed = []
        kept_bytes = 0
        for entry in self.entries():
            kept_bytes += entry.size
            if kept_bytes > max_bytes:
                try:
                    entry.path.unlink()
                except OSError:
                    continue
                removed.append(entry)
        return removed

    def total_bytes(self) -> int:
        """Cumulative size of every entry file."""
        return sum(entry.size for entry in self.entries())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArtifactStore({str(self.directory)!r})"
