"""The :class:`Snapshot` object — an in-memory snapshot image.

A snapshot is a manifest (canonical JSON) plus a content-addressed blob
store.  Forked children implement copy-on-write sharing: a child starts
with an *empty* own blob store and a reference to its parent; blob lookup
walks the parent chain, and :meth:`poke_ram` writes land in the child's own
store, leaving siblings and the parent untouched.  :meth:`save` resolves
the full chain so files on disk are always standalone.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..telemetry import scope_registry
from .format import (
    FORMAT,
    SnapshotError,
    blob_digest,
    canonical_manifest_bytes,
    manifest_digest,
    read_container,
    write_container,
)


class Snapshot:
    """One captured VP state; immutable except through :meth:`poke_ram`."""

    def __init__(self, manifest: dict, blobs: Dict[str, bytes],
                 parent: Optional["Snapshot"] = None):
        if manifest.get("format") != FORMAT:
            raise SnapshotError(
                f"manifest format {manifest.get('format')!r} is not {FORMAT}")
        self.manifest = manifest
        self._blobs = blobs
        self._parent = parent

    # -- identity -----------------------------------------------------------
    @property
    def snapshot_id(self) -> str:
        """sha256 of the canonical manifest; covers RAM via its page hashes."""
        return manifest_digest(self.manifest)

    @property
    def partial(self) -> bool:
        return bool(self.manifest.get("partial"))

    @property
    def kind(self) -> str:
        return self.manifest["kind"]

    @property
    def sim_time_ps(self) -> int:
        return self.manifest["sim"]["now_ps"]

    # -- blob store ----------------------------------------------------------
    def blob(self, sha: str) -> bytes:
        """Resolve one blob, walking the copy-on-write parent chain."""
        node: Optional[Snapshot] = self
        while node is not None:
            data = node._blobs.get(sha)
            if data is not None:
                return data
            node = node._parent
        raise SnapshotError(f"snapshot {self.snapshot_id[:12]}: missing blob {sha}")

    def referenced_shas(self) -> List[str]:
        shas = list(self.manifest.get("ram", {}).get("pages", {}).values())
        trace = self.manifest.get("trace")
        if trace is not None:
            shas.append(trace["sha"])
        return shas

    def ram_bytes(self) -> bytes:
        """Materialize the full (dense) guest-RAM content."""
        ram = self.manifest["ram"]
        size, page_size = ram["size"], ram["page_size"]
        data = bytearray(size)
        for index_str, sha in ram["pages"].items():
            offset = int(index_str) * page_size
            page = self.blob(sha)
            data[offset:offset + len(page)] = page
        return bytes(data)

    # -- persistence ----------------------------------------------------------
    def save(self, path: str) -> int:
        """Write a standalone container file; returns bytes written."""
        blobs = {sha: self.blob(sha) for sha in self.referenced_shas()}
        written = write_container(path, self.manifest, blobs)
        registry = scope_registry()
        if registry is not None:
            registry.counter("snapshot.bytes").inc(written)
        return written

    @classmethod
    def load(cls, path: str) -> "Snapshot":
        manifest, blobs = read_container(path)
        return cls(manifest, blobs)

    # -- capture / restore (delegates; see capture.py / restore.py) -----------
    @classmethod
    def capture(cls, vp, trace=None) -> "Snapshot":
        from .capture import capture_platform
        return capture_platform(vp, trace=trace)

    def restore(self, software, config=None, kind: Optional[str] = None):
        from .restore import restore_platform
        return restore_platform(self, software, config=config, kind=kind)

    @classmethod
    def from_flight_bundle(cls, path: str) -> "Snapshot":
        from .flight import snapshot_from_flight_bundle
        return snapshot_from_flight_bundle(path)

    # -- forking ---------------------------------------------------------------
    def fork(self, count: int) -> List["Snapshot"]:
        """Branch ``count`` copy-on-write children off this snapshot.

        Each child gets a deep-copied manifest (so poke_ram diverges freely),
        lineage metadata pointing back here, and an empty own blob store
        backed by this snapshot's chain.
        """
        if count < 1:
            raise ValueError(f"fork count must be >= 1, got {count}")
        if self.partial:
            raise SnapshotError("cannot fork a partial (flight-bundle) snapshot")
        parent_id = self.snapshot_id
        children = []
        for index in range(count):
            manifest = json.loads(canonical_manifest_bytes(self.manifest).decode("utf-8"))
            manifest["lineage"] = {"parent": parent_id, "fork_index": index}
            children.append(Snapshot(manifest, {}, parent=self))
        registry = scope_registry()
        if registry is not None:
            registry.counter("fork.count").inc(count)
        return children

    def poke_ram(self, address: int, data: bytes) -> None:
        """Overwrite guest RAM in this snapshot image (copy-on-write).

        The divergent input injector for forked scenarios: siblings sharing
        the same parent see none of each other's pokes.
        """
        if self.partial:
            raise SnapshotError("cannot poke RAM of a partial snapshot")
        ram = self.manifest["ram"]
        size, page_size = ram["size"], ram["page_size"]
        if address < 0 or address + len(data) > size:
            raise SnapshotError(
                f"poke of {len(data)} bytes at 0x{address:x} outside RAM of {size} bytes")
        pages = ram["pages"]
        offset = 0
        while offset < len(data):
            index = (address + offset) // page_size
            page_offset = (address + offset) % page_size
            chunk = min(page_size - page_offset, len(data) - offset)
            page_len = min(page_size, size - index * page_size)
            sha = pages.get(str(index))
            page = bytearray(self.blob(sha)) if sha is not None else bytearray(page_len)
            if len(page) < page_len:
                page.extend(bytes(page_len - len(page)))
            page[page_offset:page_offset + chunk] = data[offset:offset + chunk]
            if any(page):
                new_sha = blob_digest(bytes(page))
                self._blobs[new_sha] = bytes(page)
                pages[str(index)] = new_sha
            else:
                pages.pop(str(index), None)
            offset += chunk

    def __repr__(self) -> str:
        flavor = "partial " if self.partial else ""
        return (f"Snapshot({flavor}{self.manifest.get('kind', '?')} "
                f"@ {self.sim_time_ps} ps, id={self.snapshot_id[:12]})")
