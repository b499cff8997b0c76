"""The ``repro.snapshot/2`` container format.

A snapshot is two things:

* a **manifest** — one canonical-JSON document describing the complete VP
  state: kernel event queue, device registers, vCPU architectural state,
  ledger windows, and the guest-RAM page table;
* a **blob store** — content-addressed byte blobs (sha256 → bytes) holding
  guest-RAM pages and the compressed trace prefix.  RAM pages are sparse
  (all-zero pages are omitted) and deduplicated (identical pages share one
  blob), so a mostly-idle guest snapshots in a few kilobytes.

Canonical bytes are a format-level guarantee: the manifest serializes with
sorted keys and no whitespace, blobs are stored in sha order, and every
producer upstream (device ``snapshot_state`` methods, the kernel-heap
serializer) emits canonically ordered collections — so capturing the same
state twice yields bit-identical files and ``snapshot_id`` values
(DESIGN §16).

On-disk layout::

    b"RSNAP1\\n"
    u32 zlen | zlib(manifest canonical JSON)
    u32 blob count
    per blob, sorted by sha hex:
        64-byte ascii sha256 | u32 raw len | u32 zlen | zlib(bytes)
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Dict, Iterator, Optional, Tuple

MAGIC = b"RSNAP1\n"
FORMAT = "repro.snapshot/2"

#: guest-RAM serialization granularity (matches the fabric's DMI-promotion
#: page size, but the two are independent knobs)
PAGE_SIZE = 4096


class SnapshotError(RuntimeError):
    """Raised when state cannot be captured, serialized, or restored."""


def canonical_manifest_bytes(manifest: dict) -> bytes:
    """The manifest's canonical JSON encoding (sorted keys, no whitespace)."""
    try:
        return json.dumps(manifest, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"manifest is not JSON-serializable: {exc}") from exc


def manifest_digest(manifest: dict) -> str:
    """The snapshot id: sha256 over the canonical manifest bytes.

    RAM content is covered transitively — the manifest embeds the page
    table's blob hashes — so two snapshots share an id iff their entire
    state is identical.
    """
    return hashlib.sha256(canonical_manifest_bytes(manifest)).hexdigest()


def blob_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def split_pages(data, page_size: int = PAGE_SIZE) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(page_index, page_bytes)`` for every non-zero page."""
    zero = bytes(page_size)
    view = memoryview(data)
    for index in range((len(data) + page_size - 1) // page_size):
        page = bytes(view[index * page_size:(index + 1) * page_size])
        if page != zero[:len(page)]:
            yield index, page


def write_container(path: str, manifest: dict, blobs: Dict[str, bytes]) -> int:
    """Write one snapshot file; returns the number of bytes written."""
    manifest_bytes = canonical_manifest_bytes(manifest)
    out = bytearray()
    out += MAGIC
    packed = zlib.compress(manifest_bytes, 6)
    out += struct.pack(">I", len(packed))
    out += packed
    out += struct.pack(">I", len(blobs))
    for sha in sorted(blobs):
        data = blobs[sha]
        if blob_digest(data) != sha:
            raise SnapshotError(f"blob store corrupt: {sha} does not match its content")
        packed = zlib.compress(data, 6)
        out += sha.encode("ascii")
        out += struct.pack(">II", len(data), len(packed))
        out += packed
    with open(path, "wb") as stream:
        stream.write(out)
    return len(out)


def read_container(path: str) -> Tuple[dict, Dict[str, bytes]]:
    """Read a snapshot file back into ``(manifest, blobs)``."""
    with open(path, "rb") as stream:
        data = stream.read()
    if not data.startswith(MAGIC):
        raise SnapshotError(f"{path}: not a repro.snapshot container (bad magic)")
    offset = len(MAGIC)

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(data):
            raise SnapshotError(f"{path}: truncated container")
        chunk = data[offset:offset + count]
        offset += count
        return chunk

    (zlen,) = struct.unpack(">I", take(4))
    try:
        manifest = json.loads(zlib.decompress(take(zlen)).decode("utf-8"))
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError(f"{path}: manifest is not a JSON object")
    if manifest.get("format") != FORMAT:
        raise SnapshotError(
            f"{path}: unsupported snapshot format {manifest.get('format')!r} "
            f"(this reader understands {FORMAT})")
    (count,) = struct.unpack(">I", take(4))
    blobs: Dict[str, bytes] = {}
    for _ in range(count):
        sha = take(64).decode("ascii", errors="replace")
        raw_len, zlen = struct.unpack(">II", take(8))
        try:
            # Inflate at most one byte past the declared size, so a blob
            # cannot expand without bound before the length check fails.
            blob = zlib.decompressobj().decompress(take(zlen), raw_len + 1)
        except zlib.error as exc:
            raise SnapshotError(f"{path}: blob {sha} is corrupt: {exc}") from exc
        if len(blob) != raw_len or blob_digest(blob) != sha:
            raise SnapshotError(f"{path}: blob {sha} failed integrity check")
        blobs[sha] = blob
    return manifest, blobs


def encode_trace(entries) -> Optional[bytes]:
    """Compress a dispatch-trace prefix (list of (kind, time_ps, name))."""
    if not entries:
        return None
    lines = "\n".join(f"{kind}|{time_ps}|{name}"
                      for kind, time_ps, name in entries)
    return zlib.compress(lines.encode("utf-8"), 6)


def decode_trace(blob: bytes):
    """Inverse of :func:`encode_trace`."""
    entries = []
    for line in zlib.decompress(blob).decode("utf-8").splitlines():
        kind, time_ps, name = line.split("|", 2)
        entries.append((kind, int(time_ps), name))
    return entries
