"""A small persistent hash map.  No engine code uses it: the trigger
index it once held is the object headers now (DESIGN §17 "The header is
the index").  It is kept only for the benchmark's ``perf/micro.py`` and
``perf/trace.py``, which import it, until the benchmark stops doing so.

Keys are strings without NUL, values anything
:mod:`repro.objects.serialize` encodes.  Entries are spread over a fixed
number of bucket records so that updates touch (and lock) only one bucket,
not the whole map.

Layout: the catalog stores ``pmap:<name>`` -> header rid.  The header
record is a packed ``<q`` array of bucket rids (-1 = bucket not yet
allocated).  A bucket record is::

    <II        entry count, key-block length
    key block  the keys, UTF-8, joined by NUL
    <I * count offset of each key's value in the record
    values     the tagged values, in key order

so a point lookup splits the key block and decodes one value — never the
whole bucket.

A map remembers the rids that never change once committed: its header's
(the catalog entry) and each allocated bucket's (a header slot; -1 is
never remembered).  Maps are never dropped and buckets never freed, so a
committed rid stays right for the life of the open database.  A rid is
learned only from a read made under a shared lock this transaction holds
— proof that no writer is in flight and the value is committed — never
from this transaction's own ``catalog_set`` or bucket allocation, which
hold an exclusive lock and may still abort.  With its bucket known,
``get`` reads just the bucket and ``put`` skips the header.  What is kept
is a few ints per map, nothing decoded (DESIGN §17).
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from repro.errors import SerializationError
from repro.objects.serialize import decode_value, encode_value
from repro.storage.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction

_RID = struct.Struct("<q")
_OFFSET = struct.Struct("<I")
_BUCKET_HEAD = struct.Struct("<II")


def _pack_header(buckets: list[int]) -> bytes:
    return struct.pack(f"<{len(buckets)}q", *buckets)


def _encode(value: Any) -> bytes:
    out = bytearray()
    encode_value(value, out)
    return bytes(out)


def _split_bucket(raw: bytes) -> tuple[list[bytes], list[bytes]]:
    """A bucket record as (UTF-8 keys, encoded values), nothing decoded."""
    count, key_len = _BUCKET_HEAD.unpack_from(raw)
    if not count:
        return [], []
    table = _BUCKET_HEAD.size + key_len
    keys = raw[_BUCKET_HEAD.size : table].split(b"\0")
    bounds = struct.unpack_from(f"<{count}I", raw, table) + (len(raw),)
    return keys, [raw[bounds[i] : bounds[i + 1]] for i in range(count)]


def _join_bucket(keys: list[bytes], values: list[bytes]) -> bytes:
    block = b"\0".join(keys)
    count = len(keys)
    offsets = []
    pos = _BUCKET_HEAD.size + len(block) + _OFFSET.size * count
    for value in values:
        offsets.append(pos)
        pos += len(value)
    return b"".join(
        [
            _BUCKET_HEAD.pack(count, len(block)),
            block,
            struct.pack(f"<{count}I", *offsets),
            *values,
        ]
    )


class PersistentMap:
    """A bucketed, transactional string-keyed map inside a database."""

    def __init__(self, db: "Database", name: str, bucket_count: int = 16):
        self.db = db
        self.name = name
        self.bucket_count = bucket_count
        self._catalog_key = f"pmap:{name}"
        # Committed, write-once rids (see the module docstring).
        self._known_header: int | None = None
        self._known_buckets: dict[int, int] = {}

    def _committed(self, txn: "Transaction", rid: int) -> bool:
        """Whether *txn* holds a shared lock on *rid*: what it read there
        is committed, and nobody can be changing it."""
        return self.db.storage.lock_manager.mode_held(txn.txid, rid) is LockMode.S

    # -- header management ---------------------------------------------------

    def _header_rid(self, txn: "Transaction", *, create: bool) -> int | None:
        rid = self._known_header
        if rid is not None:
            return rid
        rid = self.db.catalog_get(self._catalog_key)
        if rid is None:
            if create:
                buckets = [-1] * self.bucket_count
                rid = self.db.storage.insert(txn.txid, _pack_header(buckets))
                self.db.catalog_set(txn, self._catalog_key, rid)
        elif self._committed(txn, self.db.catalog_rid):
            self._known_header = rid
        return rid

    def _bucket_rid(self, txn: "Transaction", key: str) -> int:
        """The rid of *key*'s bucket; -1 when it (or the map) does not exist."""
        index = self._bucket_for(key)
        rid = self._known_buckets.get(index)
        if rid is not None:
            return rid
        header_rid = self._header_rid(txn, create=False)
        if header_rid is None:
            return -1
        return self._buckets(txn, header_rid)[index]

    def _bucket_for(self, key: str) -> int:
        return zlib.crc32(key.encode("utf-8")) % self.bucket_count

    def rids(self, txn: "Transaction") -> set[int]:
        """The header and bucket rids backing this map (empty before the
        first ``put``)."""
        header_rid = self._header_rid(txn, create=False)
        if header_rid is None:
            return set()
        buckets = self._buckets(txn, header_rid)
        return {header_rid} | {rid for rid in buckets if rid >= 0}

    def _buckets(self, txn: "Transaction", header_rid: int) -> list[int]:
        """The header's bucket rids, remembering the allocated ones when
        the read was made under a shared lock."""
        raw = self.db.storage.read(txn.txid, header_rid)
        buckets = list(struct.unpack(f"<{len(raw) // _RID.size}q", raw))
        known = self._known_buckets
        new = {i: rid for i, rid in enumerate(buckets) if rid >= 0 and i not in known}
        if new and self._committed(txn, header_rid):
            known.update(new)
        return buckets

    # -- operations --------------------------------------------------------------

    def get(self, txn: "Transaction", key: str, default: Any = None) -> Any:
        bucket_rid = self._bucket_rid(txn, key)
        if bucket_rid < 0:
            return default
        raw = self.db.storage.read(txn.txid, bucket_rid)
        count, key_len = _BUCKET_HEAD.unpack_from(raw)
        table = _BUCKET_HEAD.size + key_len
        keys = raw[_BUCKET_HEAD.size : table].split(b"\0")
        try:
            index = keys.index(key.encode("utf-8"))
        except ValueError:
            return default
        if index >= count:  # an empty bucket's key block splits to [b""]
            return default
        (offset,) = _OFFSET.unpack_from(raw, table + _OFFSET.size * index)
        value, _ = decode_value(raw, offset)
        return value

    def put(self, txn: "Transaction", key: str, value: Any) -> None:
        if "\0" in key:
            raise SerializationError(f"pmap keys cannot contain NUL: {key!r}")
        raw_key = key.encode("utf-8")
        encoded = _encode(value)
        index = self._bucket_for(key)
        bucket_rid = self._known_buckets.get(index, -1)
        if bucket_rid < 0:
            header_rid = self._header_rid(txn, create=True)
            buckets = self._buckets(txn, header_rid)
            bucket_rid = buckets[index]
            if bucket_rid < 0:
                bucket = _join_bucket([raw_key], [encoded])
                buckets[index] = self.db.storage.insert(txn.txid, bucket)
                self.db.storage.write(txn.txid, header_rid, _pack_header(buckets))
                return
        keys, values = _split_bucket(self.db.storage.read(txn.txid, bucket_rid))
        try:
            values[keys.index(raw_key)] = encoded
        except ValueError:
            keys.append(raw_key)
            values.append(encoded)
        self.db.storage.write(txn.txid, bucket_rid, _join_bucket(keys, values))

    def remove(self, txn: "Transaction", key: str) -> bool:
        """Delete *key*; returns whether it was present."""
        bucket_rid = self._bucket_rid(txn, key)
        if bucket_rid < 0:
            return False
        keys, values = _split_bucket(self.db.storage.read(txn.txid, bucket_rid))
        try:
            index = keys.index(key.encode("utf-8"))
        except ValueError:
            return False
        del keys[index], values[index]
        self.db.storage.write(txn.txid, bucket_rid, _join_bucket(keys, values))
        return True

    def items(self, txn: "Transaction") -> Iterator[tuple[str, Any]]:
        header_rid = self._header_rid(txn, create=False)
        if header_rid is None:
            return
        for bucket_rid in self._buckets(txn, header_rid):
            if bucket_rid < 0:
                continue
            keys, values = _split_bucket(self.db.storage.read(txn.txid, bucket_rid))
            for key, value in zip(keys, values):
                yield key.decode("utf-8"), decode_value(value, 0)[0]

    def keys(self, txn: "Transaction") -> list[str]:
        return [key for key, _ in self.items(txn)]

    def __len__(self) -> int:  # pragma: no cover - needs a txn; use count()
        raise TypeError("use PersistentMap.count(txn)")

    def count(self, txn: "Transaction") -> int:
        return sum(1 for _ in self.items(txn))
