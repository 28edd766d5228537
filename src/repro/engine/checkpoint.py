"""Crash-safe checkpointing: a write-ahead journal for group scores.

A Swiss-Prot-scale scan is hours of work, and PR 3's fault policy only
protects against *worker* failures — a SIGKILL, OOM kill or host reboot
of the process itself still threw away every completed group.  SWAPHI's
multi-pass database partitioning shows that chunked database scans are
the natural unit of recovery, and the engine's packed groups are exactly
that unit: deterministic (stable length sort, fixed group size) and
content-addressable (the packed code matrix hashes to a stable digest).

This module journals each completed group's score vector to an
append-only file as the search runs:

* every record is length-framed and CRC-checked, and the file is
  ``fsync``'d after each append, so a crash can only ever cost the
  record being written at that instant (a *torn tail*), never a
  completed one;
* the journal header carries a :func:`search_fingerprint` — a content
  hash of the query codes, substitution matrix, gap penalties, group
  geometry and database shape — and each group record carries a
  :func:`group_content_hash` of its packed lanes, so a stale journal
  (different query, edited database, changed penalties) is **rejected**
  with :class:`CheckpointError` instead of silently merged;
* on resume, :meth:`CheckpointJournal.resume` replays the journal,
  returns the completed group scores, and re-opens the file for append,
  so the engine recomputes only the remainder.

The failure contract: a torn tail record (the expected artifact of
``SIGKILL`` mid-write) is dropped with a warning and its group is
recomputed; everything else — bad magic, truncated or CRC-corrupt
header, CRC-corrupt complete records, fingerprint or per-group hash
mismatches — refuses cleanly with :class:`CheckpointError` so a wrong
journal can never contaminate scores.

:func:`atomic_replace` rounds the story out: final artifacts (score
tables, reports, ``.rdb`` stores) land via temp-file-plus-rename, so
readers never see a half-written result even if the process dies
mid-write.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import warnings
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, TYPE_CHECKING

import numpy as np

from repro.obs import current as obs_current

if TYPE_CHECKING:
    from repro.alphabet import GapPenalty, SubstitutionMatrix
    from repro.engine.pack import PackedGroup
    from repro.sequence.database import Database

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "atomic_replace",
    "atomic_write_text",
    "group_content_hash",
    "search_fingerprint",
]

#: Journal file magic: identifies format and version in one token.
MAGIC = b"RPROWAL1"

#: Record kinds.
_REC_HEADER = 1
_REC_GROUP = 2

#: Record frame: kind (u8) + payload length (u32, little-endian).
_FRAME = struct.Struct("<BI")
#: Trailer: CRC32 of the payload.
_CRC = struct.Struct("<I")
#: Group payload prefix: group index (u32) + lane count (u32).
_GROUP_PREFIX = struct.Struct("<II")

#: Bytes of the sha256 digest stored per group record.
_HASH_BYTES = 16


class CheckpointError(Exception):
    """A checkpoint journal cannot be trusted for this search.

    Raised on structural corruption (bad magic, truncated or
    CRC-corrupt records) and on content mismatches (the journal was
    written for a different query, database, scoring model or group
    geometry).  The refusal is deliberate: recomputing from scratch is
    always correct, merging a wrong journal never is.
    """


def search_fingerprint(
    query_codes: np.ndarray,
    matrix: "SubstitutionMatrix",
    gaps: "GapPenalty",
    group_size: int,
    db: "Database",
    *,
    budget_bytes: int = 0,
    engines: tuple[str, ...] = (),
    store_fingerprint: str = "",
) -> str:
    """Content hash identifying one search's journal-compatible inputs.

    Covers everything that determines the group decomposition and the
    scores: the encoded query, the substitution matrix (name *and*
    table — a retuned matrix under the same name must not match), the
    gap penalties, the group size, the memory budget (it changes the
    split), the database geometry and — when ``engines`` is non-empty —
    the per-group engine assignment.  A heterogeneous search passes one
    token per group (e.g. ``"striped"`` / ``"strips:512"``), so a
    journal written under one split threshold *refuses* to resume under
    another instead of silently scattering scores into a different
    group decomposition.  Per-group residue content is covered
    separately by :func:`group_content_hash`, record by record.

    ``store_fingerprint`` — the content sha256 of a pre-packed database
    store when the search runs against one — folds the store identity
    in, so a journal written against one build of a ``.rdb`` refuses to
    resume against a rebuilt (and possibly re-ordered) one.  It also
    means a journal written on the FASTA path does not match a
    store-backed search of the same database: conservative by design.
    """
    h = hashlib.sha256()
    h.update(MAGIC)
    h.update(np.ascontiguousarray(query_codes, dtype=np.uint8).tobytes())
    h.update(matrix.name.encode("utf-8", "replace"))
    h.update(matrix.scores.tobytes())
    h.update(matrix.alphabet.symbols.encode("utf-8", "replace"))
    h.update(struct.pack("<qqqq", gaps.rho, gaps.sigma, group_size,
                         budget_bytes))
    h.update(struct.pack("<q", len(db)))
    h.update(np.ascontiguousarray(db.lengths, dtype=np.int64).tobytes())
    if engines:
        h.update(b"engines:")
        h.update("\x1f".join(engines).encode("utf-8", "replace"))
    if store_fingerprint:
        h.update(b"store:")
        h.update(store_fingerprint.encode("ascii", "replace"))
    return h.hexdigest()


def group_content_hash(group: "PackedGroup") -> bytes:
    """16-byte content digest of one packed group's lanes.

    Hashes the member indices, true lengths and the padded code matrix,
    so any database edit that reaches this group — a changed residue, a
    reordered or replaced sequence — changes the digest and invalidates
    the journaled record for it.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(group.indices, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(group.lengths, dtype=np.int64).tobytes())
    h.update(group.codes.tobytes())
    return h.digest()[:_HASH_BYTES]


def _pack_record(kind: int, payload: bytes) -> bytes:
    return _FRAME.pack(kind, len(payload)) + payload + _CRC.pack(
        zlib.crc32(payload)
    )


class _TornTail(Exception):
    """Internal: the file ended mid-record (expected after SIGKILL)."""


def _read_record(buf: bytes, offset: int) -> tuple[int, bytes, int]:
    """Decode one record at ``offset``; returns (kind, payload, next).

    Raises :class:`_TornTail` when the buffer ends before the record
    completes and :class:`CheckpointError` when a *complete* record
    fails its CRC — the distinction between a crash artifact and real
    corruption.
    """
    if offset + _FRAME.size > len(buf):
        raise _TornTail
    kind, length = _FRAME.unpack_from(buf, offset)
    body_start = offset + _FRAME.size
    end = body_start + length + _CRC.size
    if end > len(buf):
        raise _TornTail
    payload = buf[body_start : body_start + length]
    (crc,) = _CRC.unpack_from(buf, body_start + length)
    if zlib.crc32(payload) != crc:
        raise CheckpointError(
            f"checkpoint record at byte {offset} fails its CRC check: "
            "the journal is corrupt (not merely truncated); refusing to "
            "resume from it"
        )
    return kind, payload, end


class CheckpointJournal:
    """Append-only, CRC-framed journal of completed group scores.

    Use :meth:`create` for a fresh search and :meth:`resume` to replay
    an existing journal; both return a journal open for appending.
    :meth:`append` writes and ``fsync``'s one group record;
    :meth:`close` releases the handle (records are already durable).
    """

    def __init__(self, path: Path, fh: IO[bytes], fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self._fh: IO[bytes] | None = fh

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, path: str | os.PathLike[str], fingerprint: str, n_groups: int
    ) -> "CheckpointJournal":
        """Start a fresh journal at ``path`` (truncating any old one)."""
        p = Path(path)
        header = json.dumps(
            {"fingerprint": fingerprint, "n_groups": n_groups}
        ).encode("ascii")
        fh = open(p, "wb")
        fh.write(MAGIC)
        fh.write(_pack_record(_REC_HEADER, header))
        fh.flush()
        os.fsync(fh.fileno())
        return cls(p, fh, fingerprint)

    @classmethod
    def resume(
        cls,
        path: str | os.PathLike[str],
        fingerprint: str,
        groups: "list[PackedGroup]",
    ) -> tuple["CheckpointJournal", dict[int, np.ndarray]]:
        """Replay ``path`` and re-open it for appending.

        Returns the journal plus the completed scores keyed by group
        index.  A missing or empty file starts fresh (so ``--resume``
        is safe on the very first run).  Validation failures raise
        :class:`CheckpointError`; a torn tail record is dropped with a
        warning and counted as ``engine.checkpoint.torn_records_dropped``.
        """
        p = Path(path)
        if not p.exists() or p.stat().st_size == 0:
            return cls.create(p, fingerprint, len(groups)), {}
        buf = p.read_bytes()
        completed = cls._replay(buf, fingerprint, groups, p)
        instr = obs_current()
        instr.count("engine.checkpoint.groups_replayed", len(completed))
        fh = open(p, "ab")
        return cls(p, fh, fingerprint), completed

    @staticmethod
    def _replay(
        buf: bytes,
        fingerprint: str,
        groups: "list[PackedGroup]",
        path: Path,
    ) -> dict[int, np.ndarray]:
        if len(buf) < len(MAGIC) or buf[: len(MAGIC)] != MAGIC:
            raise CheckpointError(
                f"{path} is not a checkpoint journal (bad magic); "
                "refusing to resume from it"
            )
        offset = len(MAGIC)
        try:
            kind, payload, offset = _read_record(buf, offset)
        except _TornTail:
            raise CheckpointError(
                f"{path} has a truncated journal header: nothing can be "
                "replayed; delete it (or drop --resume) to start fresh"
            ) from None
        if kind != _REC_HEADER:
            raise CheckpointError(
                f"{path} does not start with a journal header record"
            )
        head = json.loads(payload.decode("ascii"))
        if head.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"{path} was written for a different search (query, "
                "database, scoring parameters or group geometry differ); "
                "refusing to merge it"
            )
        if head.get("n_groups") != len(groups):
            raise CheckpointError(
                f"{path} journals {head.get('n_groups')} groups but this "
                f"search packs {len(groups)}; refusing to merge it"
            )
        completed: dict[int, np.ndarray] = {}
        while offset < len(buf):
            try:
                kind, payload, offset = _read_record(buf, offset)
            except _TornTail:
                instr = obs_current()
                instr.count("engine.checkpoint.torn_records_dropped", 1)
                warnings.warn(
                    f"dropping torn tail record in {path} (the crash "
                    "artifact of an interrupted append); its group will "
                    "be recomputed",
                    UserWarning,
                    stacklevel=3,
                )
                break
            if kind != _REC_GROUP:
                raise CheckpointError(
                    f"unexpected record kind {kind} in {path}"
                )
            gi, n = _GROUP_PREFIX.unpack_from(payload, 0)
            if gi >= len(groups):
                raise CheckpointError(
                    f"{path} journals group {gi}, beyond this search's "
                    f"{len(groups)} groups; refusing to merge it"
                )
            body = payload[_GROUP_PREFIX.size :]
            digest = body[:_HASH_BYTES]
            scores = np.frombuffer(
                body[_HASH_BYTES:], dtype="<i8"
            ).astype(np.int64)
            if n != groups[gi].size or scores.size != n:
                raise CheckpointError(
                    f"{path} group {gi} journals {n} lanes but the "
                    f"packed group has {groups[gi].size}; refusing to "
                    "merge it"
                )
            if digest != group_content_hash(groups[gi]):
                raise CheckpointError(
                    f"{path} group {gi} content hash does not match the "
                    "packed database (stale or edited database); "
                    "refusing to merge it"
                )
            completed[gi] = scores
        return completed

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self, group_index: int, group: "PackedGroup", scores: np.ndarray
    ) -> None:
        """Durably journal one completed group's scores (fsync'd)."""
        if self._fh is None:
            raise ValueError("journal is closed")
        payload = (
            _GROUP_PREFIX.pack(group_index, int(scores.size))
            + group_content_hash(group)
            + np.ascontiguousarray(scores, dtype="<i8").tobytes()
        )
        self._fh.write(_pack_record(_REC_GROUP, payload))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        instr = obs_current()
        instr.count("engine.checkpoint.groups_journaled", 1)

    def close(self) -> None:
        """Release the file handle (appended records are already durable)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@contextmanager
def atomic_replace(path: str | os.PathLike[str]) -> Iterator[IO[bytes]]:
    """Yield a binary temp file that replaces ``path`` atomically.

    The temp file (``<name>.*.tmp``, in the target directory) is
    fsync'd, renamed over ``path``, and the directory fsync'd, so a
    SIGKILL at any instant leaves either the old file or the complete
    new one — never a torn write.  If the ``with`` body raises, the
    temp file is removed and the target is untouched.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent) or ".", prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        _fsync_dir(target.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        # Best-effort cleanup of the temp file while re-raising the real
        # error; the temp may already be renamed or gone.
        except OSError:  # repro-lint: disable=RPL105
            pass
        raise


def _fsync_dir(directory: Path) -> None:
    """fsync the directory so the rename itself is durable."""
    try:
        fd = os.open(str(directory) or ".", os.O_RDONLY)
    # Directories are not openable for fsync on every platform; the
    # rename is still atomic, only its durability window widens.
    except OSError:  # repro-lint: disable=RPL105
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: str | os.PathLike[str], text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8 via :func:`atomic_replace`."""
    with atomic_replace(path) as fh:
        fh.write(text.encode("utf-8"))
    return Path(path)
