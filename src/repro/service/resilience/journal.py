"""Write-ahead intent journal for crash-safe multi-file store puts.

A store put writes a temp file and renames it into place, and a
process can die between any two syscalls -- ``kill -9``, OOM, power
loss.  The journal makes the object write *recoverable*: before
touching anything, the writer persists a tiny **intent record** naming
the digest, the temp file it will write, and the final path; only after
the object is durably renamed into place is the intent retired.

On the next store open, :meth:`IntentJournal.recover` walks the
surviving intents and classifies each one:

``rolled_forward``
    The final object exists and validates (the crash happened after the
    rename, or a complete temp file was still on disk and could be
    renamed into place).  The entry is served as if the put completed.
``discarded``
    Neither a valid final object nor a valid temp file exists: the
    write never reached a consistent state, so its debris is deleted
    and the put simply never happened (content-addressed entries make
    this safe -- the next writer recreates identical bytes).

A final object that exists but fails validation is handed to the
caller's ``quarantine`` hook (never served, never silently unlinked),
and the intent's temp file -- if complete -- still rolls the entry
forward over it.

Intent files are one JSON object each, written atomically with fsync,
named ``<digest>.<pid>.json`` so concurrent writers of the same digest
never share a record.  A writer ``flock``s its record before the record
becomes visible and holds the lock until it retires the record, so
recovery -- which skips every record it cannot lock -- only ever settles
the intents of writers that are gone (the kernel drops a dead process's
locks), never a live put in another process.  All paths inside the
record are store-root relative: a store directory can be archived and
moved without breaking recovery.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional


def fsync_dir(path: Path) -> None:
    """fsync a directory so a rename inside it survives power loss.

    POSIX-only by nature; on platforms (or filesystems) where
    directories cannot be opened for fsync this is a silent no-op --
    the rename is still atomic, just not durability-ordered.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Path, text: str, fsync: bool = True) -> None:
    """Write ``text`` to ``path`` via same-directory temp + rename.

    With ``fsync`` (the default) the temp file is fsynced **before** the
    rename and the directory after it, so a rename that is visible is
    also durable: a reader can never observe an entry that a power loss
    would then un-write.  ``fsync=False`` is the fast path for tests and
    throwaway stores.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            fsync_dir(path.parent)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class IntentJournal:
    """The store's write-ahead journal, one intent file per in-flight put."""

    def __init__(self, root: Path, fsync: bool = True) -> None:
        self._root = Path(root)
        self._dir = self._root / "journal"
        self._fsync = fsync

    def pending(self):
        """The intent files currently on disk (crashed or in-flight puts)."""
        if not self._dir.is_dir():
            return []
        return sorted(self._dir.glob("*.json"))

    def _relative(self, path: Path) -> str:
        return os.path.relpath(path, self._root)

    @contextlib.contextmanager
    def intent(self, digest: str, final: Path, tmp: Path):
        """Journal one put: record the intent, yield, retire it.

        The caller performs the actual temp-write + rename inside the
        ``with`` block; the intent is removed only on success, so any
        crash inside the block leaves a record for :meth:`recover`.  The
        record is locked from before it becomes visible until it is
        retired (or the block raises), which tells recovery in another
        process that this put is still live.
        """
        self._dir.mkdir(parents=True, exist_ok=True)
        record = self._dir / f"{digest}.{os.getpid()}.json"
        text = json.dumps(
            {
                "digest": digest,
                "final": self._relative(final),
                "tmp": self._relative(tmp),
            }
        )
        fd, staged = tempfile.mkstemp(
            dir=str(self._dir), prefix=f".{record.name}.", suffix=".tmp"
        )
        with os.fdopen(fd, "w") as fh:
            try:
                # Locked before the rename makes it visible: recovery in
                # another process can never claim a live writer's intent.
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write(text)
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
                os.replace(staged, record)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(staged)
                raise
            if self._fsync:
                fsync_dir(self._dir)
            yield
            with contextlib.suppress(OSError):
                record.unlink()

    @staticmethod
    def _claim(record: Path):
        """Open and lock ``record`` unless a live writer still holds it.

        Returns the locked handle, or ``None`` when the record is gone
        or its put is still in flight (that writer retires it itself).
        """
        try:
            fh = open(record)
        except OSError:
            return None
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # The writer may have retired the record between the open
            # and the lock: only the record still at this path counts.
            if os.stat(record).st_ino == os.fstat(fh.fileno()).st_ino:
                return fh
        except OSError:
            pass
        fh.close()
        return None

    def recover(
        self,
        validate: Callable[[Path], bool],
        quarantine: Optional[Callable[[Path], None]] = None,
    ) -> Dict[str, int]:
        """Roll forward or discard every surviving intent.

        ``validate(path)`` decides whether a file is a complete, servable
        document; ``quarantine(path)`` receives a final object that
        exists but fails validation (a torn or corrupted entry that must
        never be served).  Returns the classification counters.
        """
        counts = {"rolled_forward": 0, "discarded": 0, "quarantined": 0}
        for record in self.pending():
            handle = self._claim(record)
            if handle is None:
                continue
            with handle:
                self._settle(record, handle, validate, quarantine, counts)
        return counts

    def _settle(self, record, handle, validate, quarantine, counts) -> None:
        """Roll one dead writer's intent forward or discard it."""
        try:
            meta = json.loads(handle.read())
            final = self._root / meta["final"]
            tmp = self._root / meta["tmp"]
        except (OSError, ValueError, KeyError, TypeError):
            # The intent record itself is torn: there is nothing it
            # can name reliably, so the put is discarded.
            with contextlib.suppress(OSError):
                record.unlink()
            counts["discarded"] += 1
            return

        if final.is_file() and not validate(final):
            # The final object is present but torn (a corruption
            # injected *after* the rename, or a non-atomic overwrite
            # by something else): never serve it.
            if quarantine is not None:
                quarantine(final)
            counts["quarantined"] += 1
        if final.is_file() and validate(final):
            counts["rolled_forward"] += 1
        elif tmp.is_file() and validate(tmp):
            # Crash landed between the temp write and the rename:
            # finish the job.  Should the temp file vanish first (a
            # filesystem that ignores flock lets a live writer race
            # us), that writer's put has landed.
            with contextlib.suppress(FileNotFoundError):
                os.replace(tmp, final)
            if self._fsync:
                fsync_dir(final.parent)
            counts["rolled_forward"] += 1
        else:
            with contextlib.suppress(OSError):
                tmp.unlink()
            counts["discarded"] += 1
        with contextlib.suppress(OSError):
            record.unlink()
