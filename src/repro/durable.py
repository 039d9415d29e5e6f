"""Durable writes: the one module that knows how a file reaches disk.

An atomic publish (:func:`atomic_open`) shows readers and crash
survivors the old file or the new one, never a mix, even with racing
publishers.  A record append (:class:`Appender`) is one ``O_APPEND``
write on a held descriptor, so a crash can only tear the last line,
which :func:`read_records` can skip.  Process crashes only: no
``fsync``.  See ``docs/architecture.md``, Durability.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Any, Callable, Iterator, Optional, Union


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w") -> Iterator[Any]:
    """A temp file beside ``path`` (dirs created) that replaces it on a
    clean exit; any exception unlinks it and leaves ``path`` as is."""
    directory = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.chmod(tmp, 0o644)  # what a plain open() publishes, not 0600
        with os.fdopen(fd, mode, encoding=None if "b" in mode
                       else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: Union[str, bytes]) -> None:
    """Publish ``data`` as the whole content of ``path``."""
    with atomic_open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


class Appender:
    """Record appends to ``path`` through one held ``O_APPEND``
    descriptor: one ``os.write`` per record, write-through, so a crash
    tears at most the record in flight and readers see every record at
    once.

    The path (and its directory) is opened on the first write.  An
    owner that moves another inode into ``path`` (an atomic publish
    over it, a rotation away from it) calls :meth:`close` right after;
    the next write reopens the path.  Not thread-safe: owners serialise
    writes under their own lock.
    """

    _FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_APPEND
              | getattr(os, "O_CLOEXEC", 0))  # POSIX-only flag

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fd: Optional[int] = None

    def write(self, record: Union[str, bytes]) -> None:
        """Append ``record`` (newline included) in one write."""
        if self._fd is None:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            self._fd = os.open(self.path, self._FLAGS, 0o644)
        os.write(self._fd, record.encode("utf-8")
                 if isinstance(record, str) else record)

    def close(self) -> None:
        """Release the descriptor; the next write reopens ``path``."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def __del__(self) -> None:
        with contextlib.suppress(Exception):
            self.close()


def torn_tail(path: str) -> bool:
    """Whether existing ``path`` ends mid-line: an owner reopening it
    starts its first record with a newline, not joining the torn line."""
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return False
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) != b"\n"


def read_records(path: str, parse: Optional[Callable[[Any], Any]] = None,
                 on_corrupt: Optional[Callable[[int, Exception], None]]
                 = None) -> Iterator[Any]:
    """Yield ``parse(json.loads(line))`` per non-blank line.  A failing
    line goes to ``on_corrupt(lineno, exc)``, or raises without one."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if parse is not None:
                    record = parse(record)
            except Exception as exc:
                if on_corrupt is None:
                    raise
                on_corrupt(lineno, exc)
                continue
            yield record
