"""The eager staleness store, kept as the oracle for ``StalenessStore``.

This is the store as it was before rows were kept as read text: ``load``
splits every line into a ``(content, entry)`` tuple and a stat, and
``lines`` formats every row anew. It differs from that code in one way,
the path rule: every method canonicalises its path once, first (before,
``get``, ``discard`` and the lookup in ``mark_pending`` did not). Nothing
in ``src/`` uses it; ``tests/test_store.py`` holds the lazy store to the
same bytes, answers and errors.
"""

from __future__ import annotations

import os
from typing import Iterator, Mapping

from aoci.grammar import ParseError, ParseErrorKind
from aoci.incremental import stat_key
from aoci.model import canonical_path


class EagerStore:
    """Persistent path to (content digest, entry digest) map, with a stat
    cache beside the content digests.

    The line format is ``path\\t<hex>\\t<hex>[\\t<stat>]``; either digest may
    be empty, and an empty content digest means the entry awaits
    regeneration. ``stats`` maps a path to the ``stat_key`` its file had
    when the bytes behind its content digest were read (the optional 4th
    field). ``mtime_ns`` is the store file's own mtime at load; a recorded
    stat is trusted only while its mtime is strictly older (the racy rule),
    and a store not loaded from a file trusts none. ``started_ns`` is the
    file-system clock's time when this run began: ``observe`` records a
    stat only when its mtime is strictly older, so a stat that was racy when
    it was taken never enters the store, and a later write with a newer
    mtime cannot make it trusted. It is 0, recording no stat, until the
    caller sets it. ``index_digest`` is the
    digest of the index bytes the last update wrote, kept on a line with an
    empty path; empty when unknown.
    """

    def __init__(
        self,
        records: Mapping[str, tuple[str, str]] | None = None,
        index_digest: str = "",
        stats: Mapping[str, str] | None = None,
        mtime_ns: int = 0,
    ):
        self.records: dict[str, tuple[str, str]] = dict(records or {})
        self.index_digest = index_digest
        self.stats: dict[str, str] = dict(stats or {})
        self.mtime_ns = mtime_ns
        self.started_ns = 0
        # path -> (content digest, stat key or "") of each file read in this run.
        self._observed: dict[str, tuple[str, str]] = {}

    @classmethod
    def load(cls, text: str, mtime_ns: int = 0) -> EagerStore:
        """Parse store text; ``mtime_ns`` is the store file's mtime."""
        records: dict[str, tuple[str, str]] = {}
        stats: dict[str, str] = {}
        index_digest = ""
        for line_no, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\r").split("\t")
            if len(fields) == 4:
                path, content, entry, stat = fields
            elif len(fields) == 3:
                path, content, entry = fields
                stat = ""
            else:
                raise ParseError(
                    line_no,
                    1,
                    ParseErrorKind.MALFORMED_CHANGE,
                    "store line must be path<TAB>digest<TAB>digest[<TAB>stat]",
                )
            if not path:
                index_digest = content
                continue
            path = canonical_path(path)
            records[path] = (content, entry)
            if stat:
                stats[path] = stat
        return cls(records, index_digest, stats, mtime_ns)

    def lines(self) -> Iterator[str]:
        """The store text, one newline-terminated line at a time, sorted."""
        if self.index_digest:
            yield f"\t{self.index_digest}\t\n"
        records, stats = self.records, self.stats
        for path in sorted(records):
            content, entry = records[path]
            stat = stats.get(path)
            if stat:
                yield f"{path}\t{content}\t{entry}\t{stat}\n"
            else:
                yield f"{path}\t{content}\t{entry}\n"

    def dump(self) -> str:
        return "".join(self.lines())

    def set(self, path: str, content: str, entry: str) -> None:
        """Record a row; it keeps a stat only when this run read ``content``
        from the file (see ``observe``)."""
        path = canonical_path(path)
        self.records[path] = (content, entry)
        observed = self._observed.get(path)
        if content and observed is not None and observed[0] == content and observed[1]:
            self.stats[path] = observed[1]
        else:
            self.stats.pop(path, None)

    def get(self, path: str) -> tuple[str, str] | None:
        return self.records.get(canonical_path(path))

    def discard(self, path: str) -> None:
        path = canonical_path(path)
        self.records.pop(path, None)
        self.stats.pop(path, None)

    def mark_pending(self, path: str) -> None:
        """Flag a path so staleness detection keeps reporting it modified."""
        path = canonical_path(path)
        _, entry = self.records.get(path, ("", ""))
        self.records[path] = ("", entry)
        self.stats.pop(path, None)

    def paths(self) -> frozenset[str]:
        return frozenset(self.records)

    def unchanged(self, path: str, st: os.stat_result) -> bool:
        """Whether the file at ``path``, stat'ed as ``st``, still holds the
        bytes of its recorded content digest.

        True only when the recorded stat equals ``st``, its mtime is strictly
        older than the store file's, and the digest is not pending.
        """
        path = canonical_path(path)
        stat = self.stats.get(path)
        return (
            stat is not None
            and st.st_mtime_ns < self.mtime_ns
            and stat == stat_key(st)
            and self.records[path][0] != ""
        )

    def observe(self, path: str, digest: str, st: os.stat_result) -> None:
        """Note that the file at ``path`` read as ``digest`` after it was
        stat'ed as ``st``.

        A row whose content digest equals ``digest`` takes the fresh stat at
        once (a touch); ``set`` gives it to a row later set to ``digest``. A
        stat whose mtime is not strictly older than ``started_ns`` is racy:
        the row keeps no stat, and the file is read again next time.
        """
        path = canonical_path(path)
        stat = stat_key(st) if st.st_mtime_ns < self.started_ns else ""
        self._observed[path] = (digest, stat)
        known = self.records.get(path)
        if known is not None and known[0] == digest:
            if stat:
                self.stats[path] = stat
            else:
                self.stats.pop(path, None)
