"""Incremental maintenance: touch only the entries of changed files.

A change set of k modified files turns into a plan that regenerates exactly
those k entries; everything else reserializes byte-identically. The one
deliberate exception is a rename, which rewrites the R references naming the
old path in other entries, because a reference records the filename itself.

Change listing format (one record per line, tab separated, byte-compatible
with version-control name-status output)::

    A\t<path>
    M\t<path>
    D\t<path>
    R<digits>\t<old>\t<new>

The staleness store persists one line per file, ``path\\t<content
digest>\\t<entry digest>``, where both digests are SHA-256 hex: the first
over the file's raw bytes, the second over the UTF-8 bytes of the entry's
canonical line. An empty content digest marks the entry as pending
regeneration. A row may carry a 4th field, ``size:mtime_ns:ctime_ns:inode``,
the stat its file had when the bytes behind the content digest were read
(the stat is always taken before the read). ``update --detect``, and
``--changes`` for the files it lists, re-reads a file only when its stat
differs from that field, when the field's mtime is not strictly older than
the store file's own mtime (git's racy-timestamp rule), or when the row is
pending; 3-field rows carry no stat and are always re-read. ``aoci update``
takes the file-system clock's time when it starts, just after taking its
lock, and records no stat whose mtime is at or after that time, because the
file may have changed in the same clock tick after its read. So every
stored stat is older than the store, and a later write of the store cannot
make a racy stat trusted. Setting a row's
digests drops its stat unless the file was read with that content digest in
the same run. One more line,
``\\t<index digest>\\t``, has an empty path
field, which no file path can take: it holds the SHA-256 of the index bytes
the last update wrote. Index bytes that match it are exactly the canonical
text of a validated index, so an update splices the changed lines into them
(``scan_index``, ``apply_lines``) instead of parsing every entry; any other
bytes are parsed and validated in full first.

An update is one pass of each step: ``plan_update`` walks the entries once,
recording rename rewrites and the references left dangling;
``apply_lines`` is the only applier (``apply_update`` runs it over an
``Index``'s canonical text); ``commit_plan`` brings the store in line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import InvalidPath, InvariantError, PlanMismatch
from .grammar import (
    CodeRow,
    IndexLines,
    ParseError,
    ParseErrorKind,
    code_line_fields,
    parse_index,
    scan_index,
    serialize_code_entry,
    serialize_index,
)
from .model import (
    ChangeRecord,
    ChangeSet,
    ChangeStatus,
    CodeEntry,
    Index,
    canonical_path,
    check_entry_tag,
)
from .tree import stat_read, walk_files
from .validator import RefResolver, sans_ext

_STATUS_RE = re.compile(r"^([AMD]|R[0-9]*)$")


def content_digest(data: bytes) -> str:
    """The store's stable content hash: SHA-256 hex over raw bytes."""
    return hashlib.sha256(data).hexdigest()


def entry_digest(entry: CodeEntry) -> str:
    """SHA-256 hex over the entry's canonical line, UTF-8 encoded."""
    return hashlib.sha256(serialize_code_entry(entry).encode("utf-8")).hexdigest()


def parse_changeset(text: str) -> ChangeSet:
    """Parse the tab-separated change listing format.

    A rename's new path may be no other record's path and no other rename's
    new path; it may be another rename's old path, so swaps and chains apply.

    Raises:
        ParseError: unknown status letter, missing field, duplicate path, or
            colliding rename target, with the offending line number.
    """
    records: list[ChangeRecord] = []
    seen: set[str] = set()
    # The path each record claims, by line: a rename's new path, else its path.
    targets: dict[str, int] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        status_text = fields[0].strip()
        if not _STATUS_RE.match(status_text):
            raise ParseError(
                line_no,
                1,
                ParseErrorKind.MALFORMED_CHANGE,
                f"unknown change status {status_text!r}",
            )
        status = ChangeStatus(status_text[0])
        want = 3 if status is ChangeStatus.RENAMED else 2
        if len(fields) != want or any(not f.strip() for f in fields[1:]):
            raise ParseError(
                line_no,
                1,
                ParseErrorKind.MALFORMED_CHANGE,
                f"{status.name} record needs {want - 1} path field(s)",
            )
        try:
            record = ChangeRecord(
                status=status,
                path=fields[1].strip(),
                new_path=fields[2].strip() if want == 3 else None,
            )
        except (InvalidPath, InvariantError) as exc:
            raise ParseError(line_no, 1, ParseErrorKind.MALFORMED_CHANGE, str(exc)) from exc
        if record.path in seen:
            raise ParseError(
                line_no,
                1,
                ParseErrorKind.MALFORMED_CHANGE,
                f"duplicate path in change set: {record.path}",
            )
        seen.add(record.path)
        target = record.new_path or record.path
        if target in targets:
            raise ParseError(
                line_no,
                1,
                ParseErrorKind.MALFORMED_CHANGE,
                f"{target} is also named on line {targets[target]}, "
                "and a rename target may appear in no other record",
            )
        targets[target] = line_no
        records.append(record)
    return ChangeSet(tuple(records))


@dataclass(frozen=True)
class UpdatePlan:
    """The minimal index update implied by a change set.

    ``regenerate`` paths need fresh semantic content (added or modified
    files). ``remove`` paths lose their entry, if any, and their store row.
    ``ref_rewrites`` hosts are keyed by their pre-rename path;
    ``dangling_after`` reports post-rename paths, describing the applied
    index, so it lines up with validator rule E2 afterwards.
    """

    regenerate: tuple[str, ...] = ()
    remove: tuple[str, ...] = ()
    rename_map: dict[str, str] = field(default_factory=dict)
    ref_rewrites: tuple[tuple[str, str, str], ...] = ()
    dangling_after: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        groups = [set(self.regenerate), set(self.remove), set(self.rename_map)]
        for i, left in enumerate(groups):
            for right in groups[i + 1 :]:
                if left & right:
                    raise InvariantError(
                        f"plan groups overlap on {sorted(left & right)}"
                    )
        if self.ref_rewrites and not self.rename_map:
            raise InvariantError("ref rewrites are only produced by renames")

    @property
    def empty(self) -> bool:
        return not (self.regenerate or self.remove or self.rename_map)


def plan_update(index: Index | IndexLines, changes: ChangeSet) -> UpdatePlan:
    """Compute the minimal plan: entries of unchanged files are never listed
    anywhere except as rewrite hosts under a rename."""
    entry_paths = index.code_paths()
    regenerate: list[str] = []
    remove: list[str] = []
    rename_map: dict[str, str] = {}
    warnings: list[str] = []

    for rec in changes.records:
        if rec.status is ChangeStatus.ADDED:
            if rec.path in entry_paths:
                warnings.append(f"added path {rec.path} already has an entry")
            regenerate.append(rec.path)
        elif rec.status is ChangeStatus.MODIFIED:
            if rec.path not in entry_paths:
                warnings.append(f"no entry for modified path {rec.path}")
            regenerate.append(rec.path)
        elif rec.status is ChangeStatus.DELETED:
            if rec.path not in entry_paths:
                warnings.append(f"no entry for deleted path {rec.path}")
            remove.append(rec.path)
        else:
            if rec.path not in entry_paths:
                warnings.append(f"no entry for renamed path {rec.path}; indexing {rec.new_path}")
                regenerate.append(rec.new_path or rec.path)
            else:
                rename_map[rec.path] = rec.new_path or rec.path

    remove_set = set(remove)
    regen_set = set(regenerate)
    renamed_refs = _rename_lookup(rename_map)
    final_paths = (entry_paths - remove_set - set(rename_map)) | set(
        rename_map.values()
    ) | regen_set
    resolver = RefResolver(final_paths)
    table_names = index.table_names()
    rewrites: list[tuple[str, str, str]] = []
    dangling: list[tuple[str, str]] = []
    for entry in index.code_entries:
        if entry.path in remove_set:
            continue
        # A regenerated entry is about to be replaced by a draft, so only its
        # rewrites are recorded.
        check = entry.path not in regen_set
        final_host = rename_map.get(entry.path, entry.path)
        for ref in entry.r:
            new_ref = renamed_refs.get(ref)
            if new_ref is not None and new_ref != ref:
                rewrites.append((entry.path, ref, new_ref))
                ref = new_ref
            if check and not resolver.resolves(ref) and ref not in table_names:
                dangling.append((final_host, ref))

    return UpdatePlan(
        regenerate=tuple(regenerate),
        remove=tuple(remove),
        rename_map=rename_map,
        ref_rewrites=tuple(rewrites),
        dangling_after=tuple(dangling),
        warnings=tuple(warnings),
    )


def _rename_lookup(rename_map: dict[str, str]) -> dict[str, str]:
    """Map each reference text a rename touches to its new text.

    Only references that denote the renamed file itself are rewritten: the
    exact old path maps to the new path, and the old path without its
    extension maps to the new path without its extension (or to the whole
    new path when that has none). A directory-prefix reference names the
    directory, which a file rename does not move; if every file under it
    goes away, the dangling check reports it instead.

    When several renames claim the same reference text, the first in
    ``rename_map`` order wins, and within one rename the exact path is
    claimed before the extension-less key.
    """
    lookup: dict[str, str] = {}
    for old, new in rename_map.items():
        lookup.setdefault(old, new)
        stem = sans_ext(old)
        if stem is not None:
            new_stem = sans_ext(new)
            lookup.setdefault(stem, new if new_stem is None else new_stem)
    return lookup


def stat_key(st: os.stat_result) -> str:
    """The store's stat field for a file: ``size:mtime_ns:ctime_ns:inode``."""
    return f"{st.st_size}:{st.st_mtime_ns}:{st.st_ctime_ns}:{st.st_ino}"


class StalenessStore:
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
    def load(cls, text: str, mtime_ns: int = 0) -> StalenessStore:
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
        return self.records.get(path)

    def discard(self, path: str) -> None:
        self.records.pop(path, None)
        self.stats.pop(path, None)

    def mark_pending(self, path: str) -> None:
        """Flag a path so staleness detection keeps reporting it modified."""
        _, entry = self.records.get(path, ("", ""))
        path = canonical_path(path)
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
        stat = stat_key(st) if st.st_mtime_ns < self.started_ns else ""
        self._observed[path] = (digest, stat)
        known = self.records.get(path)
        if known is not None and known[0] == digest:
            if stat:
                self.stats[path] = stat
            else:
                self.stats.pop(path, None)


def detect_stale(
    store: StalenessStore,
    files: Iterable[tuple[str, str]],
    index: Index | IndexLines,
) -> ChangeSet:
    """Synthesize a change set by comparing file digests against the store.

    Digest mismatches become Modified, files the store has never seen become
    Added (or Modified when the index already carries an entry, which says
    the store is stale rather than the file new), and store records without
    a file become Deleted.
    """
    seen: dict[str, str] = {}
    for path, digest in files:
        seen[canonical_path(path)] = digest
    entry_paths = index.code_paths()
    records: list[ChangeRecord] = []
    for path, digest in sorted(seen.items()):
        known = store.get(path)
        if known is None:
            status = ChangeStatus.MODIFIED if path in entry_paths else ChangeStatus.ADDED
            records.append(ChangeRecord(status, path))
        elif known[0] != digest:
            records.append(ChangeRecord(ChangeStatus.MODIFIED, path))
    for path in sorted(store.paths()):
        if path not in seen:
            records.append(ChangeRecord(ChangeStatus.DELETED, path))
    return ChangeSet(tuple(records))


def apply_lines(
    lines: IndexLines,
    plan: UpdatePlan,
    drafts: Mapping[str, CodeEntry] | None = None,
) -> IndexLines:
    """Apply a plan, substituting supplied drafts for regenerated paths.

    This is the one applier. Only the lines of renamed entries and rewrite
    hosts are parsed, each into one ``CodeEntry`` per change; they and the
    drafts are serialized anew, and every other line is kept byte for byte.
    ``lines`` must come from ``scan_index`` over canonical text, and the
    result's ``text()`` is ``serialize_index`` of the updated index. The
    errors are those of building an ``Index`` of the result, raised in the
    same order.

    Regenerate paths without a draft keep their old entry text (if any);
    ``commit_plan`` marks them pending in the staleness store, and prompt
    packs carry the regeneration to an external model. Applying the same plan
    twice with the same drafts is a no-op the second time.

    Raises:
        PlanMismatch: a draft names a path the plan does not regenerate, or
            carries an entry for a different path.
        InvariantError: a rename or rewrite gives a path or reference the
            entry grammar rejects, two entries end on one path, or a draft's
            tag does not fit the header dictionary.
    """
    dictionary = lines.header.dictionary
    drafts = dict(drafts or {})
    stray = set(drafts) - set(plan.regenerate)
    if stray:
        raise PlanMismatch(f"drafts supplied for unplanned paths: {sorted(stray)}")

    rewrites_by_host: dict[str, dict[str, str]] = {}
    for host, old_ref, new_ref in plan.ref_rewrites:
        rewrites_by_host.setdefault(host, {})[old_ref] = new_ref

    rows: list[CodeRow] = []
    remove_set = set(plan.remove)
    for row in lines.code_entries:
        if row.path in remove_set:
            continue
        mapping = rewrites_by_host.get(row.path)
        new_path = plan.rename_map.get(row.path)
        if mapping or new_path is not None:
            path, tag, decoded, f, r, a, s = code_line_fields(row.line, dictionary)
            if mapping:
                r = tuple(mapping.get(ref, ref) for ref in r)
                if new_path is not None:
                    # The rewrite is checked under the old path first, so a
                    # rejected reference is reported before a rejected path.
                    CodeEntry(path, tag, decoded, f, r, a, s)
            row = _code_row(CodeEntry(new_path or path, tag, decoded, f, r, a, s))
        rows.append(row)

    by_path = {row.path: i for i, row in enumerate(rows)}
    drafted: dict[int, CodeEntry] = {}
    for path in plan.regenerate:
        entry = drafts.get(path)
        if entry is None:
            continue
        if entry.path != path:
            raise PlanMismatch(
                f"draft for {path} carries entry path {entry.path}"
            )
        slot = by_path.get(path)
        if slot is None:
            slot = by_path[path] = len(rows)
            rows.append(_code_row(entry))
        else:
            rows[slot] = _code_row(entry)
        drafted[slot] = entry

    # The Index invariants. Kept rows, renamed or not, keep a tag that fits
    # the dictionary, so only drafts need the tag check.
    seen: set[str] = set()
    for i, row in enumerate(rows):
        if row.path in seen:
            raise InvariantError(f"duplicate code entry path: {row.path}")
        seen.add(row.path)
        if i in drafted:
            check_entry_tag(drafted[i], dictionary)
    return dataclasses.replace(lines, code_entries=tuple(rows))


def _code_row(entry: CodeEntry) -> CodeRow:
    return CodeRow(entry.path, entry.r, serialize_code_entry(entry))


def apply_update(
    index: Index,
    plan: UpdatePlan,
    drafts: Mapping[str, CodeEntry] | None = None,
) -> Index:
    """``apply_lines`` for an ``Index``: the same update and the same errors.

    The index goes through its canonical text, so this costs a serialize and
    a full parse; ``aoci update`` calls ``apply_lines`` directly.
    """
    return parse_index(apply_lines(scan_index(serialize_index(index)), plan, drafts).text())


def commit_plan(
    store: StalenessStore,
    plan: UpdatePlan,
    updated: IndexLines,
    file_digests: Mapping[str, str],
    drafted: Iterable[str] = (),
) -> None:
    """Bring the store in line with an applied plan.

    ``file_digests`` supplies content digests where known; regenerated paths
    without a draft stay pending. The entry digest of a renamed or drafted
    path is the digest of its line in ``updated``, which is ``entry_digest``
    of the entry the line holds.
    """
    lines = {row.path: row.line for row in updated.code_entries}
    drafted = set(drafted)
    for path in plan.remove:
        store.discard(path)
    for old, new in plan.rename_map.items():
        carried = store.get(old)
        store.discard(old)
        line = lines.get(new)
        if line is not None:
            content = file_digests.get(new, carried[0] if carried else "")
            store.set(new, content, content_digest(line.encode("utf-8")))
    for path in plan.regenerate:
        line = lines.get(path)
        if path in drafted and line is not None:
            store.set(path, file_digests.get(path, ""), content_digest(line.encode("utf-8")))
        else:
            store.mark_pending(path)


def collect_file_digests(
    root: str | os.PathLike[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
    store: StalenessStore | None = None,
) -> list[tuple[str, str]]:
    """Digest every file ``tree.walk_files`` lists, for ``update``.

    The walk is the one ``scaffold_repo`` drafts from, so detection sees the
    same files; ``update --changes`` passes the listed paths, escaped, as
    include globs. One ``(path, digest)`` pair comes out per walked file, in
    walk order. With a ``store``, a file ``tree.stat_read`` finds
    ``store.unchanged`` keeps its recorded digest unread; every other file
    is read once, from the filesystem path the walk found, and its digest
    and stat go to ``store.observe``. Unreadable files are skipped with a
    logged warning; a root that is not a directory raises OSError.
    """
    unchanged = None if store is None else store.unchanged
    out: list[tuple[str, str]] = []
    for path, _, st, data in stat_read(walk_files(root, include_globs, exclude_globs), unchanged):
        if data is None:  # only with a store, which vouched for its digest
            out.append((path, store.records[path][0]))
            continue
        digest = content_digest(data)
        out.append((path, digest))
        if store is not None:
            store.observe(path, digest, st)
    return out
