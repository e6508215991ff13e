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
make a racy stat trusted. Setting a row's digests drops its stat unless the
file was read with that content digest in the same run. One more line,
``\\t<index digest>\\t``, has an empty path field, which no file path can
take: it holds the SHA-256 of the index bytes the last update wrote. Index
bytes that match it are exactly the canonical text of a validated index, so
an update splices the changed lines into them (``scan_index``,
``apply_lines``) instead of parsing every entry; any other bytes are parsed
and validated in full first.

An update is one pass of each step over ``IndexLines.rows``, the map from
each entry's path to its canonical line: ``plan_update`` reads each line's
references once (``grammar.line_refs``), recording rename rewrites and the
references left dangling, and every host left dangling joins the paths to
regenerate, so the store marks it pending until a draft for it applies;
``apply_lines`` is the only applier (``apply_update`` runs it over an
``Index``'s canonical text); ``commit_plan`` brings the store in line.

A warm update holds each piece of its state once. The store keeps every row
as the text it was read as and splits a row only when it is read or
changed, so untouched rows are written back byte for byte. A file the store
vouches for by its stat is not read, and ``collect_file_digests`` gives it
no digest, not even a copy of the recorded one. ``aoci update`` writes the
new index a block at a time (``IndexLines.blocks``) and hashes each block
as it goes, so the whole text is never built to be written or digested.
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
    IndexLines,
    ParseError,
    ParseErrorKind,
    line_refs,
    parse_code_entry_line,
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


def _malformed(line_no: int, message: str) -> ParseError:
    return ParseError(line_no, 1, ParseErrorKind.MALFORMED_CHANGE, message)


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
            raise _malformed(line_no, f"unknown change status {status_text!r}")
        status = ChangeStatus(status_text[0])
        want = 3 if status is ChangeStatus.RENAMED else 2
        if len(fields) != want or any(not f.strip() for f in fields[1:]):
            raise _malformed(line_no, f"{status.name} record needs {want - 1} path field(s)")
        try:
            record = ChangeRecord(
                status=status,
                path=fields[1].strip(),
                new_path=fields[2].strip() if want == 3 else None,
            )
        except (InvalidPath, InvariantError) as exc:
            raise _malformed(line_no, str(exc)) from exc
        if record.path in seen:
            raise _malformed(line_no, f"duplicate path in change set: {record.path}")
        seen.add(record.path)
        target = record.new_path or record.path
        if target in targets:
            raise _malformed(
                line_no,
                f"{target} is also named on line {targets[target]}, "
                "and a rename target may appear in no other record",
            )
        targets[target] = line_no
        records.append(record)
    return ChangeSet(tuple(records))


@dataclass(frozen=True)
class UpdatePlan:
    """The minimal index update implied by a change set.

    ``regenerate`` paths need fresh semantic content: added or modified
    files, and every host ``dangling_after`` names. ``remove`` paths lose
    their entry, if any, and their store row. ``ref_rewrites`` hosts are
    keyed by their pre-rename path; ``regenerate`` and ``dangling_after``
    name post-rename paths, describing the applied index, so a dangling
    host lines up with validator rule E2 afterwards. A regenerated path may
    be a rename's old path only when it is also a rename's new path, as in
    a swap whose moved entry dangles.
    """

    regenerate: tuple[str, ...] = ()
    remove: tuple[str, ...] = ()
    rename_map: dict[str, str] = field(default_factory=dict)
    ref_rewrites: tuple[tuple[str, str, str], ...] = ()
    dangling_after: tuple[tuple[str, str], ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        regenerate, remove, renamed = set(self.regenerate), set(self.remove), set(self.rename_map)
        moved_away = renamed.difference(self.rename_map.values())
        for overlap in (regenerate & remove, regenerate & moved_away, remove & renamed):
            if overlap:
                raise InvariantError(f"plan groups overlap on {sorted(overlap)}")
        if self.ref_rewrites and not self.rename_map:
            raise InvariantError("ref rewrites are only produced by renames")

    @property
    def empty(self) -> bool:
        return not (self.regenerate or self.remove or self.rename_map)


def plan_update(index: IndexLines, changes: ChangeSet) -> UpdatePlan:
    """Compute the minimal plan: entries of unchanged files are listed only
    as rewrite hosts under a rename, or as hosts left dangling.

    A host whose reference no longer resolves after the update joins
    ``regenerate`` under its final path, so ``commit_plan`` marks it pending
    and a draft for it applies like any other.
    """
    rows = index.rows
    regenerate: list[str] = []
    remove: list[str] = []
    rename_map: dict[str, str] = {}
    warnings: list[str] = []

    for rec in changes.records:
        if rec.status is ChangeStatus.ADDED:
            if rec.path in rows:
                warnings.append(f"added path {rec.path} already has an entry")
            regenerate.append(rec.path)
        elif rec.status is ChangeStatus.MODIFIED:
            if rec.path not in rows:
                warnings.append(f"no entry for modified path {rec.path}")
            regenerate.append(rec.path)
        elif rec.status is ChangeStatus.DELETED:
            if rec.path not in rows:
                warnings.append(f"no entry for deleted path {rec.path}")
            remove.append(rec.path)
        else:
            if rec.path not in rows:
                warnings.append(f"no entry for renamed path {rec.path}; indexing {rec.new_path}")
                regenerate.append(rec.new_path or rec.path)
            else:
                rename_map[rec.path] = rec.new_path or rec.path

    remove_set = set(remove)
    regen_set = set(regenerate)
    renamed_refs = _rename_lookup(rename_map)
    resolver = RefResolver(
        (rows.keys() - remove_set - rename_map.keys()).union(rename_map.values(), regen_set)
    )
    table_names = index.table_names()
    rewrites: list[tuple[str, str, str]] = []
    dangling: list[tuple[str, str]] = []
    for path, line in rows.items():
        if path in remove_set:
            continue
        # A regenerated entry is about to be replaced by a draft, so only its
        # rewrites are recorded.
        check = path not in regen_set
        final_host = rename_map.get(path, path)
        for ref in line_refs(line):
            new_ref = renamed_refs.get(ref)
            if new_ref is not None and new_ref != ref:
                rewrites.append((path, ref, new_ref))
                ref = new_ref
            if check and not resolver.resolves(ref) and ref not in table_names:
                dangling.append((final_host, ref))

    regenerate.extend(dict.fromkeys(host for host, _ in dangling))
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
    regeneration. The stat is the ``stat_key`` the file had when the bytes
    behind its content digest were read (the optional 4th field). Each row
    is kept as the text it was read as, ``content\\tentry[\\tstat]`` under
    its canonical path, and split only when it is read or changed, so
    ``lines`` writes an untouched row back byte for byte. ``load`` brings a
    row to the form ``lines`` writes: line breaks, path spelling, an empty
    stat field and a repeated path. Every method takes a path in any
    spelling ``canonical_path`` accepts.

    ``mtime_ns`` is the store file's own mtime at load; a recorded stat is
    trusted only while its mtime is strictly older (the racy rule), and a
    store not loaded from a file trusts none. ``started_ns`` is the
    file-system clock's time when this run began: ``observe`` records a
    stat only when its mtime is strictly older, so a stat that was racy when
    it was taken never enters the store, and a later write with a newer
    mtime cannot make it trusted. It is 0, recording no stat, until the
    caller sets it. ``index_digest`` is the digest of the index bytes the
    last update wrote, kept on a line with an empty path; empty when
    unknown.
    """

    def __init__(
        self,
        records: Mapping[str, tuple[str, str]] | None = None,
        index_digest: str = "",
        stats: Mapping[str, str] | None = None,
        mtime_ns: int = 0,
    ):
        stats = stats or {}
        # canonical path -> "content\tentry[\tstat]"
        self._rows: dict[str, str] = {
            canonical_path(path): _row(content, entry, stats.get(path, ""))
            for path, (content, entry) in (records or {}).items()
        }
        self.index_digest = index_digest
        self.mtime_ns = mtime_ns
        self.started_ns = 0
        # path -> (content digest, stat key or "") of each file read in this run.
        self._observed: dict[str, tuple[str, str]] = {}

    @classmethod
    def load(cls, text: str, mtime_ns: int = 0) -> StalenessStore:
        """Parse store text; ``mtime_ns`` is the store file's mtime.

        A line is read as the text after its path; only a line that is not
        in the written form is rebuilt. A repeated path takes the later
        digests, and keeps the earlier stat when the later line has none.
        """
        store = cls(mtime_ns=mtime_ns)
        rows = store._rows
        for line_no, line in enumerate(text.split("\n"), start=1):
            if not line.strip():
                continue
            path, _, row = line.rstrip("\r").partition("\t")
            tabs = row.count("\t")
            if tabs not in (1, 2):
                raise ParseError(
                    line_no,
                    1,
                    ParseErrorKind.MALFORMED_CHANGE,
                    "store line must be path<TAB>digest<TAB>digest[<TAB>stat]",
                )
            if not path:
                store.index_digest = row.partition("\t")[0]
                continue
            path = canonical_path(path)
            if tabs == 2 and row.endswith("\t"):  # an empty stat field
                row, tabs = row[:-1], 1
            if tabs == 1 and path in rows:
                row = _row(*row.split("\t"), _stat(rows[path]))
            rows[path] = row
        return store

    def lines(self) -> Iterator[str]:
        """The store text, one newline-terminated line at a time, sorted."""
        if self.index_digest:
            yield f"\t{self.index_digest}\t\n"
        rows = self._rows
        for path in sorted(rows):
            yield f"{path}\t{rows[path]}\n"

    def dump(self) -> str:
        return "".join(self.lines())

    def set(self, path: str, content: str, entry: str) -> None:
        """Record a row; it keeps a stat only when this run read ``content``
        from the file (see ``observe``)."""
        path = canonical_path(path)
        observed = self._observed.get(path)
        keep = content and observed is not None and observed[0] == content
        self._rows[path] = _row(content, entry, observed[1] if keep else "")

    def get(self, path: str) -> tuple[str, str] | None:
        row = self._rows.get(canonical_path(path))
        if row is None:
            return None
        content, entry = row.split("\t")[:2]
        return content, entry

    def discard(self, path: str) -> None:
        self._rows.pop(canonical_path(path), None)

    def mark_pending(self, path: str) -> None:
        """Flag a path so staleness detection keeps reporting it modified."""
        path = canonical_path(path)
        entry = self._rows.get(path, "\t").split("\t")[1]
        self._rows[path] = _row("", entry, "")

    def paths(self) -> frozenset[str]:
        return frozenset(self._rows)

    def unchanged(self, path: str, st: os.stat_result) -> bool:
        """Whether the file at ``path``, stat'ed as ``st``, still holds the
        bytes of its recorded content digest.

        True only when the recorded stat equals ``st``, its mtime is strictly
        older than the store file's, and the row is not pending.
        """
        row = self._rows.get(canonical_path(path))
        return (
            row is not None
            and st.st_mtime_ns < self.mtime_ns
            and not row.startswith("\t")
            and _stat(row) == stat_key(st)
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
        row = self._rows.get(path)
        if row is not None and row.partition("\t")[0] == digest:
            self._rows[path] = _row(*row.split("\t")[:2], stat)


def _row(content: str, entry: str, stat: str) -> str:
    """A store row after its path: the stat field only when there is one."""
    return f"{content}\t{entry}\t{stat}" if stat else f"{content}\t{entry}"


def _stat(row: str) -> str:
    """The stat field of a store row, empty when it has none."""
    fields = row.split("\t")
    return fields[2] if len(fields) == 3 else ""


def detect_stale(
    store: StalenessStore,
    files: Iterable[tuple[str, str | None]],
    index: IndexLines,
) -> ChangeSet:
    """Synthesize a change set by comparing file digests against the store.

    Digest mismatches become Modified, files the store has never seen become
    Added (or Modified when the index already carries an entry, which says
    the store is stale rather than the file new), and store records without
    a file become Deleted. A file whose digest is None is one the store
    vouched for (see ``collect_file_digests``), so it is not compared.
    """
    seen: dict[str, str | None] = {}
    for path, digest in files:
        seen[canonical_path(path)] = digest
    records: list[ChangeRecord] = []
    for path in sorted(seen):
        digest = seen[path]
        if digest is None:
            continue
        known = store.get(path)
        if known is None:
            status = ChangeStatus.MODIFIED if path in index.rows else ChangeStatus.ADDED
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

    This is the one applier, and it builds the new rows in one pass. Only
    the lines of renamed entries and rewrite hosts are parsed, each into a
    ``CodeEntry`` rebuilt once per change; they and the drafts are
    serialized anew, and every other line is kept byte for byte. A draft
    replaces its path's line in place, or is appended.
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

    rows: dict[str, str] = {}
    remove_set = set(plan.remove)
    # Paths two rows end on, in order, and how many rows were held when the
    # first was met: that error is raised after the rename and draft errors.
    duplicates: dict[str, None] = {}
    duplicate_at: int | None = None
    for path, line in lines.rows.items():
        if path in remove_set:
            continue
        mapping = rewrites_by_host.get(path)
        new_path = plan.rename_map.get(path)
        if mapping or new_path is not None:
            entry = parse_code_entry_line(line, dictionary)
            # The rewrite is built under the old path first, so a rejected
            # reference is reported before a rejected path.
            if mapping:
                entry = dataclasses.replace(entry, r=tuple(mapping.get(r, r) for r in entry.r))
            if new_path is not None:
                entry = dataclasses.replace(entry, path=new_path)
            path, line = entry.path, serialize_code_entry(entry)
        if path not in rows:
            rows[path] = line
            continue
        if not duplicates:
            duplicate_at = len(rows)
        duplicates[path] = None

    drafted: dict[str, CodeEntry] = {}
    for path in plan.regenerate:
        entry = drafts.get(path)
        if entry is None:
            continue
        if entry.path != path:
            raise PlanMismatch(f"draft for {path} carries entry path {entry.path}")
        rows[path] = serialize_code_entry(entry)
        drafted[path] = entry

    # The Index invariants, in row order. Kept rows, renamed or not, keep a
    # tag that fits the dictionary, so only drafts need the tag check; a
    # draft on any path two rows end on sits at its later row, which comes
    # at or after the first duplicate.
    for at, path in enumerate(rows):
        if at == duplicate_at:
            break
        if path in drafted and path not in duplicates:
            check_entry_tag(drafted[path], dictionary)
    if duplicates:
        raise InvariantError(f"duplicate code entry path: {next(iter(duplicates))}")
    return dataclasses.replace(lines, rows=rows)


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

    ``file_digests`` supplies content digests where known; only regenerated
    and renamed paths are looked up in it. Regenerated paths without a draft
    stay pending, and so does a renamed path whose row was pending. The
    entry digest of a renamed or drafted path is the digest of its line in
    ``updated``, which is ``entry_digest`` of the entry the line holds.
    """
    rows = updated.rows
    drafted = set(drafted)
    carried = {old: store.get(old) for old in plan.rename_map}
    for path in (*plan.remove, *plan.rename_map):
        store.discard(path)
    for old, new in plan.rename_map.items():
        row = carried[old]
        pending = row is not None and not row[0]
        content = "" if pending else file_digests.get(new, row[0] if row else "")
        store.set(new, content, content_digest(rows[new].encode("utf-8")))
    for path in plan.regenerate:
        line = rows.get(path)
        if path in drafted and line is not None:
            store.set(path, file_digests.get(path, ""), content_digest(line.encode("utf-8")))
        else:
            store.mark_pending(path)


def collect_file_digests(
    root: str | os.PathLike[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
    store: StalenessStore | None = None,
) -> list[tuple[str, str | None]]:
    """Digest every file ``tree.walk_files`` lists, for ``update``.

    The walk is the one ``scaffold_repo`` drafts from, so detection sees the
    same files; ``update --changes`` passes the paths ``commit_plan`` stores
    afresh (drafted and renamed-to), escaped, as include globs. One ``(path,
    digest)`` pair comes out per walked file, in walk order. With a ``store``, a file ``tree.stat_read`` finds
    ``store.unchanged`` is not read, and its digest is None: the store
    vouches that the file still holds the bytes of its recorded digest, and
    no copy of that digest is made. Every other file is read once, from the
    filesystem path the walk found, and its digest and stat go to
    ``store.observe``. Unreadable files are skipped with a logged warning; a
    root that is not a directory raises OSError.
    """
    unchanged = None if store is None else store.unchanged
    out: list[tuple[str, str | None]] = []
    for path, _, st, data in stat_read(walk_files(root, include_globs, exclude_globs), unchanged):
        if data is None:  # only with a store, which vouched for its digest
            out.append((path, None))
            continue
        digest = content_digest(data)
        out.append((path, digest))
        if store is not None:
            store.observe(path, digest, st)
    return out
