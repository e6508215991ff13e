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
regeneration.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import InvalidPath, InvariantError, PlanMismatch
from .grammar import ParseError, ParseErrorKind, serialize_code_entry
from .model import (
    ChangeRecord,
    ChangeSet,
    ChangeStatus,
    CodeEntry,
    Index,
    canonical_path,
)
from .tree import read_files
from .validator import RefResolver, sans_ext

_STATUS_RE = re.compile(r"^([AMD]|R\d*)$")


def content_digest(data: bytes) -> str:
    """The store's stable content hash: SHA-256 hex over raw bytes."""
    return hashlib.sha256(data).hexdigest()


def entry_digest(entry: CodeEntry) -> str:
    """SHA-256 hex over the entry's canonical line, UTF-8 encoded."""
    return hashlib.sha256(serialize_code_entry(entry).encode("utf-8")).hexdigest()


def parse_changeset(text: str) -> ChangeSet:
    """Parse the tab-separated change listing format.

    Raises:
        ParseError: unknown status letter, missing field, or duplicate path,
            with the offending line number.
    """
    records: list[ChangeRecord] = []
    seen: set[str] = set()
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
        records.append(record)
    return ChangeSet(tuple(records))


@dataclass(frozen=True)
class UpdatePlan:
    """The minimal index update implied by a change set.

    ``regenerate`` paths need fresh semantic content (added or modified
    files). ``ref_rewrites`` hosts are keyed by their pre-rename path;
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


def plan_update(index: Index, changes: ChangeSet) -> UpdatePlan:
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
            else:
                remove.append(rec.path)
        else:
            if rec.path not in entry_paths:
                warnings.append(f"no entry for renamed path {rec.path}; indexing {rec.new_path}")
                regenerate.append(rec.new_path or rec.path)
            else:
                rename_map[rec.path] = rec.new_path or rec.path

    remove_set = set(remove)
    rewrites: list[tuple[str, str, str]] = []
    if rename_map:
        renamed_refs = _rename_lookup(rename_map)
        for entry in index.code_entries:
            if entry.path in remove_set:
                continue
            for ref in entry.r:
                new_ref = renamed_refs.get(ref)
                if new_ref is not None and new_ref != ref:
                    rewrites.append((entry.path, ref, new_ref))

    regen_set = set(regenerate)
    final_paths = (entry_paths - remove_set - set(rename_map)) | set(
        rename_map.values()
    ) | regen_set
    resolver = RefResolver(final_paths)
    table_names = index.table_names()
    rewritten = {(host, old): new for host, old, new in rewrites}
    dangling: list[tuple[str, str]] = []
    for entry in index.code_entries:
        if entry.path in remove_set or entry.path in regen_set:
            continue  # removed, or about to be replaced by a draft
        final_host = rename_map.get(entry.path, entry.path)
        for ref in entry.r:
            ref = rewritten.get((entry.path, ref), ref)
            if not resolver.resolves(ref) and ref not in table_names:
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


class StalenessStore:
    """Persistent path to (content digest, entry digest) map.

    The line format is ``path\\t<hex>\\t<hex>``; either digest may be empty,
    and an empty content digest means the entry awaits regeneration.
    """

    def __init__(self, records: Mapping[str, tuple[str, str]] | None = None):
        self.records: dict[str, tuple[str, str]] = dict(records or {})

    @classmethod
    def load(cls, text: str) -> StalenessStore:
        records: dict[str, tuple[str, str]] = {}
        for line_no, raw in enumerate(text.split("\n"), start=1):
            line = raw.rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    line_no,
                    1,
                    ParseErrorKind.MALFORMED_CHANGE,
                    "store line must be path<TAB>digest<TAB>digest",
                )
            records[canonical_path(fields[0])] = (fields[1], fields[2])
        return cls(records)

    def dump(self) -> str:
        lines = [
            f"{path}\t{content}\t{entry}"
            for path, (content, entry) in sorted(self.records.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def set(self, path: str, content: str, entry: str) -> None:
        self.records[canonical_path(path)] = (content, entry)

    def get(self, path: str) -> tuple[str, str] | None:
        return self.records.get(path)

    def discard(self, path: str) -> None:
        self.records.pop(path, None)

    def mark_pending(self, path: str) -> None:
        """Flag a path so staleness detection keeps reporting it modified."""
        _, entry = self.records.get(path, ("", ""))
        self.records[canonical_path(path)] = ("", entry)

    def paths(self) -> frozenset[str]:
        return frozenset(self.records)


def detect_stale(
    store: StalenessStore,
    files: Iterable[tuple[str, str]],
    index: Index,
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


def apply_update(
    index: Index,
    plan: UpdatePlan,
    drafts: Mapping[str, CodeEntry] | None = None,
) -> Index:
    """Apply a plan, substituting supplied drafts for regenerated paths.

    Regenerate paths without a draft keep their old entry text (if any);
    ``commit_plan`` marks them pending in the staleness store, and prompt
    packs carry the regeneration to an external model. Applying the same plan
    twice with the same drafts is a no-op the second time.

    Raises:
        PlanMismatch: a draft names a path the plan does not regenerate, or
            carries an entry for a different path.
    """
    drafts = dict(drafts or {})
    regen_set = set(plan.regenerate)
    stray = set(drafts) - regen_set
    if stray:
        raise PlanMismatch(f"drafts supplied for unplanned paths: {sorted(stray)}")

    rewrites_by_host: dict[str, dict[str, str]] = {}
    for host, old_ref, new_ref in plan.ref_rewrites:
        rewrites_by_host.setdefault(host, {})[old_ref] = new_ref

    entries: list[CodeEntry] = []
    remove_set = set(plan.remove)
    for entry in index.code_entries:
        if entry.path in remove_set:
            continue
        mapping = rewrites_by_host.get(entry.path)
        if mapping:
            entry = dataclasses.replace(
                entry, r=tuple(mapping.get(ref, ref) for ref in entry.r)
            )
        new_path = plan.rename_map.get(entry.path)
        if new_path is not None:
            entry = dataclasses.replace(entry, path=new_path)
        entries.append(entry)

    by_path = {entry.path: i for i, entry in enumerate(entries)}
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
            by_path[path] = len(entries)
            entries.append(entry)
        else:
            entries[slot] = entry

    return Index(index.header, tuple(entries), index.table_entries)


def commit_plan(
    store: StalenessStore,
    plan: UpdatePlan,
    updated: Index,
    file_digests: Mapping[str, str],
    drafted: Iterable[str] = (),
) -> None:
    """Bring the store in line with an applied plan.

    ``file_digests`` supplies content digests where known; regenerated paths
    without a draft stay pending.
    """
    entry_map = updated.entry_map()
    drafted = set(drafted)
    for path in plan.remove:
        store.discard(path)
    for old, new in plan.rename_map.items():
        carried = store.get(old)
        store.discard(old)
        entry = entry_map.get(new)
        if entry is not None:
            content = file_digests.get(new, carried[0] if carried else "")
            store.set(new, content, entry_digest(entry))
    for path in plan.regenerate:
        entry = entry_map.get(path)
        if path in drafted and entry is not None:
            store.set(path, file_digests.get(path, ""), entry_digest(entry))
        else:
            store.mark_pending(path)


def collect_file_digests(
    root: str | os.PathLike[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> list[tuple[str, str]]:
    """Digest every file ``tree.read_files`` yields, for staleness detection.

    The walk is the one ``scaffold_repo`` drafts from, so detection sees the
    same files. Each file is read once, from the filesystem path the walk
    found, in walk order. Unreadable files are skipped with a logged
    warning; a root that is not a directory raises OSError.
    """
    return [
        (path, content_digest(data))
        for path, _, data in read_files(root, include_globs, exclude_globs)
    ]
