"""The stat cache of ``update --detect`` and the crash-safe ``update`` writes.

The store keeps each file's stat beside its content digest, and ``--detect``
re-reads a file only when its stat changed, when the recorded stat is racy
(its mtime is not strictly older than the store file's) or when its row is
pending. The cache may save reads; it must never change what ``--detect``
reports.
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from conftest import FIXTURES, index_lines, reference_apply_update
from aoci import incremental, tree
from aoci.cli import run
from aoci.grammar import (
    parse_code_entry_line,
    parse_index,
    scan_index,
    serialize_code_entry,
    serialize_index,
)
from aoci.incremental import (
    StalenessStore,
    collect_file_digests,
    commit_plan,
    content_digest,
    detect_stale,
    parse_changeset,
    plan_update,
    stat_key,
)
from aoci.model import ChangeRecord, ChangeSet, ChangeStatus
from aoci.validator import validate_index

HEADER = (
    "#AOCI 1\n#DIM A W=Middleware\n#DIM B A=Auth\n#DIM C 9,8,7,5,3,1\n"
    "#DIM E M=Medium\n@CODE\n"
)
# The index, its lock file and the store sit in the repository root.
OWN = ["idx.aoci", "idx.aoci.lock", "store.tsv"]
SECOND = 10**9


def draft(path: str, note: str = "drafted", refs=()) -> str:
    return f"{path}[WA9M]: F:file {path} | R:{','.join(refs) or '-'} | A:- | S:{note}"


def stats(store: StalenessStore) -> dict[str, str]:
    """Path -> recorded stat of every row that has one, read off the written
    store."""
    rows = (line.split("\t") for line in store.dump().splitlines())
    return {fields[0]: fields[3] for fields in rows if len(fields) == 4}


class Repo:
    """A repository root with its index and store, updated through the CLI."""

    def __init__(self, root: str, drafts: str):
        self.root = root
        self.drafts = drafts
        self.index = os.path.join(root, "idx.aoci")
        self.store = os.path.join(root, "store.tsv")
        # Aged mtimes: a second apart and far older than any store write.
        self.clock = time.time_ns() - 10_000 * SECOND
        os.makedirs(root, exist_ok=True)
        with open(self.index, "w", encoding="utf-8") as handle:
            handle.write(HEADER)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def age(self, name: str) -> None:
        """Give the file a fresh mtime from the past, as a touch long ago."""
        self.clock += SECOND
        os.utime(self.path(name), ns=(self.clock, self.clock))

    def write(self, name: str, data: bytes, aged: bool = True) -> None:
        os.makedirs(os.path.dirname(self.path(name)), exist_ok=True)
        with open(self.path(name), "wb") as handle:
            handle.write(data)
        if aged:
            self.age(name)

    def update(self, *args: str, drafts=()) -> tuple[int, tuple[ChangeRecord, ...] | None]:
        """Run ``update`` from the root with ``drafts`` as entry lines.

        Returns the exit code and the records ``detect_stale`` reported
        (None when it did not run). The plan the run made is kept as
        ``self.plan`` (None when it made none).
        """
        shutil.rmtree(self.drafts, ignore_errors=True)
        os.makedirs(self.drafts)
        for i, line in enumerate(drafts):
            with open(os.path.join(self.drafts, f"{i}.entry.txt"), "w", encoding="utf-8") as out:
                out.write(line + "\n")
        reported = []
        real = incremental.detect_stale
        real_plan = incremental.plan_update
        self.plan = None

        def recording(store, files, index):
            changes = real(store, files, index)
            reported.append(changes.records)
            return changes

        def planning(index, changes):
            self.plan = real_plan(index, changes)
            return self.plan

        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(self.root)
            patch.setattr(incremental, "detect_stale", recording)
            patch.setattr(incremental, "plan_update", planning)
            code = run(
                ["update", self.index, *args, "--store", self.store, "--drafts", self.drafts]
            )
        return code, reported[0] if reported else None

    def detect(self, drafts=()):
        return self.update("--detect", drafts=drafts)

    def load_store(self) -> StalenessStore:
        with open(self.store, encoding="utf-8") as handle:
            return StalenessStore.load(handle.read(), os.stat(self.store).st_mtime_ns)

    def pending(self) -> list[str]:
        """The store's pending paths, sorted."""
        if not os.path.exists(self.store):
            return []
        store = self.load_store()
        return sorted(path for path in store.paths() if not store.get(path)[0])

    def read_index(self) -> bytes:
        with open(self.index, "rb") as handle:
            return handle.read()

    def stripped_report(self) -> tuple[ChangeRecord, ...]:
        """What ``--detect`` reports from the current store with every stat
        stripped: each file read and compared by its digest."""
        text = ""
        if os.path.exists(self.store):
            with open(self.store, encoding="utf-8") as handle:
                text = handle.read()
        store = StalenessStore.load(
            "".join("\t".join(line.split("\t")[:3]) + "\n" for line in text.splitlines())
        )
        index = index_lines(parse_index(self.read_index()))
        return detect_stale(store, collect_file_digests(self.root, exclude_globs=OWN), index).records

    def opened_by(self, action):
        """The repository files ``action`` opens, counted by canonical path."""
        opened = collections.Counter()

        def counting_open(path, *args, **kwargs):
            opened[os.path.relpath(path, self.root).replace(os.sep, "/")] += 1
            return open(path, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree, "open", counting_open, raising=False)
            return opened, action()


def seeded(tmp_path, names=("a.go", "b.py", "d/c.go")) -> Repo:
    """A repository whose store holds a stat and an entry for every file."""
    repo = Repo(str(tmp_path / "repo"), str(tmp_path / "drafts"))
    for name in names:
        repo.write(name, f"package {name}\n".encode())
    code, reported = repo.detect([draft(name) for name in names])
    assert code == 0
    assert reported == tuple(ChangeRecord(ChangeStatus.ADDED, name) for name in sorted(names))
    assert sorted(stats(repo.load_store())) == sorted(names)
    return repo


def test_a_warm_detect_opens_only_the_files_whose_stat_changed(tmp_path):
    repo = seeded(tmp_path, ("a.go", "b.py", "d/c.go", "e.go", "f.go", "g.go"))
    repo.write("a.go", b"package a, modified\n")
    same = os.stat(repo.path("b.py"))
    repo.write("b.py", b"PACKAGE B.PY\n", aged=False)  # same size, same mtime
    os.utime(repo.path("b.py"), ns=(same.st_atime_ns, same.st_mtime_ns))
    repo.write("h.go", b"package h\n")
    os.remove(repo.path("e.go"))
    repo.age("f.go")  # a touch: new mtime, same bytes

    opened, (code, reported) = repo.opened_by(repo.detect)
    assert code == 0
    assert opened == collections.Counter(["a.go", "b.py", "f.go", "h.go"])
    assert reported == (
        ChangeRecord(ChangeStatus.MODIFIED, "a.go"),
        ChangeRecord(ChangeStatus.MODIFIED, "b.py"),
        ChangeRecord(ChangeStatus.ADDED, "h.go"),
        ChangeRecord(ChangeStatus.DELETED, "e.go"),
    )


def test_changes_opens_only_the_listed_files_whose_stat_changed(tmp_path):
    repo = seeded(tmp_path, ("a.go", "b.py", "d/c.go", "e.go", "f.go"))
    repo.write("a.go", b"package a, modified\n")
    repo.write("h.go", b"package h\n")
    os.makedirs(repo.path("g"))
    os.rename(repo.path("e.go"), repo.path("g/e.go"))
    changes = os.path.join(str(tmp_path), "changes.txt")
    with open(changes, "w", encoding="utf-8") as handle:
        handle.write("M\ta.go\nM\tb.py\nA\th.go\nR100\te.go\tg/e.go\n")

    # b.py is listed but untouched: its trusted stat spares the read.
    drafts = [draft(name) for name in ("a.go", "b.py", "h.go")]
    opened, (code, _) = repo.opened_by(lambda: repo.update("--changes", changes, drafts=drafts))
    assert code == 0
    assert opened == collections.Counter(["a.go", "g/e.go", "h.go"])
    # b.py was regenerated from its recorded digest, so it lost its stat.
    store = repo.load_store()
    assert store.get("b.py")[0] == content_digest(b"package b.py\n")
    assert "b.py" not in stats(store)

    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported) == (0, ())
    assert opened == collections.Counter(["b.py"])


def test_a_touch_is_not_reported_and_not_read_again(tmp_path):
    repo = seeded(tmp_path)
    repo.age("a.go")
    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported, opened) == (0, (), collections.Counter(["a.go"]))
    assert stats(repo.load_store())["a.go"] == stat_key(os.stat(repo.path("a.go")))

    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported, opened) == (0, (), collections.Counter())


def test_a_pending_row_is_reported_even_when_its_stat_matches(tmp_path):
    repo = seeded(tmp_path)
    with open(repo.store, encoding="utf-8") as handle:
        text = handle.read()
    row = next(line for line in text.splitlines() if line.startswith("a.go\t"))
    _, _, entry, stat = row.split("\t")
    text = text.replace(row, f"a.go\t\t{entry}\t{stat}")  # pending, stat left in place
    with open(repo.store, "w", encoding="utf-8") as handle:
        handle.write(text)
    store = StalenessStore.load(text)
    assert "a.go\t\t" in store.dump() and stats(store)["a.go"]

    opened, (code, reported) = repo.opened_by(repo.detect)
    assert code == 0
    assert reported == (ChangeRecord(ChangeStatus.MODIFIED, "a.go"),)
    assert opened == collections.Counter(["a.go"])


def test_a_three_field_store_loads_and_is_upgraded(tmp_path):
    repo = seeded(tmp_path)
    with open(repo.store, encoding="utf-8") as handle:
        text = handle.read()
    old = "".join(
        "\t".join(line.split("\t")[:3]) + "\n" for line in text.splitlines()
    )
    assert old != text
    with open(repo.store, "w", encoding="utf-8") as handle:
        handle.write(old)
    assert stats(StalenessStore.load(old)) == {}

    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported) == (0, ())
    assert opened == collections.Counter(["a.go", "b.py", "d/c.go"])
    with open(repo.store, encoding="utf-8") as handle:
        assert handle.read() == text

    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported, opened) == (0, (), collections.Counter())


def test_a_racy_stat_is_not_trusted(tmp_path):
    (tmp_path / "f.go").write_bytes(b"package f\n")
    st = os.stat(tmp_path / "f.go")
    stale = "0" * 64
    text = f"f.go\t{stale}\t\t{stat_key(st)}\n"
    # Recorded mtime equal to the store's: racy, so the file is read.
    racy = StalenessStore.load(text, st.st_mtime_ns)
    assert collect_file_digests(tmp_path, store=racy) == [("f.go", content_digest(b"package f\n"))]
    # Strictly older: trusted, so the file is not read and the store's
    # recorded digest stands (the pair carries no copy of it).
    trusted = StalenessStore.load(text, st.st_mtime_ns + 1)
    assert collect_file_digests(tmp_path, store=trusted) == [("f.go", None)]
    assert trusted.get("f.go") == (stale, "")
    # A store that was not loaded from a file trusts nothing.
    assert not StalenessStore({"f.go": (stale, "")}, stats={"f.go": stat_key(st)}).unchanged(
        "f.go", st
    )


def test_a_stat_taken_at_or_after_the_run_started_is_never_recorded(tmp_path):
    (tmp_path / "f.go").write_bytes(b"package f\n")
    st = os.stat(tmp_path / "f.go")
    digest = content_digest(b"package f\n")
    store = StalenessStore({"f.go": (digest, "e")}, stats={"f.go": "old"})
    for started_ns in (st.st_mtime_ns, st.st_mtime_ns - 1):
        store.started_ns = started_ns
        store.observe("f.go", digest, st)  # a touch, but racy: the old stat goes
        assert "f.go" not in stats(store)
        store.set("f.go", digest, "e2")  # the racy read gives no stat to set
        assert "f.go" not in stats(store)
    store.started_ns = st.st_mtime_ns + 1
    store.observe("f.go", digest, st)
    assert stats(store)["f.go"] == stat_key(st)


def test_a_racy_read_leaves_no_stat_for_a_later_write_to_trust(tmp_path):
    repo = seeded(tmp_path)
    # a.go changes in the clock tick of the run that reads it: its mtime is
    # not older than the run's start, however the clock is cut.
    repo.write("a.go", b"package A.GO\n", aged=False)
    ahead = time.time_ns() + 3600 * SECOND
    os.utime(repo.path("a.go"), ns=(ahead, ahead))
    code, reported = repo.detect([draft("a.go", "again")])
    assert (code, reported) == (0, (ChangeRecord(ChangeStatus.MODIFIED, "a.go"),))
    assert "a.go" not in stats(repo.load_store())

    # A --changes run that does not list a.go writes the store anew, with a
    # later mtime; a.go still has no stat, so the next --detect reads it.
    repo.write("b.py", b"package b, changed\n")
    listing = tmp_path / "changes.txt"
    listing.write_text("M\tb.py\n", encoding="utf-8")
    assert repo.update("--changes", str(listing), drafts=[draft("b.py", "again")])[0] == 0
    assert "a.go" not in stats(repo.load_store())
    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported, opened) == (0, (), collections.Counter(["a.go"]))

    # Once its mtime is older than a run's start, the read records its stat.
    repo.age("a.go")
    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported, opened) == (0, (), collections.Counter(["a.go"]))
    assert stats(repo.load_store())["a.go"] == stat_key(os.stat(repo.path("a.go")))


def test_setting_a_row_drops_its_stat_unless_this_run_read_that_content(tmp_path):
    for name in ("a.go", "b.go", "c.go"):
        (tmp_path / name).write_bytes(name.encode())
    st = {name: os.stat(tmp_path / name) for name in ("a.go", "b.go", "c.go")}
    started_ns = max(info.st_mtime_ns for info in st.values()) + 1
    store = StalenessStore(
        {name: (content_digest(name.encode()), "e") for name in st},
        stats={name: "old" for name in st},
    )
    store.started_ns = started_ns
    store.observe("b.go", content_digest(b"changed"), st["b.go"])
    assert stats(store)["b.go"] == "old"  # a changed file keeps the row's stat until set
    store.observe("a.go", content_digest(b"a.go"), st["a.go"])
    assert stats(store)["a.go"] == stat_key(st["a.go"])  # a touch takes the fresh stat
    store.set("a.go", content_digest(b"a.go"), "e2")
    assert stats(store)["a.go"] == stat_key(st["a.go"])
    store.set("a.go", content_digest(b"other"), "e3")
    assert "a.go" not in stats(store)
    store.mark_pending("b.go")
    assert "b.go" not in stats(store)
    store.discard("c.go")
    assert "c.go" not in stats(store) and store.get("c.go") is None

    # A rename keeps a stat only when the new path was read in this run.
    store = StalenessStore(
        {"a.go": ("ca", "e"), "b.go": ("cb", "e")}, stats={"a.go": "sa", "b.go": "sb"}
    )
    store.started_ns = started_ns
    store.observe("y.go", "cb", st["b.go"])
    lines = scan_index(HEADER + draft("x.go") + "\n" + draft("y.go") + "\n")
    plan = plan_update(
        scan_index(HEADER + draft("a.go") + "\n" + draft("b.go") + "\n"),
        parse_changeset("R100\ta.go\tx.go\nR100\tb.go\ty.go\n"),
    )
    commit_plan(store, plan, lines, {"y.go": "cb"})
    assert stats(store) == {"y.go": stat_key(st["b.go"])}
    assert store.get("x.go")[0] == "ca"


def test_changes_with_a_store_records_the_stats_of_the_files_it_digests(tmp_path):
    repo = seeded(tmp_path)
    repo.write("a.go", b"package a, changed\n")
    repo.write("n.go", b"package n\n")
    listing = tmp_path / "changes.txt"
    listing.write_text("M\ta.go\nA\tn.go\n", encoding="utf-8")
    code, _ = repo.update("--changes", str(listing), drafts=[draft("a.go", "again"), draft("n.go")])
    assert code == 0
    recorded = stats(repo.load_store())
    for name in ("a.go", "n.go"):
        assert recorded[name] == stat_key(os.stat(repo.path(name)))
    opened, (code, reported) = repo.opened_by(repo.detect)
    assert (code, reported, opened) == (0, (), collections.Counter())


def _changes(repo: Repo, tmp_path, listing: str, drafts=()):
    path = tmp_path / "changes.txt"
    path.write_text(listing, encoding="utf-8")
    return repo.update("--changes", str(path), drafts=drafts)


def test_a_rename_keeps_a_pending_row_pending(tmp_path):
    repo = seeded(tmp_path, ("a.go", "b.go"))
    repo.write("a.go", b"package a, edited\n")
    assert repo.detect() == (0, (ChangeRecord(ChangeStatus.MODIFIED, "a.go"),))
    assert repo.pending() == ["a.go"]
    os.rename(repo.path("a.go"), repo.path("c.go"))
    assert _changes(repo, tmp_path, "R100\ta.go\tc.go\n")[0] == 0
    # The entry moved, but it still describes the old bytes.
    assert "c.go[WA9M]: F:file a.go | R:- | A:- | S:drafted" in repo.read_index().decode()
    assert repo.pending() == ["c.go"]
    assert repo.detect() == (0, (ChangeRecord(ChangeStatus.MODIFIED, "c.go"),))


def test_a_deleted_reference_leaves_its_host_pending(tmp_path):
    repo = Repo(str(tmp_path / "repo"), str(tmp_path / "drafts"))
    for name in ("a.go", "x.go"):
        repo.write(name, f"package {name}\n".encode())
    assert repo.detect([draft("a.go", refs=["x.go"]), draft("x.go")])[0] == 0
    os.remove(repo.path("x.go"))
    assert _changes(repo, tmp_path, "D\tx.go\n") == (0, None)
    assert repo.pending() == ["a.go"]
    # Every later --detect reports it, until a draft for it applies.
    assert repo.detect() == (0, (ChangeRecord(ChangeStatus.MODIFIED, "a.go"),))
    assert repo.detect([draft("a.go", "redrafted")])[0] == 0
    assert repo.pending() == [] and repo.detect() == (0, ())


@pytest.mark.parametrize("mode", ["--detect", "--changes"])
def test_a_draft_for_a_host_left_dangling_applies_at_once(tmp_path, mode):
    repo = Repo(str(tmp_path / "repo"), str(tmp_path / "drafts"))
    for name in ("a.go", "x.go"):
        repo.write(name, f"package {name}\n".encode())
    assert repo.detect([draft("a.go", refs=["x.go"]), draft("x.go")])[0] == 0
    os.remove(repo.path("x.go"))
    redrafted = [draft("a.go", "redrafted")]
    if mode == "--detect":  # the store vouches for a.go, so it is not read
        assert repo.detect(redrafted) == (0, (ChangeRecord(ChangeStatus.DELETED, "x.go"),))
    else:
        assert _changes(repo, tmp_path, "D\tx.go\n", redrafted) == (0, None)
    assert repo.pending() == []
    assert repo.load_store().get("a.go")[0] == content_digest(b"package a.go\n")
    assert repo.detect() == (0, ())


def test_a_swap_whose_moved_entry_dangles_leaves_that_entry_pending(tmp_path):
    repo = Repo(str(tmp_path / "repo"), str(tmp_path / "drafts"))
    for name in ("a.go", "b.go", "x.go"):
        repo.write(name, f"package {name}\n".encode())
    assert repo.detect([draft("a.go", refs=["x.go"]), draft("b.go"), draft("x.go")])[0] == 0
    os.rename(repo.path("a.go"), repo.path("t.go"))
    os.rename(repo.path("b.go"), repo.path("a.go"))
    os.rename(repo.path("t.go"), repo.path("b.go"))
    os.remove(repo.path("x.go"))
    listing = "R100\ta.go\tb.go\nR100\tb.go\ta.go\nD\tx.go\n"
    assert _changes(repo, tmp_path, listing) == (0, None)
    text = repo.read_index().decode()
    assert "b.go[WA9M]: F:file a.go | R:x.go | A:- | S:drafted" in text
    assert "a.go[WA9M]: F:file b.go | R:- | A:- | S:drafted" in text
    assert repo.pending() == ["b.go"]
    assert repo.load_store().get("a.go")[0] == content_digest(b"package b.go\n")
    assert repo.detect() == (0, (ChangeRecord(ChangeStatus.MODIFIED, "b.go"),))
    assert repo.detect([draft("b.go", "redrafted")])[0] == 0
    assert repo.pending() == [] and repo.detect() == (0, ())


@pytest.mark.parametrize("mode", ["--detect", "--changes"])
def test_a_draft_whose_reference_resolves_to_no_entry_stays_pending(tmp_path, mode, capsys):
    repo = Repo(str(tmp_path / "repo"), str(tmp_path / "drafts"))
    for name in ("a.go", "x.go"):
        repo.write(name, f"package {name}\n".encode())
    assert repo.detect([draft("a.go"), draft("x.go")])[0] == 0
    repo.write("a.go", b"package a, edited\n")
    repo.write("n.go", b"package n\n")
    # n.go gets no draft, so it has no entry for a.go's draft to name.
    dangling = [draft("a.go", "redrafted", refs=["n.go", "x"])]
    if mode == "--detect":
        assert repo.detect(dangling)[0] == 0
    else:
        assert _changes(repo, tmp_path, "M\ta.go\nA\tn.go\n", dangling)[0] == 0
    err = capsys.readouterr().err
    assert "pending regeneration (its draft left dangling): a.go" in err
    assert "warning: dangling reference after update: a.go -> n.go" in err
    assert "S:redrafted" in repo.read_index().decode()
    assert repo.pending() == ["a.go", "n.go"]
    assert repo.detect([draft("a.go", "again", refs=["x"]), draft("n.go")])[0] == 0
    assert repo.pending() == [] and repo.detect() == (0, ())


@pytest.mark.parametrize("index_on_stdin", [False, True], ids=["index-file", "index-stdin"])
def test_a_file_changed_after_the_update_started_gets_no_stat(
    tmp_path, monkeypatch, capsys, index_on_stdin
):
    repo = seeded(tmp_path)
    ahead = time.time_ns() + 3600 * SECOND
    os.utime(repo.path("b.py"), ns=(ahead, ahead))  # a touch with a racy mtime
    real = incremental.collect_file_digests
    probe = tmp_path / "probe"
    probe.touch()

    def touching_before_the_walk(*args, **kwargs):
        os.utime(repo.path("d/c.go"))  # a touch while the update runs
        touched = os.stat(repo.path("d/c.go")).st_mtime_ns
        # Let the file-system clock pass the touch, so a start time read
        # after it would be newer than d/c.go.
        for _ in range(10_000):
            os.utime(probe)
            if os.stat(probe).st_mtime_ns > touched:
                break
            time.sleep(0.001)
        return real(*args, **kwargs)

    monkeypatch.setattr(incremental, "collect_file_digests", touching_before_the_walk)
    if index_on_stdin:
        with open(repo.index, "rb") as handle:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(handle.read())))
        monkeypatch.chdir(repo.root)
        assert run(["update", "-", "--detect", "--store", repo.store]) == 0
        assert capsys.readouterr().out.startswith("#AOCI 1\n")
    else:
        assert repo.detect() == (0, ())
    # With the index on stdin, idx.aoci is one more walked file.
    stored = repo.load_store()
    assert {"a.go", "b.py", "d/c.go"} <= stored.paths()
    assert "b.py" not in stats(stored) and "d/c.go" not in stats(stored)
    assert stats(stored)["a.go"] == stat_key(os.stat(repo.path("a.go")))


# ---------------------------------------------------------------------------
# Crash safety and the sidecar lock
# ---------------------------------------------------------------------------


def _crash_at_replace_of(monkeypatch, target: str) -> None:
    real = os.replace

    def replace(src, dst, *args, **kwargs):
        if os.path.realpath(dst) == os.path.realpath(target):
            raise OSError(f"injected crash replacing {dst}")
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", replace)


def _hidden_leftovers(root: str) -> list[str]:
    return sorted(name for name in os.listdir(root) if name.endswith(".tmp"))


def test_a_crash_at_the_index_replace_leaves_index_and_store_unchanged(tmp_path, monkeypatch):
    repo = seeded(tmp_path)
    repo.write("a.go", b"package a, modified\n")
    before = {path: Path(path).read_bytes() for path in (repo.index, repo.store)}
    _crash_at_replace_of(monkeypatch, repo.index)
    assert repo.detect([draft("a.go", "redrafted")])[0] == 3
    monkeypatch.undo()
    assert {path: Path(path).read_bytes() for path in before} == before
    assert _hidden_leftovers(repo.root) == []


def test_a_crash_at_the_store_replace_loses_no_change(tmp_path, monkeypatch):
    repo = seeded(tmp_path)
    repo.write("a.go", b"package a, modified\n")
    repo.write("n.go", b"package n\n")
    store_before = Path(repo.store).read_bytes()
    drafts = [draft("a.go", "redrafted"), draft("n.go")]
    _crash_at_replace_of(monkeypatch, repo.store)
    code, first = repo.detect(drafts)
    monkeypatch.undo()
    assert code == 3
    assert Path(repo.store).read_bytes() == store_before
    assert _hidden_leftovers(repo.root) == []
    assert "redrafted" in Path(repo.index).read_text(encoding="utf-8")

    # The same paths come back; n.go now has an entry, so it is modified.
    code, again = repo.detect(drafts)
    assert code == 0
    assert [r.path for r in again] == [r.path for r in first] == ["a.go", "n.go"]
    assert repo.detect() == (0, ())


def test_file_writes_keep_the_mode_and_write_through_a_symlink(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n", encoding="utf-8")
    real.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    assert run(["check", str(FIXTURES / "listing1.aoci"), "--report", str(link)]) == 0
    assert link.is_symlink() and real.read_text(encoding="utf-8") == "[]\n"
    assert real.stat().st_mode & 0o7777 == 0o640

    plain = tmp_path / "plain.txt"
    plain.write_text("", encoding="utf-8")
    fresh = tmp_path / "fresh.json"
    assert run(["check", str(FIXTURES / "listing1.aoci"), "--report", str(fresh)]) == 0
    assert fresh.stat().st_mode == plain.stat().st_mode
    assert _hidden_leftovers(str(tmp_path)) == []


def test_file_writes_go_in_place_to_a_pipe(tmp_path):
    import threading

    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(
        target=lambda: got.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    try:
        assert run(["check", str(FIXTURES / "listing1.aoci"), "--report", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == ["[]\n"] and fifo.is_fifo()


_HOLDER = """
import os, sys, time
from aoci import cli, incremental

ready, release = sys.argv[1], sys.argv[2]
plan_update = incremental.plan_update

def waiting_plan(*args):
    open(ready, "w").close()
    deadline = time.monotonic() + 60
    while not os.path.exists(release) and time.monotonic() < deadline:
        time.sleep(0.01)
    return plan_update(*args)

incremental.plan_update = waiting_plan
sys.exit(cli.run(sys.argv[3:]))
"""


def test_two_racing_updates_one_wins_and_one_reports_the_lock(tmp_path):
    import aoci

    repo = seeded(tmp_path)
    repo.write("a.go", b"package a, modified\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoci.__file__)))
    ready, release = tmp_path / "ready", tmp_path / "release"
    argv = ["update", repo.index, "--detect", "--store", repo.store]
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLDER, str(ready), str(release), *argv],
        cwd=repo.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not ready.exists() and holder.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ready.exists(), holder.communicate(timeout=60)
        loser = subprocess.run(
            [sys.executable, "-m", "aoci", *argv],
            cwd=repo.root, env=env, capture_output=True, text=True, timeout=60,
        )
        release.touch()
        _, holder_err = holder.communicate(timeout=60)
    finally:
        release.touch()
        if holder.poll() is None:
            holder.kill()
            holder.wait(timeout=60)
    assert holder.returncode == 0, holder_err
    assert loser.returncode == 3
    assert f"index {repo.index} is locked" in loser.stderr
    assert "pending regeneration (no draft supplied): a.go" in holder_err


# ---------------------------------------------------------------------------
# The maintenance loop with the cache on
# ---------------------------------------------------------------------------

NAMES = ("a.go", "b.py", "d/c.go", "d/e/f.go", "g.go")


def canonical_draft(path: str, data: bytes) -> str:
    """The one draft a file gets in a run of full-draft updates: a function
    of its path and its bytes."""
    return draft(path, f"bytes {content_digest(data)[:12]}")


class StatCacheMachine(RuleBasedStateMachine):
    """Edits, touches, timestamp games and hand edits of the index on a small
    tree, between updates by ``--detect`` and by ``--changes`` listings of
    the edits, whole or partial.

    Each ``--detect`` must report exactly what it reports from the same
    store with every stat stripped, and a stat the store trusts must always
    describe the bytes behind its digest. After every update the index is
    canonical and equals the object-level oracle's result, every E2 subject
    is pending, a draft of a present file is pending exactly when its host
    is an E2 subject, and a second ``--detect`` reports exactly the pending
    paths and the edits a partial listing left out. A run of ``--detect``
    updates that drafts every path they report gives the index a repository
    that took the same edits in one update gives.
    """

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="aoci-stat-cache-")
        self.repo = Repo(os.path.join(self.tmp, "repo"), os.path.join(self.tmp, "drafts"))
        self.note = 0
        # Names whose bytes or presence changed since the last update.
        self.dirty: set[str] = set()
        # The index and store bytes a run of full-draft updates started
        # from, while the index holds each file's canonical draft.
        self.batch_start: tuple[bytes, bytes] | None = None

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def files(self) -> list[str]:
        return [name for name in NAMES if os.path.exists(self.repo.path(name))]

    def entries(self) -> set[str]:
        return set(parse_index(self.repo.read_index()).code_paths())

    def nonempty(self) -> list[str]:
        return [name for name in self.files() if os.path.getsize(self.repo.path(name))]

    def planned(self, records) -> list[str]:
        """The paths an update of ``records`` regenerates."""
        index = index_lines(parse_index(self.repo.read_index()))
        return list(plan_update(index, ChangeSet(records)).regenerate)

    def drafts_for(self, data, paths) -> list[str]:
        """Drafts for some of ``paths``; each names up to two other names,
        which may have no entry after the update."""
        paths = sorted(paths)
        some = st.sets(st.sampled_from(paths)) if paths else st.just(set())
        drafts = []
        for path in sorted(data.draw(st.one_of(st.just(set(paths)), some))):
            others = st.sampled_from([name for name in NAMES if name != path])
            self.note += 1
            refs = data.draw(st.lists(others, max_size=2, unique=True))
            drafts.append(draft(path, f"note {self.note}", refs))
        return drafts

    def e2_subjects(self) -> set[str]:
        issues = validate_index(parse_index(self.repo.read_index()))
        return {issue.subject for issue in issues if issue.rule == "E2"}

    def in_step(self, store: StalenessStore, name: str) -> bool:
        """Whether the store's row for ``name`` describes the file as it is."""
        row = store.get(name)
        if not os.path.exists(self.repo.path(name)):
            return row is None
        return row is not None and row[0] == content_digest(Path(self.repo.path(name)).read_bytes())

    def update(self, *args: str, drafts=(), unlisted=()):
        """Run an update, check what it leaves, and return what it reported.

        ``unlisted`` names the edits a ``--changes`` listing left out.
        """
        before = self.repo.read_index()
        code, reported = self.repo.update(*args, drafts=drafts)
        assert code == 0
        self.check_splice(before, drafts)
        self.dirty.clear()
        # A regenerated path without a draft is pending. A draft of a present
        # file is stored as current unless one of its references resolves to
        # no entry; then it is pending.
        pending = self.repo.pending()
        drafted = {line.partition("[")[0] for line in drafts}
        assert set(self.repo.plan.regenerate) - drafted <= set(pending)
        drafted.intersection_update(self.files())
        assert drafted.intersection(pending) == drafted & self.e2_subjects()
        # The update left nothing unreported: a second --detect finds only
        # the pending paths and the edits the listing left out, as a read of
        # every file would, and leaves the index alone unless it applies one
        # of those edits.
        store = self.repo.load_store()
        left_out = {name for name in unlisted if not self.in_step(store, name)}
        expected = self.repo.stripped_report()
        before = self.repo.read_index()
        code, again = self.repo.detect()
        assert (code, again) == (0, expected)
        assert sorted(record.path for record in again) == sorted(left_out.union(pending))
        self.check_splice(before, ())
        assert self.repo.read_index() == before or left_out
        return reported

    def check_splice(self, before: bytes, drafts) -> None:
        """The index equals the full parse, apply and serialize of the one
        it was made from, and is in canonical form."""
        old = parse_index(before)
        entries = [parse_code_entry_line(line, old.header.dictionary) for line in drafts]
        want = reference_apply_update(old, self.repo.plan, {e.path: e for e in entries})
        assert self.repo.read_index() == serialize_index(want).encode("utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["fmt", self.repo.index, "--verify"]) == 0

    def listing(self, listed) -> str:
        """A change listing of the ``listed`` names as they stand."""
        entries, present = self.entries(), set(self.files())
        lines = []
        for name in sorted(listed):
            if name not in present:
                lines.append(f"D\t{name}\n")
            else:
                lines.append(f"{'M' if name in entries else 'A'}\t{name}\n")
        return "".join(lines)

    def partial(self, data, skip=()) -> set[str]:
        """A drawn subset of the edits since the last update, and drawn
        untouched files that are not in ``skip``."""
        dirty, clean = sorted(self.dirty), sorted(set(self.files()) - self.dirty - set(skip))
        listed = data.draw(st.sets(st.sampled_from(dirty))) if dirty else set()
        return listed | (data.draw(st.sets(st.sampled_from(clean))) if clean else set())

    def run_changes(self, listing: str, drafts=(), unlisted=()):
        path = os.path.join(self.tmp, "changes.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(listing)
        return self.update("--changes", path, drafts=drafts, unlisted=unlisted)

    @initialize()
    def seed(self):
        for name in NAMES:
            self.repo.write(name, name.encode())
        self.update("--detect", drafts=[canonical_draft(name, name.encode()) for name in NAMES])
        self.start_batch()

    def start_batch(self) -> None:
        self.batch_start = (self.repo.read_index(), Path(self.repo.store).read_bytes())

    @rule(name=st.sampled_from(NAMES), body=st.binary(max_size=12), aged=st.booleans())
    def write_file(self, name, body, aged):
        self.repo.write(name, body, aged)
        self.dirty.add(name)

    @precondition(lambda self: self.files())
    @rule(data=st.data())
    def delete_file(self, data):
        name = data.draw(st.sampled_from(self.files()))
        os.remove(self.repo.path(name))
        self.dirty.add(name)

    def referenced(self) -> list[str]:
        index = parse_index(self.repo.read_index())
        refs = {ref for entry in index.code_entries for ref in entry.r}
        return [name for name in self.files() if name in refs]

    @precondition(lambda self: self.referenced())
    @rule(data=st.data())
    def delete_a_referenced_file(self, data):
        name = data.draw(st.sampled_from(self.referenced()))
        os.remove(self.repo.path(name))
        self.dirty.add(name)

    @precondition(lambda self: self.files() and len(self.files()) < len(NAMES))
    @rule(data=st.data())
    def rename_file(self, data):
        old = data.draw(st.sampled_from(self.files()))
        new = data.draw(st.sampled_from([n for n in NAMES if n not in self.files()]))
        os.makedirs(os.path.dirname(self.repo.path(new)), exist_ok=True)
        os.rename(self.repo.path(old), self.repo.path(new))
        self.dirty.update((old, new))

    @precondition(lambda self: self.files())
    @rule(data=st.data(), aged=st.booleans())
    def touch_file(self, data, aged):
        name = data.draw(st.sampled_from(self.files()))
        if aged:
            self.repo.age(name)
        else:
            os.utime(self.repo.path(name))

    @precondition(lambda self: self.nonempty())
    @rule(data=st.data())
    def same_size_edit(self, data):
        name = data.draw(st.sampled_from(self.nonempty()))
        path = self.repo.path(name)
        before = os.stat(path)
        with open(path, "rb") as handle:
            body = handle.read()
        self.repo.write(name, bytes(b ^ 0x20 for b in body), aged=False)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        self.dirty.add(name)

    @precondition(lambda self: self.files() and os.path.exists(self.repo.store))
    @rule(data=st.data(), ahead=st.integers(0, 2 * SECOND))
    def mtime_at_or_after_the_store(self, data, ahead):
        name = data.draw(st.sampled_from(self.files()))
        when = os.stat(self.repo.store).st_mtime_ns + ahead
        os.utime(self.repo.path(name), ns=(when, when))

    @precondition(lambda self: self.entries())
    @rule(data=st.data(), spaced=st.booleans())
    def hand_edit(self, data, spaced):
        """Edit one entry's S by hand, and perhaps its spacing: the index
        bytes no longer match the store's record, so the next update parses
        them in full."""
        lines = self.repo.read_index().decode("utf-8").split("\n")
        at = data.draw(st.sampled_from([i for i, line in enumerate(lines) if "[WA9M]:" in line]))
        self.note += 1
        line = lines[at].rsplit("S:", 1)[0] + f"S:hand {self.note}"
        lines[at] = line.replace(" | ", "  |  ") if spaced else line
        with open(self.repo.index, "wb") as handle:
            handle.write("\n".join(lines).encode("utf-8"))
        self.batch_start = None

    @rule(data=st.data())
    def detect(self, data):
        expected = self.repo.stripped_report()
        drafts = self.drafts_for(data, self.planned(expected))
        assert self.update("--detect", drafts=drafts) == expected
        self.batch_start = None

    @rule(data=st.data())
    def changes(self, data):
        """List exactly the edits since the last update."""
        listing = self.listing(self.dirty)
        drafts = self.drafts_for(data, self.planned(parse_changeset(listing).records))
        self.run_changes(listing, drafts)
        self.batch_start = None

    @precondition(lambda self: self.files() or self.dirty)
    @rule(data=st.data())
    def partial_changes(self, data):
        """List some of the edits, and files that did not change: an M
        without a draft leaves its file pending, and an edit left out is
        for the next --detect to find."""
        listed = self.partial(data)
        listing = self.listing(listed)
        drafts = self.drafts_for(data, self.planned(parse_changeset(listing).records))
        self.run_changes(listing, drafts, self.dirty - listed)
        self.batch_start = None

    @precondition(lambda self: any(n in self.entries() for n in self.files()))
    @rule(data=st.data())
    def rename_with_changes(self, data):
        entries, files = self.entries(), self.files()
        movable = [n for n in files if n in entries and n not in self.dirty]
        free = [n for n in NAMES if n not in files and n not in entries and n not in self.dirty]
        if not (movable and free):
            return
        old, new = data.draw(st.sampled_from(movable)), data.draw(st.sampled_from(free))
        os.makedirs(os.path.dirname(self.repo.path(new)), exist_ok=True)
        os.rename(self.repo.path(old), self.repo.path(new))
        listed = self.partial(data, skip=(old, new))
        listing = self.listing(listed) + f"R100\t{old}\t{new}\n"
        drafts = self.drafts_for(data, self.planned(parse_changeset(listing).records))
        self.run_changes(listing, drafts, self.dirty - listed)
        self.batch_start = None

    def canonical_lines(self) -> list[str]:
        lines = []
        for name in self.files():
            with open(self.repo.path(name), "rb") as handle:
                lines.append(canonical_draft(name, handle.read()))
        return sorted(lines)

    def code_lines(self, index: bytes) -> list[str]:
        return sorted(map(serialize_code_entry, parse_index(index).code_entries))

    @rule()
    def draft_everything(self):
        """Redraft every file through one listing, which starts a run of
        full-draft updates."""
        entries, present = self.entries(), self.files()
        listing = "".join(f"{'M' if n in entries else 'A'}\t{n}\n" for n in present)
        listing += "".join(f"D\t{n}\n" for n in sorted(entries | self.dirty) if n not in present)
        self.run_changes(listing, self.canonical_lines())
        assert self.code_lines(self.repo.read_index()) == self.canonical_lines()
        self.start_batch()

    @precondition(lambda self: self.batch_start is not None)
    @rule()
    def detect_drafting_everything(self):
        """Incremental equals batch: a --detect that drafts every path it
        reports keeps one line per present file, that file's canonical
        draft, and a shadow repository that took the same edits in one
        update from the run's start holds the same lines."""
        expected = self.repo.stripped_report()
        drafts = self.canonical_drafts(self.repo, expected)
        assert self.update("--detect", drafts=drafts) == expected
        assert self.code_lines(self.repo.read_index()) == self.canonical_lines()

        shadow = Repo(os.path.join(self.tmp, "shadow"), os.path.join(self.tmp, "shadow-drafts"))
        try:
            index, store = self.batch_start
            Path(shadow.index).write_bytes(index)
            Path(shadow.store).write_bytes(store)
            for name in self.files():
                shadow.write(name, Path(self.repo.path(name)).read_bytes())
            expected = shadow.stripped_report()
            code, reported = shadow.detect(self.canonical_drafts(shadow, expected))
            assert (code, reported) == (0, expected)
            assert self.code_lines(shadow.read_index()) == self.canonical_lines()
        finally:
            shutil.rmtree(shadow.root, ignore_errors=True)

    @staticmethod
    def canonical_drafts(repo: Repo, records) -> list[str]:
        return [
            canonical_draft(record.path, Path(repo.path(record.path)).read_bytes())
            for record in records
            if record.status is not ChangeStatus.DELETED
        ]

    @invariant()
    def trusted_stats_describe_their_digests(self):
        if not os.path.exists(self.repo.store):
            return
        store = self.repo.load_store()
        for rel, fs_path in tree.walk_files(self.repo.root, exclude_globs=OWN):
            if store.unchanged(rel, os.stat(fs_path)):
                with open(fs_path, "rb") as handle:
                    assert content_digest(handle.read()) == store.get(rel)[0], rel

    @invariant()
    def every_e2_subject_is_pending(self):
        if not os.path.exists(self.repo.store):
            return
        pending = set(self.repo.pending())
        for issue in validate_index(parse_index(self.repo.read_index())):
            if issue.rule == "E2":
                assert issue.subject in pending, issue


StatCacheMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestStatCacheMachine = StatCacheMachine.TestCase
