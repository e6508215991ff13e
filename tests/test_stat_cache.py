"""The stat cache of ``update --detect`` and the crash-safe ``update`` writes.

The store keeps each file's stat beside its content digest, and ``--detect``
re-reads a file only when its stat changed, when the recorded stat is racy
(its mtime is not strictly older than the store file's) or when its row is
pending. The cache may save reads; it must never change what ``--detect``
reports.
"""

from __future__ import annotations

import collections
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

from conftest import FIXTURES
from aoci import incremental, tree
from aoci.cli import run
from aoci.grammar import parse_index, scan_index
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
from aoci.model import ChangeRecord, ChangeStatus

HEADER = (
    "#AOCI 1\n#DIM A W=Middleware\n#DIM B A=Auth\n#DIM C 9,8,7,5,3,1\n"
    "#DIM E M=Medium\n@CODE\n"
)
# The index, its lock file and the store sit in the repository root.
OWN = ["idx.aoci", "idx.aoci.lock", "store.tsv"]
SECOND = 10**9


def draft(path: str, note: str = "drafted") -> str:
    return f"{path}[WA9M]: F:file {path} | R:- | A:- | S:{note}"


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
        (None when it did not run).
        """
        shutil.rmtree(self.drafts, ignore_errors=True)
        os.makedirs(self.drafts)
        for i, line in enumerate(drafts):
            with open(os.path.join(self.drafts, f"{i}.entry.txt"), "w", encoding="utf-8") as out:
                out.write(line + "\n")
        reported = []
        real = incremental.detect_stale

        def recording(store, files, index):
            changes = real(store, files, index)
            reported.append(changes.records)
            return changes

        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(self.root)
            patch.setattr(incremental, "detect_stale", recording)
            code = run(
                ["update", self.index, *args, "--store", self.store, "--drafts", self.drafts]
            )
        return code, reported[0] if reported else None

    def detect(self, drafts=()):
        return self.update("--detect", drafts=drafts)

    def load_store(self) -> StalenessStore:
        with open(self.store, encoding="utf-8") as handle:
            return StalenessStore.load(handle.read(), os.stat(self.store).st_mtime_ns)

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
        with open(self.index, "rb") as handle:
            index = parse_index(handle.read())
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


class StatCacheMachine(RuleBasedStateMachine):
    """Edits, touches and timestamp games on a small tree between updates.

    Each ``--detect`` must report exactly what it reports from the same
    store with every stat stripped, and a stat the store trusts must always
    describe the bytes behind its digest.
    """

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="aoci-stat-cache-")
        self.repo = Repo(os.path.join(self.tmp, "repo"), os.path.join(self.tmp, "drafts"))
        self.note = 0

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def files(self) -> list[str]:
        return [name for name in NAMES if os.path.exists(self.repo.path(name))]

    def entries(self) -> set[str]:
        with open(self.repo.index, "rb") as handle:
            return parse_index(handle.read()).code_paths()

    def nonempty(self) -> list[str]:
        return [name for name in self.files() if os.path.getsize(self.repo.path(name))]

    def drafts_for(self, data, paths) -> list[str]:
        paths = sorted(paths)
        some = st.sets(st.sampled_from(paths)) if paths else st.just(set())
        chosen = data.draw(st.one_of(st.just(set(paths)), some))
        self.note += 1
        return [draft(path, f"note {self.note}") for path in sorted(chosen)]

    @initialize()
    def seed(self):
        for name in NAMES:
            self.repo.write(name, name.encode())
        assert self.repo.detect([draft(name) for name in NAMES])[0] == 0

    @rule(name=st.sampled_from(NAMES), body=st.binary(max_size=12), aged=st.booleans())
    def write_file(self, name, body, aged):
        self.repo.write(name, body, aged)

    @precondition(lambda self: self.files())
    @rule(data=st.data())
    def delete_file(self, data):
        os.remove(self.repo.path(data.draw(st.sampled_from(self.files()))))

    @precondition(lambda self: self.files() and len(self.files()) < len(NAMES))
    @rule(data=st.data())
    def rename_file(self, data):
        old = data.draw(st.sampled_from(self.files()))
        new = data.draw(st.sampled_from([n for n in NAMES if n not in self.files()]))
        os.makedirs(os.path.dirname(self.repo.path(new)), exist_ok=True)
        os.rename(self.repo.path(old), self.repo.path(new))

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

    @precondition(lambda self: self.files() and os.path.exists(self.repo.store))
    @rule(data=st.data(), ahead=st.integers(0, 2 * SECOND))
    def mtime_at_or_after_the_store(self, data, ahead):
        name = data.draw(st.sampled_from(self.files()))
        when = os.stat(self.repo.store).st_mtime_ns + ahead
        os.utime(self.repo.path(name), ns=(when, when))

    @rule(data=st.data())
    def detect(self, data):
        expected = self.repo.stripped_report()
        regenerate = [r.path for r in expected if r.status is not ChangeStatus.DELETED]
        code, reported = self.repo.detect(self.drafts_for(data, regenerate))
        assert reported == expected
        assert code == 0

    @rule(data=st.data())
    def changes(self, data):
        entries = self.entries()
        present = self.files()
        modified = data.draw(st.sets(st.sampled_from(present)) if present else st.just(set()))
        gone = sorted(entries - set(present))
        deleted = data.draw(st.sets(st.sampled_from(gone)) if gone else st.just(set()))
        listing = "".join(f"M\t{p}\n" for p in sorted(modified))
        listing += "".join(f"D\t{p}\n" for p in sorted(deleted))
        code, _ = self._run_changes(listing, self.drafts_for(data, modified))
        assert code == 0

    @precondition(
        lambda self: any(n in self.entries() for n in self.files())
        and len(self.files()) < len(NAMES)
    )
    @rule(data=st.data())
    def rename_with_changes(self, data):
        entries = self.entries()
        old = data.draw(st.sampled_from([n for n in self.files() if n in entries]))
        free = [n for n in NAMES if n not in self.files() and n not in entries]
        if not free:
            return
        new = data.draw(st.sampled_from(free))
        os.makedirs(os.path.dirname(self.repo.path(new)), exist_ok=True)
        os.rename(self.repo.path(old), self.repo.path(new))
        code, _ = self._run_changes(f"R100\t{old}\t{new}\n", [])
        assert code == 0

    def _run_changes(self, listing, drafts):
        path = os.path.join(self.tmp, "changes.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(listing)
        return self.repo.update("--changes", path, drafts=drafts)

    @invariant()
    def trusted_stats_describe_their_digests(self):
        if not os.path.exists(self.repo.store):
            return
        store = self.repo.load_store()
        for rel, fs_path in tree.walk_files(self.repo.root, exclude_globs=OWN):
            if store.unchanged(rel, os.stat(fs_path)):
                with open(fs_path, "rb") as handle:
                    assert content_digest(handle.read()) == store.get(rel)[0], rel


StatCacheMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestStatCacheMachine = StatCacheMachine.TestCase
