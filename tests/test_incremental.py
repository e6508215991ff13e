"""Change parsing, update planning, minimal application, staleness."""

from __future__ import annotations

import collections
import dataclasses
import glob
import hashlib
import os
import random
from fnmatch import fnmatchcase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNREADABLE,
    WALK_GLOB_SETS,
    make_folded_walk_tree,
    make_index,
    make_reference_dictionary,
    make_walk_tree,
    reference_apply_update,
    reference_walk,
)
from aoci import incremental, scaffold, tree
from aoci.errors import InvariantError, PlanMismatch
from aoci.grammar import (
    ParseError,
    code_line_fields,
    decode_table_tag,
    decode_tag,
    parse_code_entry_line,
    parse_index,
    scan_index,
    serialize_index,
)
from aoci.incremental import (
    StalenessStore,
    UpdatePlan,
    apply_lines,
    apply_update,
    collect_file_digests,
    commit_plan,
    content_digest,
    detect_stale,
    entry_digest,
    parse_changeset,
    plan_update,
)
from aoci.model import (
    ChangeRecord,
    ChangeSet,
    ChangeStatus,
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TableEntry,
)
from aoci.validator import validate_index


def test_parse_changeset_examples():
    changes = parse_changeset("M\tsrc/auth.go")
    assert changes.records == (ChangeRecord(ChangeStatus.MODIFIED, "src/auth.go"),)
    changes = parse_changeset("R100\tsrc/a.go\tsrc/b.go")
    assert changes.records == (
        ChangeRecord(ChangeStatus.RENAMED, "src/a.go", "src/b.go"),
    )
    assert parse_changeset("").records == ()
    assert parse_changeset("\n\n").records == ()


def test_parse_changeset_bare_rename_status():
    changes = parse_changeset("R\ta.go\tb.go")
    assert changes.records[0].status is ChangeStatus.RENAMED


@pytest.mark.parametrize(
    "text,line",
    [
        ("X\tsrc/a.go", 1),
        ("M\t", 1),
        ("M src/a.go", 1),
        ("A\ta.go\n\nR100\tb.go", 3),
        ("M\ta.go\nM\ta.go", 2),
        ("R100\ta.go\ta.go", 1),
        ("R100\ta.go\tb.go\nD\tb.go", 2),
        ("D\tb.go\nR100\ta.go\tb.go", 2),
        ("M\tb.go\n\nR100\ta.go\tb.go", 3),
        ("R100\ta.go\tb.go\nA\tb.go", 2),
        ("R100\ta.go\tc.go\nR100\tb.go\tc.go", 2),
        ("R٣\ta.go\tb.go", 1),
        ("M\ta.go\nR1٠٠\tb.go\tc.go", 2),
    ],
)
def test_parse_changeset_errors_located(text, line):
    with pytest.raises(ParseError) as excinfo:
        parse_changeset(text)
    assert excinfo.value.line_number == line


def test_plan_modified_touches_only_that_entry(listing_index):
    changes = parse_changeset("M\tauth.go")
    plan = plan_update(listing_index, changes)
    assert plan.regenerate == ("auth.go",)
    assert plan.remove == ()
    assert plan.rename_map == {}
    assert plan.ref_rewrites == ()
    assert plan.dangling_after == ()
    assert plan.warnings == ()


def test_plan_delete_reports_dangling_ref(listing_index):
    plan = plan_update(listing_index, parse_changeset("D\tmodel/user/user.go"))
    assert plan.remove == ("model/user/user.go",)
    assert ("auth.go", "model/user") in plan.dangling_after
    # Confirm against the validator: applying the plan makes E2 fire there.
    updated = apply_update(listing_index, plan)
    e2 = [
        (issue.subject, issue.message)
        for issue in validate_index(updated)
        if issue.rule == "E2"
    ]
    assert len(e2) == len(plan.dangling_after) == 1


def test_empty_changeset_empty_plan(listing_index):
    plan = plan_update(listing_index, ChangeSet())
    assert plan.empty
    assert apply_update(listing_index, plan) == listing_index


def test_plan_missing_entry_warns(listing_index):
    plan = plan_update(listing_index, parse_changeset("M\tnot/indexed.go\nD\talso/gone.go"))
    assert len(plan.warnings) == 2
    assert plan.regenerate == ("not/indexed.go",)
    # The unindexed deletion is removed all the same, so commit_plan drops
    # its store row; the applier skips a path with no line.
    assert plan.remove == ("also/gone.go",)
    assert apply_update(listing_index, plan) == listing_index


def test_apply_remove_keeps_other_lines_byte_identical(listing_index):
    before = serialize_index(listing_index).splitlines()
    plan = plan_update(listing_index, parse_changeset("D\tconfig.yaml"))
    updated = apply_update(listing_index, plan)
    after = serialize_index(updated).splitlines()
    assert len(after) == len(before) - 1
    removed_line = next(line for line in before if line.startswith("config.yaml["))
    assert [line for line in before if line != removed_line] == after


def test_apply_rename_rewrites_exact_refs(reference_dictionary):
    a = parse_code_entry_line("a.go[WA9M]: F:left | R:- | A:- | S:s", reference_dictionary)
    c = parse_code_entry_line("c.go[WA9M]: F:uses | R:a.go | A:- | S:s", reference_dictionary)
    index = Index(Header(dictionary=reference_dictionary), (a, c))
    plan = plan_update(index, parse_changeset("R100\ta.go\tb.go"))
    assert plan.rename_map == {"a.go": "b.go"}
    assert plan.ref_rewrites == (("c.go", "a.go", "b.go"),)
    updated = apply_update(index, plan)
    before_lines = serialize_index(index).splitlines()
    after_lines = serialize_index(updated).splitlines()
    diffs = [
        (old, new) for old, new in zip(before_lines, after_lines) if old != new
    ]
    assert len(diffs) == 2  # the renamed entry and the referencing entry
    old_c, new_c = next(d for d in diffs if d[0].startswith("c.go"))
    assert old_c.replace("R:a.go", "R:b.go") == new_c
    assert plan.dangling_after == ()


def test_rename_rewrites_sans_extension_refs(reference_dictionary):
    a = parse_code_entry_line("pkg/a.go[WA9M]: F:x | R:- | A:- | S:s", reference_dictionary)
    c = parse_code_entry_line("c.go[WA9M]: F:y | R:pkg/a | A:- | S:s", reference_dictionary)
    index = Index(Header(dictionary=reference_dictionary), (a, c))
    plan = plan_update(index, parse_changeset("R90\tpkg/a.go\tpkg/b.go"))
    assert plan.ref_rewrites == (("c.go", "pkg/a", "pkg/b"),)


def test_rename_leaves_directory_prefix_refs_alone(reference_dictionary):
    a = parse_code_entry_line("pkg/jwt/a.go[WA9M]: F:x | R:- | A:- | S:s", reference_dictionary)
    b = parse_code_entry_line("pkg/jwt/b.go[WA9M]: F:x | R:- | A:- | S:s", reference_dictionary)
    c = parse_code_entry_line("c.go[WA9M]: F:y | R:pkg/jwt | A:- | S:s", reference_dictionary)
    index = Index(Header(dictionary=reference_dictionary), (a, b, c))
    plan = plan_update(index, parse_changeset("R90\tpkg/jwt/a.go\tpkg/token/a.go"))
    # The directory still resolves through b.go, so nothing rewrites or dangles.
    assert plan.ref_rewrites == ()
    assert plan.dangling_after == ()


def test_apply_regenerate_with_draft(listing_index, reference_dictionary):
    draft = parse_code_entry_line(
        "auth.go[WA9JM]: F:JWT authentication middleware | R:pkg/jwt,model/user | A:- | "
        "S:regenerated synopsis text with enough length to stay inside budgets",
        reference_dictionary,
    )
    plan = plan_update(listing_index, parse_changeset("M\tauth.go"))
    updated = apply_update(listing_index, plan, {"auth.go": draft})
    assert updated.entry_map()["auth.go"].s.startswith("regenerated synopsis")
    others_before = [e for e in listing_index.code_entries if e.path != "auth.go"]
    others_after = [e for e in updated.code_entries if e.path != "auth.go"]
    assert others_before == others_after


def test_apply_added_path_appends(listing_index, reference_dictionary):
    draft = parse_code_entry_line(
        "pkg/new.go[SC7S]: F:new file | R:- | A:- | S:fresh entry for an added file "
        "with text that stays inside the budget floor",
        reference_dictionary,
    )
    plan = plan_update(listing_index, parse_changeset("A\tpkg/new.go"))
    updated = apply_update(listing_index, plan, {"pkg/new.go": draft})
    assert updated.code_entries[-1].path == "pkg/new.go"
    assert len(updated.code_entries) == len(listing_index.code_entries) + 1


def test_apply_without_draft_keeps_old_text_and_marks_pending(listing_index):
    store = StalenessStore()
    plan = plan_update(listing_index, parse_changeset("M\tauth.go"))
    updated = apply_update(listing_index, plan)
    assert updated == listing_index
    commit_plan(store, plan, scan_index(serialize_index(updated)), {}, drafted=[])
    assert store.get("auth.go") == ("", "")


def test_apply_rejects_stray_draft(listing_index, reference_dictionary):
    draft = parse_code_entry_line("x.go: F:a | R:- | A:- | S:b", reference_dictionary)
    plan = plan_update(listing_index, parse_changeset("M\tauth.go"))
    with pytest.raises(PlanMismatch):
        apply_update(listing_index, plan, {"x.go": draft})
    with pytest.raises(PlanMismatch):
        apply_update(listing_index, plan, {"auth.go": draft})


def test_apply_idempotent(listing_index, reference_dictionary):
    draft = parse_code_entry_line(
        "auth.go[WA9JM]: F:JWT authentication middleware | R:pkg/jwt,model/user | A:- | "
        "S:second revision of the synopsis for the idempotence check run",
        reference_dictionary,
    )
    changes = parse_changeset("M\tauth.go\nD\tconfig.yaml\nR100\tpkg/jwt/jwt.go\tpkg/token/jwt.go")
    plan = plan_update(listing_index, changes)
    once = apply_update(listing_index, plan, {"auth.go": draft})
    twice = apply_update(once, plan, {"auth.go": draft})
    assert serialize_index(once) == serialize_index(twice)


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_touch_count_property(seed):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(5, 40))
    paths = [entry.path for entry in index.code_entries]
    k = rng.randint(1, min(5, len(paths)))
    chosen = rng.sample(paths, k)
    drafts = {}
    for path in chosen:
        entry = index.entry_map()[path]
        drafts[path] = dataclasses.replace(entry, s=entry.s + " touched")
    plan = plan_update(
        index, ChangeSet(tuple(ChangeRecord(ChangeStatus.MODIFIED, p) for p in chosen))
    )
    updated = apply_update(index, plan, drafts)
    before = serialize_index(index).splitlines()
    after = serialize_index(updated).splitlines()
    assert len(before) == len(after)
    assert sum(a != b for a, b in zip(before, after)) == k


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_plan_completeness_dangling_matches_e2(seed):
    # Mixed change sets: deletions, renames of referenced files, modifies of
    # hosts that reference a renamed file, and adds. Regenerated entries are
    # about to be replaced, so the plan reports no dangling references for
    # them.
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(4, 20), clean_refs=True)
    paths = [entry.path for entry in index.code_entries]
    refs_of = {entry.path: entry.r for entry in index.code_entries}
    deleted = rng.sample(paths, rng.randint(1, 2))
    referenced = sorted({ref for refs in refs_of.values() for ref in refs} - set(deleted))
    renamed = rng.sample(referenced, rng.randint(0, min(2, len(referenced))))
    hosts = [
        path
        for path in paths
        if path not in deleted and path not in renamed and set(refs_of[path]) & set(renamed)
    ]
    modified = rng.sample(hosts, rng.randint(0, len(hosts)))
    records = (
        [ChangeRecord(ChangeStatus.DELETED, path) for path in deleted]
        + [ChangeRecord(ChangeStatus.RENAMED, path, f"moved/{path}") for path in renamed]
        + [ChangeRecord(ChangeStatus.MODIFIED, path) for path in modified]
        + [ChangeRecord(ChangeStatus.ADDED, f"new/add{k}.go") for k in range(rng.randint(0, 2))]
    )
    rng.shuffle(records)
    plan = plan_update(index, ChangeSet(tuple(records)))
    updated = apply_update(index, plan)
    e2 = {
        (issue.subject, issue.message.split("'")[1])
        for issue in validate_index(updated)
        if issue.rule == "E2" and issue.subject not in plan.regenerate
    }
    assert e2 == set(plan.dangling_after)


def test_detect_stale_cases(listing_index):
    store = StalenessStore()
    files = [("auth.go", "d1"), ("config.yaml", "d2")]
    for path, digest in files:
        store.set(path, digest, "e")
    assert detect_stale(store, files, listing_index).records == ()

    changed = [("auth.go", "DIFFERENT"), ("config.yaml", "d2")]
    records = detect_stale(store, changed, listing_index).records
    assert records == (ChangeRecord(ChangeStatus.MODIFIED, "auth.go"),)

    removed = [("auth.go", "d1")]
    records = detect_stale(store, removed, listing_index).records
    assert records == (ChangeRecord(ChangeStatus.DELETED, "config.yaml"),)

    plus_new = files + [("brand/new.go", "d3")]
    records = detect_stale(store, plus_new, listing_index).records
    assert records == (ChangeRecord(ChangeStatus.ADDED, "brand/new.go"),)

    # A file the store missed but the index covers is stale, not new.
    plus_indexed = files + [("org_repo.go", "d4")]
    records = detect_stale(store, plus_indexed, listing_index).records
    assert records == (ChangeRecord(ChangeStatus.MODIFIED, "org_repo.go"),)


def test_digest_test_vectors():
    assert content_digest(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert content_digest(b"abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_entry_digest_tracks_canonical_line(listing_index):
    import hashlib

    from aoci.grammar import serialize_code_entry

    entry = listing_index.code_entries[0]
    expected = hashlib.sha256(serialize_code_entry(entry).encode("utf-8")).hexdigest()
    assert entry_digest(entry) == expected


def test_store_round_trip():
    store = StalenessStore()
    store.set("b.go", "c1", "e1")
    store.set("a.go", "c2", "")
    text = store.dump()
    assert text == "a.go\tc2\t\nb.go\tc1\te1\n"
    assert StalenessStore.load(text).records == store.records
    assert StalenessStore.load("").records == {}
    with pytest.raises(ParseError):
        StalenessStore.load("only-one-field\n")


def test_store_commit_cycle(listing_index, reference_dictionary, tmp_path):
    # Seed the store, mutate one file, and run a full detect/plan/apply/commit
    # round; afterwards detection reports nothing.
    digests = {entry.path: f"v1-{entry.path}" for entry in listing_index.code_entries}
    store = StalenessStore()
    for entry in listing_index.code_entries:
        store.set(entry.path, digests[entry.path], entry_digest(entry))

    digests["auth.go"] = "v2-auth.go"
    changes = detect_stale(store, sorted(digests.items()), listing_index)
    assert changes.records == (ChangeRecord(ChangeStatus.MODIFIED, "auth.go"),)

    draft = parse_code_entry_line(
        "auth.go[WA9JM]: F:JWT authentication middleware | R:pkg/jwt,model/user | A:- | "
        "S:new content after the modification passes budget thresholds again",
        reference_dictionary,
    )
    plan = plan_update(listing_index, changes)
    updated = apply_update(listing_index, plan, {"auth.go": draft})
    commit_plan(store, plan, scan_index(serialize_index(updated)), digests, drafted=["auth.go"])
    assert detect_stale(store, sorted(digests.items()), updated).records == ()

    # Without a draft the path stays pending: detection keeps flagging it.
    plan2 = plan_update(updated, parse_changeset("M\tconfig.yaml"))
    updated2 = apply_update(updated, plan2)
    commit_plan(store, plan2, scan_index(serialize_index(updated2)), digests, drafted=[])
    records = detect_stale(store, sorted(digests.items()), updated2).records
    assert records == (ChangeRecord(ChangeStatus.MODIFIED, "config.yaml"),)


@pytest.mark.parametrize("include, exclude", WALK_GLOB_SETS)
def test_collect_file_digests_matches_brute_force_walk(tmp_path, caplog, include, exclude):
    make_walk_tree(tmp_path)
    got = collect_file_digests(tmp_path, include, exclude)
    want = [
        (rel, hashlib.sha256(data).hexdigest())
        for rel, data, _ in reference_walk(tmp_path, include, exclude)
    ]
    assert got == want and got
    admitted = any(fnmatchcase(UNREADABLE, glob) for glob in include)
    assert (f"skipping unreadable file {UNREADABLE}" in caplog.text) == admitted


def test_collect_file_digests_opens_each_file_once(tmp_path, monkeypatch, caplog):
    make_walk_tree(tmp_path)
    opened = collections.Counter()

    def counting_open(path, *args, **kwargs):
        opened[os.path.relpath(path, tmp_path).replace(os.sep, "/")] += 1
        return open(path, *args, **kwargs)

    for module in (scaffold, incremental, tree):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    digests = collect_file_digests(tmp_path)
    assert len(digests) == 8
    # Each file is stat'ed before it is opened, so the dangling symlink is
    # skipped at its stat and never opened.
    assert opened == collections.Counter(path for path, _ in digests)
    assert f"skipping unreadable file {UNREADABLE}" in caplog.text


@pytest.mark.skipif(os.sep == "\\", reason="a backslash is a separator on this platform")
def test_walking_escaped_paths_finds_what_the_walk_finds_listing_only_their_directories(
    tmp_path, monkeypatch
):
    make_folded_walk_tree(tmp_path)
    wanted = [
        "a/f", "a/b/c/deep.py", "y/z.go", "q/r.go", UNREADABLE,
        ".env", "src/.hidden.go", "src/.cache/c.py", "a", "missing/x.go",
    ]
    walked = tree.walk_files(tmp_path)
    found = tree.walk_files(tmp_path, [glob.escape(p) for p in wanted])
    assert found == [pair for pair in walked if pair[0] in wanted]
    assert [rel for rel, _ in found] == ["a/b/c/deep.py", "a/f", "q/r.go", UNREADABLE, "y/z.go", "y/z.go"]
    pairs = tree.walk_files(tmp_path, [glob.escape(p) for p in ("q/r.go", UNREADABLE)])
    read = tree.stat_read(pairs)
    assert [data for *_, data in read] == [
        b"folded dir\n"
    ]

    visited = []
    walk = os.walk

    def recording_walk(top, *args, **kwargs):
        for item in walk(top, *args, **kwargs):
            visited.append(os.path.relpath(item[0], tmp_path))
            yield item

    monkeypatch.setattr(os, "walk", recording_walk)
    tree.walk_files(tmp_path, [glob.escape("a/b/c/deep.py")])
    assert visited == [".", "a", os.path.join("a", "b"), os.path.join("a", "b", "c")]


@pytest.fixture(scope="module")
def folded_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("folded")
    make_folded_walk_tree(root)
    return root


# Glob pieces: wildcards, classes, separators, a backslash, letters and names
# of the folded walk tree.
_GLOB_PIECES = st.one_of(
    st.sampled_from(["*", "?", "/", ".", "\\", "[", "]", "!"]),
    st.sampled_from(list("abcfgmnopqrsyz")),
    st.sampled_from(["a", "a/b", "src", "deep", "go", "py", "y/z", "q/r", "n/m", "a.b", "a-b"]),
    st.builds(
        lambda neg, chars: "[" + neg + chars + "]",
        st.sampled_from(["", "!"]),
        st.text(alphabet="abcgmoqrsyz./\\-", min_size=1, max_size=3),
    ),
)


def _blurred(path: str):
    """Globs made from ``path`` with some characters dropped or turned into
    wildcards or classes, so that most of them match a file of the tree."""
    return st.tuples(
        *(st.sampled_from([ch, ch, ch, "?", "*", f"[{ch}]", "[!a]", ""]) for ch in path)
    ).map("".join)


_GLOBS = st.lists(
    st.one_of(
        st.lists(_GLOB_PIECES, max_size=6).map("".join),
        st.sampled_from(
            ["a/f", "a.b/f", "a-b/f", "a/b/c/deep.py", "n/m/k.PY", "y/z.go", "q/r.go", UNREADABLE]
        ).flatmap(_blurred),
    ),
    max_size=3,
)


@pytest.mark.skipif(os.sep == "\\", reason="a backslash is a separator on this platform")
@settings(max_examples=300, deadline=None)
@given(_GLOBS, _GLOBS)
def test_the_pruned_walk_matches_a_full_walk_filtered_by_fnmatch(folded_tree, include, exclude):
    walked = tree.walk_files(folded_tree, include, exclude)
    admitted = any(fnmatchcase(UNREADABLE, g) for g in include) and not any(
        fnmatchcase(UNREADABLE, g) for g in exclude
    )
    assert (UNREADABLE in dict(walked)) == admitted
    read = [(rel, data) for rel, _, _, data in tree.stat_read(walked)]
    assert read == [(rel, data) for rel, data, _ in reference_walk(folded_tree, include, exclude)]


def test_store_round_trip_with_index_digest():
    store = StalenessStore({"b.go": ("c1", "e1")}, index_digest="f00d")
    text = store.dump()
    assert text == "\tf00d\t\nb.go\tc1\te1\n"
    loaded = StalenessStore.load(text)
    assert loaded.records == store.records
    assert loaded.index_digest == "f00d"
    assert loaded.paths() == frozenset({"b.go"})
    assert loaded.dump() == text
    assert StalenessStore.load("b.go\tc1\te1\n").index_digest == ""


# ---------------------------------------------------------------------------
# The line-level applier against the object-level oracle
# ---------------------------------------------------------------------------

_POOL = ("a.go", "b.go", "c.py", "d/e.go", "d/f", "g")
# Where a change may point: the pool, new paths, and a path the entry
# grammar rejects (it holds a space).
_TARGETS = _POOL + ("h.go", "d/i.go", "x y.go")
# References: exact paths, paths without extension, a directory, the table
# and a dangling name.
_REFS = _POOL + ("a", "b", "c", "d/e", "d", "users", "gone")
_TEXT = st.sampled_from(("", "role", "cache layer", "x"))


def _noncanonical(text: str) -> str:
    """The same index with extra spaces around ``|`` and CRLF line ends."""
    return text.replace(" | ", "  |  ").replace("\n", "\r\n")


def _outcome(action):
    """What ``action`` returns, or the type and message of what it raises."""
    try:
        return action()
    except Exception as exc:  # every failure is compared, whatever its type
        return type(exc), str(exc)


@st.composite
def _update_cases(draw):
    dictionary = make_reference_dictionary()
    tags = {
        "decoded": ("WA9JM", decode_tag("WA9JM", dictionary)),
        "scale": ("M", None),
        "none": (None, None),
    }

    def entry(path, refs=st.lists(st.sampled_from(_REFS), unique=True, max_size=3)):
        tag, decoded = tags[draw(st.sampled_from(sorted(tags)))]
        return CodeEntry(
            path, tag, decoded, draw(_TEXT), tuple(draw(refs)), draw(_TEXT), draw(_TEXT)
        )

    paths = draw(st.lists(st.sampled_from(_POOL), unique=True, max_size=len(_POOL)))
    tables = ()
    if draw(st.booleans()):
        tables = (TableEntry("users", *decode_table_tag("U-M-M-GUID", dictionary), "rows"),)
    index = Index(
        Header(project="p", dictionary=dictionary), tuple(entry(p) for p in paths), tables
    )

    records = {}
    for status, path, new_path in draw(
        st.lists(
            st.tuples(
                st.sampled_from("AMDRRR"), st.sampled_from(_TARGETS), st.sampled_from(_TARGETS)
            ),
            max_size=6,
        )
    ):
        if path in records or (status == "R" and new_path == path):
            continue
        records[path] = ChangeRecord(
            ChangeStatus(status), path, new_path if status == "R" else None
        )

    # Drafts mostly for the paths the plan regenerates, so most plans apply;
    # a few carry the wrong path or decoding, and some name another path.
    regenerated = {
        rec.path if rec.new_path is None else rec.new_path
        for rec in records.values()
        if rec.status in (ChangeStatus.ADDED, ChangeStatus.MODIFIED)
        or (rec.status is ChangeStatus.RENAMED and rec.path not in paths)
    }
    named = sorted(regenerated - {"x y.go"}) + ["g"] * draw(st.integers(0, 1))
    drafts = {}
    for path in draw(st.lists(st.sampled_from(named), unique=True, max_size=4)) if named else ():
        kind = draw(st.sampled_from(("good",) * 6 + ("other path", "wrong decoding")))
        if kind == "other path":
            drafts[path] = entry("z.go")
        elif kind == "wrong decoding":
            drafts[path] = CodeEntry(path, "WA9JM", DecodedTag("W", "A", 9, ("J",)), "f")
        else:
            drafts[path] = entry(path)
    return index, ChangeSet(tuple(records.values())), drafts


@given(_update_cases())
@settings(max_examples=400, deadline=None)
def test_apply_lines_matches_the_object_level_oracle(case):
    index, changes, drafts = case
    text = serialize_index(index)
    fast = scan_index(text)
    slow = scan_index(serialize_index(parse_index(_noncanonical(text))))
    assert slow.text() == fast.text() == text

    plan = _outcome(lambda: plan_update(index, changes))
    assert _outcome(lambda: plan_update(fast, changes)) == plan
    assert _outcome(lambda: plan_update(slow, changes)) == plan
    if not isinstance(plan, UpdatePlan):
        return
    want = _outcome(lambda: serialize_index(reference_apply_update(index, plan, drafts)))
    assert _outcome(lambda: apply_lines(fast, plan, drafts).text()) == want
    assert _outcome(lambda: apply_lines(slow, plan, drafts).text()) == want
    assert _outcome(lambda: serialize_index(apply_update(index, plan, drafts))) == want


def _entry(line: str) -> CodeEntry:
    return parse_code_entry_line(line, make_reference_dictionary())


@pytest.mark.parametrize(
    "listing, drafts, error",
    [
        pytest.param(
            "M\ta.go",
            {"h.go": "h.go: F:x | R:- | A:- | S:y"},
            (PlanMismatch, "drafts supplied for unplanned paths: ['h.go']"),
            id="stray draft",
        ),
        pytest.param(
            "M\ta.go",
            {"a.go": "z.go: F:x | R:- | A:- | S:y"},
            (PlanMismatch, "draft for a.go carries entry path z.go"),
            id="draft path mismatch",
        ),
        pytest.param(
            "R100\ta.go\tb.go",
            {},
            (InvariantError, "duplicate code entry path: b.go"),
            id="rename onto an existing path",
        ),
        pytest.param(
            "R100\tc.go\tx y.go",
            {},
            (
                InvariantError,
                "path 'x y.go' contains characters the entry grammar reserves: [' ']",
            ),
            id="rename to a path the grammar rejects",
        ),
        pytest.param(
            "R100\ta.go\tp q.go\nR100\tb.go\tr s.go",
            {},
            (InvariantError, "a.go: R reference 'r s.go' contains whitespace, '|' or ','"),
            id="a rejected reference before a rejected path",
        ),
    ],
)
def test_apply_lines_raises_what_the_oracle_raises(listing, drafts, error):
    index = Index(
        Header(dictionary=make_reference_dictionary()),
        (
            _entry("a.go[WA9JM]: F:a | R:b.go | A:- | S:first"),
            _entry("b.go: F:b | R:a | A:- | S:second"),
            _entry("c.go[M]: F:c | R:a.go,b | A:- | S:third"),
        ),
    )
    plan = plan_update(index, parse_changeset(listing))
    draft_entries = {path: _entry(line) for path, line in drafts.items()}
    lines = scan_index(serialize_index(index))
    assert _outcome(lambda: reference_apply_update(index, plan, draft_entries)) == error
    assert _outcome(lambda: apply_lines(lines, plan, draft_entries)) == error
    assert _outcome(lambda: apply_update(index, plan, draft_entries)) == error


def test_apply_lines_parses_only_the_touched_lines(monkeypatch):
    index = Index(
        Header(dictionary=make_reference_dictionary()),
        tuple(_entry(f"m{i}.go: F:m | R:m{i + 1}.go | A:- | S:s") for i in range(50)),
    )
    lines = scan_index(serialize_index(index))
    plan = plan_update(lines, parse_changeset("R100\tm10.go\tn10.go\nD\tm20.go\nM\tm30.go"))
    parsed = []
    monkeypatch.setattr(
        incremental,
        "code_line_fields",
        lambda line, dictionary: parsed.append(line) or code_line_fields(line, dictionary),
    )
    draft = _entry("m30.go: F:new | R:- | A:- | S:s")
    updated = apply_lines(lines, plan, {"m30.go": draft})
    # The renamed line and its one rewrite host, m9.go; nothing else.
    assert parsed == [lines.code_entries[9].line, lines.code_entries[10].line]
    # The other 46 rows are the scanned ones, line strings and all.
    old_rows = {id(row) for row in lines.code_entries}
    assert sum(id(row) in old_rows for row in updated.code_entries) == 46
    assert updated.text() == serialize_index(
        reference_apply_update(index, plan, {"m30.go": draft})
    )
