"""Reference resolution: RefResolver against the one-pair rule, the rename
lookup against the sequential first-match rule, and scaffold fan-in against
a brute-force count."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import index_lines
from aoci.incremental import plan_update
from aoci.model import ChangeRecord, ChangeSet, ChangeStatus, CodeEntry, Header, Index
from aoci.scaffold import ScaffoldRules, scaffold_repo
from aoci.validator import RefResolver, resolves_among, resolves_to, sans_ext

# Segments chosen to sit next to each other around "." and "/" in sort
# order: "a" < "a-" < "a." < "a.b" < "a/" < "a0".
SEGMENTS = ("a", "a.", "a-", "a0", "a.b", "c.go", "b.c.d")

paths_st = st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=3).map("/".join)
path_sets = st.sets(paths_st, max_size=14)


def _refs_for(paths):
    """Candidate references: the paths, their stems and directory prefixes,
    plus arbitrary paths that may resolve to nothing."""
    keys = set(paths)
    for path in paths:
        stem = sans_ext(path)
        if stem:
            keys.add(stem)
        parts = path.split("/")
        keys.update("/".join(parts[:depth]) for depth in range(1, len(parts)))
    return st.one_of(st.sampled_from(sorted(keys)), paths_st) if keys else paths_st


def _old_sans_ext(path: str) -> str | None:
    base = path.rsplit("/", 1)[-1]
    return path[: path.rindex(".")] if "." in base else None


@given(paths_st)
def test_sans_ext_matches_last_segment_rule(path):
    assert sans_ext(path) == _old_sans_ext(path)


def test_sans_ext_examples():
    assert sans_ext("b.c.d") == "b.c"
    assert sans_ext("a.") == "a"
    assert sans_ext("a.b/c") is None
    assert sans_ext("a") is None
    assert sans_ext("x/c.go") == "x/c"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_targets_equal_brute_force(data):
    paths = data.draw(path_sets)
    resolver = RefResolver(paths)
    for _ in range(8):
        ref = data.draw(_refs_for(paths))
        want = sorted(path for path in paths if resolves_to(ref, path))
        assert resolver.targets(ref) == want, ref
        assert resolver.resolves(ref) == resolves_among(ref, sorted(paths)) == bool(want), ref


def _per_slash_key_sets(paths) -> tuple[set[str], set[str]]:
    """The key sets as first built: every path's prefix before each slash,
    and each path's ``sans_ext`` stem."""
    prefixes, stems = set(), set()
    for path in paths:
        slash = path.find("/")
        while slash >= 0:
            prefixes.add(path[:slash])
            slash = path.find("/", slash + 1)
        stem = sans_ext(path)
        if stem is not None:
            stems.add(stem)
    return prefixes, stems


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        path_sets,
        # Any text over the characters that matter, leading, trailing and
        # doubled slashes included.
        st.sets(st.text(alphabet="ab./", max_size=10), max_size=20),
    )
)
def test_key_sets_equal_the_per_slash_scan(paths):
    resolver = RefResolver(paths)
    assert (resolver._prefixes, resolver._stems) == _per_slash_key_sets(paths)


def test_targets_skips_neighbours_in_sort_order():
    paths = ["a", "a-/x.go", "a.", "a.b", "a.b/c.go", "a/b.c.d", "a/x.go", "a0/y.go", "b.c.d"]
    resolver = RefResolver(paths)
    assert resolver.targets("a") == ["a", "a.", "a.b", "a/b.c.d", "a/x.go"]
    assert resolver.targets("a.b") == ["a.b", "a.b/c.go"]
    assert resolver.targets("b.c") == ["b.c.d"]
    assert resolver.targets("a/b.c") == ["a/b.c.d"]
    assert resolver.targets("a/b") == []
    assert not resolver.resolves("a/b")


# ---------------------------------------------------------------------------
# Rename lookup
# ---------------------------------------------------------------------------


def _sequential_rewrite(ref: str, rename_map: dict[str, str]) -> str | None:
    """The rename rule applied one rename at a time; the first match wins."""
    for old, new in rename_map.items():
        if ref == old:
            return new
        base = old.rsplit("/", 1)[-1]
        if "." in base and old[: old.rindex(".")] == ref:
            new_base = new.rsplit("/", 1)[-1]
            return new[: new.rindex(".")] if "." in new_base else new
    return None


def _entry(path: str, refs=()) -> CodeEntry:
    return CodeEntry(path=path, tag=None, decoded=None, f="TODO", r=tuple(refs), a="", s="TODO")


def _expected_rewrites(index: Index, rename_map: dict[str, str]):
    return tuple(
        (entry.path, ref, new)
        for entry in index.code_entries
        for ref in entry.r
        if (new := _sequential_rewrite(ref, rename_map)) is not None and new != ref
    )


def _renames(rename_map: dict[str, str]) -> ChangeSet:
    return ChangeSet(
        tuple(ChangeRecord(ChangeStatus.RENAMED, old, new) for old, new in rename_map.items())
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rename_rewrites_match_sequential_rule(data):
    paths = sorted(data.draw(st.sets(paths_st, min_size=1, max_size=12)))
    ref_pool = st.sampled_from(sorted(set(paths) | {s for s in map(sans_ext, paths) if s}))
    entries = tuple(
        _entry(path, data.draw(st.lists(ref_pool, max_size=4, unique=True))) for path in paths
    )
    old_paths = data.draw(st.permutations(paths))[: data.draw(st.integers(1, len(paths)))]
    rename_map = {
        old: f"n{i}/{data.draw(paths_st)}" for i, old in enumerate(old_paths)
    }
    index = Index(Header(), entries)
    plan = plan_update(index_lines(index), _renames(rename_map))
    assert plan.ref_rewrites == _expected_rewrites(index, rename_map)


def test_rename_of_file_and_its_stem_namesake_first_match_wins():
    # "x/b" is both a path and the extension-less key of "x/b.go".
    entries = (_entry("x/b"), _entry("x/b.go"), _entry("y.go", ("x/b", "x/b.go")))
    index = Index(Header(), entries)
    for rename_map, want in (
        ({"x/b": "z/k", "x/b.go": "z/m.go"}, ("z/k", "z/m.go")),
        ({"x/b.go": "z/m.go", "x/b": "z/k"}, ("z/m", "z/m.go")),
    ):
        plan = plan_update(index_lines(index), _renames(rename_map))
        assert plan.ref_rewrites == _expected_rewrites(index, rename_map)
        assert plan.ref_rewrites == (("y.go", "x/b", want[0]), ("y.go", "x/b.go", want[1]))


# ---------------------------------------------------------------------------
# Scaffold fan-in, differential
# ---------------------------------------------------------------------------

# path -> (source text, the R tuple its imports must resolve to)
FAN_IN_TREE = {
    "lib/util.go": ('package lib\nimport "app/core/engine"\n', ("core/engine",)),
    "lib/strings.go": ('package lib\nimport "app/a"\n', ("a",)),
    # Names its own stem: fan-in counts core/engine.py but not itself.
    "core/engine.go": (
        'package core\nimport "app/lib"\nimport "app/core/engine"\n',
        ("lib", "core/engine"),
    ),
    "core/engine.py": ("from lib.util import x\n", ("lib/util",)),
    "core/main.go": (
        'package core\nimport "app/lib"\nimport "app/a.b"\nimport "app/lib/util.go"\n',
        ("lib", "a.b", "lib/util.go"),
    ),
    "a/x.go": (
        'package a\nimport "app/a-"\nimport "app/core/engine.py"\n',
        ("a-", "core/engine.py"),
    ),
    "a-/y.go": ('package x\nimport "app/a0"\n', ("a0",)),
    "a0/z.go": ('package z\nimport "app/lib"\n', ("lib",)),
    "a.b.go": ("package ab\n", ()),
    "a.b/c.go": ('package c\nimport "app/core"\nimport "app/missing"\n', ("core",)),
    "web/app.js": (
        'import h from "./helpers.js"\nimport "../lib/util"\n',
        ("web/helpers.js", "lib/util"),
    ),
    "web/helpers.js": ("export const h = 1\n", ()),
}


def _brute_fan_in(paths, relations):
    counts = dict.fromkeys(paths, 0)
    for source, refs in relations.items():
        touched = {path for ref in refs for path in paths if resolves_to(ref, path)}
        for target in touched - {source}:
            counts[target] += 1
    return counts


def test_fan_in_matches_brute_force(tmp_path):
    for path, (text, _) in FAN_IN_TREE.items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    rules = ScaffoldRules(layer_rules=(("*", "S"),), module_rules=(("*", "C"),))
    result = scaffold_repo(tmp_path, rules)

    paths = sorted(FAN_IN_TREE)
    relations = {path: refs for path, (_, refs) in FAN_IN_TREE.items()}
    for refs in relations.values():
        for ref in refs:
            assert any(resolves_to(ref, path) for path in paths), ref
    fan_in = _brute_fan_in(paths, relations)
    ranking = sorted(paths, key=lambda p: (-fan_in[p], p))
    want_digit = {p: rules.importance_for(rank / len(paths)) for rank, p in enumerate(ranking)}

    assert [draft.entry.path for draft in result.drafts] == paths
    for draft in result.drafts:
        path = draft.entry.path
        assert draft.entry.r == relations[path], path
        assert draft.fan_in == fan_in[path], path
        assert draft.entry.decoded.importance == want_digit[path], path
    # Directory references ("lib", "core") and the stem "core/engine" fan
    # out to several files; "a" reaches neither "a-/" nor "a0/".
    assert fan_in["lib/strings.go"] == 3
    assert (fan_in["core/engine.go"], fan_in["core/engine.py"]) == (2, 4)
    assert (fan_in["a/x.go"], fan_in["a-/y.go"], fan_in["a0/z.go"]) == (1, 1, 1)
