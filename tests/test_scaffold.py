"""Repository scanning, classification heuristics, and prompt packs."""

from __future__ import annotations

import builtins
import os
import random
import re
import sys
from collections import Counter
from fnmatch import fnmatchcase
from glob import escape as glob_escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNREADABLE,
    WALK_GLOB_SETS,
    make_walk_tree,
    reference_captures,
    reference_walk,
)
from aoci.cli import run
from aoci.errors import ConfigError
from aoci.grammar import decode_tag, decode_utf8, serialize_index
from aoci.scaffold import (
    DEFAULT_IMPORT_PATTERNS,
    ScaffoldRules,
    _captures,
    dictionary_from_rules,
    draft_entry,
    emit_prompt_pack,
    extract_relations,
    file_source_loader,
    parse_rules_file,
    scaffold_repo,
    scan_repo,
)
from aoci.tree import any_glob
from aoci.validator import RefResolver, has_errors, validate_index

RULES_TEXT = """\
# fixture rules
[layer]
middleware/* = W
pkg/* = S
model/* = M
*.yaml = C
[module]
*auth* = A
*user* = U
*jwt* = C
* = C
[size]
100 = T
300 = S
800 = M
* = L
[importance]
10% = 9
20% = 8
20% = 7
20% = 5
20% = 3
* = 1
[imports.go]
quoted = ^\\s*import\\s+(?:\\w+\\s+)?"([^"]+)"\\s*$
block = ^\\s*(?:\\w+\\s+)?"([^"]+)"\\s*$
"""


@pytest.fixture
def rules():
    return parse_rules_file(RULES_TEXT)


def _write(root, path, text):
    target = root / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _relations(root, path, source, repo, rules=ScaffoldRules()):
    """The references ``source``, scanned as ``path``, makes into ``repo``."""
    target = root / path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(source if isinstance(source, bytes) else source.encode("utf-8"))
    (item,) = [item for item in scan_repo(root, rules) if item.path == path]
    return extract_relations(path, item.modules, RefResolver(repo))


@pytest.fixture
def go_repo(tmp_path):
    _write(
        tmp_path,
        "middleware/auth.go",
        'package middleware\n\nimport "myapp/pkg/jwt"\n' + "// filler\n" * 117,
    )
    _write(tmp_path, "pkg/jwt/jwt.go", "package jwt\n" + "// filler\n" * 9)
    _write(tmp_path, "model/user/user.go", "package user\n" + "// x\n" * 40)
    _write(tmp_path, "config.yaml", "db: postgres\n")
    return tmp_path


def test_parse_rules_file_sections(rules):
    assert rules.layer_for("middleware/auth.go") == ("middleware/*", "W")
    assert rules.module_for("middleware/auth.go") == ("*auth*", "A")
    assert rules.scale_for(99) == "T"
    assert rules.scale_for(100) == "S"
    assert rules.scale_for(9999) == "L"
    assert rules.importance_for(0.0) == 9
    assert rules.importance_for(0.05) == 9
    assert rules.importance_for(0.95) == 1


# Import patterns a join (?:p1)|(?:p2) would change, and why each is refused.
UNJOINABLE = {
    "global-flag": (r"(?i)^import (\w+)", "global flag"),
    "global-flag-unicode": (r"(?u)^import (\w+)", "global flag"),
    "named-group": (r"^import (?P<module>\w+)", "named group"),
    "backreference": (r"""^(["'])(\w+)\1""", "backreference"),
    "named-backreference": (r"""^(?P<q>["'])(\w+)(?P=q)""", "named group"),
    "conditional": (r"^import (<)?(\w+)(?(1)>)", "conditional"),
}


@pytest.mark.parametrize(
    "bad",
    [
        "[size]\n100 = T\n* = L\n",
        "[importance]\n10% = 9\n",
        "[bogus]\nx = y\n",
        "no section = here\n",
        "[layer]\nmissing equals\n",
        "[imports.go]\nnogroup = ^import$\n",
        *(
            pytest.param(f"[layer]\n* = W\n\n[imports.go]\nq = {pattern}\n", id=kind)
            for kind, (pattern, _) in UNJOINABLE.items()
        ),
    ],
)
def test_parse_rules_file_rejects(bad):
    with pytest.raises(ConfigError) as refused:
        parse_rules_file(bad)
    if "[imports." in bad:  # an import pattern is refused on its own line, the last
        assert str(refused.value).startswith(f"rules line {bad.count(chr(10))}: ")


@pytest.mark.parametrize("kind", UNJOINABLE)
def test_scaffold_rules_refuse_an_import_pattern_a_join_would_change(kind):
    pattern, reason = UNJOINABLE[kind]
    with pytest.raises(ConfigError, match=rf"^\[imports\.go\] regex .*{reason}"):
        ScaffoldRules(import_patterns={".go": (re.compile(pattern),)})


def test_a_flag_passed_to_compile_is_refused_like_an_inline_one():
    with pytest.raises(ConfigError, match="global flag"):
        ScaffoldRules(import_patterns={".go": (re.compile(r"^import (\w+)", re.IGNORECASE),)})


@pytest.mark.parametrize("pattern", [r"\\1(\w+)", r"\(?(\w+)", r"(?i:x)(\w+)", r"(?-i:x)(\w+)"])
def test_an_escaped_backslash_or_paren_or_a_scoped_flag_is_admitted(pattern):
    ScaffoldRules(import_patterns={".go": (re.compile(pattern),)})


def test_a_scoped_flag_is_admitted_and_applies_to_its_group(tmp_path):
    rules = parse_rules_file('[imports.go]\nq = (?i:^import) "(\\w+)"\n')
    _write(tmp_path, "a.go", 'IMPORT "x"\nimport "y"\nImport z\n')
    assert [item.modules for item in scan_repo(tmp_path, rules)] == [("x", "y")]


def test_an_imports_section_extension_is_not_case_sensitive(tmp_path):
    rules = parse_rules_file("[imports.GO]\nq = ^package (\\w+)\n")
    _write(tmp_path, "a.go", 'package a\nimport "b"\n')
    assert [item.modules for item in scan_repo(tmp_path, rules)] == [("a",)]


# Lines built from the phrases of import statements and their near misses,
# with the carriage returns, byte order marks, blank lines and non-ASCII
# text that real files hold.
_DEFAULT_IMPORT_LINE = st.lists(
    st.sampled_from(
        [
            "import ", "imports ", "importx", "from ", "fro ", "export {a} ", "export ", "require(",
            "require (", "requir(", "package ", "x ", '"a/b"', "'./c'", '"é"', "..", ")", "{", " ",
            "\t", "\r", "\ufeff", "名",
        ]
    ),
    max_size=6,
).map("".join)
_DEFAULT_IMPORT_TEXT = st.lists(_DEFAULT_IMPORT_LINE, max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=_DEFAULT_IMPORT_TEXT, ext=st.sampled_from(sorted(DEFAULT_IMPORT_PATTERNS)))
def test_gated_matching_agrees_with_every_line_and_pattern_on_the_defaults(text, ext):
    rules = ScaffoldRules()
    patterns = rules.patterns_for(ext)
    data = text.encode("utf-8")
    expected = reference_captures(decode_utf8(data), patterns)
    assert _captures(data, rules.gate_for(ext), patterns, {}) == expected


# Admitted user patterns: anchored and not, a top-level |, scoped flags, and
# an alternative whose group takes no part in the match (|^package).
_USER_PATTERN = st.builds(
    lambda head, group, tail: "".join(head) + group + "".join(tail),
    st.lists(
        st.sampled_from(
            [
                "^", "\\s*", "import ", "(?i:import) ", "from ", "(?!import\\b)", "require\\(",
                "['\"]", "x|",
            ]
        ),
        max_size=3,
    ),
    st.sampled_from(["(\\w+)", "([\\w./]+)", "(\\w*)", '"(\\w+)"', "(?i:(x+))", "(a)?"]),
    st.lists(
        st.sampled_from(["$", "\\b", "['\"]", "\\s*$", "|^package", "|(y)", "|"]), max_size=2
    ),
)
_USER_TEXT = st.lists(
    st.sampled_from(
        [
            "import ", "IMPORT ", "Import ", "from ", "package", "require(", '"', "'", " ", "x", "X",
            "y", "ab", ".", "/", "\n", "\r", "é",
        ]
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(sources=st.lists(_USER_PATTERN, min_size=1, max_size=4), text=_USER_TEXT)
def test_gated_matching_agrees_with_every_line_and_pattern_on_user_patterns(sources, text):
    patterns = tuple(re.compile(source) for source in sources)
    rules = ScaffoldRules(import_patterns={".x": patterns})
    expected = reference_captures(text, patterns)
    assert _captures(text.encode("utf-8"), rules.gate_for(".x"), patterns, {}) == expected


def test_an_import_group_that_takes_no_part_in_a_match_names_no_import(tmp_path):
    rules = parse_rules_file('[layer]\n* = W\n[module]\n* = A\n[imports.go]\nq = ^import "(\\w+)"|^package\n')
    source = 'package a\nimport "b"\n'
    assert _relations(tmp_path, "a.go", source, ["a.go", "b.go"], rules) == ["b"]


@pytest.mark.parametrize(
    "rules_text",
    [
        "[importance]\n* = ²\n",
        "[importance]\n* = ٣\n",
        "[size]\n٣ = T\n300 = S\n800 = M\n* = L\n",
        "[size]\n100 = T\n300 = S\n1_000 = M\n* = L\n",
    ],
    ids=["importance-superscript", "importance-arabic-indic", "size-arabic-indic", "size-1_000"],
)
def test_scaffold_rejects_a_non_ascii_rules_integer(tmp_path, capsys, rules_text):
    rules = tmp_path / "rules.txt"
    rules.write_text(rules_text, encoding="utf-8")
    assert run(["scaffold", str(tmp_path), "--rules", str(rules)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [")


def test_rules_validation():
    with pytest.raises(ConfigError, match="increase"):
        ScaffoldRules(size_cutoffs=(300, 100, 800))
    with pytest.raises(ConfigError, match="decrease"):
        ScaffoldRules(importance_quantiles=((0.5, 3), (1.0, 9)))


def test_scan_empty_dir(tmp_path):
    assert scan_repo(tmp_path, ScaffoldRules()) == []


def test_scan_counts_lines(tmp_path):
    _write(tmp_path, "a.go", "\n".join(f"line {i}" for i in range(120)) + "\n")
    _write(tmp_path, "b.go", "\n".join(f"line {i}" for i in range(10)) + "\n")
    files = scan_repo(tmp_path, ScaffoldRules())
    assert [(f.path, f.loc) for f in files] == [("a.go", 120), ("b.go", 10)]
    assert files[0].ext == ".go"


def test_scan_skips_hidden_and_respects_globs(tmp_path):
    _write(tmp_path, ".git/config", "x\n")
    _write(tmp_path, "src/a.go", "x\n")
    _write(tmp_path, "vendor/b.go", "x\n")
    files = scan_repo(tmp_path, ScaffoldRules(), exclude_globs=("vendor/*",))
    assert [f.path for f in files] == ["src/a.go"]


def test_scan_missing_root(tmp_path):
    with pytest.raises(OSError):
        scan_repo(tmp_path / "nope", ScaffoldRules())


@pytest.mark.parametrize("include, exclude", WALK_GLOB_SETS)
def test_scan_matches_brute_force_walk(tmp_path, caplog, include, exclude):
    make_walk_tree(tmp_path)
    got = [(f.path, f.loc, f.ext) for f in scan_repo(tmp_path, ScaffoldRules(), include, exclude)]
    want = [
        (rel, len(data.splitlines()), os.path.splitext(name)[1].lower())
        for rel, data, name in reference_walk(tmp_path, include, exclude)
    ]
    assert got == want and got
    admitted = any(fnmatchcase(UNREADABLE, glob) for glob in include)
    assert (f"skipping unreadable file {UNREADABLE}" in caplog.text) == admitted


glob_st = st.text(alphabet="ab/.*?[]!-", max_size=6)
name_st = st.text(alphabet="ab/.-[]", max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(glob_st, max_size=3), st.lists(name_st, max_size=6))
def test_any_glob_matches_fnmatchcase(globs, names):
    matches = any_glob(globs)
    for name in names:
        assert bool(matches(name)) == any(fnmatchcase(name, glob) for glob in globs)


path_st = st.text(alphabet="ab/.*?[]!-", max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(path_st, max_size=3), st.lists(glob_st, max_size=2), st.lists(path_st, max_size=4))
def test_any_glob_matches_escaped_paths_as_fnmatchcase_does(paths, globs, others):
    # Escaped paths, as update --changes passes them, are looked up in a set;
    # their '[', '*' and '?' come out as one-character classes.
    globs = [glob_escape(path) for path in paths] + globs
    matches = any_glob(globs)
    for name in paths + others:
        assert bool(matches(name)) == any(fnmatchcase(name, glob) for glob in globs)


@pytest.mark.parametrize(
    "globs, name, want",
    [
        (["a[[]b", "c[*]", "d[?]"], "a[b", True),
        (["a[[]b", "c[*]", "d[?]"], "c*", True),
        (["a[[]b", "c[*]", "d[?]"], "cx", False),
        (["a[[]b", "d[?]"], "dx", False),
        (["a[[]b", "d*"], "dx", True),
        (["[ab]"], "a", True),
        ([], "", False),
        ([""], "", True),
    ],
)
def test_any_glob_on_literal_and_wildcard_globs(globs, name, want):
    assert bool(any_glob(globs)(name)) is want


def test_extract_relations_go_module_prefix(tmp_path):
    repo = ["middleware/auth.go", "pkg/jwt/jwt.go", "model/user/user.go"]
    text = 'package x\n\nimport "myapp/pkg/jwt"\n'
    assert _relations(tmp_path, "middleware/auth.go", text, repo) == ["pkg/jwt"]


def test_extract_relations_none(tmp_path):
    assert _relations(tmp_path, "a.go", "package a\n", ["a.go", "b.go"]) == []


def test_extract_relations_drops_external(tmp_path):
    text = 'import "github.com/gin-gonic/gin"\n'
    assert _relations(tmp_path, "a.go", text, ["a.go", "b.go"]) == []


def test_extract_relations_python_dotted(tmp_path):
    repo = ["app/db.py", "app/api.py"]
    text = "import app.db\nfrom app.api import handler\n"
    assert _relations(tmp_path, "main.py", text, repo) == ["app/db", "app/api"]


def test_extract_relations_js_relative(tmp_path):
    repo = ["src/util/format.ts", "src/view.ts"]
    text = "import { fmt } from './util/format'\n"
    assert _relations(tmp_path, "src/view.ts", text, repo) == ["src/util/format"]


def test_extract_relations_binary_is_empty(tmp_path):
    assert _relations(tmp_path, "blob.go", b"\xff\xfe\x00", ["a.go"]) == []


def test_each_go_import_line_is_captured_once(tmp_path):
    text = (
        'package a\n\nimport "myapp/pkg/jwt"\nimport x "myapp/model/user"\n'
        'import (\n\t"myapp/pkg/log"\n\ty "myapp/pkg/db"\n)\n'
    )
    _write(tmp_path, "a.go", text)
    (item,) = scan_repo(tmp_path, ScaffoldRules())
    assert item.modules == ("myapp/pkg/jwt", "myapp/model/user", "myapp/pkg/log", "myapp/pkg/db")
    repo = ["a.go", "pkg/jwt/jwt.go", "model/user/user.go", "pkg/log/log.go", "pkg/db/db.go"]
    assert extract_relations("a.go", item.modules, RefResolver(repo)) == [
        "pkg/jwt", "model/user", "pkg/log", "pkg/db"
    ]


def test_extract_relations_skips_own_package(tmp_path):
    repo = ["pkg/jwt/jwt.go", "pkg/jwt/keys.go"]
    text = 'import "myapp/pkg/jwt"\n'
    assert _relations(tmp_path, "pkg/jwt/keys.go", text, repo) == []


_CLASSIFY_ALL = "[layer]\n* = W\n[module]\n* = A\n"


def _drafted_refs(root, path):
    return scaffold_repo(root, parse_rules_file(_CLASSIFY_ALL)).index.entry_map()[path].r


def test_a_first_line_import_after_a_byte_order_mark_is_kept(tmp_path):
    for name in ("app/db.py", "app/api.py"):
        _write(tmp_path, name, "x = 1\n")
    (tmp_path / "main.py").write_bytes("\ufeffimport app.db\nimport app.api\n".encode("utf-8"))
    assert _drafted_refs(tmp_path, "main.py") == ("app/db", "app/api")


def test_python_relative_imports_resolve_from_the_importers_package(tmp_path):
    for name in ("db.py", "lib.py", "app/db.py", "app/api.py", "app/sub/mod.py"):
        _write(tmp_path, name, "x = 1\n")
    _write(
        tmp_path,
        "app/main.py",
        "from .db import x\nfrom ..lib import y\nfrom .sub.mod import z\nfrom . import api\n",
    )
    # `from . import api` names only the importer's own package: dropped.
    assert _drafted_refs(tmp_path, "app/main.py") == ("app/db", "lib", "app/sub/mod")


def test_draft_entry_top_decile(rules):
    draft = draft_entry(
        "middleware/auth.go", 250, ["pkg/jwt"], rules, fan_in=9, fan_in_quantile=0.02
    )
    entry = draft.entry
    assert entry.tag == "WA9S"
    decoded = decode_tag(entry.tag, dictionary_from_rules(rules))
    assert decoded.layer == "W"
    assert decoded.module == "A"
    assert decoded.importance == 9
    assert decoded.scale == "S"
    assert entry.f == "TODO" and entry.s == "TODO"
    assert entry.r == ("pkg/jwt",)
    assert draft.layer_pattern == "middleware/*"
    assert not draft.unclassified


def test_draft_entry_unmatched_is_tagless(rules):
    draft = draft_entry("vendor/x.c", 10, [], rules, fan_in=0, fan_in_quantile=0.99)
    assert draft.entry.tag is None
    assert draft.unclassified
    assert any("no layer" in warning for warning in draft.warnings)


def test_draft_entry_smallest_scale(rules):
    draft = draft_entry("pkg/tiny.go", 10, [], rules, fan_in=0, fan_in_quantile=0.5)
    assert draft.entry.decoded.scale == "T"


def test_scale_monotone_in_loc(rules):
    rng = random.Random(3)
    order = {code: i for i, code in enumerate(rules.size_codes)}
    locs = sorted(rng.randint(0, 2000) for _ in range(50))
    codes = [rules.scale_for(loc) for loc in locs]
    assert all(order[a] <= order[b] for a, b in zip(codes, codes[1:]))


def test_importance_rank_mapping_monotone(rules):
    # Higher fan-in never draws a lower digit: rank files by fan-in the way
    # the scaffolder does and walk the resulting digits.
    rng = random.Random(11)
    fan_in = {f"f{i}.go": rng.randint(0, 50) for i in range(200)}
    ranking = sorted(fan_in, key=lambda p: (-fan_in[p], p))
    digits = [rules.importance_for(rank / len(ranking)) for rank in range(len(ranking))]
    for (left, right), (da, db) in zip(zip(ranking, ranking[1:]), zip(digits, digits[1:])):
        if fan_in[left] > fan_in[right]:
            assert da >= db


def test_importance_monotone_in_fan_in(rules, tmp_path):
    # Build a star: many files import hub.go, nothing imports the leaves.
    _write(tmp_path, "pkg/hub.go", "package hub\n" + "// x\n" * 5)
    for i in range(9):
        _write(tmp_path, f"pkg/leaf{i}.go", f'package p\nimport "myapp/pkg/hub"\n')
    result = scaffold_repo(tmp_path, rules)
    drafts = {d.entry.path: d for d in result.drafts}
    hub = drafts["pkg/hub.go"]
    assert hub.fan_in == 9
    leaf_importances = {
        drafts[f"pkg/leaf{i}.go"].entry.decoded.importance for i in range(9)
    }
    assert hub.entry.decoded.importance >= max(leaf_importances)


def test_scaffold_repo_deterministic(go_repo, rules):
    first = scaffold_repo(go_repo, rules)
    second = scaffold_repo(go_repo, rules)
    assert serialize_index(first.index) == serialize_index(second.index)


def test_scaffold_output_validates_clean(go_repo, rules):
    result = scaffold_repo(go_repo, rules)
    issues = validate_index(result.index)
    assert not has_errors(issues)
    paths = [entry.path for entry in result.index.code_entries]
    assert paths == sorted(paths)


def test_scaffold_extracts_cross_references(go_repo, rules):
    result = scaffold_repo(go_repo, rules)
    entry = result.index.entry_map()["middleware/auth.go"]
    assert entry.r == ("pkg/jwt",)


def _count_reads(monkeypatch, root):
    """Count the opens for reading of each file under ``root``, by the
    module that opened it: ``(module, canonical path) -> opens``."""
    reads = Counter()
    real_open = builtins.open
    prefix = os.path.join(os.fspath(root), "")

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, str) and file.startswith(prefix) and not set(mode) & set("wax+"):
            rel = os.path.relpath(file, root).replace(os.sep, "/")
            reads[sys._getframe(1).f_globals["__name__"], rel] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    return reads


GO_REPO_FILES = ("config.yaml", "middleware/auth.go", "model/user/user.go", "pkg/jwt/jwt.go")


def test_scaffold_repo_reads_each_file_once(go_repo, rules, monkeypatch):
    reads = _count_reads(monkeypatch, go_repo)
    scaffold_repo(go_repo, rules)
    assert reads == {("aoci.tree", path): 1 for path in GO_REPO_FILES}


def test_scaffold_with_prompts_reads_each_file_twice(go_repo, tmp_path_factory, monkeypatch):
    out = tmp_path_factory.mktemp("out")
    (out / "rules.txt").write_text(RULES_TEXT, encoding="utf-8")
    reads = _count_reads(monkeypatch, go_repo)
    argv = ["scaffold", str(go_repo), "--rules", str(out / "rules.txt"), "--out", str(out / "idx")]
    assert run(argv + ["--prompts", str(out / "packs")]) == 0
    assert reads == {("aoci.tree", path): 2 for path in GO_REPO_FILES}
    assert len(list((out / "packs").iterdir())) == len(GO_REPO_FILES)


def test_prompt_pack_layout(go_repo, rules):
    result = scaffold_repo(go_repo, rules)
    packs = []
    skipped = emit_prompt_pack(
        result.index, result.drafts, file_source_loader(result.fs_paths), packs.append
    )
    assert skipped == []
    by_path = {pack.path: pack for pack in packs}
    pack = by_path["middleware/auth.go"]
    assert pack.filename == "middleware__auth.go.prompt.txt"
    sections = [
        line for line in pack.text.splitlines()
        if line in ("DICTIONARY", "ENTRY", "BUDGET", "SOURCE", "INSTRUCTIONS")
    ]
    assert sections == ["DICTIONARY", "ENTRY", "BUDGET", "SOURCE", "INSTRUCTIONS"]


def test_prompt_pack_budget_for_top_importance(go_repo, rules):
    result = scaffold_repo(go_repo, rules)
    top = [d for d in result.drafts if d.entry.decoded and d.entry.decoded.importance == 9]
    assert top, "fixture should produce at least one importance-9 draft"
    packs = []
    emit_prompt_pack(result.index, top, file_source_loader(result.fs_paths), packs.append)
    assert "80-150 tokens (importance 9)" in packs[0].text


def test_prompt_pack_empty_and_skipped(go_repo, rules):
    result = scaffold_repo(go_repo, rules)
    packs = []
    assert emit_prompt_pack(result.index, [], file_source_loader(result.fs_paths), packs.append) == []
    assert packs == []
    (go_repo / "config.yaml").unlink()
    skipped = emit_prompt_pack(
        result.index, result.drafts, file_source_loader(result.fs_paths), packs.append
    )
    assert skipped == ["config.yaml"]


def test_prompt_pack_is_written_before_the_next_source_is_loaded(go_repo, rules):
    result = scaffold_repo(go_repo, rules)
    load = file_source_loader(result.fs_paths)
    events = []

    def loader(path):
        events.append(("load", path))
        return load(path)

    emit_prompt_pack(
        result.index, result.drafts, loader, lambda pack: events.append(("write", pack.path))
    )
    paths = [draft.entry.path for draft in result.drafts]
    assert len(paths) > 1
    assert events == [(kind, path) for path in paths for kind in ("load", "write")]


def test_default_import_patterns_cover_shipped_languages():
    assert {".go", ".py", ".js", ".ts"} <= set(DEFAULT_IMPORT_PATTERNS)
