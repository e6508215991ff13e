"""End-to-end CLI behavior: exit codes, streams, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, LISTING_AUTH, make_index, splice_noise
from aoci import grammar
from aoci.cli import ExitCode, run
from aoci.grammar import (
    ParseError,
    ParseErrorKind,
    parse_index,
    parse_index_report,
    serialize_blocks,
    serialize_code_entry,
    serialize_header,
    serialize_index,
    serialize_table_entry,
)
from aoci.incremental import StalenessStore, content_digest, entry_digest
from aoci.metrics import TokenEstimator

GOLDEN = FIXTURES / "listing1.aoci"


@pytest.fixture
def golden_copy(tmp_path):
    target = tmp_path / "listing1.aoci"
    target.write_bytes(GOLDEN.read_bytes())
    return target


def test_check_clean_fixture_quiet(capsys):
    assert run(["check", str(GOLDEN)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_check_reports_errors_and_exits_1(tmp_path, capsys):
    broken = GOLDEN.read_text(encoding="utf-8").replace("R:model/org", "R:missing/ref")
    target = tmp_path / "bad.aoci"
    target.write_text(broken, encoding="utf-8")
    assert run(["check", str(target)]) == 1
    out = capsys.readouterr().out
    assert "error E2 org_repo.go" in out


def test_check_warnings_do_not_fail(tmp_path, capsys):
    noisy = GOLDEN.read_text(encoding="utf-8").replace(
        "S:DB/Redis/JWT/encryption keys/rate limiting/LLM proxy/CORS", "S:tiny"
    )
    target = tmp_path / "warn.aoci"
    target.write_text(noisy, encoding="utf-8")
    assert run(["check", str(target)]) == 0
    assert "warning W1 config.yaml" in capsys.readouterr().out


def test_check_parse_error_lenient_vs_strict(tmp_path, capsys):
    broken = GOLDEN.read_text(encoding="utf-8").replace("auth.go[WA9JM]", "auth.go[ZZ0]")
    target = tmp_path / "broken.aoci"
    target.write_text(broken, encoding="utf-8")
    assert run(["check", str(target)]) == 1
    err = capsys.readouterr().err
    assert "error parse" in err
    assert run(["check", "--strict", str(target)]) == 1


def test_check_reports_duplicates_and_unknown_codes_as_located_parse_errors(tmp_path, capsys):
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines[17].startswith("config.yaml[CC9T]:") and lines[19].startswith("model/org/org.go")
    lines[17] = lines[17].replace("[CC9T]", "[CX9T]", 1)
    lines.insert(22, lines[19])
    target = tmp_path / "dup.aoci"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["check", str(target)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0] == f"error parse {target}: line 18, column 13: tag 'CX9T': no B code matches 'X'"
    assert err[1] == (
        f"error parse {target}: line 23, column 1: duplicate code entry path 'model/org/org.go'"
    )


@pytest.mark.parametrize(
    "header, line, message",
    [
        ("#AOCI ²", 1, "#AOCI needs an integer version >= 1, got '²'"),
        ("#AOCI ١", 1, "#AOCI needs an integer version >= 1, got '١'"),
        ("#AOCI 1\n#DIM C 9,²", 2, "importance level '²' is not one of 9/8/7/5/3/1"),
        ("#AOCI 1\n#BUDGET ٩:80-150", 2, "budget entry '٩:80-150' is not <digit>:<min>-<max>"),
    ],
    ids=["aoci-superscript", "aoci-arabic-indic", "dim-c", "budget"],
)
def test_check_locates_a_non_ascii_header_integer(tmp_path, capsys, header, line, message):
    target = tmp_path / "digits.aoci"
    target.write_text(f"{header}\n#DIM A W=Middleware\n#DIM B A=Auth\n@CODE\n", encoding="utf-8")
    assert run(["check", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0] == f"error parse {target}: line {line}, column 1: {message}"
    assert "Traceback" not in captured.err


AMBIGUOUS_INDEX = (
    "#AOCI 1\n#DIM A W=Middleware\n#DIM B A=Auth\n#DIM C 9,8,7,5,3,1\n"
    "#DIM D J=JWT,T=Token,JT=JWT token\n@CODE\n"
    "auth.go[WA9JT]: F:auth | R:- | A:- | S:text\n"
)


def test_check_reports_an_ambiguous_tag_as_one_located_parse_error(tmp_path, capsys):
    target = tmp_path / "ambiguous.aoci"
    target.write_text(AMBIGUOUS_INDEX, encoding="utf-8")
    assert run(["check", str(target)]) == 1
    assert capsys.readouterr().err == (
        f"error parse {target}: line 7, column 9: tag 'WA9JT': 'JT' splits into D codes 2 ways\n"
    )
    errors = parse_index_report(AMBIGUOUS_INDEX).errors
    assert [error.kind for error in errors] == [ParseErrorKind.TAG_DECODE]


def test_check_report_keeps_a_parse_error_located_and_kinded(tmp_path, capsys):
    target = tmp_path / "ambiguous.aoci"
    target.write_text(AMBIGUOUS_INDEX, encoding="utf-8")
    report = tmp_path / "report.json"
    assert run(["check", str(target), "--report", str(report)]) == 1
    capsys.readouterr()
    parse_record, *rule_records = json.loads(report.read_text(encoding="utf-8"))
    assert parse_record == {
        "severity": "error",
        "rule": "parse",
        "subject": str(target),
        "message": "line 7, column 9: tag 'WA9JT': 'JT' splits into D codes 2 ways",
        "kind": "tag-decode",
        "line": 7,
        "column": 9,
    }
    assert [record["rule"] for record in rule_records] == ["W2"]
    assert "kind" not in rule_records[0]


def test_decode_tag_cli_reports_an_ambiguous_tag(tmp_path, capsys):
    target = tmp_path / "dictionary.aoci"
    target.write_text(AMBIGUOUS_INDEX.replace("[WA9JT]", "[WA9J]"), encoding="utf-8")
    assert run(["decode-tag", "WA9JT", "--index", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tag 'WA9JT': 'JT' splits into D codes 2 ways\n"


def test_decode_tag_cli_reads_only_the_header(tmp_path, capsys):
    target = tmp_path / "ambiguous.aoci"
    target.write_text(AMBIGUOUS_INDEX, encoding="utf-8")
    assert run(["decode-tag", "WA9J", "--index", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "layer: W=Middleware\nmodule: A=Auth\nimportance: 9\nfeatures: J=JWT\nscale: -\n"
    )
    assert captured.err == ""
    target.write_text(AMBIGUOUS_INDEX.replace("#DIM D", "#BOGUS\n#DIM D"), encoding="utf-8")
    assert run(["decode-tag", "WA9J", "--index", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 5, column 1: unknown directive #BOGUS\n"


def test_check_coverage_output(tmp_path, capsys):
    files = tmp_path / "files.txt"
    files.write_text("auth.go\nconfig.yaml\nextra.go\n", encoding="utf-8")
    # Coverage gaps are informational; exit stays governed by Error issues.
    code = run(["check", str(GOLDEN), "--files", str(files)])
    out = capsys.readouterr().out
    assert code == 0
    assert "coverage: 2/3 eligible files indexed" in out
    assert "unindexed: extra.go" in out
    assert "orphan entry: model/org/org.go" in out


def test_check_files_folds_an_inner_dot_segment(tmp_path, capsys):
    files = tmp_path / "files.txt"
    files.write_text("auth.go\nmodel/./org/org.go\npkg/jwt/jwt.go\n", encoding="utf-8")
    assert run(["check", str(GOLDEN), "--files", str(files)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "coverage: 3/3 eligible files indexed" in out
    assert "orphan entry: model/org/org.go" not in out


def test_check_files_leaves_out_its_own_index(tmp_path, golden_copy, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    files = tmp_path / "files.txt"
    files.write_text(
        "auth.go\nconfig.yaml\nlisting1.aoci\nlisting1.aoci.lock\nextra.go\n", encoding="utf-8"
    )
    assert run(["check", str(golden_copy), "--files", "files.txt"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "coverage: 2/3 eligible files indexed" in out
    assert [line for line in out if line.startswith("unindexed: ")] == ["unindexed: extra.go"]


def test_check_report_records(tmp_path):
    broken = GOLDEN.read_text(encoding="utf-8").replace("R:model/org", "R:missing/ref")
    target = tmp_path / "bad.aoci"
    target.write_text(broken, encoding="utf-8")
    report = tmp_path / "report.json"
    run(["check", str(target), "--report", str(report)])
    records = json.loads(report.read_text(encoding="utf-8"))
    assert any(rec["rule"] == "E2" for rec in records)


def test_fmt_outputs_canonical(capsys):
    assert run(["fmt", str(GOLDEN)]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


def test_fmt_idempotent(tmp_path, capsys):
    messy = GOLDEN.read_text(encoding="utf-8").replace(" | ", "  |  ")
    source = tmp_path / "messy.aoci"
    source.write_text(messy, encoding="utf-8")
    run(["fmt", str(source)])
    first = capsys.readouterr().out
    again = tmp_path / "first.aoci"
    again.write_text(first, encoding="utf-8")
    run(["fmt", str(again)])
    assert capsys.readouterr().out == first


def test_fmt_verify(tmp_path, capsys):
    assert run(["fmt", "--verify", str(GOLDEN)]) == 0
    messy = GOLDEN.read_text(encoding="utf-8").replace(" | ", "  |  ")
    target = tmp_path / "messy.aoci"
    target.write_text(messy, encoding="utf-8")
    assert run(["fmt", "--verify", str(target)]) == 1
    assert "not in canonical form" in capsys.readouterr().err


def test_ablate_variant_to_stdout(capsys):
    assert run(["ablate", str(GOLDEN), "--variant", "wo-FRAS"]) == 0
    out = capsys.readouterr().out
    assert "auth.go[WA9JM]: F:- | R:- | A:- | S:-" in out
    parse_index(out)


def test_ablate_rejects_unknown_variant(capsys):
    assert run(["ablate", str(GOLDEN), "--variant", "wo-X"]) == 2


def test_ablate_nl_rewrite_emits_prompt_not_index(capsys):
    assert run(["ablate", str(GOLDEN), "--variant", "NL-rewrite"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("INDEX\n#AOCI 1\n")
    assert "INSTRUCTIONS" in out
    assert "Preserve every identifier verbatim" in out


def test_stats_table_and_records(tmp_path, capsys):
    records_path = tmp_path / "stats.json"
    assert run(["stats", str(GOLDEN), "--loc", "1000", "--records", str(records_path)]) == 0
    out = capsys.readouterr().out
    assert "code entries" in out
    assert "tokens per LOC" in out
    data = json.loads(records_path.read_text(encoding="utf-8"))
    assert data["total_code_entries"] == 7


@pytest.mark.parametrize("loc", ["١٠٠", "1_000", "0", "-5"])
def test_stats_loc_takes_only_a_positive_ascii_integer(loc, capsys):
    assert run(["stats", str(GOLDEN), "--loc", loc]) == 2
    assert f"--loc: expected a positive integer, got {loc!r}" in capsys.readouterr().err


def test_stats_estimator_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AOCI_ESTIMATOR", "words13")
    assert run(["stats", str(GOLDEN)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("AOCI_ESTIMATOR", "bogus")
    assert run(["stats", str(GOLDEN)]) == 2


def test_score_where_cli(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("./src/auth.go\nsrc/db.go\n", encoding="utf-8")
    truth.write_text("src/auth.go\nsrc/other.go\n", encoding="utf-8")
    assert run(["score", "where", "--pred", str(pred), "--truth", str(truth)]) == 0
    assert capsys.readouterr().out.strip() == "0.5000"


def test_score_where_count_mismatch(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("a.go\n", encoding="utf-8")
    truth.write_text("a.go\nb.go\n", encoding="utf-8")
    assert run(["score", "where", "--pred", str(pred), "--truth", str(truth)]) == 2


def test_score_what_cli(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("a\nb\n", encoding="utf-8")
    truth.write_text("b\nc\n", encoding="utf-8")
    assert run(["score", "what", "--pred", str(pred), "--truth", str(truth)]) == 0
    assert capsys.readouterr().out.strip() == "0.5000"


def test_decode_tag_cli(capsys):
    assert run(["decode-tag", "WA9JM", "--index", str(GOLDEN)]) == 0
    out = capsys.readouterr().out
    assert "layer: W=Middleware" in out
    assert "module: A=Auth" in out
    assert "importance: 9" in out
    assert "features: J=JWT" in out
    assert "scale: M=Medium" in out


def test_decode_tag_cli_bad_tag(capsys):
    assert run(["decode-tag", "NOPE", "--index", str(GOLDEN)]) == 1
    assert "error" in capsys.readouterr().err


def test_scaffold_cli(tmp_path, capsys):
    repo = tmp_path / "repo"
    (repo / "middleware").mkdir(parents=True)
    (repo / "middleware" / "auth.go").write_text(
        'package middleware\nimport "myapp/pkg/jwt"\n', encoding="utf-8"
    )
    (repo / "pkg" / "jwt").mkdir(parents=True)
    (repo / "pkg" / "jwt" / "jwt.go").write_text("package jwt\n", encoding="utf-8")
    rules = tmp_path / "rules.txt"
    rules.write_text(
        "[layer]\nmiddleware/* = W\npkg/* = S\n"
        "[module]\n*auth* = A\n* = C\n",
        encoding="utf-8",
    )
    out_index = tmp_path / "draft.aoci"
    prompts = tmp_path / "prompts"
    code = run(
        [
            "scaffold",
            str(repo),
            "--rules",
            str(rules),
            "--out",
            str(out_index),
            "--prompts",
            str(prompts),
        ]
    )
    assert code == 0
    parsed = parse_index(out_index.read_bytes())
    assert [e.path for e in parsed.code_entries] == ["middleware/auth.go", "pkg/jwt/jwt.go"]
    assert parsed.entry_map()["middleware/auth.go"].r == ("pkg/jwt",)
    pack_files = sorted(p.name for p in prompts.iterdir())
    assert pack_files == [
        "middleware__auth.go.prompt.txt",
        "pkg__jwt__jwt.go.prompt.txt",
    ]


@pytest.mark.skipif(os.sep == "\\", reason="a backslash is a separator on this platform")
def test_scaffold_cli_reads_a_backslash_file_name(tmp_path, capsys):
    # Legal on POSIX; its canonical path is y/z.go, which names no file.
    repo = tmp_path / "repo"
    (repo / "x").mkdir(parents=True)
    (repo / "x" / "q.go").write_text("package q\n", encoding="utf-8")
    source = 'package z\nimport "x/q"\n'
    (repo / "y\\z.go").write_text(source, encoding="utf-8")
    rules = tmp_path / "rules.txt"
    rules.write_text("[layer]\n* = W\n[module]\n* = A\n", encoding="utf-8")
    out_index = tmp_path / "draft.aoci"
    prompts = tmp_path / "prompts"
    argv = ["scaffold", str(repo), "--rules", str(rules), "--out", str(out_index),
            "--prompts", str(prompts)]

    assert run(argv) == 0
    assert "skipped prompt pack" not in capsys.readouterr().err
    drafted = [line for line in out_index.read_text(encoding="utf-8").splitlines()
               if line.startswith("y/z.go[")]
    assert len(drafted) == 1 and " R:x/q " in drafted[0]
    assert sorted(p.name for p in prompts.iterdir()) == [
        "x__q.go.prompt.txt",
        "y__z.go.prompt.txt",
    ]
    pack = (prompts / "y__z.go.prompt.txt").read_text(encoding="utf-8")
    assert "\nSOURCE\n" + source in pack


def test_scaffold_cli_keeps_the_first_pack_under_a_colliding_name(tmp_path, capsys):
    # x/y.go and x__y.go both map to the pack name x__y.go.prompt.txt.
    repo = tmp_path / "repo"
    (repo / "x").mkdir(parents=True)
    (repo / "x" / "y.go").write_text("package x\n", encoding="utf-8")
    (repo / "x__y.go").write_text("package main\n", encoding="utf-8")
    rules = tmp_path / "rules.txt"
    rules.write_text("[layer]\n* = W\n[module]\n* = A\n", encoding="utf-8")
    out_index = tmp_path / "draft.aoci"
    prompts = tmp_path / "prompts"
    argv = ["scaffold", str(repo), "--rules", str(rules), "--out", str(out_index),
            "--prompts", str(prompts)]

    assert run(argv) == 0
    parsed = parse_index(out_index.read_bytes())
    assert [e.path for e in parsed.code_entries] == ["x/y.go", "x__y.go"]
    assert capsys.readouterr().err == (
        "warning: skipped prompt pack for x__y.go: "
        "x__y.go.prompt.txt already holds the pack for x/y.go\n"
    )
    assert [p.name for p in prompts.iterdir()] == ["x__y.go.prompt.txt"]
    pack = (prompts / "x__y.go.prompt.txt").read_text(encoding="utf-8")
    assert "\nENTRY\nx/y.go[" in pack and "\nSOURCE\npackage x\n" in pack


def test_scaffold_cli_leaves_out_its_own_index_and_packs(tmp_path, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.go").write_text("package pkg\n", encoding="utf-8")
    (tmp_path / "rules.txt").write_text("[layer]\n* = W\n[module]\n* = A\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argv = ["scaffold", ".", "--rules", "rules.txt", "--out", "idx.aoci", "--prompts", "packs"]

    assert run(argv) == 0
    first = (tmp_path / "idx.aoci").read_bytes()
    assert run(argv) == 0
    assert (tmp_path / "idx.aoci").read_bytes() == first
    assert [e.path for e in parse_index(first).code_entries] == ["pkg/a.go", "rules.txt"]
    assert sorted(p.name for p in (tmp_path / "packs").iterdir()) == [
        "pkg__a.go.prompt.txt",
        "rules.txt.prompt.txt",
    ]


def test_update_cli_with_changes_and_drafts(tmp_path, golden_copy, capsys):
    changes = tmp_path / "changes.txt"
    changes.write_text("M\tauth.go\nD\tmodel/org/org.go\n", encoding="utf-8")
    drafts = tmp_path / "drafts"
    drafts.mkdir()
    (drafts / "auth.go.entry.txt").write_text(
        "auth.go[WA9JM]: F:JWT authentication middleware | R:pkg/jwt,model/user | A:- | "
        "S:revised synopsis via the drafts directory passes length checks\n",
        encoding="utf-8",
    )
    code = run(["update", str(golden_copy), "--changes", str(changes), "--drafts", str(drafts)])
    assert code == 0
    err = capsys.readouterr().err
    # org_repo.go still references the deleted model, which the plan surfaces.
    assert "dangling reference after update: org_repo.go -> model/org" in err
    updated = parse_index(golden_copy.read_bytes())
    assert "model/org/org.go" not in updated.code_paths()
    assert updated.entry_map()["auth.go"].s.startswith("revised synopsis")


def test_update_cli_names_the_draft_file_that_fails_to_parse(
    tmp_path, golden_copy, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    changes = tmp_path / "changes.txt"
    changes.write_text("M\tauth.go\n", encoding="utf-8")
    store = tmp_path / "s.tsv"
    args = ["update", str(golden_copy), "--changes", str(changes), "--store", str(store)]
    assert run(args) == 0
    capsys.readouterr()
    index_before, store_before = golden_copy.read_bytes(), store.read_bytes()

    drafts = tmp_path / "drafts"
    drafts.mkdir()
    (drafts / "auth.go.entry.txt").write_text("auth.go[ZZ9]: F:x | R:- | A:- | S:y\n", encoding="utf-8")
    assert run(args + ["--drafts", str(drafts)]) == 1
    assert capsys.readouterr().err == (
        f"error: {drafts / 'auth.go.entry.txt'}: line 1, column 9: "
        "tag 'ZZ9': no A code matches 'ZZ'\n"
    )
    assert golden_copy.read_bytes() == index_before
    assert store.read_bytes() == store_before


# One byte that is not UTF-8, at line 2, column 2.
_UNDECODABLE = b"ok.go\nz\xff.go\n"

_SIDE_INPUTS = ["changes", "rules", "files", "files-stdin", "pred", "truth", "draft", "store"]


def _side_input(case, tmp_path, golden_copy, monkeypatch):
    """Set up an updated index and its store in ``tmp_path``, the working
    directory. Returns the command that reads the side input ``case``, the
    file that input goes in, and the exit code of a bad input."""
    monkeypatch.chdir(tmp_path)
    changes = tmp_path / "changes.txt"
    changes.write_text("M\tauth.go\n", encoding="utf-8")
    store = tmp_path / "s.tsv"
    update = ["update", str(golden_copy), "--changes", str(changes), "--store", str(store)]
    assert run(update) == 0
    drafts = tmp_path / "drafts"
    drafts.mkdir()
    good = tmp_path / "good.txt"
    good.write_text("a.go\n", encoding="utf-8")
    path = {"draft": drafts / "auth.go.entry.txt", "store": store}.get(case, tmp_path / "bad.txt")
    index, name = str(golden_copy), str(path)
    argv, code = {
        "changes": (["update", index, "--changes", name, "--store", str(store)], 1),
        "rules": (["scaffold", str(tmp_path), "--rules", name], 2),
        "files": (["check", index, "--files", name], 1),
        "files-stdin": (["check", index, "--files", "-"], 1),
        "pred": (["score", "what", "--pred", name, "--truth", str(good)], 1),
        "truth": (["score", "what", "--pred", str(good), "--truth", name], 1),
        "draft": (update + ["--drafts", str(drafts)], 1),
        "store": (update, 1),
    }[case]
    return argv, path, code


def _feed(case, path, data, monkeypatch):
    """Put ``data`` in the side input's file, and on stdin for ``files-stdin``."""
    path.write_bytes(data)
    if case == "files-stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@pytest.mark.parametrize("case", _SIDE_INPUTS)
def test_an_undecodable_side_input_is_a_located_error(
    case, tmp_path, golden_copy, monkeypatch, capsys
):
    argv, bad, code = _side_input(case, tmp_path, golden_copy, monkeypatch)
    store = tmp_path / "s.tsv"
    _feed(case, bad, _UNDECODABLE, monkeypatch)
    name = "-" if case == "files-stdin" else str(bad)
    capsys.readouterr()
    index_before, store_before = golden_copy.read_bytes(), store.read_bytes()
    assert run(argv) == code
    assert capsys.readouterr().err == (
        f"error: {name}: line 2, column 2: invalid UTF-8 at byte 7\n"
    )
    assert golden_copy.read_bytes() == index_before
    assert store.read_bytes() == store_before


# A valid input per side input; the store's is the store as the set-up wrote it.
_VALID_SIDE_INPUT = {
    "changes": b"M\tauth.go\n",
    "rules": b"[layer]\n* = W\n[module]\n* = A\n",
    "files": b"auth.go\nextra.go\n",
    "files-stdin": b"auth.go\nextra.go\n",
    "pred": b"a.go\nb.go\n",
    "truth": b"a.go\n",
    "draft": b"auth.go[WA9JM]: F:revised | R:pkg/jwt | A:- | S:revised synopsis\n",
}


@pytest.mark.parametrize("case", _SIDE_INPUTS)
def test_a_side_input_may_start_with_a_byte_order_mark(
    case, tmp_path, golden_copy, monkeypatch, capsys
):
    argv, path, _ = _side_input(case, tmp_path, golden_copy, monkeypatch)
    store = tmp_path / "s.tsv"
    index_before, store_before = golden_copy.read_bytes(), store.read_bytes()
    data = _VALID_SIDE_INPUT.get(case, store_before)
    outcomes = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        golden_copy.write_bytes(index_before)
        store.write_bytes(store_before)
        _feed(case, path, prefix + data, monkeypatch)
        capsys.readouterr()
        code = run(argv)
        out, err = capsys.readouterr()
        outcomes.append((code, out, err, golden_copy.read_bytes(), store.read_bytes()))
    assert outcomes[0][0] == 0
    assert outcomes[1] == outcomes[0]


def test_update_cli_pending_without_draft(tmp_path, golden_copy, capsys):
    changes = tmp_path / "changes.txt"
    changes.write_text("M\tauth.go\n", encoding="utf-8")
    assert run(["update", str(golden_copy), "--changes", str(changes)]) == 0
    assert "pending regeneration" in capsys.readouterr().err
    assert parse_index(golden_copy.read_bytes()).entry_map()["auth.go"].s.startswith("extract")


def test_update_cli_store_marks_pending_then_commits_draft(
    tmp_path, golden_copy, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "auth.go").write_text("package middleware\n", encoding="utf-8")
    changes = tmp_path / "changes.txt"
    changes.write_text("M\tauth.go\n", encoding="utf-8")
    store = tmp_path / "s.tsv"
    before = golden_copy.read_bytes()

    # No draft: the store records the path as pending, the index is untouched.
    args = ["update", str(golden_copy), "--changes", str(changes), "--store", str(store)]
    assert run(args) == 0
    assert "pending regeneration (no draft supplied): auth.go" in capsys.readouterr().err
    assert golden_copy.read_bytes() == before
    assert StalenessStore.load(store.read_text(encoding="utf-8")).get("auth.go") == ("", "")

    # With a draft: the content digest is filled in and the entry digest is
    # the new line's.
    drafts = tmp_path / "drafts"
    drafts.mkdir()
    (drafts / "auth.go.entry.txt").write_text(
        "auth.go[WA9JM]: F:JWT authentication middleware | R:pkg/jwt,model/user | A:- | "
        "S:revised synopsis via the drafts directory passes length checks\n",
        encoding="utf-8",
    )
    assert run(args + ["--drafts", str(drafts)]) == 0
    assert "pending" not in capsys.readouterr().err
    entry = parse_index(golden_copy.read_bytes()).entry_map()["auth.go"]
    assert entry.s.startswith("revised synopsis")
    assert serialize_code_entry(entry) in golden_copy.read_text(encoding="utf-8").splitlines()
    assert StalenessStore.load(store.read_text(encoding="utf-8")).get("auth.go") == (
        content_digest(b"package middleware\n"),
        entry_digest(entry),
    )


def test_update_cli_usage_errors(golden_copy, tmp_path):
    assert run(["update", str(golden_copy)]) == 2
    assert run(["update", str(golden_copy), "--detect"]) == 2
    changes = tmp_path / "c.txt"
    changes.write_text("M\tauth.go\n", encoding="utf-8")
    code = run(
        [
            "update",
            str(golden_copy),
            "--changes",
            str(changes),
            "--detect",
            "--store",
            str(tmp_path / "s.tsv"),
        ]
    )
    assert code == 2


def test_update_cli_changes_from_stdin(tmp_path, golden_copy, monkeypatch, capsys):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b"D\tconfig.yaml\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(["update", str(golden_copy), "--changes", "-"]) == 0
    updated = parse_index(golden_copy.read_bytes())
    assert "config.yaml" not in updated.code_paths()


@pytest.mark.parametrize(
    "listing,target",
    [
        ("R100\tauth.go\tmodel/org/org.go\nD\tmodel/org/org.go\n", "model/org/org.go"),
        ("D\tmodel/org/org.go\nR100\tauth.go\tmodel/org/org.go\n", "model/org/org.go"),
        ("R100\tauth.go\tnew.go\nR100\torg_repo.go\tnew.go\n", "new.go"),
        ("R100\tauth.go\tnew.go\nA\tnew.go\n", "new.go"),
    ],
    ids=["rename then delete", "delete then rename", "two renames", "rename then add"],
)
def test_update_cli_rejects_a_colliding_rename_target(
    tmp_path, golden_copy, monkeypatch, capsys, listing, target
):
    monkeypatch.chdir(tmp_path)
    changes = tmp_path / "changes.txt"
    store = tmp_path / "s.tsv"
    args = ["update", str(golden_copy), "--changes", str(changes), "--store", str(store)]
    changes.write_text("M\tconfig.yaml\n", encoding="utf-8")
    assert run(args) == 0  # leaves a pending row in the store
    capsys.readouterr()
    before = golden_copy.read_bytes(), store.read_bytes()

    changes.write_text(listing, encoding="utf-8")
    assert run(args) == 1
    assert capsys.readouterr().err == (
        f"error: line 2, column 1: {target} is also named on line 1, "
        "and a rename target may appear in no other record\n"
    )
    assert (golden_copy.read_bytes(), store.read_bytes()) == before


def test_update_cli_swaps_two_entries_by_renames(tmp_path, golden_copy):
    before = parse_index(golden_copy.read_bytes()).entry_map()
    changes = tmp_path / "changes.txt"
    changes.write_text("R100\tauth.go\torg_repo.go\nR100\torg_repo.go\tauth.go\n", encoding="utf-8")
    assert run(["update", str(golden_copy), "--changes", str(changes)]) == 0
    after = parse_index(golden_copy.read_bytes()).entry_map()
    assert after["auth.go"].s == before["org_repo.go"].s
    assert after["org_repo.go"].s == before["auth.go"].s


def test_update_cli_detect_cycle(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.chdir(repo)
    (repo / "middleware").mkdir()
    (repo / "middleware" / "auth.go").write_text("package middleware\n", encoding="utf-8")
    index_path = tmp_path / "idx.aoci"
    index_path.write_text(
        "#AOCI 1\n#DIM A W=Middleware\n#DIM B A=Auth\n#DIM C 9,8,7,5,3,1\n"
        "#DIM E M=Medium\n@CODE\n"
        "middleware/auth.go[WA9M]: F:auth | R:- | A:- | S:text\n",
        encoding="utf-8",
    )
    store = tmp_path / "store.tsv"

    # First run seeds the store; the file is unknown to it, so it reports
    # the entry as pending (no draft supplied).
    assert run(["update", str(index_path), "--detect", "--store", str(store)]) == 0
    assert "pending regeneration" in capsys.readouterr().err
    assert store.exists()

    drafts = tmp_path / "drafts"
    drafts.mkdir()
    (drafts / "auth.entry.txt").write_text(
        "middleware/auth.go[WA9M]: F:auth middleware | R:- | A:- | S:filled in\n",
        encoding="utf-8",
    )
    assert run(
        ["update", str(index_path), "--detect", "--store", str(store), "--drafts", str(drafts)]
    ) == 0
    capsys.readouterr()

    # Stable tree plus a seeded store: the next detect run is a no-op.
    assert run(["update", str(index_path), "--detect", "--store", str(store)]) == 0
    assert "pending" not in capsys.readouterr().err
    updated = parse_index(index_path.read_bytes())
    assert updated.entry_map()["middleware/auth.go"].s == "filled in"


DETECT_INDEX = (
    "#AOCI 1\n#DIM A W=Middleware\n#DIM B A=Auth\n#DIM C 9,8,7,5,3,1\n"
    "#DIM E M=Medium\n@CODE\n"
    "middleware/auth.go[WA9M]: F:auth | R:- | A:- | S:text\n"
)


@pytest.mark.skipif(os.sep == "\\", reason="a backslash is a separator on this platform")
def test_update_cli_detect_digests_a_backslash_file_name(tmp_path, monkeypatch, capsys):
    # Legal on POSIX; its canonical path is y/z.go, which names no file.
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.chdir(repo)
    (repo / "y\\z.go").write_bytes(b"package y\n")
    index_path = tmp_path / "idx.aoci"
    index_path.write_text(DETECT_INDEX, encoding="utf-8")
    store = tmp_path / "s.tsv"
    drafts = tmp_path / "drafts"
    drafts.mkdir()
    (drafts / "z.entry.txt").write_text(
        "y/z.go[WA9M]: F:y | R:- | A:- | S:drafted\n", encoding="utf-8"
    )

    args = ["update", str(index_path), "--detect", "--store", str(store), "--drafts", str(drafts)]
    assert run(args) == 0, capsys.readouterr().err
    entry = parse_index(index_path.read_bytes()).entry_map()["y/z.go"]
    assert StalenessStore.load(store.read_text(encoding="utf-8")).get("y/z.go") == (
        content_digest(b"package y\n"),
        entry_digest(entry),
    )


@pytest.mark.skipif(os.sep == "\\", reason="a backslash is a separator on this platform")
def test_update_cli_changes_digests_a_backslash_file_name(tmp_path, monkeypatch, capsys):
    # A listing names y\z.go by its canonical path y/z.go; the store must
    # hold the content digest of the file the walk finds under that name.
    import hashlib

    repo = tmp_path / "repo"
    (repo / "middleware").mkdir(parents=True)
    monkeypatch.chdir(repo)
    (repo / "middleware" / "auth.go").write_text("package middleware\n", encoding="utf-8")
    (repo / "y\\z.go").write_bytes(b"package y\n")
    index_path = tmp_path / "idx.aoci"
    index_path.write_text(DETECT_INDEX, encoding="utf-8")
    store = tmp_path / "s.tsv"
    drafts = (
        "middleware/auth.go[WA9M]: F:auth | R:- | A:- | S:drafted",
        "y/z.go[WA9M]: F:y | R:- | A:- | S:drafted",
    )
    listing = "M\tmiddleware/auth.go\nA\ty\\z.go\n"
    assert _update_with_store(index_path, store, tmp_path, listing, drafts) == 0
    capsys.readouterr()
    stored = StalenessStore.load(store.read_text(encoding="utf-8"))
    assert stored.get("y/z.go")[0] == hashlib.sha256(b"package y\n").hexdigest()

    # The next detect run finds the tree as the store recorded it.
    before = index_path.read_bytes()
    assert run(["update", str(index_path), "--detect", "--store", str(store)]) == 0
    assert capsys.readouterr().err == ""
    assert index_path.read_bytes() == before


def test_update_cli_detect_skips_its_own_index_and_store(tmp_path, monkeypatch, capsys):
    # Index and store in the repository root, one named relatively and one
    # absolutely; the brackets would be a glob class if left unescaped.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "middleware").mkdir()
    (tmp_path / "middleware" / "auth.go").write_text("package middleware\n", encoding="utf-8")
    (tmp_path / "idx[1].aoci").write_text(DETECT_INDEX, encoding="utf-8")
    store = tmp_path / "store.tsv"
    args = ["update", "idx[1].aoci", "--detect", "--store", str(store)]

    assert run(args) == 0
    assert capsys.readouterr().err == (
        "pending regeneration (no draft supplied): middleware/auth.go\n"
    )
    assert run(args) == 0
    assert capsys.readouterr().err == (
        "pending regeneration (no draft supplied): middleware/auth.go\n"
    )
    stored = StalenessStore.load(store.read_text(encoding="utf-8"))
    assert stored.paths() == frozenset({"middleware/auth.go"})


def test_update_cli_detect_drops_the_row_of_a_deleted_unindexed_path(
    tmp_path, monkeypatch, capsys
):
    # A listed file without an entry is marked pending; once it is deleted,
    # one --detect warns about it and drops its row, and the next is quiet.
    repo = tmp_path / "repo"
    (repo / "middleware").mkdir(parents=True)
    monkeypatch.chdir(repo)
    (repo / "middleware" / "auth.go").write_text("package middleware\n", encoding="utf-8")
    (repo / "b.py").write_text("import os\n", encoding="utf-8")
    index_path = tmp_path / "idx.aoci"
    index_path.write_text(DETECT_INDEX, encoding="utf-8")
    store = tmp_path / "s.tsv"
    assert _update_with_store(index_path, store, tmp_path, "M\tb.py\n") == 0
    assert StalenessStore.load(store.read_text(encoding="utf-8")).get("b.py") == ("", "")
    (repo / "b.py").unlink()
    capsys.readouterr()

    detect = ["update", str(index_path), "--detect", "--store", str(store)]
    assert run(detect) == 0
    assert "warning: no entry for deleted path b.py\n" in capsys.readouterr().err
    assert run(detect) == 0
    assert "b.py" not in capsys.readouterr().err
    assert "b.py" not in StalenessStore.load(store.read_text(encoding="utf-8")).paths()


def test_update_cli_refuses_locked_index(tmp_path, golden_copy, capsys):
    import fcntl

    changes = tmp_path / "changes.txt"
    changes.write_text("D\tconfig.yaml\n", encoding="utf-8")
    with open(f"{golden_copy}.lock", "ab") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        assert run(["update", str(golden_copy), "--changes", str(changes)]) == 3
    assert "locked" in capsys.readouterr().err


def test_update_cli_holds_the_lock_from_reading_to_the_store_write(
    tmp_path, golden_copy, monkeypatch
):
    import fcntl

    from aoci import cli

    changes = tmp_path / "changes.txt"
    changes.write_text("D\tconfig.yaml\n", encoding="utf-8")
    store = tmp_path / "s.tsv"
    probes = []

    def probe(when):
        with open(f"{golden_copy}.lock", "ab") as other:
            try:
                fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                probes.append((when, "refused"))
            else:
                fcntl.flock(other, fcntl.LOCK_UN)
                probes.append((when, "granted"))

    read_bytes, replace_file = cli._read_bytes, cli._replace_file

    def probing_read(path):
        if path == str(golden_copy):
            probe("index read")
        return read_bytes(path)

    def probing_write(path, *args, **kwargs):
        if path == str(store):
            probe("store write")
        return replace_file(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_read_bytes", probing_read)
    monkeypatch.setattr(cli, "_replace_file", probing_write)
    args = ["update", str(golden_copy), "--changes", str(changes), "--store", str(store)]
    assert run(args) == 0
    assert probes == [("index read", "refused"), ("store write", "refused")]


def _update_with_store(index, store, tmp_path, listing, drafts=()):
    """Run ``update --changes --store`` with ``drafts`` as entry lines."""
    changes = tmp_path / "changes.txt"
    changes.write_text(listing, encoding="utf-8")
    draft_dir = tmp_path / "drafts"
    draft_dir.mkdir(exist_ok=True)
    for old in draft_dir.iterdir():
        old.unlink()
    for i, line in enumerate(drafts):
        (draft_dir / f"{i}.entry.txt").write_text(line + "\n", encoding="utf-8")
    return run(
        ["update", str(index), "--changes", str(changes), "--store", str(store),
         "--drafts", str(draft_dir)]
    )


def _record_full_parses(monkeypatch) -> list[int]:
    """The size of every index ``update`` parses in full, from now on."""
    from aoci import cli

    calls = []
    parse = cli.parse_index

    def recording_parse(data):
        calls.append(len(data))
        return parse(data)

    monkeypatch.setattr(cli, "parse_index", recording_parse)
    return calls


def test_update_cli_keeps_a_valid_hand_edit_in_canonical_form(
    tmp_path, golden_copy, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "s.tsv"
    assert _update_with_store(golden_copy, store, tmp_path, "M\tconfig.yaml\n") == 0
    # Extra spaces around every '|' and a new synopsis for org_repo.go.
    edited = golden_copy.read_text(encoding="utf-8").replace(" | ", "  |  ").replace(
        "Delete cascading cleanup", "Delete cascading cleanup, edited by hand"
    )
    golden_copy.write_text(edited, encoding="utf-8")
    parses = _record_full_parses(monkeypatch)

    assert _update_with_store(golden_copy, store, tmp_path, "M\tauth.go\n") == 0
    assert len(parses) == 1
    data = golden_copy.read_bytes()
    text = data.decode("utf-8")
    assert text == serialize_index(parse_index(edited))
    assert "Delete cascading cleanup, edited by hand\n" in text and "  |  " not in text
    stored = StalenessStore.load(store.read_text(encoding="utf-8"))
    assert stored.index_digest == content_digest(data)


def test_update_cli_malformed_hand_edit_fails_as_before_and_writes_nothing(
    tmp_path, golden_copy, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "s.tsv"
    assert _update_with_store(golden_copy, store, tmp_path, "M\tauth.go\n") == 0
    capsys.readouterr()
    golden_copy.write_text(
        golden_copy.read_text(encoding="utf-8").replace(" | A:- | S:DB/Redis", " A:- | S:DB/Redis"),
        encoding="utf-8",
    )
    index_before, store_before = golden_copy.read_bytes(), store.read_bytes()

    assert _update_with_store(golden_copy, store, tmp_path, "M\tauth.go\n") == 1
    assert capsys.readouterr().err == (
        "error: line 18, column 20: expected four |-separated elements, found 3\n"
    )
    assert golden_copy.read_bytes() == index_before
    assert store.read_bytes() == store_before


def test_update_cli_fast_and_slow_paths_agree(tmp_path, golden_copy, monkeypatch, capsys):
    """The same rounds with and without the store's digest record: the same
    index bytes, the same store, the same messages."""
    monkeypatch.chdir(tmp_path)
    slow_index = tmp_path / "slow.aoci"
    slow_index.write_bytes(golden_copy.read_bytes())
    fast_store, slow_store = tmp_path / "fast.tsv", tmp_path / "slow.tsv"
    rounds = [
        ("M\tauth.go\nM\tconfig.yaml\n", ()),
        (
            "R100\tmodel/user/user.go\tmodel/account/user.go\nM\tauth.go\n",
            ("auth.go[WA9JM]: F:JWT middleware | R:pkg/jwt,model/account | A:- | "
             "S:drafted after the user model moved to the account package",),
        ),
        ("D\torg_repo.go\nA\tpkg/new.go\n", ("pkg/new.go: F:new | R:auth.go | A:- | S:added",)),
        ("R100\tauth.go\tmiddleware/auth.go\n", ()),
    ]
    parses = _record_full_parses(monkeypatch)
    for listing, drafts in rounds:
        assert _update_with_store(golden_copy, fast_store, tmp_path, listing, drafts) == 0
        fast_err = capsys.readouterr().err
        assert _update_with_store(slow_index, slow_store, tmp_path, listing, drafts) == 0
        assert capsys.readouterr().err == fast_err
        assert golden_copy.read_bytes() == slow_index.read_bytes()
        assert slow_store.read_bytes() == fast_store.read_bytes()
        record = f"\t{content_digest(golden_copy.read_bytes())}\t\n"
        # Drop the slow side's record so its next round validates in full.
        slow_text = slow_store.read_text(encoding="utf-8")
        assert slow_text.startswith(record)
        slow_store.write_text(slow_text[len(record):], encoding="utf-8")
    # The fast side parsed in full only on its first round, the slow side on
    # every round.
    assert len(parses) == 1 + len(rounds)


def test_update_cli_store_without_digest_record_takes_the_full_parse(
    tmp_path, golden_copy, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "s.tsv"
    store.write_text("auth.go\tc0\te0\n", encoding="utf-8")
    parses = _record_full_parses(monkeypatch)
    assert _update_with_store(golden_copy, store, tmp_path, "M\tconfig.yaml\n") == 0
    assert len(parses) == 1
    stored = StalenessStore.load(store.read_text(encoding="utf-8"))
    assert stored.index_digest == content_digest(golden_copy.read_bytes())
    assert stored.get("auth.go") == ("c0", "e0")
    # With the record in place, the next run only scans.
    assert _update_with_store(golden_copy, store, tmp_path, "M\tconfig.yaml\n") == 0
    assert len(parses) == 1


def test_usage_and_io_exit_codes(tmp_path, capsys):
    assert run(["bogus-subcommand"]) == 2
    assert run([]) == 2
    assert run(["check", str(tmp_path / "missing.aoci")]) == 3


def test_check_reads_stdin(monkeypatch, capsys):
    import io

    data = GOLDEN.read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run(["check", "-"]) == 0


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys

    import aoci

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoci.__file__)))
    clean = subprocess.run(
        [sys.executable, "-m", "aoci", "check", str(GOLDEN)],
        capture_output=True, text=True, env=env,
    )
    assert (clean.returncode, clean.stdout, clean.stderr) == (0, "", "")
    broken = tmp_path / "bad.aoci"
    broken.write_text(
        GOLDEN.read_text(encoding="utf-8").replace("R:model/org", "R:missing/ref"),
        encoding="utf-8",
    )
    failed = subprocess.run(
        [sys.executable, "-m", "aoci", "check", str(broken)],
        capture_output=True, text=True, env=env,
    )
    assert failed.returncode == 1
    assert "E2" in failed.stdout


def _reference_serialize(index) -> str:
    """The canonical text built whole, as ``serialize_index`` built it before
    it joined ``serialize_blocks``."""
    lines = [serialize_header(index.header), "@CODE"]
    lines.extend(serialize_code_entry(entry) for entry in index.code_entries)
    if index.table_entries:
        lines.append("@TABLES")
        lines.extend(serialize_table_entry(table) for table in index.table_entries)
    return "\n".join(lines) + "\n"


def _old_fmt_verify_code(data: bytes) -> int:
    """The exit code of ``fmt --verify`` when it compared the whole text."""
    try:
        canonical = _reference_serialize(parse_index(data))
    except ParseError:
        return 1
    return 0 if canonical.encode("utf-8") == data else 1


def _change_one_byte(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    byte = rng.choice([b for b in b" x|:[]\n\t\xff" if b != data[at]])
    return data[:at] + bytes([byte]) + data[at + 1 :]


_MUTATIONS = {
    "canonical": lambda data, rng: data,
    "bom": lambda data, rng: b"\xef\xbb\xbf" + data,
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
    "trailing blank line": lambda data, rng: data + b"\n",
    "no final newline": lambda data, rng: data[:-1],
    "one changed byte": _change_one_byte,
}


def _quiet_run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(argv)


@given(st.integers(0, 2**32), st.integers(1, 5), st.sampled_from(sorted(_MUTATIONS)))
@settings(max_examples=100, deadline=None)
def test_streaming_changes_no_bytes(seed, block_lines, mutation):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(0, 12), tables=rng.randint(0, 3))
    text = _reference_serialize(index)
    with mock.patch.object(grammar, "_BLOCK_LINES", block_lines):
        blocks = list(serialize_blocks(index))
        assert all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == serialize_index(index) == text
        assert TokenEstimator.CHARS4.estimate(text) == math.ceil(len(text) / 4)
        assert TokenEstimator.WORDS13.estimate(text) == math.ceil(len(text.split()) * 4 / 3)
        for estimator in TokenEstimator:
            assert estimator.total(serialize_blocks(index)) == estimator.estimate(text)

        data = _MUTATIONS[mutation](text.encode("utf-8"), rng)
        want = _old_fmt_verify_code(data)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "index.aoci"
            path.write_bytes(data)
            assert _quiet_run(["fmt", str(path), "--verify"]) == want
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with mock.patch.object(sys, "stdin", stdin):
            assert _quiet_run(["fmt", "-", "--verify"]) == want


def _work_files() -> dict[str, bytes]:
    """A working directory holding every input some command reads."""
    index = GOLDEN.read_bytes()
    auth = b'package middleware\nimport "myapp/pkg/jwt"\n'
    auth_entry = parse_index(index).entry_map()["auth.go"]
    store = StalenessStore(
        {"auth.go": (content_digest(auth), entry_digest(auth_entry))},
        index_digest=content_digest(index),
    )
    return {
        "idx.aoci": index,
        "auth.go": auth,
        "store.tsv": store.dump().encode("utf-8"),
        "changes.txt": b"M\tauth.go\nR100\tconfig.yaml\tconf/config.yaml\n",
        "drafts/auth.go.entry.txt": LISTING_AUTH.replace("S:", "S:revised ").encode("utf-8"),
        "files.txt": b"auth.go\nconfig.yaml\nextra.go\n",
        "pred.txt": b"JWT\nuser_id\n",
        "truth.txt": b"jwt\n",
        "rules.txt": b'[layer]\n* = W\n[module]\n* = A\n[imports.go]\nq = ^import "([^"]+)"$\n',
        "repo/main.go": b'package main\nimport "repo/pkg"\n',
        "repo/pkg/pkg.go": b"package pkg\n",
    }


_WORK_FILES = _work_files()

# Each command, and the files of _WORK_FILES it reads.
_COMMANDS = {
    "check": (
        ["check", "idx.aoci", "--files", "files.txt", "--report", "report.json"],
        ["idx.aoci", "files.txt"],
    ),
    "fmt": (["fmt", "idx.aoci", "--verify"], ["idx.aoci"]),
    "stats": (["stats", "idx.aoci", "--loc", "900", "--records", "stats.json"], ["idx.aoci"]),
    "ablate": (["ablate", "idx.aoci", "--variant", "wo-R"], ["idx.aoci"]),
    "decode-tag": (["decode-tag", "WA9JM", "--index", "idx.aoci"], ["idx.aoci"]),
    "score": (
        ["score", "what", "--pred", "pred.txt", "--truth", "truth.txt"],
        ["pred.txt", "truth.txt"],
    ),
    "scaffold": (["scaffold", "repo", "--rules", "rules.txt"], ["rules.txt"]),
    "update": (
        ["update", "idx.aoci", "--changes", "changes.txt", "--drafts", "drafts",
         "--store", "store.tsv"],
        ["idx.aoci", "changes.txt", "drafts/auth.go.entry.txt", "store.tsv"],
    ),
    "detect": (
        ["update", "idx.aoci", "--detect", "--store", "store.tsv", "--drafts", "drafts"],
        ["idx.aoci", "store.tsv", "drafts/auth.go.entry.txt"],
    ),
}


# The streaming mutations, plus noise spliced in and a cut.
_INPUT_MUTATIONS = {
    **_MUTATIONS,
    "splice noise": lambda data, rng: splice_noise(rng, data),
    "cut": lambda data, rng: data[: rng.randrange(len(data))],
}


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(_COMMANDS)),
    st.integers(0, 3),
    st.sampled_from(sorted(_INPUT_MUTATIONS)),
    st.integers(0, 2**32),
)
def test_no_mutated_input_ends_a_command_in_a_traceback(command, which, mutation, seed):
    argv, inputs = _COMMANDS[command]
    target = inputs[which % len(inputs)]
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        for name, data in _WORK_FILES.items():
            path = Path(work, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(_INPUT_MUTATIONS[mutation](data, rng) if name == target else data)
        patch.chdir(work)
        before = [Path(work, name).read_bytes() for name in ("idx.aoci", "store.tsv")]
        code = _quiet_run(argv)  # an exception escaping run fails the test
        assert code in list(ExitCode)
        if code != ExitCode.OK:
            assert [Path(work, name).read_bytes() for name in ("idx.aoci", "store.tsv")] == before
