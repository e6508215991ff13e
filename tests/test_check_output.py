"""`aoci check` writes, byte for byte, what it wrote before `Diagnostic`.

The oracle below is that code, kept here: the text and JSON helpers of
``ValidationIssue``, the report record the CLI built by hand for each parse
error, and the ``parse_index`` call it made under ``--strict``. Generated
indexes carry planted E2, W1, W2, W3 and W4 findings and corrupted lines;
stdout, stderr, the exit code and the report's bytes must all agree.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_index
from aoci.cli import _estimator, run
from aoci.grammar import ParseError, parse_index, parse_index_report, serialize_index
from aoci.model import Index
from aoci.validator import Severity, validate_index


def _issue_line(issue) -> str:
    return f"{issue.severity.value} {issue.rule} {issue.subject}: {issue.message}"


def issues_text(issues) -> str:
    return "\n".join(_issue_line(issue) for issue in issues)


def issues_records(issues) -> list[dict]:
    return [
        {
            "severity": issue.severity.value,
            "rule": issue.rule,
            "subject": issue.subject,
            "message": issue.message,
        }
        for issue in issues
    ]


def oracle_check(path: str, data: bytes, strict: bool) -> tuple[str, str, int, str | None]:
    """(stdout, stderr, exit code, report text or None) of ``check --report``."""
    out, err = io.StringIO(), io.StringIO()
    if strict:
        try:
            index = parse_index(data)
        except ParseError as exc:
            return "", f"error: {exc}\n", 1, None
        parse_errors = []
    else:
        report = parse_index_report(data)
        parse_errors = report.errors
        for error in parse_errors:
            print(f"error parse {path}: {error}", file=err)
        index = report.index
    issues = validate_index(index, _estimator()) if index is not None else []
    if issues:
        print(issues_text(issues), file=out)
    records = [
        {
            "severity": "error",
            "rule": "parse",
            "subject": path,
            "message": str(error),
            "kind": error.kind.value,
            "line": error.line_number,
            "column": error.column,
        }
        for error in parse_errors
    ] + issues_records(issues)
    failed = parse_errors or any(issue.severity is Severity.ERROR for issue in issues)
    return out.getvalue(), err.getvalue(), int(bool(failed)), json.dumps(records, indent=2) + "\n"


def _planted_index(rng: random.Random) -> Index:
    """A random index with some of each rule's findings planted in it."""
    index = make_index(rng, rng.randint(1, 12), clean_refs=True, tables=rng.randint(0, 2))
    dictionary = index.header.dictionary
    if rng.random() < 0.5:
        # W2: a code that the same dimension's code prefixes. No tag holds 'Z'.
        field_name = rng.choice(("dim_a", "dim_b", "dim_d"))
        mapping = getattr(dictionary, field_name)
        grown = dict(mapping, **{rng.choice(sorted(mapping)) + "Z": "prefixed"})
        dictionary = dataclasses.replace(dictionary, **{field_name: grown})
    entries = []
    for entry in index.code_entries:
        roll = rng.random()
        if roll < 0.2:  # E2
            entry = dataclasses.replace(entry, r=entry.r + (f"gone/{rng.randint(0, 9)}",))
        elif roll < 0.35 and index.table_entries:  # W4
            entry = dataclasses.replace(entry, r=(rng.choice(index.table_entries).name,))
        elif roll < 0.5 and entry.decoded.importance >= 7:  # W3
            entry = dataclasses.replace(entry, f="")
        elif roll < 0.6:  # W1 the other way: past the budget's maximum
            entry = dataclasses.replace(entry, s=" ".join(["synopsis"] * 90))
        entries.append(entry)
    header = dataclasses.replace(index.header, dictionary=dictionary)
    return Index(header, tuple(entries), index.table_entries)


def _corrupt(rng: random.Random, text: str) -> bytes:
    """The index text with zero to three corrupted lines."""
    lines = text.split("\n")
    body = lines.index("@CODE") + 1
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(body, len(lines))
        kind = rng.randrange(7)
        if kind == 0:
            lines[at] = "a line with no colon"
        elif kind == 1:
            lines.insert(at, "bad.go[ZZ9]: F:x | R:- | A:- | S:y")
        elif kind == 2:
            lines.insert(at, lines[at])  # a duplicate path or name, or a blank line
        elif kind == 3:
            lines.insert(1, "#BOGUS directive")
            body += 1
        elif kind == 4:
            lines.insert(1, "#DIM C 9,²")
            body += 1
        elif kind == 5:
            lines.insert(at, "\udcff")  # encodes to a byte that is not UTF-8
        else:
            lines = [line for line in lines if line != "@CODE"]
            break
    return "\n".join(lines).encode("utf-8", "surrogateescape")


def _run_check(path: str, report: Path, strict: bool) -> tuple[str, str, int, str | None]:
    out, err = io.StringIO(), io.StringIO()
    argv = ["check", path, "--report", str(report)] + (["--strict"] if strict else [])
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    written = report.read_text(encoding="utf-8") if report.exists() else None
    return out.getvalue(), err.getvalue(), code, written


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=200, deadline=None)
def test_check_writes_what_the_oracle_writes(seed, strict):
    rng = random.Random(seed)
    data = _corrupt(rng, serialize_index(_planted_index(rng)))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "index.aoci"
        path.write_bytes(data)
        got = _run_check(str(path), Path(scratch) / "report.json", strict)
        assert got == oracle_check(str(path), data, strict)
