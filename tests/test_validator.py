"""Rule catalog behavior and coverage accounting."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import listing_only_index, make_index
from aoci.errors import ConfigError
from aoci.grammar import parse_code_entry_line
from aoci.model import CodeEntry, Header, Index, TableEntry, TagDictionary
from aoci.validator import Severity, check_coverage, has_errors, validate_index


def _issues_by_rule(issues):
    out: dict[str, list] = {}
    for issue in issues:
        out.setdefault(issue.rule, []).append(issue)
    return out


def test_clean_fixture_has_no_issues(listing_index):
    assert validate_index(listing_index) == []


def test_dangling_reference_fires_e2(reference_dictionary):
    entry = parse_code_entry_line(
        "auth.go[WA9JM]: F:auth middleware checks and token verification logic | "
        "R:pkg/jwt | A:- | S:verify bearer tokens, refresh, inject user context fields",
        reference_dictionary,
    )
    index = Index(Header(dictionary=reference_dictionary), (entry,))
    issues = _issues_by_rule(validate_index(index))
    assert len(issues["E2"]) == 1
    assert issues["E2"][0].subject == "auth.go"
    assert "pkg/jwt" in issues["E2"][0].message


def test_prefix_tolerant_resolution(reference_dictionary):
    # A reference resolves via directory prefix and via extension stripping.
    ref_holder = parse_code_entry_line(
        "a.go[WA9M]: F:uses both reference styles for the resolver to chase | "
        "R:pkg/jwt,helpers | A:- | S:reference resolution fixture body text here",
        reference_dictionary,
    )
    jwt = CodeEntry(path="pkg/jwt/jwt.go", f="x")
    helper = CodeEntry(path="helpers.go", f="y")
    index = Index(Header(dictionary=reference_dictionary), (ref_holder, jwt, helper))
    assert "E2" not in _issues_by_rule(validate_index(index))


def test_budget_warning_w1(reference_dictionary):
    d = dataclasses.replace(reference_dictionary, budgets={9: (80, 150)})
    entry = parse_code_entry_line(
        "a.go[WA9M]: F:short | R:- | A:- | S:tiny", d
    )
    index = Index(Header(dictionary=d), (entry,))
    issues = _issues_by_rule(validate_index(index))
    (w1,) = issues["W1"]
    assert w1.severity is Severity.WARNING
    assert "80-150" in w1.message


def test_default_budgets_applied_when_header_omits_them(reference_dictionary):
    d = dataclasses.replace(reference_dictionary, budgets={})
    entry = parse_code_entry_line("a.go[WA9M]: F:short | R:- | A:- | S:tiny", d)
    index = Index(Header(dictionary=d), (entry,))
    issues = _issues_by_rule(validate_index(index))
    assert "80-150" in issues["W1"][0].message


def test_empty_f_on_core_entry_w3(reference_dictionary):
    entry = parse_code_entry_line(
        "a.go[WA9M]: F:- | R:- | A:- | S:long enough synopsis text to pass the floor "
        "with room to spare for the budget window", reference_dictionary
    )
    index = Index(Header(dictionary=reference_dictionary), (entry,))
    issues = _issues_by_rule(validate_index(index))
    assert len(issues["W3"]) == 1


def test_non_prefix_free_dimension_w2():
    d = TagDictionary(dim_a={"W": "w", "WA": "wa"}, dim_b={"B": "b"})
    index = Index(Header(dictionary=d))
    issues = _issues_by_rule(validate_index(index))
    (w2,) = issues["W2"]
    assert w2.subject == "header"
    assert "'W'" in w2.message and "'WA'" in w2.message


def test_table_reference_surfaces_as_w4(reference_dictionary):
    entry = parse_code_entry_line(
        "a.go[WA9M]: F:writes users rows directly through the data access layer | "
        "R:users | A:- | S:insert and select against the primary user table rows",
        reference_dictionary,
    )
    table = TableEntry("users", "U", "M", "M", ("GUID",), "user primary table")
    index = Index(Header(dictionary=reference_dictionary), (entry,), (table,))
    issues = _issues_by_rule(validate_index(index))
    assert "E2" not in issues
    assert len(issues["W4"]) == 1


def test_issue_ordering_and_rendering(reference_dictionary):
    a = parse_code_entry_line(
        "z.go[WA9M]: F:text one for the synopsis budget floor to stay quiet here | "
        "R:gone | A:- | S:filler text for budgets and sizes in this test fixture",
        reference_dictionary,
    )
    b = parse_code_entry_line(
        "a.go[WA9M]: F:text two for the synopsis budget floor to stay quiet here | "
        "R:gone | A:- | S:filler text for budgets and sizes in this test fixture",
        reference_dictionary,
    )
    index = Index(Header(dictionary=reference_dictionary), (a, b))
    issues = validate_index(index)
    assert [issue.subject for issue in issues] == ["a.go", "z.go"]
    assert issues[0].render().startswith("error E2 a.go:")
    assert issues[0].record()["rule"] == "E2"
    assert has_errors(issues)


def test_listing_only_index_dangles(reference_dictionary):
    # Without the supplementary entries, the example refs have no targets.
    issues = _issues_by_rule(validate_index(listing_only_index(reference_dictionary)))
    assert {i.subject for i in issues["E2"]} == {"auth.go", "org_repo.go", "config.yaml"}


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_e2_fires_on_any_referenced_entry_removal(seed):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(3, 15), clean_refs=True)
    assert not has_errors(validate_index(index))
    referenced = sorted({ref for entry in index.code_entries for ref in entry.r})
    if not referenced:
        return
    victim = rng.choice(referenced)
    survivors = tuple(e for e in index.code_entries if e.path != victim)
    smaller = Index(index.header, survivors, index.table_entries)
    rules = {issue.rule for issue in validate_index(smaller)}
    assert "E2" in rules


def test_coverage_unindexed(reference_dictionary):
    index = Index(Header(dictionary=reference_dictionary), (CodeEntry(path="a.go"),))
    report = check_coverage(index, ["a.go", "b.go"])
    assert report.eligible_files == 2
    assert report.indexed_files == 1
    assert report.unindexed == ("b.go",)
    assert report.orphan_entries == ()


def test_coverage_orphans(reference_dictionary):
    entries = (CodeEntry(path="a.go"), CodeEntry(path="gone.go"))
    report = check_coverage(Index(Header(dictionary=reference_dictionary), entries), ["a.go"])
    assert report.orphan_entries == ("gone.go",)
    assert report.unindexed == ()


def test_coverage_globs(reference_dictionary):
    index = Index(Header(dictionary=reference_dictionary), (CodeEntry(path="a.go"),))
    report = check_coverage(
        index, ["a.go", "vendor/x.go", "doc.md"], include_globs=("*.go",),
        exclude_globs=("vendor/*",),
    )
    assert report.eligible_files == 1
    assert report.indexed_files == 1


def test_coverage_rejects_bad_glob(reference_dictionary):
    index = Index(Header(dictionary=reference_dictionary))
    with pytest.raises(ConfigError):
        check_coverage(index, [], include_globs=("",))


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_coverage_counts_add_up(seed):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(0, 20))
    paths = [entry.path for entry in index.code_entries]
    files = paths[:: 2] + [f"extra{i}.go" for i in range(rng.randint(0, 5))]
    report = check_coverage(index, files)
    assert report.indexed_files + len(report.unindexed) == report.eligible_files
    assert not set(report.unindexed) & set(report.orphan_entries)
