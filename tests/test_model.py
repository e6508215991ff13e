"""Core model invariants and path normalization."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoci.errors import InvalidPath, InvariantError
from aoci.model import (
    ChangeRecord,
    ChangeSet,
    ChangeStatus,
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TableEntry,
    TagDictionary,
    canonical_path,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        (".\\src\\auth.go", "src/auth.go"),
        ("./config.yaml", "config.yaml"),
        ("a//b.ts", "a/b.ts"),
        ("././x", "x"),
        ("model/./org/org.go", "model/org/org.go"),
        ("a/././b/.//./c", "a/b/c"),
        ("plain.go", "plain.go"),
    ],
)
def test_canonical_path_examples(raw, expected):
    assert canonical_path(raw) == expected


def test_canonical_path_rejects_empty():
    with pytest.raises(InvalidPath):
        canonical_path("")
    with pytest.raises(InvalidPath):
        canonical_path("./")


@given(st.text(min_size=1, max_size=40))
def test_canonical_path_idempotent(raw):
    try:
        once = canonical_path(raw)
    except InvalidPath:
        return
    assert canonical_path(once) == once


def test_duplicate_entry_paths_rejected(reference_dictionary):
    entry = CodeEntry(path="a.go", f="x")
    with pytest.raises(InvariantError, match="duplicate"):
        Index(Header(dictionary=reference_dictionary), (entry, entry))


def test_duplicate_table_names_rejected(reference_dictionary):
    table = TableEntry("users", "U", "M", "M", ("GUID",), "text")
    with pytest.raises(InvariantError, match="duplicate"):
        Index(Header(dictionary=reference_dictionary), (), (table, table))


def test_code_entry_normalizes_path():
    entry = CodeEntry(path="./src//a.go")
    assert entry.path == "src/a.go"


@pytest.mark.parametrize("ref", ["has space", "a|b", "a,b", "-", ""])
def test_code_entry_rejects_bad_refs(ref):
    with pytest.raises(InvariantError):
        CodeEntry(path="a.go", r=(ref,))


@pytest.mark.parametrize("text", ["a|b", "line\nbreak", " padded ", "-"])
def test_code_entry_rejects_grammar_breaking_text(text):
    with pytest.raises(InvariantError):
        CodeEntry(path="a.go", s=text)


@pytest.mark.parametrize("element", ["F", "A", "S"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("x|y", "src/a.go: element {} may not contain '|' or line breaks: 'x|y'"),
        (" x", "src/a.go: element {} has leading or trailing whitespace: ' x'"),
        ("x ", "src/a.go: element {} has leading or trailing whitespace: 'x '"),
        ("-", "src/a.go: element {} may not be the literal '-'; use the empty string"),
    ],
)
def test_code_entry_text_errors_name_the_element(element, value, message):
    with pytest.raises(InvariantError) as excinfo:
        CodeEntry(path="./src/a.go", **{element.lower(): value})
    assert str(excinfo.value) == message.format(element)


def test_table_fields_error_names_the_table():
    with pytest.raises(InvariantError) as excinfo:
        TableEntry("users", fields_text="a|b")
    assert str(excinfo.value) == "table users: fields may not contain '|' or line breaks: 'a|b'"


def test_decoded_requires_tag():
    decoded = DecodedTag("W", "A", 9)
    with pytest.raises(InvariantError):
        CodeEntry(path="a.go", decoded=decoded)


def test_index_requires_tag_to_decode(reference_dictionary):
    entry = CodeEntry(path="a.go", tag="ZZ9")
    with pytest.raises(InvariantError, match="neither decodes"):
        Index(Header(dictionary=reference_dictionary), (entry,))


def test_index_accepts_residual_scale_tag(reference_dictionary):
    entry = CodeEntry(path="a.go", tag="M")
    index = Index(Header(dictionary=reference_dictionary), (entry,))
    assert index.code_entries[0].decoded is None


def test_index_rejects_mismatched_decoding(reference_dictionary):
    wrong = DecodedTag("W", "A", 9, ("J",), "T")  # tag says scale M
    entry = CodeEntry(path="a.go", tag="WA9JM", decoded=wrong)
    with pytest.raises(InvariantError, match="does not match"):
        Index(Header(dictionary=reference_dictionary), (entry,))


def test_index_rejects_decoding_attached_to_undecodable_tag(reference_dictionary):
    ambiguous = TagDictionary(
        dim_a={"W": "w"}, dim_b={"A": "a"}, dim_d={"J": "j", "T": "t", "JT": "jt"}
    )
    for dictionary, tag, reason in (
        (reference_dictionary, "ZZ9", "no A code matches 'ZZ'"),
        (ambiguous, "WA9JT", "'JT' splits into D codes 2 ways"),
    ):
        entry = CodeEntry("x.go", tag, DecodedTag("W", "A", 9))
        with pytest.raises(InvariantError) as excinfo:
            Index(Header(dictionary=dictionary), (entry,))
        assert str(excinfo.value) == f"x.go: tag {tag!r}: {reason}"


def test_dictionary_importance_subset():
    with pytest.raises(InvariantError):
        TagDictionary(dim_c=frozenset({9, 4}))
    with pytest.raises(InvariantError):
        TagDictionary(dim_c=frozenset())


def test_dictionary_scale_dimension_capped():
    with pytest.raises(InvariantError, match="four"):
        TagDictionary(dim_e={c: c for c in "ABCDE"})


@pytest.mark.parametrize("code", ["", "A1", "A B", "A-B", "A|B", "A:B", "[A]", "A,B", "A=B", "A+B"])
def test_dictionary_rejects_reserved_code_characters(code):
    with pytest.raises(InvariantError):
        TagDictionary(dim_a={code: "label"})


def test_dictionary_budget_bounds():
    with pytest.raises(InvariantError, match="exceeds"):
        TagDictionary(budgets={9: (150, 80)})
    with pytest.raises(InvariantError):
        TagDictionary(budgets={4: (10, 20)})


def test_dictionary_budget_messages_match_the_parser():
    with pytest.raises(InvariantError, match="^budget level 4 is not on the importance scale$"):
        TagDictionary(budgets={4: (10, 20)})
    with pytest.raises(InvariantError, match="^budget 7: min 90 exceeds max 10$"):
        TagDictionary(budgets={7: (90, 10)})


def test_table_entry_name_must_be_identifier():
    with pytest.raises(InvariantError):
        TableEntry("user-table")
    with pytest.raises(InvariantError):
        TableEntry("9users")
    TableEntry("users_2")


def test_table_entry_tag_all_or_none():
    with pytest.raises(InvariantError, match="all absent"):
        TableEntry("users", domain="U")
    with pytest.raises(InvariantError, match="require a full tag"):
        TableEntry("users", features=("GUID",))


def test_table_codes_checked_against_dictionary(reference_dictionary):
    table = TableEntry("users", "U", "M", "M", ("NOPE",), "text")
    with pytest.raises(InvariantError, match="FEAT"):
        Index(Header(dictionary=reference_dictionary), (), (table,))


def test_table_feature_holding_a_separator_is_rejected(reference_dictionary):
    # Both halves are FEAT codes, but the tag would read back as two features.
    table = TableEntry("users", "U", "M", "M", ("GUID+SD",), "text")
    with pytest.raises(InvariantError, match="'U-M-M-GUID\\+SD' decodes to other codes"):
        Index(Header(dictionary=reference_dictionary), (), (table,))


def test_header_version_floor():
    with pytest.raises(InvariantError):
        Header(version=0)


def test_changeset_rejects_duplicates():
    records = (
        ChangeRecord(ChangeStatus.MODIFIED, "a.go"),
        ChangeRecord(ChangeStatus.DELETED, "a.go"),
    )
    with pytest.raises(InvariantError, match="duplicate"):
        ChangeSet(records)


def test_rename_record_needs_distinct_paths():
    with pytest.raises(InvariantError):
        ChangeRecord(ChangeStatus.RENAMED, "a.go", "a.go")
    with pytest.raises(InvariantError):
        ChangeRecord(ChangeStatus.RENAMED, "a.go")
    with pytest.raises(InvariantError):
        ChangeRecord(ChangeStatus.MODIFIED, "a.go", "b.go")


def test_code_entry_is_slotted_and_survives_copying(reference_dictionary):
    import copy
    import dataclasses
    import pickle

    from aoci.grammar import decode_tag

    entry = CodeEntry(
        path="pkg/a.go",
        tag="WA9JM",
        decoded=decode_tag("WA9JM", reference_dictionary),
        f="role",
        r=("pkg/b.go", "model"),
        a="Run",
        s="synopsis",
    )
    assert not hasattr(entry, "__dict__")
    assert pickle.loads(pickle.dumps(entry)) == entry
    assert copy.deepcopy(entry) == entry
    assert copy.copy(entry) == entry
    changed = dataclasses.replace(entry, path="./pkg\\c.go", r=["x"])
    assert (changed.path, changed.r, changed.s) == ("pkg/c.go", ("x",), "synopsis")
    with pytest.raises(InvariantError, match="element S"):
        dataclasses.replace(entry, s=" padded")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.s = "other"
    with pytest.raises((AttributeError, TypeError)):
        entry.extra = 1
