"""The parse path checks each thing once: the compiled character checks
against the per-character predicates they replaced, and the tag decode memo,
which must be invisible apart from object identity."""

from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoci import model
from aoci.errors import (
    InvalidImportance,
    InvalidPath,
    InvariantError,
    MalformedTag,
    UnknownCode,
)
from aoci.grammar import decode_tag, parse_index, serialize_index
from aoci.model import CodeEntry, Header, Index, TagDictionary, canonical_path

# Grammar-reserved punctuation, ASCII whitespace, the other characters
# str.isspace accepts (file/group/record/unit separators, NEL, NBSP, line
# separator, ideographic space), and ordinary path characters.
ALPHABET = "[]|:,-" + " \t\n\r\x0b\x0c" + "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000" + "a./\\é"

texts = st.text(alphabet=ALPHABET, max_size=12)


def _outcome(make):
    try:
        make()
    except (InvalidPath, InvariantError) as exc:
        return type(exc), str(exc)
    return None


def _old_path_check(raw: str):
    path = canonical_path(raw)
    bad = {c for c in path if c in set("[]|:,") or c.isspace()}
    if bad:
        raise InvariantError(
            f"path {path!r} contains characters the entry grammar reserves: "
            f"{sorted(bad)}"
        )


def _old_ref_check(ref: str):
    if not ref:
        raise InvariantError("a.go: empty R reference")
    if ref == "-":
        raise InvariantError("a.go: R reference may not be '-'")
    if "|" in ref or "," in ref or any(c.isspace() for c in ref):
        raise InvariantError(f"a.go: R reference {ref!r} contains whitespace, '|' or ','")


@given(texts)
@settings(max_examples=400, deadline=None)
def test_compiled_path_check_matches_per_character_check(raw):
    assert _outcome(lambda: CodeEntry(path=raw)) == _outcome(lambda: _old_path_check(raw))


@given(texts)
@settings(max_examples=400, deadline=None)
def test_compiled_ref_check_matches_per_character_check(ref):
    new = _outcome(lambda: CodeEntry(path="a.go", r=(ref,)))
    assert new == _outcome(lambda: _old_ref_check(ref))


def test_compiled_character_classes_match_predicates_on_every_code_point():
    for ch in map(chr, range(sys.maxunicode + 1)):
        space = ch.isspace()
        assert bool(model._PATH_FORBIDDEN.match(ch)) == (ch in "[]|:," or space), repr(ch)
        assert bool(model._REF_FORBIDDEN.match(ch)) == (ch in "|," or space), repr(ch)


def _split_dictionaries() -> tuple[TagDictionary, TagDictionary]:
    """Two dictionaries under which the tag ``WAB9`` splits differently."""
    layer_w = TagDictionary(dim_a={"W": "w"}, dim_b={"AB": "ab"})
    layer_wa = TagDictionary(dim_a={"WA": "wa"}, dim_b={"B": "b"})
    return layer_w, layer_wa


def test_repeated_tag_decodes_to_the_same_object(reference_dictionary):
    first = decode_tag("WA9JM", reference_dictionary)
    assert decode_tag("WA9JM", reference_dictionary) is first


@pytest.mark.parametrize(
    "tag,error", [("ZZ9", UnknownCode), ("WA4J", InvalidImportance), ("WA99", MalformedTag)]
)
def test_failing_tag_raises_the_same_error_every_call(reference_dictionary, tag, error):
    messages = []
    for _ in range(3):
        with pytest.raises(error) as excinfo:
            decode_tag(tag, reference_dictionary)
        messages.append((type(excinfo.value), str(excinfo.value)))
    assert messages == [messages[0]] * 3


def test_memo_is_per_dictionary():
    layer_w, layer_wa = _split_dictionaries()
    under_w, under_wa = decode_tag("WAB9", layer_w), decode_tag("WAB9", layer_wa)
    assert (under_w.layer, under_w.module) == ("W", "AB")
    assert (under_wa.layer, under_wa.module) == ("WA", "B")
    assert decode_tag("WAB9", layer_w) is under_w


def test_replace_starts_an_empty_memo():
    layer_w, _ = _split_dictionaries()
    decoded = decode_tag("WAB9", layer_w)
    copy = dataclasses.replace(layer_w)
    again = decode_tag("WAB9", copy)
    assert again == decoded and again is not decoded
    changed = dataclasses.replace(layer_w, dim_a={"WA": "wa"}, dim_b={"B": "b"})
    assert decode_tag("WAB9", changed).layer == "WA"


def test_memo_takes_no_part_in_equality_or_repr(reference_dictionary):
    fresh = dataclasses.replace(reference_dictionary)
    decode_tag("WA9JM", reference_dictionary)
    assert reference_dictionary == fresh
    assert repr(reference_dictionary) == repr(fresh)
    assert "WA9JM" not in repr(reference_dictionary)


def test_index_rejects_decoding_made_under_another_dictionary():
    layer_w, layer_wa = _split_dictionaries()
    entry = CodeEntry(path="a.go", tag="WAB9", decoded=decode_tag("WAB9", layer_w))
    Index(Header(dictionary=layer_w), (entry,))
    decode_tag("WAB9", layer_wa)  # a filled memo still checks foreign decodings
    with pytest.raises(InvariantError, match="does not match"):
        Index(Header(dictionary=layer_wa), (entry,))


def test_parse_shares_one_decoding_per_distinct_tag(reference_dictionary):
    header = serialize_index(Index(Header(dictionary=reference_dictionary)))
    text = header + "a.go[WA9JM]: F:- | R:- | A:- | S:-\nb.go[WA9JM]: F:- | R:- | A:- | S:-\n"
    index = parse_index(text)
    first, second = index.code_entries
    assert first.decoded is second.decoded
    assert serialize_index(index) == text
