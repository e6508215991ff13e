"""The parse path checks each thing once: the compiled character checks
against the per-character predicates they replaced, the entry-line parse
against the slower one it replaced, and the tag decode memo, which must be
invisible apart from object identity."""

from __future__ import annotations

import dataclasses
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_reference_dictionary
from aoci import model
from aoci.errors import (
    InvalidImportance,
    InvalidPath,
    InvariantError,
    MalformedTag,
    TagError,
    UnknownCode,
)
from aoci.grammar import (
    ParseError,
    ParseErrorKind,
    decode_tag,
    parse_code_entry_line,
    parse_index,
    parse_index_report,
    serialize_index,
)
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


# -- the entry-line parse against the one it replaced -----------------------
#
# The oracle is the earlier parse, copied: a lazy path group anchored with
# ``$``, every element stripped and checked in a loop, and the entry checks
# run in full (canonical_path on every path, each text element on its own).

_OLD_ENTRY_RE = re.compile(r"^([^\[\]:]+?)(?:\[([^\[\]]*)\])?\s*:\s?(.*)$")


def _old_check_text(value, owner, element):
    if "|" in value or "\n" in value or "\r" in value:
        raise InvariantError(f"{owner}: {element} may not contain '|' or line breaks: {value!r}")
    if value != value.strip():
        raise InvariantError(f"{owner}: {element} has leading or trailing whitespace: {value!r}")
    if value == "-":
        raise InvariantError(
            f"{owner}: {element} may not be the literal '-'; use the empty string"
        )


def _old_entry_checks(path, tag, decoded, f, r, a, s):
    path = canonical_path(path)
    if model._PATH_FORBIDDEN.search(path):
        raise InvariantError(
            f"path {path!r} contains characters the entry grammar reserves: "
            f"{sorted(set(model._PATH_FORBIDDEN.findall(path)))}"
        )
    r = tuple(r)
    if decoded is not None and tag is None:
        raise InvariantError(f"{path}: decoded tag without a raw tag")
    if tag is not None and not tag:
        raise InvariantError(f"{path}: tag may not be the empty string")
    for ref in r:
        if not ref:
            raise InvariantError(f"{path}: empty R reference")
        if ref == "-":
            raise InvariantError(f"{path}: R reference may not be '-'")
        if model._REF_FORBIDDEN.search(ref):
            raise InvariantError(f"{path}: R reference {ref!r} contains whitespace, '|' or ','")
    _old_check_text(f, path, "element F")
    _old_check_text(a, path, "element A")
    _old_check_text(s, path, "element S")
    return path, tag, decoded, f, r, a, s


def _old_parse_code_line(line, line_no, dictionary):
    """The entry's field tuple, or the ParseError the old parse reported."""

    def error(column, message):
        return ParseError(line_no, column, ParseErrorKind.MALFORMED_ENTRY, message)

    match = _OLD_ENTRY_RE.match(line)
    if not match:
        return error(1, "entry line must look like path[TAG]: F:... | R:... | A:... | S:...")
    path_text, tag_text, rest = match.group(1).strip(), match.group(2), match.group(3)
    parts = [part.strip() for part in rest.split("|")]
    if len(parts) != 4:
        column = max(1, min(len(line), len(line) - len(rest) + 1))
        return error(column, f"expected four |-separated elements, found {len(parts)}")
    values = []
    for position, (prefix, part) in enumerate(zip(("F:", "R:", "A:", "S:"), parts), start=1):
        if not part.startswith(prefix):
            return error(1, f"expected element {prefix} in position {position}, got {part[:20]!r}")
        value = part[2:].strip()
        values.append("" if value == "-" else value)
    f_text, r_text, a_text, s_text = values
    refs = ()
    if r_text:
        pieces = [piece.strip() for piece in r_text.split(",")]
        if not all(pieces):
            return error(1, f"empty reference in R element {r_text!r}")
        refs = tuple(pieces)
    tag = decoded = None
    if tag_text is not None:
        tag = tag_text.strip()
        try:
            decoded = decode_tag(tag, dictionary)
        except TagError as exc:
            if tag not in dictionary.dim_e:
                column = line.find("[") + 2 if "[" in line else 1
                return ParseError(line_no, column, ParseErrorKind.TAG_DECODE, f"tag {tag!r}: {exc}")
    try:
        return _old_entry_checks(path_text, tag, decoded, f_text, refs, a_text, s_text)
    except (InvariantError, InvalidPath) as exc:
        return error(1, str(exc))


def _fields(entry):
    return (entry.path, entry.tag, entry.decoded, entry.f, entry.r, entry.a, entry.s)


def _located(error):
    return ParseError, error.line_number, error.column, error.kind, error.message


def _new_outcome(make):
    try:
        return _fields(make())
    except ParseError as exc:
        return _located(exc)


def _old_outcome(line, line_no, dictionary):
    old = _old_parse_code_line(line, line_no, dictionary)
    return _located(old) if isinstance(old, ParseError) else old


_WS = st.sampled_from(["", "", "", " ", "  ", "\t", " \t", "\r", "\xa0", "\u3000"])
_PATHS = st.sampled_from(
    ["a.go", "pkg/a.go", "./a.go", "././a.go", "a\\b.go", "a//b.go", ".//a.go", "./", "",
     "a b.go", "a,b.go", "a|b.go", "-", "é/ü.py"]
)
_TAGS = st.sampled_from(["WA9JM", "HC5", "M", "S", "ZZ9", "WA4J", "WA99", "", " WA9JM ", "W A9"])
_PREFIXES = ("F:", "R:", "A:", "S:")
_TEXTS = st.sampled_from(
    ["", "-", " - ", "text", "two words", " lead", "trail ", "a\tb", "x\ry", "é"]
)
_REFS = st.sampled_from(["a.go", "pkg", "-", "", "a b", "x\ty", "é"])


def _rarely(draw, usual, rare):
    """``usual`` nine times in ten, else ``rare``: most lines stay parseable."""
    return draw(rare if draw(st.integers(0, 9)) == 0 else usual)


@st.composite
def _entry_lines(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.text(alphabet="ab./\\[]:|,-FRAS \t\r", max_size=40))
    head = _rarely(draw, _PATHS, st.text(alphabet="ab./\\- \t,|", max_size=6))
    if draw(st.booleans()):
        head += draw(_WS) + "[" + draw(_WS) + draw(_TAGS) + draw(_WS) + "]"
    head += draw(_WS) + ":" + draw(_WS)
    elements = []
    wrong = _rarely(draw, st.just(-1), st.integers(0, 3))  # the element with a wrong prefix
    for position in range(_rarely(draw, st.just(4), st.sampled_from([3, 5]))):
        prefix = _PREFIXES[position % 4]
        if position == wrong:
            prefix = draw(st.sampled_from(["X:", "f:", "", "F", " S:"]))
        if prefix == "R:" and draw(st.booleans()):
            refs = draw(st.lists(_REFS, min_size=1, max_size=4))
            value = ",".join(draw(_WS) + ref + draw(_WS) for ref in refs)
        else:
            value = _rarely(draw, _TEXTS, st.text(alphabet="ab -\t\r,:[]", max_size=6))
        elements.append(draw(_WS) + prefix + draw(_WS) + value + draw(_WS))
    return head + "|".join(elements) + draw(_WS)


_DICTIONARY = make_reference_dictionary()
_HEADER = serialize_index(Index(Header(dictionary=_DICTIONARY)))


@given(_entry_lines())
@settings(max_examples=1500, deadline=None)
def test_entry_line_parse_matches_the_old_parse(line):
    # One line on its own, as drafts are read.
    expected = _old_outcome(line.strip(), 1, _DICTIONARY)
    assert _new_outcome(lambda: parse_code_entry_line(line, _DICTIONARY)) == expected

    # The same line inside a document, after a CRLF line, as the parse reads it.
    text = _HEADER.replace("\n", "\r\n", 1) + line + "\n"
    if "\n" in line or not line.strip() or line.strip().startswith("@"):
        return  # not one code line of a document
    line_no = _HEADER.count("\n") + 1
    report = parse_index_report(text)
    expected = _old_outcome(line.strip(), line_no, _DICTIONARY)
    if expected[0] is ParseError:
        assert [_located(error) for error in report.errors] == [expected]
    else:
        assert report.errors == []
        assert [_fields(entry) for entry in report.index.code_entries] == [expected]
