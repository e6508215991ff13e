"""Parser, serializer, and tag codec: golden forms, round trips, errors."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LISTING_AUTH,
    LISTING_CONFIG,
    LISTING_LINES,
    LISTING_ORG,
    USERS_TABLE_LINE,
    make_decoded,
    make_index,
    reference_decode,
)
from aoci.errors import (
    AmbiguousTag,
    InvalidImportance,
    MalformedTableTag,
    MalformedTag,
    TagError,
    UnknownCode,
)
from aoci.grammar import (
    ParseError,
    ParseErrorKind,
    decode_table_tag,
    decode_tag,
    encode_tag,
    parse_code_entry_line,
    parse_header,
    parse_index,
    parse_index_report,
    scan_index,
    serialize_code_entry,
    serialize_index,
    serialize_table_entry,
)
from aoci.model import (
    IMPORTANCE_SCALE,
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TableEntry,
    TagDictionary,
)


# ---------------------------------------------------------------------------
# Tag codec
# ---------------------------------------------------------------------------


def test_decode_reference_middleware_tag(reference_dictionary):
    decoded = decode_tag("WA9JM", reference_dictionary)
    assert decoded.layer == "W"
    assert decoded.module == "A"
    assert decoded.importance == 9
    assert decoded.features == ("J",)
    assert decoded.scale == "M"
    # Each decoded code resolves to its dictionary label.
    d = reference_dictionary
    assert d.dim_a[decoded.layer] == "Middleware"
    assert d.dim_b[decoded.module] == "Auth"
    assert d.dim_d[decoded.features[0]] == "JWT"
    assert d.dim_e[decoded.scale] == "Medium"


def test_decode_config_tag_resolves_trailing_code_by_dictionary(reference_dictionary):
    # 'T' is both a feature code and a scale code; the scale wins because the
    # decomposition tries the scale anchor first.
    decoded = decode_tag("CC9T", reference_dictionary)
    assert decoded.layer == "C"
    assert decoded.module == "C"
    assert decoded.importance == 9
    assert decoded.features == ()
    assert decoded.scale == "T"


def test_decode_missing_module_code(reference_dictionary):
    with pytest.raises(UnknownCode) as excinfo:
        decode_tag("W9M", reference_dictionary)
    assert excinfo.value.dimension == "B"


@pytest.mark.parametrize(
    "decoded,expected",
    [
        (("W", "A", 9, ("J",), "M"), "WA9JM"),
        (("P", "O", 9, ("N", "T"), "M"), "PO9NTM"),
        (("H", "C", 1, (), None), "HC1"),
    ],
)
def test_encode_examples(decoded, expected):
    from aoci.model import DecodedTag

    layer, module, importance, features, scale = decoded
    assert encode_tag(DecodedTag(layer, module, importance, features, scale)) == expected


def test_decode_tag_digit_errors(reference_dictionary):
    with pytest.raises(MalformedTag):
        decode_tag("WAJM", reference_dictionary)
    with pytest.raises(MalformedTag):
        decode_tag("WA97M", reference_dictionary)
    with pytest.raises(MalformedTag):
        decode_tag("", reference_dictionary)
    with pytest.raises(InvalidImportance):
        decode_tag("WA4JM", reference_dictionary)


def test_decode_longest_match_prefix():
    d = TagDictionary(
        dim_a={"W": "w", "WA": "wa"},
        dim_b={"B": "b", "AB": "ab"},
        dim_e={"M": "m"},
    )
    # Both layers leave a module; the longer layer wins.
    assert decode_tag("WAB9", d).layer == "WA"
    assert decode_tag("WAB9", d).module == "B"


def test_decode_scale_backtrack():
    # The scale anchor is tried first; when the middle fails to parse as
    # features, one retry assumes there is no scale code at all.
    d = TagDictionary(dim_a={"A": "a"}, dim_b={"B": "b"}, dim_d={"JM": "jm"}, dim_e={"M": "m"})
    decoded = decode_tag("AB9JM", d)
    assert decoded.features == ("JM",)
    assert decoded.scale is None


def test_decode_reports_stuck_feature_residue(reference_dictionary):
    with pytest.raises(UnknownCode) as excinfo:
        decode_tag("WA9JX", reference_dictionary)
    assert excinfo.value.dimension == "D"
    assert "X" in excinfo.value.text


def _codes(*codes: str) -> dict[str, str]:
    return {code: code.lower() for code in codes}


@pytest.mark.parametrize(
    "dims,tag,expected",
    [
        # The longest layer 'WA' leaves 'B', no module; 'W' leaves 'AB'.
        (dict(dim_a=_codes("W", "WA"), dim_b=_codes("AB")), "WAB9", ("W", "AB", 9, (), None)),
        # Longest-match 'JT' strands 'X'; 'J' then 'TX' splits the features.
        (
            dict(dim_a=_codes("W"), dim_b=_codes("A"), dim_d=_codes("J", "JT", "TX")),
            "WA9JTX",
            ("W", "A", 9, ("J", "TX"), None),
        ),
        # 'M' is a feature and a scale; the scale wins, so the encoding of
        # DecodedTag(W, A, 9, (M,)) reads back with scale M.
        (
            dict(dim_a=_codes("W"), dim_b=_codes("A"), dim_d=_codes("M"), dim_e=_codes("M")),
            "WA9M",
            ("W", "A", 9, (), "M"),
        ),
    ],
)
def test_decode_finds_splits_a_greedy_walk_misses(dims, tag, expected):
    assert decode_tag(tag, TagDictionary(**dims)) == DecodedTag(*expected)


@pytest.mark.parametrize("tag", ["WA9JT", "WA9JTM"])
def test_decode_raises_ambiguous_tag_when_features_split_two_ways(tag):
    d = TagDictionary(
        dim_a=_codes("W"), dim_b=_codes("A"), dim_d=_codes("J", "T", "JT"), dim_e=_codes("M")
    )
    with pytest.raises(AmbiguousTag, match="'JT' splits into D codes 2 ways"):
        decode_tag(tag, d)


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=150, deadline=None)
def test_codec_round_trip_random(seed, with_scale):
    rng = random.Random(seed)
    from conftest import make_dictionary

    dictionary = make_dictionary(rng)
    decoded = make_decoded(rng, dictionary, with_scale=with_scale)
    tag = encode_tag(decoded)
    assert decode_tag(tag, dictionary) == decoded
    assert encode_tag(decode_tag(tag, dictionary)) == tag


# Multi-letter codes from one alphabet shared by every dimension, so codes
# prefix one another within a dimension and D and E overlap.
_SHARED_CODES = st.text("ABC", min_size=1, max_size=3)


def _shared_dimension(min_size: int, max_size: int):
    codes = st.sets(_SHARED_CODES, min_size=min_size, max_size=max_size)
    return codes.map(lambda codes: _codes(*sorted(codes)))


@st.composite
def _shared_alphabet_tags(draw):
    """A dictionary, and a tag: the encoding of one of its tags, or that
    encoding with a few characters spliced in or cut out."""
    d = TagDictionary(
        dim_a=draw(_shared_dimension(1, 4)),
        dim_b=draw(_shared_dimension(1, 4)),
        dim_c=draw(st.frozensets(st.sampled_from(IMPORTANCE_SCALE), min_size=1)),
        dim_d=draw(_shared_dimension(0, 4)),
        dim_e=draw(_shared_dimension(0, 4)),
    )
    decoded = DecodedTag(
        draw(st.sampled_from(sorted(d.dim_a))),
        draw(st.sampled_from(sorted(d.dim_b))),
        draw(st.sampled_from(sorted(d.dim_c))),
        tuple(draw(st.lists(st.sampled_from(sorted(d.dim_d)), max_size=4))) if d.dim_d else (),
        draw(st.none() | st.sampled_from(sorted(d.dim_e))) if d.dim_e else None,
    )
    tag = encode_tag(decoded)
    encoded = draw(st.booleans())
    if not encoded:
        at = draw(st.integers(0, len(tag)))
        cut = draw(st.integers(0, 2))
        tag = tag[:at] + draw(st.text("ABC194", max_size=2)) + tag[at + cut :]
    return d, tag, encoded


def _decode_outcome(decode, tag, dictionary):
    try:
        return decode(tag, dictionary)
    except UnknownCode as exc:
        return UnknownCode, exc.dimension, exc.text
    except TagError as exc:
        return type(exc)


@given(_shared_alphabet_tags())
@settings(deadline=None)
def test_decode_agrees_with_brute_force_reference(case):
    dictionary, tag, encoded = case
    outcome = _decode_outcome(decode_tag, tag, dictionary)
    assert outcome == _decode_outcome(reference_decode, tag, dictionary)
    if encoded:
        # Complete: a tag the dictionary can write decodes, or is ambiguous.
        assert isinstance(outcome, DecodedTag) or outcome is AmbiguousTag


def test_decode_table_tag_examples(reference_dictionary):
    assert decode_table_tag("U-M-M-GUID", reference_dictionary) == ("U", "M", "M", ("GUID",))
    assert decode_table_tag("U-M-M-GUID+SD", reference_dictionary)[3] == ("GUID", "SD")
    with pytest.raises(MalformedTableTag):
        decode_table_tag("U-M-M", reference_dictionary)
    with pytest.raises(UnknownCode):
        decode_table_tag("U-M-M-NOPE", reference_dictionary)


# ---------------------------------------------------------------------------
# Entry lines
# ---------------------------------------------------------------------------


def test_parse_auth_entry_fields(reference_dictionary):
    entry = parse_code_entry_line(LISTING_AUTH, reference_dictionary)
    assert entry.path == "auth.go"
    assert entry.tag == "WA9JM"
    assert entry.f == "JWT authentication middleware"
    assert entry.r == ("pkg/jwt", "model/user")
    assert entry.a == ""
    assert entry.s.startswith("extract Bearer token")
    assert entry.s.endswith("match key_prefix and query SHA256")


def test_parse_config_entry_fields(reference_dictionary):
    entry = parse_code_entry_line(LISTING_CONFIG, reference_dictionary)
    assert entry.r == ("internal/config/config.go",)
    assert entry.a == ""
    assert entry.decoded.scale == "T"


def test_listing_lines_reserialize_byte_identically(reference_dictionary):
    for line in LISTING_LINES:
        entry = parse_code_entry_line(line, reference_dictionary)
        assert serialize_code_entry(entry) == line


def test_minimal_entry_serialization():
    entry = CodeEntry(path="x.go", f="util", s="helpers")
    assert serialize_code_entry(entry) == "x.go: F:util | R:- | A:- | S:helpers"


def test_table_entry_serialization(reference_dictionary):
    table = TableEntry("users", "U", "M", "M", ("GUID",), "user primary table, soft delete")
    assert serialize_table_entry(table) == "users[U-M-M-GUID]: user primary table, soft delete"


def test_users_table_line_round_trip(listing_index):
    table = listing_index.table_entries[0]
    assert serialize_table_entry(table) == USERS_TABLE_LINE
    assert table.features == ("GUID",)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def test_golden_fixture_is_canonical(listing_text):
    index = parse_index(listing_text)
    assert serialize_index(index) == listing_text


def test_empty_code_section(reference_dictionary):
    text = "#AOCI 1\n#DIM C 9,8,7,5,3,1\n@CODE\n"
    index = parse_index(text)
    assert index.code_entries == ()
    assert index.table_entries == ()


def test_table_tag_with_no_features_round_trips(reference_dictionary):
    assert decode_table_tag("U-M-M-", reference_dictionary) == ("U", "M", "M", ())
    table = TableEntry("logs", "U", "M", "M", (), "no features table")
    line = serialize_table_entry(table)
    assert line == "logs[U-M-M-]: no features table"
    doc = (
        "#AOCI 1\n#TDIM DOMAIN U=User\n#TDIM TYPE M=Main\n#TDIM SCALE M=Medium\n"
        "@CODE\n@TABLES\n" + line + "\n"
    )
    assert parse_index(doc).table_entries[0] == table


def test_tables_only_document(reference_dictionary):
    doc = (
        "#AOCI 1\n#TDIM DOMAIN U=User\n#TDIM TYPE M=Main\n#TDIM SCALE M=Medium\n"
        "@TABLES\nlogs[U-M-M-]: audit log rows\n"
    )
    index = parse_index(doc)
    assert index.code_entries == ()
    assert index.table_entries[0].name == "logs"


def test_crlf_input_parses_but_is_not_canonical(listing_text, listing_index):
    crlf = listing_text.replace("\n", "\r\n")
    assert parse_index(crlf) == listing_index
    assert serialize_index(listing_index) != crlf


def test_parse_preserves_entry_order(listing_text, listing_index):
    paths = [entry.path for entry in listing_index.code_entries]
    assert paths[:3] == ["auth.go", "org_repo.go", "config.yaml"]


def test_parser_tolerates_noncanonical_spacing(listing_text, listing_index):
    messy = listing_text.replace(" | ", "  |  ").replace("@CODE\n", "@CODE\n\n")
    assert parse_index(messy) == listing_index


def test_residual_scale_tag_parses(reference_dictionary, listing_text):
    text = listing_text.replace("auth.go[WA9JM]", "auth.go[M]")
    entry = parse_index(text).code_entries[0]
    assert entry.tag == "M"
    assert entry.decoded is None


@pytest.mark.parametrize(
    "mutation,kind",
    [
        (("auth.go[WA9JM]", "auth.go[XX9]"), ParseErrorKind.TAG_DECODE),
        (("org_repo.go", "auth.go"), ParseErrorKind.DUPLICATE_PATH),
        (("#STACK", "#STAK"), ParseErrorKind.UNKNOWN_DIRECTIVE),
        (("users[U-M-M-GUID]", "users[U-M-M]"), ParseErrorKind.TAG_DECODE),
    ],
)
def test_parse_errors_located(listing_text, mutation, kind):
    broken = listing_text.replace(*mutation)
    with pytest.raises(ParseError) as excinfo:
        parse_index(broken)
    assert excinfo.value.kind is kind
    assert excinfo.value.line_number >= 1
    assert excinfo.value.column >= 1


def test_strict_mode_stops_at_first_error(listing_text):
    broken = listing_text.replace("#AOCI 1", "#AOCI zero")
    with pytest.raises(ParseError) as excinfo:
        parse_index(broken)
    assert excinfo.value.line_number == 1


def test_lenient_mode_collects_errors(listing_text):
    broken = listing_text.replace(
        "org_repo.go[PO9NTM]", "org_repo.go[XX0]"
    ).replace("#STACK Go + Gin", "#BOGUS x")
    report = parse_index_report(broken)
    assert report.index is not None
    assert len(report.errors) == 2
    kinds = {error.kind for error in report.errors}
    assert kinds == {ParseErrorKind.UNKNOWN_DIRECTIVE, ParseErrorKind.TAG_DECODE}
    paths = [entry.path for entry in report.index.code_entries]
    assert "org_repo.go" not in paths  # bad entry skipped, rest kept
    assert "auth.go" in paths

    # parse_index raises the first collected error: the header line's.
    first, second = report.errors
    assert first.line_number < second.line_number
    assert first.kind is ParseErrorKind.UNKNOWN_DIRECTIVE
    with pytest.raises(ParseError) as excinfo:
        parse_index(broken)
    raised = excinfo.value
    assert (raised.line_number, raised.column, raised.kind, raised.message) == (
        first.line_number,
        first.column,
        first.kind,
        first.message,
    )


def test_missing_version_directive():
    with pytest.raises(ParseError, match="#AOCI"):
        parse_index("#PROJECT x\n@CODE\n")


@pytest.mark.parametrize(
    "first, second",
    [
        ("#PROJECT", "#PROJECT x"),
        ("#PROJECT x", "#PROJECT y"),
        ("#STACK", "#STACK go"),
        ("#AOCI 1", "#AOCI 2"),
    ],
)
def test_a_singleton_directive_may_appear_once(first, second):
    word = second.split()[0]
    header = "#AOCI 1\n" if word != "#AOCI" else ""
    report = parse_index_report(f"{header}{first}\n{second}\n@CODE\n")
    at = header.count("\n") + 2
    assert [(e.line_number, e.column, e.message) for e in report.errors] == [
        (at, 1, f"duplicate {word} directive")
    ]


def test_a_bad_version_directive_still_counts_as_seen():
    report = parse_index_report("#AOCI x\n#AOCI 1\n@CODE\n")
    assert [(e.line_number, e.message) for e in report.errors] == [
        (1, "#AOCI needs an integer version >= 1, got 'x'"),
        (2, "duplicate #AOCI directive"),
        (3, "missing #AOCI version directive before the first section"),
    ]


def test_missing_code_section():
    with pytest.raises(ParseError, match="@CODE"):
        parse_index("#AOCI 1\n")


def test_duplicate_dictionary_code():
    text = "#AOCI 1\n#DIM A W=a,W=b\n@CODE\n"
    with pytest.raises(ParseError) as excinfo:
        parse_index(text)
    assert excinfo.value.kind is ParseErrorKind.INVALID_DICTIONARY


@pytest.mark.parametrize(
    "directive,message",
    [
        ("#DIM D J1=x", "dimension D: code 'J1' contains reserved character '1'"),
        ("#TDIM FEAT =x", "dimension FEAT: empty code"),
        ("#DIM A W=a\rb", "dimension A: label 'a\\rb' contains ',' or a line break"),
    ],
)
def test_bad_header_code_or_label_is_located_on_its_directive(directive, message):
    report = parse_index_report(f"#AOCI 1\n{directive}\n@CODE\n")
    assert [(e.line_number, e.kind, e.message) for e in report.errors] == [
        (2, ParseErrorKind.INVALID_DICTIONARY, message)
    ]


def test_invalid_importance_level_in_header():
    with pytest.raises(ParseError):
        parse_index("#AOCI 1\n#DIM C 9,4\n@CODE\n")


def test_budget_rows_report_each_bad_item_of_the_directive():
    report = parse_index_report("#AOCI 1\n#BUDGET 4:1-2 7:90-10 9:1-2 9:5-1 x 3:0-0\n@CODE\n")
    assert [(e.line_number, e.kind, e.message) for e in report.errors] == [
        (2, ParseErrorKind.INVALID_DICTIONARY, "budget level 4 is not on the importance scale"),
        (2, ParseErrorKind.INVALID_DICTIONARY, "budget 7: min 90 exceeds max 10"),
        (2, ParseErrorKind.INVALID_DICTIONARY, "duplicate budget for level 9"),
        (2, ParseErrorKind.MALFORMED_HEADER, "budget entry 'x' is not <digit>:<min>-<max>"),
    ]
    assert report.index.header.dictionary.budgets == {9: (1, 2), 3: (0, 0)}


def test_bad_utf8_is_located_parse_error():
    data = b"#AOCI 1\n@CODE\n\xff\xfe broken\n"
    with pytest.raises(ParseError) as excinfo:
        parse_index(data)
    assert excinfo.value.kind is ParseErrorKind.ENCODING
    assert excinfo.value.line_number == 3


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_document_round_trip_random(seed):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(0, 30), tables=rng.randint(0, 4))
    text = serialize_index(index)
    reparsed = parse_index(text)
    assert reparsed == index
    assert serialize_index(reparsed) == text


@given(st.binary(max_size=400))
@settings(max_examples=200, deadline=None)
def test_parser_never_crashes_on_bytes(data):
    try:
        parse_index(data)
    except ParseError as exc:
        assert exc.line_number >= 1
        assert exc.column >= 1


def _corrupt(rng: random.Random, index: Index, n_bad: int):
    """The canonical text of ``index`` with ``n_bad`` entry or table lines
    corrupted, and each corrupted line's number and expected error kind.

    The first code line stays intact, so a duplicate always has an earlier
    untouched path to copy.
    """
    lines = serialize_index(index).split("\n")
    code_at = lines.index("@CODE") + 1
    n_code = len(index.code_entries)
    tables_at = code_at + n_code + 1
    candidates = list(range(code_at + 1, code_at + n_code))
    candidates += range(tables_at, tables_at + len(index.table_entries))
    expected = {}
    for at in sorted(rng.sample(candidates, n_bad)):
        line = lines[at]
        if at >= tables_at:
            lines[at] = re.sub(r"\[[^\]]*\]", "[z-z-z-]", line, count=1)
            expected[at] = ParseErrorKind.TAG_DECODE
            continue
        corruption = rng.choice(("tag", "element", "duplicate"))
        if corruption == "tag":
            lines[at] = re.sub(r"\[[^\]]*\]", "[Z9]", line, count=1)
            expected[at] = ParseErrorKind.TAG_DECODE
        elif corruption == "element":
            lines[at] = line.rsplit(" | ", 1)[0]
            expected[at] = ParseErrorKind.MALFORMED_ENTRY
        else:
            earlier = rng.choice([i for i in range(code_at, at) if i not in expected])
            path = index.code_entries[earlier - code_at].path
            lines[at] = path + line[len(index.code_entries[at - code_at].path) :]
            expected[at] = ParseErrorKind.DUPLICATE_PATH
    return "\n".join(lines), [(at + 1, kind) for at, kind in expected.items()]


def _located(error: ParseError):
    return error.line_number, error.column, error.kind, error.message


@given(st.integers(0, 2**32), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_each_corrupted_line_costs_one_error_and_only_its_entry(seed, n_bad):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(n_bad + 1, 20), tables=rng.randint(0, 4))
    text, expected = _corrupt(rng, index, n_bad)
    code_at = serialize_index(index).split("\n").index("@CODE") + 1
    bad = {line_no - 1 for line_no, _ in expected}

    report = parse_index_report(text)
    assert [(e.line_number, e.kind) for e in report.errors] == expected
    assert report.index is not None
    assert report.index.code_entries == tuple(
        entry for i, entry in enumerate(index.code_entries) if code_at + i not in bad
    )
    tables_at = code_at + len(index.code_entries) + 1
    assert report.index.table_entries == tuple(
        table for i, table in enumerate(index.table_entries) if tables_at + i not in bad
    )
    with pytest.raises(ParseError) as excinfo:
        parse_index(text)
    assert _located(excinfo.value) == _located(report.errors[0])


@given(st.integers(0, 2**32), st.integers(0, 3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_parse_header_reads_only_the_header(seed, n_bad, bad_directive):
    rng = random.Random(seed)
    index = make_index(rng, rng.randint(n_bad + 1, 12), tables=rng.randint(0, 3))
    text = serialize_index(index)
    assert parse_header(text) == parse_index(text).header
    text, _ = _corrupt(rng, index, n_bad)
    assert parse_header(text) == index.header
    if bad_directive:
        lines = text.split("\n")
        at = rng.randrange(lines.index("@CODE"))
        lines[at] = "#BOGUS" + lines[at][lines[at].find(" ") :]
        text = "\n".join(lines)
        with pytest.raises(ParseError) as excinfo:
            parse_header(text)
        assert _located(excinfo.value) == _located(parse_index_report(text).errors[0])


def test_collected_errors_keep_no_parser_frames_alive():
    text = "#AOCI 1\n@CODE\nx.go[Z9]: F:- | R:- | A:- | S:-\ny.go: F:-\n"
    for error in parse_index_report(text).errors:
        assert error.__traceback__ is None
        assert error.__context__ is None


def test_parse_header_ignores_bad_bytes_after_the_marker():
    assert parse_header(b"#AOCI 2\n@CODE\n\xff\n").version == 2
    with pytest.raises(ParseError) as excinfo:
        parse_header(b"#AOCI 2\n\xff\n@CODE\n")
    assert (excinfo.value.line_number, excinfo.value.kind) == (2, ParseErrorKind.ENCODING)


# ---------------------------------------------------------------------------
# Scanning canonical text
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32), st.integers(0, 12), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_scan_index_reads_canonical_text(seed, n_entries, n_tables):
    rng = random.Random(seed)
    index = make_index(rng, n_entries, clean_refs=True, tables=n_tables)
    text = serialize_index(index)
    lines = scan_index(text)
    assert lines.text() == text
    assert lines.header == index.header
    assert [(row.path, row.r) for row in lines.code_entries] == [
        (entry.path, entry.r) for entry in index.code_entries
    ]
    assert [row.line for row in lines.code_entries] == [
        serialize_code_entry(entry) for entry in index.code_entries
    ]
    assert lines.code_paths() == index.code_paths()
    assert lines.table_names() == index.table_names()


def test_scan_index_reads_untagged_and_residual_lines(reference_dictionary):
    text = (
        serialize_index(Index(Header(dictionary=reference_dictionary)))
        + "x: F:- | R:- | A:- | S:-\n"
        + "y/z.go[M]: F:a: b | R:-x,d | A:- | S:-\n"
        + "@TABLES\n"
        + USERS_TABLE_LINE
        + "\n"
    )
    assert serialize_index(parse_index(text)) == text
    lines = scan_index(text)
    assert [(row.path, row.r) for row in lines.code_entries] == [("x", ()), ("y/z.go", ("-x", "d"))]
    assert lines.text() == text
    assert lines.table_names() == frozenset({"users"})
