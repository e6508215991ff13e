"""Parser, canonical serializer, and tag codec for the AOCI index format.

The file format is UTF-8, line oriented:

* Header directives, one per line, before the first section marker::

      #AOCI <version>
      #PROJECT <text>
      #OVERVIEW <text>          (repeatable)
      #STACK <text>
      #DIM A <code>=<label>,<code>=<label>,...
      #DIM B ... / #DIM D ... / #DIM E ...
      #DIM C <digit>,<digit>,...
      #BUDGET <digit>:<min>-<max> [<digit>:<min>-<max> ...]
      #TDIM DOMAIN|TYPE|SCALE|FEAT <code>=<label>,...

* ``@CODE`` introduces code entries, one per line::

      path[TAG]: F:<role> | R:<ref>,<ref> | A:<api> | S:<synopsis>

  The bracketed tag is optional. ``-`` marks an empty element.

* ``@TABLES`` introduces table entries, one per line::

      name[DOMAIN-TYPE-SCALE-FEAT+FEAT]: <field descriptions>

Canonical output uses LF line endings, exactly one space around ``|``, no
spaces after commas in R, and a single trailing newline; ``serialize_index``
followed by ``parse_index`` is the identity on valid indexes. The parser is
tolerant of extra whitespace so that non-canonical files can be reformatted.
A document is read in two phases. The header phase reads directives up to
the first section marker, collecting an error for each bad item of a
directive; ``parse_header`` runs only this phase. The body phase parses each
entry and table line with a line parser that raises ``ParseError``, and
collects each raised error in one place, so one bad line costs only itself.
``parse_index`` raises the first error of the whole document and
``parse_index_report`` returns them all. Errors carry the line and column;
the parse keeps no other position data.

``parse_index`` and ``parse_index_report`` split the decoded input into
lines, then release the caller's bytes (unless the caller keeps them too)
and the decoded text before the body phase. The body phase drops each line
once it has read it, so the lines shrink as the index grows. The canonical
text comes from one generator, ``serialize_blocks``, in blocks of about a
thousand lines; ``serialize_index`` joins them, and a caller that writes or
measures the text takes them one at a time.

Each line is checked once. ``decode_tag`` considers every split of a tag in
one pass and returns the one its preference order picks, or raises
``AmbiguousTag``. It memoises on the dictionary, so a parse decodes each
distinct tag once, and ``Index`` accepts the parser's memoised decodings
without decoding them again. Header codes and labels go through the same
``model`` checks that ``TagDictionary`` applies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, islice
from typing import Iterator

from .errors import (
    AmbiguousTag,
    AociError,
    InvalidImportance,
    InvalidPath,
    InvariantError,
    MalformedTableTag,
    MalformedTag,
    TagError,
    UnknownCode,
)
from .model import (
    EMPTY_SENTINEL,
    IMPORTANCE_SCALE,
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TableEntry,
    TagDictionary,
    check_budget,
    check_code,
    check_label,
    is_ascii_int,
)

_DIGITS = set("0123456789")

# The path group is greedy: it cannot cross '[', ']' or ':', so it ends where
# a lazy group would, plus any whitespace before ':' (which callers strip).
_ENTRY_RE = re.compile(r"([^\[\]:]+)(?:\[([^\[\]]*)\])?\s*:\s?(.*)\Z")

_ELEMENT_PREFIXES = ("F:", "R:", "A:", "S:")

# Whether an R element holds whitespace, and so has pieces to strip.
_HAS_SPACE = re.compile(r"\s").search


class ParseErrorKind(Enum):
    ENCODING = "encoding"
    MALFORMED_HEADER = "malformed-header"
    UNKNOWN_DIRECTIVE = "unknown-directive"
    INVALID_DICTIONARY = "invalid-dictionary"
    MISPLACED_LINE = "misplaced-line"
    MALFORMED_ENTRY = "malformed-entry"
    TAG_DECODE = "tag-decode"
    DUPLICATE_PATH = "duplicate-path"
    DUPLICATE_NAME = "duplicate-name"
    MALFORMED_CHANGE = "malformed-change"


class ParseError(AociError):
    """A located syntax or consistency error in an input document."""

    def __init__(self, line_number: int, column: int, kind: ParseErrorKind, message: str):
        self.line_number = max(1, line_number)
        self.column = max(1, column)
        self.kind = kind
        self.message = message
        super().__init__(f"line {self.line_number}, column {self.column}: {message}")


@dataclass
class ParseReport:
    """Outcome of a parse: best-effort index plus every error found."""

    index: Index | None
    errors: list[ParseError] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Tag codec
# ---------------------------------------------------------------------------


def decode_tag(tag: str, dictionary: TagDictionary) -> DecodedTag:
    """Decompose a concatenated tag against ``dictionary``.

    Each distinct tag is decoded once per dictionary: a repeated call returns
    the same ``DecodedTag`` object. A tag that fails raises on every call.

    Codes hold no digits, so the one importance digit splits the tag into an
    A·B head and a D*·E? tail, and every split of either part is considered:

    * Head: the longest A code whose remainder is a B code.
    * Tail: one left-to-right pass counts, at each offset, the D
      factorisations of the text before it and keeps one back-pointer. The
      scale codes the tail ends with are tried longest first, then no scale;
      the first whose remaining text has a factorisation wins.

    Raises:
        MalformedTag: zero or multiple digits.
        InvalidImportance: digit outside the dictionary's importance set.
        UnknownCode: no A code prefixes the head (naming the head), no B code
            follows one (naming what follows the longest), or no scale leaves
            a factorisation (naming the tail past the furthest offset reached).
        AmbiguousTag: the winning scale leaves more than one factorisation.
    """
    memo = dictionary._decode_memo
    decoded = memo.get(tag)
    if decoded is None:
        decoded = memo[tag] = _decode_tag(tag, dictionary)
    return decoded


def _decode_tag(tag: str, dictionary: TagDictionary) -> DecodedTag:
    if not tag:
        raise MalformedTag("empty tag")
    positions = [i for i, ch in enumerate(tag) if ch in _DIGITS]
    if len(positions) != 1:
        raise MalformedTag(
            f"tag {tag!r} must contain exactly one importance digit, found {len(positions)}"
        )
    pos = positions[0]
    importance = int(tag[pos])
    if importance not in dictionary.dim_c:
        raise InvalidImportance(
            f"importance {importance} is not in the dictionary's allowed levels"
        )
    head, tail = tag[:pos], tag[pos + 1 :]
    lengths = dictionary._code_lengths

    longest = None
    for n in lengths["A"]:
        if n <= len(head) and head[:n] in dictionary.dim_a:
            if head[n:] in dictionary.dim_b:
                break
            longest = longest or n
    else:
        if not longest:
            raise UnknownCode("A", head)
        raise UnknownCode("B", head[longest:])
    layer, module = head[:n], head[n:]

    # ways[i] counts the D factorisations of tail[:i]; last[i] is the length
    # of one of their last codes. A scale of length 0 stands for no scale.
    size = len(tail)
    ways = [1] + [0] * size
    last = [0] * (size + 1)
    for end in range(1, size + 1):
        for n in lengths["D"]:
            if n <= end and ways[end - n] and tail[end - n : end] in dictionary.dim_d:
                ways[end] += ways[end - n]
                last[end] = n
    for n in lengths["E"] + (0,):
        end = size - n
        if end >= 0 and ways[end] and (not n or tail[end:] in dictionary.dim_e):
            break
    else:
        reached = max(i for i, count in enumerate(ways) if count)
        raise UnknownCode("D", tail[reached:])
    if ways[end] > 1:
        raise AmbiguousTag(f"{tail[:end]!r} splits into D codes {ways[end]} ways")
    scale = tail[end:] or None
    features = ()
    while end:
        features = (tail[end - last[end] : end],) + features
        end -= last[end]
    return DecodedTag(layer, module, importance, features, scale)


def encode_tag(decoded: DecodedTag) -> str:
    """Concatenate the dimensions back into a tag string."""
    return (
        decoded.layer
        + decoded.module
        + str(decoded.importance)
        + "".join(decoded.features)
        + (decoded.scale or "")
    )


def decode_table_tag(tag: str, dictionary: TagDictionary) -> tuple[str, str, str, tuple[str, ...]]:
    """Split a dash-separated table tag into (domain, type, scale, features).

    Raises:
        MalformedTableTag: not exactly four dash-separated parts.
        UnknownCode: a part that matches no code in its dimension.
    """
    parts = tag.split("-")
    if len(parts) != 4:
        raise MalformedTableTag(
            f"table tag {tag!r} must have four dash-separated parts, found {len(parts)}"
        )
    domain, ttype, scale, feat_part = parts
    features = tuple(feat_part.split("+")) if feat_part else ()
    for (name, codes), values in zip(
        dictionary.table_dimensions(), ((domain,), (ttype,), (scale,), features)
    ):
        for value in values:
            if value not in codes:
                raise UnknownCode(name, value)
    return domain, ttype, scale, features


def encode_table_tag(table: TableEntry) -> str:
    return "-".join((table.domain, table.ttype, table.scale, "+".join(table.features)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_semantic_elements(entry: CodeEntry) -> str:
    """The ``F:... | R:... | A:... | S:...`` section of an entry line."""
    r_text = ",".join(entry.r) if entry.r else EMPTY_SENTINEL
    return " | ".join(
        (
            f"F:{entry.f or EMPTY_SENTINEL}",
            f"R:{r_text}",
            f"A:{entry.a or EMPTY_SENTINEL}",
            f"S:{entry.s or EMPTY_SENTINEL}",
        )
    )


def serialize_code_entry(entry: CodeEntry) -> str:
    head = entry.path if entry.tag is None else f"{entry.path}[{entry.tag}]"
    return f"{head}: {serialize_semantic_elements(entry)}"


def serialize_table_entry(table: TableEntry) -> str:
    head = f"{table.name}[{encode_table_tag(table)}]" if table.has_tag else table.name
    return f"{head}: {table.fields_text or EMPTY_SENTINEL}"


def serialize_header(header: Header) -> str:
    lines = [f"#AOCI {header.version}"]
    if header.project:
        lines.append(f"#PROJECT {header.project}")
    for line in header.overview:
        lines.append(f"#OVERVIEW {line}")
    if header.stack:
        lines.append(f"#STACK {header.stack}")
    d = header.dictionary
    for name, mapping in (("A", d.dim_a), ("B", d.dim_b)):
        if mapping:
            lines.append(_dim_line("#DIM", name, mapping))
    lines.append("#DIM C " + ",".join(str(v) for v in sorted(d.dim_c, reverse=True)))
    for name, mapping in (("D", d.dim_d), ("E", d.dim_e)):
        if mapping:
            lines.append(_dim_line("#DIM", name, mapping))
    if d.budgets:
        pairs = " ".join(
            f"{level}:{lo}-{hi}"
            for level, (lo, hi) in sorted(d.budgets.items(), reverse=True)
        )
        lines.append(f"#BUDGET {pairs}")
    for name, mapping in d.table_dimensions():
        if mapping:
            lines.append(_dim_line("#TDIM", name, mapping))
    return "\n".join(lines)


def _dim_line(directive: str, name: str, mapping: dict[str, str]) -> str:
    body = ",".join(f"{code}={label}" for code, label in mapping.items())
    return f"{directive} {name} {body}"


# Lines per block of ``serialize_blocks``: a write per block costs little,
# and a block is small beside the index it comes from.
_BLOCK_LINES = 1000


def serialize_blocks(index: Index) -> Iterator[str]:
    """The canonical text of ``index`` in blocks of about a thousand lines.

    Each block ends with a line break, and the blocks concatenate to
    ``serialize_index(index)``, so a caller can write or measure the text
    without holding all of it.
    """
    lines = chain(
        (serialize_header(index.header), "@CODE"),
        map(serialize_code_entry, index.code_entries),
        ("@TABLES",) if index.table_entries else (),
        map(serialize_table_entry, index.table_entries),
    )
    while block := list(islice(lines, _BLOCK_LINES)):
        yield "\n".join(block) + "\n"


def serialize_index(index: Index) -> str:
    """Emit the canonical textual form of ``index``.

    ``parse_index(serialize_index(i))`` equals ``i``, and a serialize, parse,
    serialize cycle is byte-identical.
    """
    return "".join(serialize_blocks(index))


# ---------------------------------------------------------------------------
# Scanning canonical text
# ---------------------------------------------------------------------------

# The path of a canonical entry line, or a table name: it ends at the tag's
# '[' or at the ':'.
_NAME_RE = re.compile(r"[^\[:]+")


def line_refs(line: str) -> list[str]:
    """The references of a canonical entry line, read off its R element.

    Paths hold no '|', tags and F hold no '|', and one space stands on each
    side of every '|', so R is the second ``" | "`` field.
    """
    refs = line.split(" | ", 2)[1][2:]
    return [] if refs == EMPTY_SENTINEL else refs.split(",")


@dataclass(frozen=True)
class IndexLines:
    """Canonical index text cut into lines, with only the header parsed.

    ``head`` is the text up to and including the ``@CODE`` line, and
    ``tail`` is the ``@TABLES`` section (empty when there is none).
    ``rows`` maps each code line's path to the line, in index order; a
    line's references are read off it by ``line_refs`` when needed.
    """

    header: Header
    head: str
    rows: dict[str, str]
    tail: str

    def table_names(self) -> frozenset[str]:
        return frozenset(
            _NAME_RE.match(line).group() for line in self.tail.split("\n")[1:-1]
        )

    def blocks(self) -> Iterator[str]:
        """The index text in blocks: the head, the code lines about a
        thousand at a time, then the tail. Unchanged rows come out byte for
        byte, and the blocks concatenate to ``text()``."""
        yield self.head
        lines = iter(self.rows.values())
        while block := list(islice(lines, _BLOCK_LINES)):
            yield "\n".join(block) + "\n"
        if self.tail:
            yield self.tail

    def text(self) -> str:
        """The index text: unchanged rows come out byte for byte."""
        return "".join(self.blocks())


def scan_index(text: str) -> IndexLines:
    """Cut canonical index text into lines, reading only each code line's
    path, and parse the header.

    ``text`` must be ``serialize_index`` output: the scan relies on that
    layout (LF line endings, one space around ``|``, no blank lines, no
    path twice) and checks nothing else, so text of unknown origin goes
    through ``parse_index`` first. The header, the text up to and including
    ``@CODE``, goes through ``parse_header``, which raises its first error.
    ``scan_index(serialize_index(index)).text()`` equals
    ``serialize_index(index)``.
    """
    lines = text.split("\n")  # the last item is the empty string after the final LF
    code_at = lines.index("@CODE") + 1
    tables_at = lines.index("@TABLES", code_at) if "@TABLES" in lines else len(lines) - 1
    rows = {_NAME_RE.match(line).group(): line for line in lines[code_at:tables_at]}
    head = "\n".join(lines[:code_at]) + "\n"
    return IndexLines(parse_header(head), head, rows, "\n".join(lines[tables_at:]))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_index(text: str | bytes) -> Index:
    """Parse an index document: its header, then every entry and table line.

    The parse collects every located error, as ``parse_index_report`` does;
    this raises the first of them.

    Raises:
        ParseError: located description of the first failure.
    """
    errors: list[ParseError] = []
    lines = _decode_input(text, errors).split("\n")
    del text  # as in parse_index_report
    index = _parse_lines(lines, errors)
    if errors:
        raise errors[0]
    assert index is not None
    return index


def parse_index_report(text: str | bytes) -> ParseReport:
    """Parse returning the best-effort index and every located error.

    The header is read first, then every entry and table line after the
    first section marker. A bad line is left out of the index and the parse
    goes on; the index is ``None`` only when the document has no marker.
    """
    errors: list[ParseError] = []
    lines = _decode_input(text, errors).split("\n")
    # In CPython a parameter keeps its argument alive until it is rebound or
    # deleted. Deleting it frees the caller's bytes before the entries are
    # built, unless the caller holds them too; the decoded str is already
    # gone, so only the lines remain.
    del text
    return ParseReport(_parse_lines(lines, errors), errors)


def parse_header(text: str | bytes) -> Header:
    """Parse only the header: the directives before the first section marker.

    Entry and table lines are not read, so a bad entry does not stop a
    caller that needs only the dictionary.

    Raises:
        ParseError: the first error located at or before the first marker,
            or "document has no @CODE section".
    """
    errors: list[ParseError] = []
    lines = _decode_input(text, errors).split("\n")
    header, at = _read_header(lines, errors)
    for error in errors:
        if error.line_number <= at + 1:
            raise error
    return header


def decode_utf8(data: bytes) -> str:
    """Decode an input file's bytes by the rule every input follows: UTF-8,
    with a leading byte order mark dropped.

    Raises:
        ParseError: kind ``ENCODING``, located at the first byte that is not
            UTF-8.
    """
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        error = _encoding_error(data, exc)
    # Raised outside the handler, so it does not chain the UnicodeDecodeError,
    # which holds the whole input.
    raise error


def _encoding_error(data: bytes, exc: UnicodeDecodeError) -> ParseError:
    line_start = data.rfind(b"\n", 0, exc.start) + 1
    return ParseError(
        data.count(b"\n", 0, exc.start) + 1,
        exc.start - line_start + 1,
        ParseErrorKind.ENCODING,
        f"invalid UTF-8 at byte {exc.start}",
    )


def _decode_input(text: str | bytes, errors: list[ParseError]) -> str:
    if isinstance(text, str):
        return text.removeprefix("\ufeff")
    try:
        return decode_utf8(text)
    except ParseError as error:
        error.__traceback__ = None  # its frames hold the input
        errors.append(error)
        return text.decode("utf-8", errors="replace")


def _parse_lines(lines: list[str], errors: list[ParseError]) -> Index | None:
    """The index of a document's lines; the body's lines are emptied."""
    header, at = _read_header(lines, errors)
    if header is None:
        return None
    dictionary = header.dictionary
    entries: dict[str, CodeEntry] = {}
    tables: dict[str, TableEntry] = {}
    in_tables = lines[at].strip() == "@TABLES"
    for i in range(at + 1, len(lines)):
        # Each line is dropped once read, so the lines shrink as the index
        # grows: a parse holds about one copy of the document, not two.
        line, lines[i] = lines[i].strip(), ""
        line_no = i + 1
        if not line:
            continue
        try:
            if line.startswith("@"):
                if in_tables or line != "@TABLES":
                    raise ParseError(
                        line_no,
                        1,
                        ParseErrorKind.UNKNOWN_DIRECTIVE,
                        f"unexpected section marker {line!r}",
                    )
                in_tables = True
            elif in_tables:
                table = _parse_table_line(line, line_no, dictionary)
                if table.name in tables:
                    raise ParseError(
                        line_no,
                        1,
                        ParseErrorKind.DUPLICATE_NAME,
                        f"duplicate table entry name {table.name!r}",
                    )
                tables[table.name] = table
            else:
                entry = _parse_code_line(line, line_no, dictionary)
                if entry.path in entries:
                    raise ParseError(
                        line_no,
                        1,
                        ParseErrorKind.DUPLICATE_PATH,
                        f"duplicate code entry path {entry.path!r}",
                    )
                entries[entry.path] = entry
        except ParseError as error:
            # A raised error's traceback, and its context's, hold this frame
            # and so the whole document for as long as the report lives.
            error.__traceback__ = error.__context__ = None
            errors.append(error)
    return Index(header, tuple(entries.values()), tuple(tables.values()))


def _read_header(lines: list[str], errors: list[ParseError]) -> tuple[Header | None, int]:
    """Read the directives up to the first section marker.

    Returns the header and the marker's index in ``lines``. A document with
    no marker gives ``(None, len(lines))`` and one more error, on its last
    line.
    """
    reader = _HeaderReader(errors)
    for at, raw_line in enumerate(lines):
        line = raw_line.strip()
        reader.line_no = at + 1
        if line == "@CODE" or line == "@TABLES":
            return reader.build(), at
        if line.startswith("#"):
            reader.directive(line)
        elif line.startswith("@"):
            reader.fail(ParseErrorKind.UNKNOWN_DIRECTIVE, f"unknown section marker {line!r}")
        elif line:
            reader.fail(
                ParseErrorKind.MISPLACED_LINE, "expected a header directive or section marker"
            )
    errors.append(
        ParseError(
            len(lines), 1, ParseErrorKind.MALFORMED_HEADER, "document has no @CODE section"
        )
    )
    return None, len(lines)


_BUDGET_RE = re.compile(r"^([0-9]):([0-9]+)-([0-9]+)$")


class _HeaderReader:
    """Accumulates directives. Each bad item of a directive adds an error
    located on the directive's line, at column 1, and is left out."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        self.line_no = 0
        self.seen: set[str] = set()  # the singleton directives read so far
        self.version: int | None = None
        self.project = ""
        self.overview: list[str] = []
        self.stack = ""
        self.dims: dict[str, dict[str, str]] = {"A": {}, "B": {}, "D": {}, "E": {}}
        self.dim_c: set[int] = set()
        self.tdims: dict[str, dict[str, str]] = {
            "DOMAIN": {},
            "TYPE": {},
            "SCALE": {},
            "FEAT": {},
        }
        self.budgets: dict[int, tuple[int, int]] = {}

    def fail(self, kind: ParseErrorKind, message: str) -> None:
        self.errors.append(ParseError(self.line_no, 1, kind, message))

    def build(self) -> Header:
        """The header, checked on the section marker's line."""
        if self.version is None:
            self.fail(
                ParseErrorKind.MALFORMED_HEADER,
                "missing #AOCI version directive before the first section",
            )
        try:
            dictionary = TagDictionary(
                dim_a=self.dims["A"],
                dim_b=self.dims["B"],
                dim_c=frozenset(self.dim_c) if self.dim_c else frozenset(IMPORTANCE_SCALE),
                dim_d=self.dims["D"],
                dim_e=self.dims["E"],
                table_domain=self.tdims["DOMAIN"],
                table_type=self.tdims["TYPE"],
                table_scale=self.tdims["SCALE"],
                table_feat=self.tdims["FEAT"],
                budgets=self.budgets,
            )
            return Header(
                version=self.version or 1,
                project=self.project,
                overview=tuple(self.overview),
                stack=self.stack,
                dictionary=dictionary,
            )
        except InvariantError as exc:
            self.fail(ParseErrorKind.INVALID_DICTIONARY, str(exc))
            return Header()

    def directive(self, line: str) -> None:
        word, _, rest = line[1:].partition(" ")
        rest = rest.strip()
        malformed = ParseErrorKind.MALFORMED_HEADER
        if word in ("AOCI", "PROJECT", "STACK"):
            if word in self.seen:
                self.fail(malformed, f"duplicate #{word} directive")
                return
            self.seen.add(word)
        if word == "AOCI":
            if not is_ascii_int(rest) or int(rest) < 1:
                self.fail(malformed, f"#AOCI needs an integer version >= 1, got {rest!r}")
            else:
                self.version = int(rest)
        elif word == "PROJECT":
            self.project = rest
        elif word == "OVERVIEW":
            if rest:
                self.overview.append(rest)
            else:
                self.fail(malformed, "#OVERVIEW needs text")
        elif word == "STACK":
            self.stack = rest
        elif word == "DIM":
            self.dim(rest)
        elif word == "TDIM":
            name, _, body = rest.partition(" ")
            if name in self.tdims:
                self.code_map(body.strip(), name, self.tdims[name])
            else:
                self.fail(
                    malformed, f"#TDIM dimension must be DOMAIN, TYPE, SCALE or FEAT, got {name!r}"
                )
        elif word == "BUDGET":
            self.budget(rest)
        else:
            self.fail(ParseErrorKind.UNKNOWN_DIRECTIVE, f"unknown directive #{word}")

    def dim(self, rest: str) -> None:
        name, _, body = rest.partition(" ")
        body = body.strip()
        if name == "C":
            for part in body.split(","):
                part = part.strip()
                if is_ascii_int(part) and int(part) in IMPORTANCE_SCALE:
                    self.dim_c.add(int(part))
                else:
                    self.fail(
                        ParseErrorKind.INVALID_DICTIONARY,
                        f"importance level {part!r} is not one of "
                        + "/".join(str(v) for v in IMPORTANCE_SCALE),
                    )
        elif name not in self.dims:
            self.fail(
                ParseErrorKind.MALFORMED_HEADER,
                f"#DIM dimension must be A, B, C, D or E, got {name!r}",
            )
        else:
            self.code_map(body, name, self.dims[name])
            if name == "E" and len(self.dims["E"]) > 4:
                self.fail(
                    ParseErrorKind.INVALID_DICTIONARY,
                    "dimension E allows at most four scale levels",
                )
                # Drop the overflow so the parse can continue.
                for code in list(self.dims["E"])[4:]:
                    del self.dims["E"][code]

    def code_map(self, body: str, name: str, target: dict[str, str]) -> None:
        if not body:
            self.fail(ParseErrorKind.MALFORMED_HEADER, f"dimension {name} has no code list")
            return
        for item in body.split(","):
            code, eq, label = item.partition("=")
            code = code.strip()
            label = label.strip()
            if not eq:
                self.fail(
                    ParseErrorKind.MALFORMED_HEADER,
                    f"dimension {name}: expected code=label, got {item.strip()!r}",
                )
            elif code in target:
                self.fail(
                    ParseErrorKind.INVALID_DICTIONARY, f"dimension {name}: duplicate code {code!r}"
                )
            else:
                try:
                    check_code(name, code)
                    check_label(name, label)
                except InvariantError as exc:
                    self.fail(ParseErrorKind.INVALID_DICTIONARY, str(exc))
                else:
                    target[code] = label

    def budget(self, rest: str) -> None:
        if not rest:
            self.fail(ParseErrorKind.MALFORMED_HEADER, "#BUDGET needs level:min-max pairs")
        for token in rest.split():
            match = _BUDGET_RE.match(token)
            if not match:
                self.fail(
                    ParseErrorKind.MALFORMED_HEADER,
                    f"budget entry {token!r} is not <digit>:<min>-<max>",
                )
                continue
            level, lo, hi = map(int, match.groups())
            # A dictionary cannot hold two rows for one level, so the parser
            # checks this before the row itself.
            if level in self.budgets:
                self.fail(ParseErrorKind.INVALID_DICTIONARY, f"duplicate budget for level {level}")
                continue
            try:
                check_budget(level, lo, hi)
            except InvariantError as exc:
                self.fail(ParseErrorKind.INVALID_DICTIONARY, str(exc))
            else:
                self.budgets[level] = (lo, hi)


def parse_code_entry_line(line: str, dictionary: TagDictionary) -> CodeEntry:
    """Parse a single code entry line against ``dictionary``.

    Raises:
        ParseError: with line number 1.
    """
    return _parse_code_line(line.strip(), 1, dictionary)


def _parse_code_line(line: str, line_no: int, dictionary: TagDictionary) -> CodeEntry:
    match = _ENTRY_RE.match(line)
    if not match:
        raise ParseError(
            line_no,
            1,
            ParseErrorKind.MALFORMED_ENTRY,
            "entry line must look like path[TAG]: F:... | R:... | A:... | S:...",
        )
    path_text, tag_text, rest = match.group(1).strip(), match.group(2), match.group(3)

    parts = rest.split("|")
    if len(parts) != len(_ELEMENT_PREFIXES):
        column = max(1, min(len(line), len(line) - len(rest) + 1))
        raise ParseError(
            line_no,
            column,
            ParseErrorKind.MALFORMED_ENTRY,
            f"expected four |-separated elements, found {len(parts)}",
        )
    f_part, r_part, a_part, s_part = parts = [part.strip() for part in parts]
    if not (
        f_part[:2] == "F:" and r_part[:2] == "R:" and a_part[:2] == "A:" and s_part[:2] == "S:"
    ):
        # Name the first element whose prefix is wrong.
        for position, (prefix, part) in enumerate(zip(_ELEMENT_PREFIXES, parts), start=1):
            if not part.startswith(prefix):
                raise ParseError(
                    line_no,
                    1,
                    ParseErrorKind.MALFORMED_ENTRY,
                    f"expected element {prefix} in position {position}, got {part[:20]!r}",
                )
    f_text, r_text, a_text, s_text = [
        "" if value == EMPTY_SENTINEL else value
        for value in (f_part[2:].strip(), r_part[2:].strip(), a_part[2:].strip(), s_part[2:].strip())
    ]

    refs: tuple[str, ...] = ()
    if r_text:
        pieces = r_text.split(",")
        if _HAS_SPACE(r_text):
            pieces = [piece.strip() for piece in pieces]
        if "" in pieces:
            raise ParseError(
                line_no, 1, ParseErrorKind.MALFORMED_ENTRY, f"empty reference in R element {r_text!r}"
            )
        refs = tuple(pieces)

    tag: str | None = None
    decoded = None
    if tag_text is not None:
        tag = tag_text.strip()
        try:
            decoded = decode_tag(tag, dictionary)
        except TagError as exc:
            # A lone scale code is the residual tag form emitted by tag
            # ablation; it stays attached without a decoding.
            if tag not in dictionary.dim_e:
                column = line.find("[") + 2 if "[" in line else 1
                raise ParseError(
                    line_no, column, ParseErrorKind.TAG_DECODE, f"tag {tag!r}: {exc}"
                ) from None
    try:
        return CodeEntry(path_text, tag, decoded, f_text, refs, a_text, s_text)
    except (InvariantError, InvalidPath) as exc:
        raise ParseError(line_no, 1, ParseErrorKind.MALFORMED_ENTRY, str(exc)) from None


def _parse_table_line(line: str, line_no: int, dictionary: TagDictionary) -> TableEntry:
    match = _ENTRY_RE.match(line)
    if not match:
        raise ParseError(
            line_no,
            1,
            ParseErrorKind.MALFORMED_ENTRY,
            "table line must look like name[DOMAIN-TYPE-SCALE-FEATS]: description",
        )
    name, tag_text, rest = match.group(1).strip(), match.group(2), match.group(3)
    fields_text = rest.strip()
    if fields_text == EMPTY_SENTINEL:
        fields_text = ""

    domain = ttype = scale = ""
    features: tuple[str, ...] = ()
    if tag_text is not None:
        try:
            domain, ttype, scale, features = decode_table_tag(tag_text.strip(), dictionary)
        except TagError as exc:
            column = line.find("[") + 2 if "[" in line else 1
            raise ParseError(
                line_no, column, ParseErrorKind.TAG_DECODE, f"table tag {tag_text!r}: {exc}"
            ) from None
    try:
        return TableEntry(
            name=name,
            domain=domain,
            ttype=ttype,
            scale=scale,
            features=features,
            fields_text=fields_text,
        )
    except InvariantError as exc:
        raise ParseError(line_no, 1, ParseErrorKind.MALFORMED_ENTRY, str(exc)) from None
