"""Core domain model for AOCI index documents.

Every type here is an immutable value object: construction validates the
invariants, and "mutation" means building a new value (``dataclasses.replace``
works on all of them). Checks that need a tag dictionary, such as tag decode
consistency, run when an :class:`Index` is assembled.

Path policy: repository-relative, ``'/'`` separators, no leading or inner
``'./'``, compared case-sensitively. ``canonical_path`` is the single
normalization point and is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidPath, InvariantError, TagError

#: The fixed six-level importance scale, highest first.
IMPORTANCE_SCALE = (9, 8, 7, 5, 3, 1)

#: The empty-element sentinel used by the textual format.
EMPTY_SENTINEL = "-"

# Characters that would collide with the index grammar if they appeared in a
# dictionary code: tag brackets, the table-tag separators '-' and '+', the
# element separator '|', and the header directive syntax (choice of ':', '=',
# ',', whitespace).
_CODE_FORBIDDEN = set("[]-|:,=+\"'")

# Characters a path may not contain, or entry lines stop being parseable:
# the bracket/colon head syntax, the element separator, the comma that
# separates R references, and whitespace. ``\s`` matches exactly the
# characters for which ``str.isspace`` is true.
_PATH_FORBIDDEN = re.compile(r"[\[\]|:,\s]")

# Characters an R reference may not contain: the element separator, the
# reference separator, and whitespace.
_REF_FORBIDDEN = re.compile(r"[|,\s]")


def canonical_path(raw: str) -> str:
    """Normalize a path: '/' separators, no leading './', no '//' or '/./'.

    Raises:
        InvalidPath: if ``raw`` is empty or normalizes to the empty string.
    """
    # Paths already canonical, the common case, come back as they are.
    if raw and "\\" not in raw and "//" not in raw and "/./" not in raw and not raw.startswith("./"):
        return raw
    if not raw:
        raise InvalidPath("empty path")
    path = raw.replace("\\", "/")
    while "//" in path or "/./" in path:
        path = path.replace("//", "/").replace("/./", "/")
    while path.startswith("./"):
        path = path[2:]
    if not path:
        raise InvalidPath(f"path {raw!r} normalizes to nothing")
    return path


def _check_path(path: str) -> str:
    path = canonical_path(path)
    if _PATH_FORBIDDEN.search(path):
        raise InvariantError(
            f"path {path!r} contains characters the entry grammar reserves: "
            f"{sorted(set(_PATH_FORBIDDEN.findall(path)))}"
        )
    return path


def check_code(dimension: str, code: str) -> None:
    """Raise InvariantError unless ``code`` is a usable dictionary code."""
    if not code:
        raise InvariantError(f"dimension {dimension}: empty code")
    for ch in code:
        if ch.isdigit() or ch.isspace() or ch in _CODE_FORBIDDEN or ch in "\r\n":
            raise InvariantError(
                f"dimension {dimension}: code {code!r} contains "
                f"reserved character {ch!r}"
            )


def check_label(dimension: str, label: str) -> None:
    """Raise InvariantError unless ``label`` fits on a header directive line."""
    if "," in label or "\n" in label or "\r" in label:
        raise InvariantError(
            f"dimension {dimension}: label {label!r} contains ',' or a line break"
        )


def check_budget(level: int, lo: int, hi: int) -> None:
    """Raise InvariantError unless ``level: lo-hi`` is a usable budget row."""
    if level not in IMPORTANCE_SCALE:
        raise InvariantError(f"budget level {level} is not on the importance scale")
    if lo < 0 or lo > hi:
        raise InvariantError(f"budget {level}: min {lo} exceeds max {hi}")


def is_ascii_int(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits, the only integer spelling
    in headers, rules files and change listings. ``str.isdigit`` alone also
    takes ``²``, which ``int`` rejects, and ``int`` takes ``٣`` and ``1_000``."""
    return text.isascii() and text.isdigit()


def _check_text(value: str, owner: str, element: str) -> None:
    """Free-text element constraints that keep the line grammar closed.

    An error names the value as ``<owner>: <element>``; that label is only
    built when a check fails.
    """
    if "|" in value or "\n" in value or "\r" in value:
        raise InvariantError(
            f"{owner}: {element} may not contain '|' or line breaks: {value!r}"
        )
    if value != value.strip():
        raise InvariantError(
            f"{owner}: {element} has leading or trailing whitespace: {value!r}"
        )
    if value == EMPTY_SENTINEL:
        raise InvariantError(
            f"{owner}: {element} may not be the literal {EMPTY_SENTINEL!r}; "
            "use the empty string"
        )


@dataclass(frozen=True)
class TagDictionary:
    """Per-project code sets for tag dimensions, plus token budgets.

    ``dim_a`` (architectural layer), ``dim_b`` (business module), ``dim_d``
    (technical characteristics) and ``dim_e`` (code scale) map codes to
    labels. ``dim_c`` is the set of allowed importance digits, a subset of
    the fixed scale 9/8/7/5/3/1. The four ``table_*`` maps are the table tag
    dimensions. ``budgets`` maps an importance digit to a (min, max) token
    allowance for the entry's semantic elements.

    The dictionary also memoises ``grammar.decode_tag``: each distinct tag is
    decoded once per dictionary, and repeated decodes return the same
    ``DecodedTag`` object. Failures are not memoised. The memo takes no part
    in equality or ``repr``, and ``dataclasses.replace`` starts a new one. It
    relies on one invariant: the code maps are never mutated after
    construction. ``_code_lengths`` holds each code dimension's distinct
    code lengths, longest first, for the decoder.
    """

    dim_a: dict[str, str] = field(default_factory=dict)
    dim_b: dict[str, str] = field(default_factory=dict)
    dim_c: frozenset[int] = frozenset(IMPORTANCE_SCALE)
    dim_d: dict[str, str] = field(default_factory=dict)
    dim_e: dict[str, str] = field(default_factory=dict)
    table_domain: dict[str, str] = field(default_factory=dict)
    table_type: dict[str, str] = field(default_factory=dict)
    table_scale: dict[str, str] = field(default_factory=dict)
    table_feat: dict[str, str] = field(default_factory=dict)
    budgets: dict[int, tuple[int, int]] = field(default_factory=dict)
    _decode_memo: dict[str, DecodedTag] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _code_lengths: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim_c", frozenset(self.dim_c))
        if not self.dim_c:
            raise InvariantError("dim_c must contain at least one importance level")
        if not self.dim_c <= set(IMPORTANCE_SCALE):
            raise InvariantError(
                f"dim_c {sorted(self.dim_c)} is not a subset of {IMPORTANCE_SCALE}"
            )
        if len(self.dim_e) > 4:
            raise InvariantError("dim_e allows at most four scale levels")
        for name, mapping in self.code_dimensions() + self.table_dimensions():
            for code in mapping:
                check_code(name, code)
            for label in mapping.values():
                check_label(name, label)
        budgets = {}
        for level, (lo, hi) in self.budgets.items():
            check_budget(level, lo, hi)
            budgets[level] = (int(lo), int(hi))
        object.__setattr__(self, "budgets", budgets)
        lengths = {
            name: tuple(sorted({len(code) for code in mapping}, reverse=True))
            for name, mapping in self.code_dimensions()
        }
        object.__setattr__(self, "_code_lengths", lengths)

    def code_dimensions(self) -> list[tuple[str, dict[str, str]]]:
        """The four code→label tag dimensions, in tag order."""
        return [("A", self.dim_a), ("B", self.dim_b), ("D", self.dim_d), ("E", self.dim_e)]

    def table_dimensions(self) -> list[tuple[str, dict[str, str]]]:
        return [
            ("DOMAIN", self.table_domain),
            ("TYPE", self.table_type),
            ("SCALE", self.table_scale),
            ("FEAT", self.table_feat),
        ]


@dataclass(frozen=True)
class DecodedTag:
    """The five-dimension decomposition of a code tag.

    ``scale`` may be absent: tags without a scale code are legal.
    """

    layer: str
    module: str
    importance: int
    features: tuple[str, ...] = ()
    scale: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if self.importance not in IMPORTANCE_SCALE:
            raise InvariantError(f"importance {self.importance} is not on the scale")


@dataclass(frozen=True)
class Header:
    """Project metadata plus the tag dictionary shared by all entries."""

    version: int = 1
    project: str = ""
    overview: tuple[str, ...] = ()
    stack: str = ""
    dictionary: TagDictionary = field(default_factory=TagDictionary)

    def __post_init__(self):
        if self.version < 1:
            raise InvariantError(f"version must be >= 1, got {self.version}")
        object.__setattr__(self, "overview", tuple(self.overview))
        for label, value in (("project", self.project), ("stack", self.stack)):
            if "\n" in value or "\r" in value or value != value.strip():
                raise InvariantError(f"header {label} must be a single trimmed line")
        for line in self.overview:
            if not line or "\n" in line or "\r" in line or line != line.strip():
                raise InvariantError("overview lines must be nonempty trimmed lines")


@dataclass(frozen=True, slots=True)
class CodeEntry:
    """One source file's record: path, optional tag, and the four semantic
    elements (role text ``f``, relation references ``r``, API text ``a``,
    synopsis ``s``).

    ``decoded`` is attached when the tag decodes fully against the project
    dictionary. A tag without a decoding is a residual scale-only tag; the
    index-level check enforces that it is exactly one scale code.

    Empty elements are the empty list (``r``) or empty string (``f``, ``a``,
    ``s``); serialization renders them as ``-``.
    """

    path: str
    tag: str | None = None
    decoded: DecodedTag | None = None
    f: str = ""
    r: tuple[str, ...] = ()
    a: str = ""
    s: str = ""

    def __post_init__(self):
        object.__setattr__(self, "path", _check_path(self.path))
        if type(self.r) is not tuple:
            object.__setattr__(self, "r", tuple(self.r))
        if self.decoded is not None and self.tag is None:
            raise InvariantError(f"{self.path}: decoded tag without a raw tag")
        if self.tag is not None and not self.tag:
            raise InvariantError(f"{self.path}: tag may not be the empty string")
        for ref in self.r:
            if not ref:
                raise InvariantError(f"{self.path}: empty R reference")
            if ref == EMPTY_SENTINEL:
                raise InvariantError(f"{self.path}: R reference may not be '-'")
            if _REF_FORBIDDEN.search(ref):
                raise InvariantError(
                    f"{self.path}: R reference {ref!r} contains whitespace, '|' or ','"
                )
        # One test over F, A and S; _check_text names the failure.
        f, a, s = self.f, self.a, self.s
        text = f + a + s
        if (
            "|" in text
            or "\r" in text
            or "\n" in text
            or f != f.strip()
            or a != a.strip()
            or s != s.strip()
            or EMPTY_SENTINEL in (f, a, s)
        ):
            _check_text(f, self.path, "element F")
            _check_text(a, self.path, "element A")
            _check_text(s, self.path, "element S")


@dataclass(frozen=True)
class TableEntry:
    """One database table's record: four-dimension tag plus field text.

    The tag is either fully present (domain, table type, scale, features) or
    fully absent, which is how tag-stripped index variants represent tables.
    """

    name: str
    domain: str = ""
    ttype: str = ""
    scale: str = ""
    features: tuple[str, ...] = ()
    fields_text: str = ""

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.name or not all(c.isalnum() or c == "_" for c in self.name):
            raise InvariantError(f"table name {self.name!r} is not an identifier")
        if self.name[0].isdigit():
            raise InvariantError(f"table name {self.name!r} starts with a digit")
        present = [bool(self.domain), bool(self.ttype), bool(self.scale)]
        if any(present) and not all(present):
            raise InvariantError(
                f"table {self.name}: domain, type and scale must all be present or all absent"
            )
        if not self.has_tag and self.features:
            raise InvariantError(f"table {self.name}: features require a full tag")
        _check_text(self.fields_text, f"table {self.name}", "fields")

    @property
    def has_tag(self) -> bool:
        return bool(self.domain)


class ChangeStatus(Enum):
    ADDED = "A"
    MODIFIED = "M"
    DELETED = "D"
    RENAMED = "R"


@dataclass(frozen=True)
class ChangeRecord:
    """One file-change record driving incremental maintenance."""

    status: ChangeStatus
    path: str
    new_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "path", canonical_path(self.path))
        if self.status is ChangeStatus.RENAMED:
            if self.new_path is None:
                raise InvariantError(f"rename of {self.path} needs a new path")
            object.__setattr__(self, "new_path", canonical_path(self.new_path))
            if self.new_path == self.path:
                raise InvariantError(f"rename of {self.path} to itself")
        elif self.new_path is not None:
            raise InvariantError(f"{self.status.name} record carries a new path")


@dataclass(frozen=True)
class ChangeSet:
    """An ordered list of change records, one per touched path."""

    records: tuple[ChangeRecord, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            if rec.path in seen:
                raise InvariantError(f"duplicate path in change set: {rec.path}")
            seen.add(rec.path)

    def __len__(self) -> int:
        return len(self.records)


def check_entry_tag(entry: CodeEntry, dictionary: TagDictionary) -> None:
    """Raise InvariantError unless the entry's tag fits ``dictionary``.

    The attached decoding must be the tag's decoding, so a tag that does not
    decode fails too; an undecoded tag must be a single scale code.
    """
    if entry.tag is None:
        return
    if entry.decoded is not None:
        # A decoding that is the dictionary's own memoised one (as every
        # parsed entry's is) needs no second decode.
        if dictionary._decode_memo.get(entry.tag) is entry.decoded:
            return
        # Import here: grammar owns the tag codec and imports this module.
        from .grammar import decode_tag

        try:
            decoded = decode_tag(entry.tag, dictionary)
        except TagError as exc:
            raise InvariantError(f"{entry.path}: tag {entry.tag!r}: {exc}") from exc
        if decoded != entry.decoded:
            raise InvariantError(
                f"{entry.path}: attached decoding does not match tag "
                f"{entry.tag!r} under the header dictionary"
            )
    elif entry.tag not in dictionary.dim_e:
        # The one undecoded form the grammar admits: a residual tag holding
        # a single scale code, as produced by tag ablation.
        raise InvariantError(
            f"{entry.path}: tag {entry.tag!r} neither decodes nor is a "
            f"single scale code"
        )


def check_table_tag(table: TableEntry, dictionary: TagDictionary) -> None:
    """Raise InvariantError unless the table's tag, if it has one, decodes
    under ``dictionary`` to the table's own codes."""
    if not table.has_tag:
        return
    from .grammar import decode_table_tag, encode_table_tag

    tag = encode_table_tag(table)
    try:
        decoded = decode_table_tag(tag, dictionary)
    except TagError as exc:
        raise InvariantError(f"table {table.name}: {exc}") from exc
    if decoded != (table.domain, table.ttype, table.scale, table.features):
        raise InvariantError(f"table {table.name}: tag {tag!r} decodes to other codes")


@dataclass(frozen=True)
class Index:
    """A full AOCI document: header, code entries, table entries, in order."""

    header: Header = field(default_factory=Header)
    code_entries: tuple[CodeEntry, ...] = ()
    table_entries: tuple[TableEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "code_entries", tuple(self.code_entries))
        object.__setattr__(self, "table_entries", tuple(self.table_entries))
        dictionary = self.header.dictionary
        seen_paths = set()
        for entry in self.code_entries:
            if entry.path in seen_paths:
                raise InvariantError(f"duplicate code entry path: {entry.path}")
            seen_paths.add(entry.path)
            check_entry_tag(entry, dictionary)
        seen_names = set()
        for table in self.table_entries:
            if table.name in seen_names:
                raise InvariantError(f"duplicate table entry name: {table.name}")
            seen_names.add(table.name)
            check_table_tag(table, dictionary)

    def entry_map(self) -> dict[str, CodeEntry]:
        return {entry.path: entry for entry in self.code_entries}

    def code_paths(self) -> frozenset[str]:
        return frozenset(entry.path for entry in self.code_entries)

    def table_names(self) -> frozenset[str]:
        return frozenset(table.name for table in self.table_entries)
