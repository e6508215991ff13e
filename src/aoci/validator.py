"""Consistency checks for an index: rule catalog, coverage reporting.

Every finding of ``aoci check``, parse errors included, is one
``Diagnostic`` with one ``render`` (a text line) and one ``record`` (a JSON
object); a parse error's also carries its kind, line and column.

Rule catalog (``RULES`` maps each id to its severity and description)
    parse  error    located parse error: the document breaks the grammar
    E2     error    R reference resolves to no code entry
    W1     warning  semantic elements outside the importance level's budget
    W2     warning  dictionary dimension is not prefix-free
    W3     warning  empty F element on an entry of importance 7 or higher
    W4     warning  R reference resolves only to a database table

Duplicate paths and names, tag codes missing from the dictionary and
importance digits off the scale have no rules here: the ``Index`` and
``DecodedTag`` constructors reject them, and the parser reports them as
located parse errors. Budget violations are warnings because budgets guide
generation, they do not make an index invalid.

Coverage (``check_coverage``) counts a listed file by the walk's rule,
``tree.eligible``, so a hidden path in the list is not eligible.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigError
from .metrics import DEFAULT_ESTIMATOR, TokenEstimator
from .model import Index, TagDictionary, canonical_path
from .tree import eligible

if TYPE_CHECKING:
    from .grammar import ParseError

#: Budgets applied when the header carries no #BUDGET directive. The 9 row
#: and the 20-40 floor are protocol constants; the intermediate rows are
#: interpolated defaults.
DEFAULT_BUDGETS: dict[int, tuple[int, int]] = {
    9: (80, 150),
    8: (70, 130),
    7: (60, 110),
    5: (40, 80),
    3: (20, 40),
    1: (20, 40),
}


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


RULES: dict[str, tuple[Severity, str]] = {
    "parse": (Severity.ERROR, "located parse error: the document breaks the grammar"),
    "E2": (Severity.ERROR, "R reference resolves to no code entry"),
    "W1": (Severity.WARNING, "semantic elements outside the token budget"),
    "W2": (Severity.WARNING, "dictionary dimension is not prefix-free"),
    "W3": (Severity.WARNING, "empty F element on a high-importance entry"),
    "W4": (Severity.WARNING, "R reference resolves only to a database table"),
}


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """One finding of ``aoci check``; its severity is its rule's."""

    rule: str
    subject: str
    message: str
    kind: str | None = None
    line: int | None = None
    column: int | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")

    @classmethod
    def from_parse_error(cls, error: ParseError, subject: str) -> Diagnostic:
        """A parse error of the document named ``subject``, located and kinded."""
        return cls("parse", subject, str(error), error.kind.value, error.line_number, error.column)

    @property
    def severity(self) -> Severity:
        return RULES[self.rule][0]

    def render(self) -> str:
        """The human-readable line."""
        return f"{self.severity.value} {self.rule} {self.subject}: {self.message}"

    def record(self) -> dict:
        """The machine-readable record, for CI; location keys only when located."""
        record = {
            "severity": self.severity.value,
            "rule": self.rule,
            "subject": self.subject,
            "message": self.message,
        }
        if self.kind is not None:
            record.update(kind=self.kind, line=self.line, column=self.column)
        return record


@dataclass(frozen=True)
class CoverageReport:
    """How much of a file tree the index covers."""

    eligible_files: int
    indexed_files: int
    unindexed: tuple[str, ...]
    orphan_entries: tuple[str, ...]


def budget_for(dictionary: TagDictionary, importance: int) -> tuple[int, int]:
    """The dictionary's budget for an importance level, or the default row."""
    return dictionary.budgets.get(importance, DEFAULT_BUDGETS[importance])


def sans_ext(path: str) -> str | None:
    """``path`` without its extension, or None when its last segment has no dot.

    Only the last dot of the last segment counts: ``b.c.d`` gives ``b.c``,
    ``a.`` gives ``a``, and ``x.d/y`` has no extension.
    """
    dot = path.rfind(".")
    if dot < 0 or dot < path.rfind("/"):
        return None
    return path[:dot]


class RefResolver:
    """The single implementation of the reference resolution rule.

    A reference denotes a path when the path equals it, lives under it as a
    directory, or equals it once the path's extension is stripped (see
    ``sans_ext``). This is deliberately prefix-tolerant: references name
    files, directories, and extension-less module paths.

    Costs, for n paths of total length L:

    - construction: O(L) for the key sets ``resolves`` reads;
    - ``resolves(ref)``: three set lookups, O(len(ref));
    - ``targets(ref)``: O(log n + k) bisects over the paths sorted once, on
      the first call (O(n log n)), where k is the number of paths starting
      with ``ref + "."`` or ``ref + "/"``.
    """

    def __init__(self, paths: Iterable[str]):
        self.paths = frozenset(paths)
        parents: set[str] = set()
        stems: set[str] = set()
        for path in self.paths:
            slash = path.rfind("/")
            if slash >= 0:
                parents.add(path[:slash])
            dot = path.rfind(".")
            if dot > slash:  # sans_ext(path) is not None
                stems.add(path[:dot])
        # Every directory prefix: each parent directory and its ancestors. A
        # directory already in the set brought its ancestors with it.
        prefixes: set[str] = set()
        for parent in parents:
            while parent not in prefixes:
                prefixes.add(parent)
                slash = parent.rfind("/")
                if slash < 0:
                    break
                parent = parent[:slash]
        self._prefixes = prefixes
        self._stems = stems
        self._sorted: list[str] | None = None

    def resolves(self, ref: str) -> bool:
        return ref in self.paths or ref in self._prefixes or ref in self._stems

    def targets(self, ref: str) -> list[str]:
        """Every path the reference denotes, sorted.

        In sorted order the denoted paths are ``ref`` itself, then the
        ``ref.<ext>`` run in ``[ref + ".", ref + "/")``, then the ``ref/...``
        run in ``[ref + "/", ref + "0")``, since ``.`` < ``/`` < ``0``.
        """
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.paths)
        hits = [ref] if ref in self.paths else []
        lo = bisect_left(ordered, ref + ".")
        mid = bisect_left(ordered, ref + "/", lo)
        hits.extend(path for path in ordered[lo:mid] if sans_ext(path) == ref)
        hits.extend(ordered[mid : bisect_left(ordered, ref + "0", mid)])
        return hits


def resolves_to(ref: str, path: str) -> bool:
    """Whether ``ref`` denotes the one ``path``; ``RefResolver`` does this
    for a whole path set at once."""
    return path == ref or path.startswith(ref + "/") or sans_ext(path) == ref


def resolves_among(ref: str, ordered: list[str]) -> bool:
    """``RefResolver(ordered).resolves(ref)`` for sorted paths, with no set
    built: every path ``ref`` denotes sorts in ``[ref, ref + "0")``."""
    lo = bisect_left(ordered, ref)
    hi = bisect_left(ordered, ref + "0", lo)
    return any(resolves_to(ref, path) for path in ordered[lo:hi])


def validate_index(
    index: Index, estimator: TokenEstimator = DEFAULT_ESTIMATOR
) -> list[Diagnostic]:
    """Run the full rule catalog; diagnostics sorted by (subject, rule, message)."""
    from .grammar import serialize_semantic_elements

    diagnostics: list[Diagnostic] = []
    dictionary = index.header.dictionary

    resolver = RefResolver(index.code_paths())
    table_names = index.table_names()
    for entry in index.code_entries:
        for ref in entry.r:
            if resolver.resolves(ref):
                continue
            if ref in table_names:
                rule, message = "W4", f"reference {ref!r} names a table, not a code entry"
            else:
                rule, message = "E2", f"reference {ref!r} resolves to no entry"
            diagnostics.append(Diagnostic(rule, entry.path, message))
        tag = entry.decoded
        if tag is None:
            continue
        tokens = estimator.estimate(serialize_semantic_elements(entry))
        lo, hi = budget_for(dictionary, tag.importance)
        if not lo <= tokens <= hi:
            diagnostics.append(
                Diagnostic(
                    "W1",
                    entry.path,
                    f"estimated {tokens} tokens outside budget {lo}-{hi} "
                    f"for importance {tag.importance}",
                )
            )
        if tag.importance >= 7 and not entry.f:
            diagnostics.append(
                Diagnostic(
                    "W3", entry.path, f"empty F element on importance {tag.importance} entry"
                )
            )

    for name, mapping in dictionary.code_dimensions():
        clash = _prefix_clash(mapping)
        if clash:
            diagnostics.append(
                Diagnostic(
                    "W2",
                    "header",
                    f"dimension {name} is not prefix-free: {clash[0]!r} prefixes {clash[1]!r}",
                )
            )

    diagnostics.sort(key=lambda d: (d.subject, d.rule, d.message))
    return diagnostics


def _prefix_clash(mapping: dict[str, str]) -> tuple[str, str] | None:
    codes = sorted(mapping)
    for left, right in zip(codes, codes[1:]):
        if right.startswith(left):
            return left, right
    return None


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(diagnostic.severity is Severity.ERROR for diagnostic in diagnostics)


def check_coverage(
    index: Index,
    file_list: Iterable[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> CoverageReport:
    """Compare the index against the file tree it claims to describe.

    A listed file counts when ``tree.eligible`` admits it, so a list of
    every file under a root counts exactly the files ``tree.walk_files``
    lists there. The file list is expected canonical and is re-normalized
    defensively.
    """
    admits = eligible(
        _check_globs(include_globs, "include"), _check_globs(exclude_globs, "exclude")
    )
    files = [canonical_path(path) for path in file_list]
    file_set = set(files)
    counted = [path for path in files if admits(path)]
    entry_paths = index.code_paths()
    unindexed = sorted(path for path in counted if path not in entry_paths)
    orphans = sorted(path for path in entry_paths if path not in file_set)
    return CoverageReport(
        eligible_files=len(counted),
        indexed_files=len(counted) - len(unindexed),
        unindexed=tuple(unindexed),
        orphan_entries=tuple(orphans),
    )


def _check_globs(globs: Iterable[str], which: str) -> tuple[str, ...]:
    out = tuple(globs)
    for glob in out:
        if not isinstance(glob, str) or not glob:
            raise ConfigError(f"{which} glob must be a nonempty string, got {glob!r}")
    return out
