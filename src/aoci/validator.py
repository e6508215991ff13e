"""Consistency checks for an index: rule catalog, coverage reporting.

Rule catalog
    E2  R reference resolves to no code entry
    W1  semantic elements outside the token budget for the importance level
    W2  dictionary dimension is not prefix-free
    W3  empty F element on an entry of importance 7 or higher
    W4  R reference resolves only to a database table

Duplicate paths and names, tag codes missing from the dictionary and
importance digits off the scale have no rules here: the ``Index`` and
``DecodedTag`` constructors reject them, and the parser reports them as
located parse errors. Budget violations are warnings because budgets guide
generation, they do not make an index invalid.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import ConfigError
from .metrics import DEFAULT_ESTIMATOR, TokenEstimator
from .model import Index, TagDictionary, canonical_path
from .tree import any_glob

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

RULES: dict[str, str] = {
    "E2": "R reference resolves to no code entry",
    "W1": "semantic elements outside the token budget",
    "W2": "dictionary dimension is not prefix-free",
    "W3": "empty F element on a high-importance entry",
    "W4": "R reference resolves only to a database table",
}


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class ValidationIssue:
    severity: Severity
    rule: str
    subject: str
    message: str

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")

    def render(self) -> str:
        return f"{self.severity.value} {self.rule} {self.subject}: {self.message}"


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


def validate_index(
    index: Index, estimator: TokenEstimator = DEFAULT_ESTIMATOR
) -> list[ValidationIssue]:
    """Run the full rule catalog; issues sorted by (subject, rule)."""
    from .grammar import serialize_semantic_elements

    issues: list[ValidationIssue] = []
    dictionary = index.header.dictionary

    resolver = RefResolver(index.code_paths())
    table_names = index.table_names()
    for entry in index.code_entries:
        for ref in entry.r:
            if resolver.resolves(ref):
                continue
            if ref in table_names:
                issues.append(
                    ValidationIssue(
                        Severity.WARNING,
                        "W4",
                        entry.path,
                        f"reference {ref!r} names a table, not a code entry",
                    )
                )
            else:
                issues.append(
                    ValidationIssue(
                        Severity.ERROR,
                        "E2",
                        entry.path,
                        f"reference {ref!r} resolves to no entry",
                    )
                )

    for entry in index.code_entries:
        if entry.decoded is None:
            continue
        tag = entry.decoded
        tokens = estimator.estimate(serialize_semantic_elements(entry))
        lo, hi = budget_for(dictionary, tag.importance)
        if not lo <= tokens <= hi:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    "W1",
                    entry.path,
                    f"estimated {tokens} tokens outside budget {lo}-{hi} "
                    f"for importance {tag.importance}",
                )
            )
        if tag.importance >= 7 and not entry.f:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    "W3",
                    entry.path,
                    f"empty F element on importance {tag.importance} entry",
                )
            )

    for name, mapping in dictionary.code_dimensions():
        clash = _prefix_clash(mapping)
        if clash:
            issues.append(
                ValidationIssue(
                    Severity.WARNING,
                    "W2",
                    "header",
                    f"dimension {name} is not prefix-free: {clash[0]!r} prefixes {clash[1]!r}",
                )
            )

    issues.sort(key=lambda issue: (issue.subject, issue.rule, issue.message))
    return issues


def _prefix_clash(mapping: dict[str, str]) -> tuple[str, str] | None:
    codes = sorted(mapping)
    for left, right in zip(codes, codes[1:]):
        if right.startswith(left):
            return left, right
    return None


def has_errors(issues: Iterable[ValidationIssue]) -> bool:
    return any(issue.severity is Severity.ERROR for issue in issues)


def check_coverage(
    index: Index,
    file_list: Iterable[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> CoverageReport:
    """Compare the index against the file tree it claims to describe.

    Globs match the whole canonical path, so ``*`` crosses ``/``; the file
    list is expected canonical and is re-normalized defensively.
    """
    included = any_glob(_check_globs(include_globs, "include"))
    excluded = any_glob(_check_globs(exclude_globs, "exclude"))
    files = [canonical_path(path) for path in file_list]
    file_set = set(files)
    eligible = [path for path in files if included(path) and not excluded(path)]
    entry_paths = index.code_paths()
    unindexed = sorted(path for path in eligible if path not in entry_paths)
    orphans = sorted(path for path in entry_paths if path not in file_set)
    return CoverageReport(
        eligible_files=len(eligible),
        indexed_files=len(eligible) - len(unindexed),
        unindexed=tuple(unindexed),
        orphan_entries=tuple(orphans),
    )


def _check_globs(globs: Iterable[str], which: str) -> tuple[str, ...]:
    out = tuple(globs)
    for glob in out:
        if not isinstance(glob, str) or not glob:
            raise ConfigError(f"{which} glob must be a nonempty string, got {glob!r}")
    return out


def issues_text(issues: Iterable[ValidationIssue]) -> str:
    """One human-readable line per issue."""
    return "\n".join(issue.render() for issue in issues)


def issues_records(issues: Iterable[ValidationIssue]) -> list[dict]:
    """Machine-readable records, one per issue, for CI consumption."""
    return [
        {
            "severity": issue.severity.value,
            "rule": issue.rule,
            "subject": issue.subject,
            "message": issue.message,
        }
        for issue in issues
    ]
