"""Mechanical index drafting: scan a repository, classify files, extract
import relations, and emit prompt packs for an external model to finish.

The scaffolder fills everything that can be derived without reading for
meaning: layer and module codes from path rules, the scale code from line
count, the importance digit from an import fan-in ranking, and R references
from import statements. The F and S elements are left as literal ``TODO``
placeholders and the D dimension stays empty; guessing semantics here would
poison the index, so that work travels to an external model via prompt
packs. No model is ever called.

The importance heuristic is a deterministic proxy: files are ranked by how
many other files import them, and rank quantiles map to the six digits. It
produces a draft to be revised, not a judgment.

Rules file format (line oriented, ``#`` comments allowed)::

    [layer]
    middleware/* = W
    [module]
    *auth* = A
    [size]
    100 = T
    300 = S
    800 = M
    * = L
    [importance]
    5% = 9
    10% = 8
    15% = 7
    25% = 5
    25% = 3
    * = 1
    [imports.go]
    quoted = ^\\s*import\\s+(?:\\w+\\s+)?"([^"]+)"\\s*$

``[layer]`` and ``[module]`` lines are glob patterns tried in order; the
first match wins. ``[size]`` maps ascending line-count upper bounds to the
four scale codes, with ``*`` for the rest. ``[importance]`` maps fan-in rank
fractions, top first, to importance digits, ``*`` for the remainder. Each
``[imports.<ext>]`` line names a regex with one capture group that extracts
an imported module string from a line; the extension is not case-sensitive,
so ``[imports.GO]`` serves ``.go`` files. Extensions without a section fall
back to the built-in Go, Python, and JavaScript/TypeScript patterns.

An extension's patterns are joined into one regex that every line is
searched with first, so a pattern must mean the same inside the join. Three
kinds are refused: a global inline flag such as ``(?i)`` (write the scoped
``(?i:...)`` form instead), a named group, and a backreference or
conditional (``\\1``, ``(?P=name)``, ``(?(1)...)``).
"""

from __future__ import annotations

import os
import posixpath
import re
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Callable, Iterable, Mapping

from .errors import ConfigError
from .grammar import ParseError, decode_utf8, encode_tag, serialize_code_entry, serialize_header
from .model import (
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TagDictionary,
    canonical_path,
    is_ascii_int,
)
from .tree import read_file, stat_read, walk_files
# resolves_to is unused here; perfbench/spans.py patches aoci.scaffold.resolves_to by name.
from .validator import DEFAULT_BUDGETS, RefResolver, budget_for, resolves_to  # noqa: F401

DEFAULT_SIZE_CUTOFFS = (100, 300, 800)
DEFAULT_SIZE_CODES = ("T", "S", "M", "L")

#: Cumulative fan-in rank boundaries mapped to importance digits: the top 5%
#: of files draft as 9, the next 10% as 8, and so on down to the long tail.
DEFAULT_IMPORTANCE_QUANTILES = (
    (0.05, 9),
    (0.15, 8),
    (0.30, 7),
    (0.55, 5),
    (0.80, 3),
    (1.00, 1),
)

DEFAULT_IMPORT_PATTERNS: dict[str, tuple[re.Pattern[str], ...]] = {
    ".go": (
        re.compile(r'^\s*import\s+(?:\w+\s+)?"([^"]+)"'),
        re.compile(r'^\s*(?!import\b)(?:\w+\s+)?"([^"]+)"\s*$'),
    ),
    ".py": (
        re.compile(r"^\s*import\s+([\w.]+)"),
        re.compile(r"^\s*from\s+([\w.]+)\s+import\b"),
    ),
    ".js": (
        re.compile(r"""^\s*import\b[^'"]*['"]([^'"]+)['"]"""),
        re.compile(r"""require\(\s*['"]([^'"]+)['"]\s*\)"""),
        re.compile(r"""^\s*export\b[^'"]*\bfrom\s+['"]([^'"]+)['"]"""),
    ),
}
for _alias in (".ts", ".jsx", ".tsx", ".mjs"):
    DEFAULT_IMPORT_PATTERNS[_alias] = DEFAULT_IMPORT_PATTERNS[".js"]


# Read left to right with each backslash escape taken whole, so the escaped
# paren of \(?( opens no conditional and \\1 is no backreference. The named
# alternatives are what a join would change: a global inline flag such as
# (?u), which re.Pattern.flags does not show, and a numbered or named
# backreference or a conditional.
_UNJOINABLE = re.compile(
    r"\\(?:(?P<backref>[1-9])|.)|(?P<flag>\(\?[aiLmsux]+\))|(?P<refers>\(\?(?:P=|\())",
    re.DOTALL,
)


def _check_import_pattern(pattern: re.Pattern[str]) -> None:
    """Admit an import pattern that captures a module string and keeps its
    meaning when joined with others as ``(?:p1)|(?:p2)``.

    The source scan is conservative: a ``\\1``, ``(?(`` or ``(?i)`` inside a
    character class is refused too.

    Raises:
        ConfigError: saying why the pattern is refused.
    """
    if pattern.groups < 1:
        raise ConfigError("regex needs one capture group")
    found = {
        name
        for match in _UNJOINABLE.finditer(pattern.pattern)
        for name, text in match.groupdict().items()
        if text
    }
    if pattern.flags & ~re.UNICODE or "flag" in found:
        raise ConfigError(
            f"regex {pattern.pattern!r} sets a global flag; scope it as (?i:...) instead"
        )
    if pattern.groupindex:
        raise ConfigError(f"regex {pattern.pattern!r} has a named group; use (...) instead")
    if found & {"backref", "refers"}:
        raise ConfigError(f"regex {pattern.pattern!r} has a backreference or conditional")


@dataclass(frozen=True)
class ScaffoldRules:
    """Path classification rules plus sizing and importance mappings."""

    layer_rules: tuple[tuple[str, str], ...] = ()
    module_rules: tuple[tuple[str, str], ...] = ()
    size_cutoffs: tuple[int, int, int] = DEFAULT_SIZE_CUTOFFS
    size_codes: tuple[str, str, str, str] = DEFAULT_SIZE_CODES
    importance_quantiles: tuple[tuple[float, int], ...] = DEFAULT_IMPORTANCE_QUANTILES
    import_patterns: Mapping[str, tuple[re.Pattern[str], ...]] = field(
        default_factory=lambda: dict(DEFAULT_IMPORT_PATTERNS)
    )
    # Per extension, its patterns joined as (?:p1)|(?:p2)|...: a line the
    # gate's search misses is a line no pattern can match.
    _gates: dict[str, re.Pattern[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.size_cutoffs[0] < self.size_cutoffs[1] < self.size_cutoffs[2]):
            raise ConfigError(f"size cutoffs must strictly increase: {self.size_cutoffs}")
        if len(set(self.size_codes)) != 4:
            raise ConfigError(f"need four distinct scale codes, got {self.size_codes}")
        bounds = [b for b, _ in self.importance_quantiles]
        digits = [d for _, d in self.importance_quantiles]
        if not bounds or bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigError("importance quantile boundaries must strictly increase")
        if abs(bounds[-1] - 1.0) > 1e-9:
            raise ConfigError("importance quantiles must end at 1.0")
        if digits != sorted(digits, reverse=True):
            raise ConfigError("importance digits must decrease with the quantile rank")
        for ext, patterns in self.import_patterns.items():
            for pattern in patterns:
                try:
                    _check_import_pattern(pattern)
                except ConfigError as exc:
                    raise ConfigError(f"[imports{ext}] {exc}") from None
        gates = {
            ext: re.compile("|".join(f"(?:{pattern.pattern})" for pattern in patterns))
            for ext, patterns in self.import_patterns.items()
            if patterns
        }
        object.__setattr__(self, "_gates", gates)

    def layer_for(self, path: str) -> tuple[str, str] | None:
        for pattern, code in self.layer_rules:
            if fnmatchcase(path, pattern):
                return pattern, code
        return None

    def module_for(self, path: str) -> tuple[str, str] | None:
        for pattern, code in self.module_rules:
            if fnmatchcase(path, pattern):
                return pattern, code
        return None

    def scale_for(self, loc: int) -> str:
        for cutoff, code in zip(self.size_cutoffs, self.size_codes):
            if loc < cutoff:
                return code
        return self.size_codes[-1]

    def importance_for(self, quantile: float) -> int:
        for bound, digit in self.importance_quantiles:
            if quantile < bound:
                return digit
        return self.importance_quantiles[-1][1]

    def patterns_for(self, ext: str) -> tuple[re.Pattern[str], ...]:
        return self.import_patterns.get(ext, ())

    def gate_for(self, ext: str) -> re.Pattern[str] | None:
        return self._gates.get(ext)


def parse_rules_file(text: str) -> ScaffoldRules:
    """Parse the line-oriented rules format documented in the module docstring.

    Raises:
        ConfigError: naming the offending line.
    """
    layer: list[tuple[str, str]] = []
    module: list[tuple[str, str]] = []
    size_lines: list[tuple[str, str]] = []
    importance_lines: list[tuple[str, str]] = []
    imports: dict[str, list[re.Pattern[str]]] = {}
    section: str | None = None

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("layer", "module", "size", "importance") and not section.startswith(
                "imports."
            ):
                raise ConfigError(f"rules line {line_no}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"rules line {line_no}: rule before any section header")
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ConfigError(f"rules line {line_no}: expected pattern = code")
        lhs, rhs = lhs.strip(), rhs.strip()
        if not lhs or not rhs:
            raise ConfigError(f"rules line {line_no}: empty pattern or code")
        if section == "layer":
            layer.append((lhs, rhs))
        elif section == "module":
            module.append((lhs, rhs))
        elif section == "size":
            size_lines.append((lhs, rhs))
        elif section == "importance":
            importance_lines.append((lhs, rhs))
        else:
            ext = "." + section.removeprefix("imports.").lstrip(".").lower()
            try:
                pattern = re.compile(rhs)
                _check_import_pattern(pattern)
            except re.error as exc:
                raise ConfigError(f"rules line {line_no}: bad regex: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"rules line {line_no}: {exc}") from None
            imports.setdefault(ext, []).append(pattern)

    cutoffs, codes = _build_size(size_lines)
    quantiles = _build_quantiles(importance_lines)
    patterns = dict(DEFAULT_IMPORT_PATTERNS)
    patterns.update({ext: tuple(pats) for ext, pats in imports.items()})
    return ScaffoldRules(
        layer_rules=tuple(layer),
        module_rules=tuple(module),
        size_cutoffs=cutoffs,
        size_codes=codes,
        importance_quantiles=quantiles,
        import_patterns=patterns,
    )


def _build_size(lines: list[tuple[str, str]]) -> tuple[tuple[int, int, int], tuple[str, ...]]:
    if not lines:
        return DEFAULT_SIZE_CUTOFFS, DEFAULT_SIZE_CODES
    numeric = [(lhs, code) for lhs, code in lines if lhs != "*"]
    rest = [code for lhs, code in lines if lhs == "*"]
    if len(numeric) != 3 or len(rest) != 1:
        raise ConfigError("[size] needs three numeric cutoffs and one * line")
    for lhs, _ in numeric:
        if not is_ascii_int(lhs):
            raise ConfigError(f"[size] cutoffs must be integers, got {lhs!r}")
    cutoffs = tuple(int(lhs) for lhs, _ in numeric)
    codes = tuple(code for _, code in numeric) + (rest[0],)
    return cutoffs, codes  # type: ignore[return-value]


def _build_quantiles(lines: list[tuple[str, str]]) -> tuple[tuple[float, int], ...]:
    if not lines:
        return DEFAULT_IMPORTANCE_QUANTILES
    fractions: list[tuple[float, int]] = []
    rest_digit: int | None = None
    for lhs, rhs in lines:
        if not is_ascii_int(rhs):
            raise ConfigError(f"[importance] digit must be numeric, got {rhs!r}")
        digit = int(rhs)
        if lhs == "*":
            if rest_digit is not None:
                raise ConfigError("[importance] allows one * line")
            rest_digit = digit
            continue
        try:
            fraction = float(lhs.rstrip("%")) / 100 if lhs.endswith("%") else float(lhs)
        except ValueError as exc:
            raise ConfigError(f"[importance] bad fraction {lhs!r}") from exc
        fractions.append((fraction, digit))
    if rest_digit is None:
        raise ConfigError("[importance] needs a * line for the remainder")
    bounds: list[tuple[float, int]] = []
    total = 0.0
    for fraction, digit in fractions:
        total += fraction
        bounds.append((total, digit))
    if total >= 1.0 + 1e-9:
        raise ConfigError("[importance] fractions exceed 100%")
    bounds.append((1.0, rest_digit))
    return tuple(bounds)


def dictionary_from_rules(rules: ScaffoldRules) -> TagDictionary:
    """Derive the header dictionary a scaffolded index needs.

    Labels default to the code text; semantic labeling belongs to the model
    handoff, like the F and S elements.
    """
    dim_a = {code: code for _, code in rules.layer_rules}
    dim_b = {code: code for _, code in rules.module_rules}
    dim_e = {code: code for code in rules.size_codes}
    dim_c = frozenset(digit for _, digit in rules.importance_quantiles)
    return TagDictionary(
        dim_a=dim_a,
        dim_b=dim_b,
        dim_c=dim_c,
        dim_e=dim_e,
        budgets=dict(DEFAULT_BUDGETS),
    )


@dataclass(frozen=True)
class ScannedFile:
    path: str
    loc: int
    ext: str
    fs_path: str
    modules: tuple[str, ...]  # what the import patterns for ``ext`` captured


def scan_repo(
    root: str | os.PathLike[str],
    rules: ScaffoldRules,
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> list[ScannedFile]:
    """List the files ``tree.walk_files`` finds, in walk order, with what
    drafting needs of each file's bytes: its line count, and the module
    strings that ``rules``' import patterns for its extension capture, in
    line and pattern order.

    Each file is read once by ``tree.stat_read``, from the filesystem path
    the walk found, which ``ScannedFile.fs_path`` carries on to the pack
    read. The bytes are decoded by ``grammar.decode_utf8``, so a leading
    byte order mark is dropped; content that is not UTF-8 captures nothing.
    Unreadable files are skipped with a logged warning; a root that is not
    a directory raises OSError.
    """
    files = []
    one_copy: dict[str, str] = {}  # most module strings recur across files
    for rel, fs_path, _, data in stat_read(walk_files(root, include_globs, exclude_globs)):
        ext = os.path.splitext(fs_path)[1].lower()
        modules = _captures(data, rules.gate_for(ext), rules.patterns_for(ext), one_copy)
        files.append(ScannedFile(rel, len(data.splitlines()), ext, fs_path, modules))
    return files


def _captures(
    data: bytes,
    gate: re.Pattern[str] | None,
    patterns: tuple[re.Pattern[str], ...],
    one_copy: dict[str, str],
) -> tuple[str, ...]:
    if gate is None:
        return ()
    try:
        text = decode_utf8(data)
    except ParseError:
        return ()
    return tuple(
        one_copy.setdefault(module, module)
        for line in filter(gate.search, text.split("\n"))
        for pattern in patterns
        for match in pattern.finditer(line)
        if (module := match.group(1))  # a group that took no part in the match is None
    )


def extract_relations(path: str, modules: Iterable[str], resolver: RefResolver) -> list[str]:
    """Map the module strings ``scan_repo`` captured for ``path`` to in-repo
    references, first occurrence first.

    Each module string is trimmed from the left, one path segment at a time,
    until a candidate matches a repo path, a directory prefix, or a path
    sans extension; the first (longest) hit becomes the reference. Imports
    that never match, or that only name the file's own package, are dropped.
    """
    refs = (_resolve_import(module, path, resolver) for module in modules)
    return list(dict.fromkeys(ref for ref in refs if ref))


def _resolve_import(module: str, importer: str, resolver: RefResolver) -> str | None:
    module = module.strip().replace("\\", "/")
    if not module:
        return None
    if importer.endswith(".py") and "/" not in module:
        # n leading dots name the importer's package and n - 1 levels above it.
        rest = module.lstrip(".")
        dots = len(module) - len(rest)
        module = ("./" + "../" * (dots - 1) if dots else "") + rest.replace(".", "/")
    if module.startswith("."):
        base = posixpath.dirname(importer)
        module = posixpath.normpath(posixpath.join(base, module))
        if module.startswith(".."):
            return None
    segments = [seg for seg in module.split("/") if seg and seg != "."]
    if not segments:
        return None
    for start in range(len(segments)):
        candidate = "/".join(segments[start:])
        if resolver.resolves(candidate):
            if candidate == importer or importer.startswith(candidate + "/"):
                return None  # the file's own package
            return candidate
    return None


@dataclass(frozen=True)
class DraftEntry:
    """A mechanical entry plus the provenance that produced it."""

    entry: CodeEntry
    loc: int
    fan_in: int
    layer_pattern: str | None = None
    module_pattern: str | None = None
    warnings: tuple[str, ...] = ()

    @property
    def unclassified(self) -> bool:
        return self.entry.tag is None


def draft_entry(
    path: str,
    loc: int,
    relations: Iterable[str],
    rules: ScaffoldRules,
    fan_in: int,
    fan_in_quantile: float,
) -> DraftEntry:
    """Assemble one draft: classification codes filled, semantics left TODO.

    Files no layer or module rule matches come back tagless with a warning
    rather than failing the scaffold.
    """
    path = canonical_path(path)
    layer = rules.layer_for(path)
    module = rules.module_for(path)
    warnings: list[str] = []
    tag = decoded = None
    if layer and module:
        decoded = DecodedTag(
            layer=layer[1],
            module=module[1],
            importance=rules.importance_for(fan_in_quantile),
            features=(),
            scale=rules.scale_for(loc),
        )
        tag = encode_tag(decoded)
    else:
        missing = []
        if not layer:
            missing.append("layer")
        if not module:
            missing.append("module")
        warnings.append(f"unclassified file {path}: no {' or '.join(missing)} rule matched")
    entry = CodeEntry(
        path=path, tag=tag, decoded=decoded, f="TODO", r=tuple(relations), a="", s="TODO"
    )
    return DraftEntry(
        entry=entry,
        loc=loc,
        fan_in=fan_in,
        layer_pattern=layer[0] if layer else None,
        module_pattern=module[0] if module else None,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ScaffoldResult:
    """A draft index, its drafts and warnings, and where each file was found.

    ``fs_paths`` maps each entry's canonical path to the filesystem path the
    walk found; ``file_source_loader`` reads prompt-pack sources through it.
    """

    index: Index
    drafts: tuple[DraftEntry, ...]
    warnings: tuple[str, ...]
    fs_paths: Mapping[str, str]


def scaffold_repo(
    root: str | os.PathLike[str],
    rules: ScaffoldRules,
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> ScaffoldResult:
    """Scan, classify, and assemble a draft index for a repository.

    Deterministic: the same tree and rules produce byte-identical output.
    Entries are ordered by path.
    """
    root = os.fspath(root)
    files = scan_repo(root, rules, include_globs, exclude_globs)
    paths = [item.path for item in files]
    resolver = RefResolver(paths)

    relations: dict[str, list[str]] = {}
    for i, item in enumerate(files):
        relations[item.path] = extract_relations(item.path, item.modules, resolver)
        files[i] = replace(item, modules=())  # the captures end with their resolution

    fan_in = _fan_in_counts(paths, relations, resolver)
    ranking = sorted(paths, key=lambda p: (-fan_in[p], p))
    quantile = {path: rank / len(ranking) for rank, path in enumerate(ranking)}

    drafts = [
        draft_entry(
            item.path, item.loc, relations[item.path], rules, fan_in[item.path], quantile[item.path]
        )
        for item in files
    ]
    warnings = tuple(warning for draft in drafts for warning in draft.warnings)
    header = Header(
        version=1,
        project=os.path.basename(os.path.abspath(root)),
        dictionary=dictionary_from_rules(rules),
    )
    index = Index(header, tuple(draft.entry for draft in drafts))
    return ScaffoldResult(
        index=index,
        drafts=tuple(drafts),
        warnings=warnings,
        fs_paths={item.path: item.fs_path for item in files},
    )


def _fan_in_counts(
    paths: list[str], relations: dict[str, list[str]], resolver: RefResolver
) -> dict[str, int]:
    """How many other files reference each path, counting a file once per
    referencing file however many of its references denote it."""
    counts = {path: 0 for path in paths}
    for source, refs in relations.items():
        touched: set[str] = set()
        for ref in refs:
            touched.update(resolver.targets(ref))
        touched.discard(source)
        for target in touched:
            counts[target] += 1
    return counts


# ---------------------------------------------------------------------------
# Prompt packs
# ---------------------------------------------------------------------------

PROMPT_INSTRUCTIONS = """\
Complete this index entry from the source file above.
- Replace the TODO in F with a one-line statement of the file's business role.
- Fill A with the exposed APIs or interfaces, or leave - if none.
- Replace the TODO in S with dense keywords for the design decisions that
  matter: fallback logic, transactions, encryption, rate limits, invariants.
- Add technical characteristic codes to the tag only if the dictionary
  defines them. Keep the R references as given.
- Keep the combined semantic text within the token budget.
Return the completed entry as a single line in the entry format shown."""


@dataclass(frozen=True)
class PromptPack:
    """One handoff bundle: everything a model needs to finish one entry."""

    path: str
    filename: str
    text: str


def sanitize_pack_name(path: str) -> str:
    return path.replace("/", "__") + ".prompt.txt"


def emit_prompt_pack(
    index: Index,
    drafts: Iterable[DraftEntry],
    source_loader: Callable[[str], str | None],
    write: Callable[[PromptPack], None],
) -> list[str]:
    """Build one prompt pack per draft and hand it to ``write`` before the
    next draft's source is loaded, so one pack is held at a time.

    Returns the paths of drafts whose source is gone; they are skipped
    instead of failing the batch.
    """
    dictionary_text = serialize_header(index.header)
    skipped: list[str] = []
    for draft in drafts:
        source = source_loader(draft.entry.path)
        if source is None:
            skipped.append(draft.entry.path)
            continue
        if draft.entry.decoded is not None:
            level = draft.entry.decoded.importance
            lo, hi = budget_for(index.header.dictionary, level)
            budget_line = f"{lo}-{hi} tokens (importance {level})"
        else:
            lo, hi = DEFAULT_BUDGETS[min(DEFAULT_BUDGETS)]
            budget_line = f"{lo}-{hi} tokens (unclassified entry, lowest level)"
        text = "\n".join(
            (
                "DICTIONARY",
                dictionary_text,
                "",
                "ENTRY",
                serialize_code_entry(draft.entry),
                "",
                "BUDGET",
                budget_line,
                "",
                "SOURCE",
                source,
                "",
                "INSTRUCTIONS",
                PROMPT_INSTRUCTIONS,
            )
        )
        write(
            PromptPack(
                path=draft.entry.path,
                filename=sanitize_pack_name(draft.entry.path),
                text=text,
            )
        )
    return skipped


def file_source_loader(fs_paths: Mapping[str, str]) -> Callable[[str], str | None]:
    """Loader reading a canonical path's source from the filesystem path the
    walk found for it (``ScaffoldResult.fs_paths``).

    Paths the map lacks, and files gone or unreadable since the walk, yield
    None.
    """

    def load(path: str) -> str | None:
        fs_path = fs_paths.get(path)
        if fs_path is None:
            return None
        try:
            return read_file(fs_path).decode("utf-8", errors="replace")
        except OSError:
            return None

    return load
