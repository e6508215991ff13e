"""Shared fixtures: the reference dictionary, golden index, and random
generators used by the property and acceptance suites."""

from __future__ import annotations

import os
import random
from fnmatch import fnmatchcase
from pathlib import Path

import pytest
from hypothesis import settings

from aoci.errors import AmbiguousTag, InvalidImportance, MalformedTag, UnknownCode
from aoci.grammar import (
    IndexLines,
    decode_table_tag,
    parse_code_entry_line,
    parse_index,
    scan_index,
    serialize_index,
)
from aoci.model import (
    CodeEntry,
    DecodedTag,
    Header,
    Index,
    TableEntry,
    TagDictionary,
    canonical_path,
)

# CI selects this with --hypothesis-profile=ci; a plain pytest run keeps
# hypothesis' default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)

FIXTURES = Path(__file__).parent / "fixtures"

# The three reference example entries, single-line form, plus the users table.
LISTING_AUTH = (
    "auth.go[WA9JM]: F:JWT authentication middleware | R:pkg/jwt,model/user | A:- | "
    "S:extract Bearer token from Authorization header, parse and verify JWT, "
    "inject user_id and is_superadmin into gin.Context, expiration check, "
    "refresh logic, API key fallback authentication, match key_prefix and query SHA256"
)
LISTING_ORG = (
    "org_repo.go[PO9NTM]: F:organizational data access | R:model/org | A:- | "
    "S:CreateWithClosure, four-step atomic transaction, closure-table JOIN query "
    "for GetTree, closure-table query for GetAncestors, MoveNode subtree "
    "closure-relation reconstruction, Delete cascading cleanup"
)
LISTING_CONFIG = (
    "config.yaml[CC9T]: F:main configuration | R:internal/config/config.go | A:- | "
    "S:DB/Redis/JWT/encryption keys/rate limiting/LLM proxy/CORS"
)
LISTING_LINES = (LISTING_AUTH, LISTING_ORG, LISTING_CONFIG)

USERS_TABLE_LINE = (
    "users[U-M-M-GUID]: user primary table, uuid/username/email unique, "
    "password_hash bcrypt, status, is_superadmin, preferences JSONB, soft delete"
)


def make_reference_dictionary() -> TagDictionary:
    """The dictionary under which every reference example decodes."""
    return TagDictionary(
        dim_a={
            "H": "Handler",
            "S": "Service",
            "P": "Repository",
            "M": "Model",
            "W": "Middleware",
            "R": "Router",
            "C": "Config",
        },
        dim_b={"C": "Core", "A": "Auth", "O": "Org", "R": "Role", "U": "User"},
        dim_d={
            "J": "JWT",
            "T": "Transaction",
            "N": "project-specific",
            "R": "RBAC",
            "E": "Encryption",
        },
        dim_e={"T": "Tiny", "S": "Small", "M": "Medium", "L": "Large"},
        table_domain={"U": "User", "P": "Points", "I": "Indexing", "A": "Auditing"},
        table_type={"M": "Main", "A": "Association", "L": "Log", "C": "Configuration"},
        table_scale={"S": "Small", "M": "Medium", "L": "Large"},
        table_feat={
            "GUID": "GUID identifier",
            "SD": "soft delete",
            "JB": "JSONB fields",
            "UQ": "unique constraints",
            "FK": "foreign keys",
        },
        budgets={9: (20, 150), 8: (20, 130), 7: (20, 110), 5: (20, 80), 3: (20, 40), 1: (20, 40)},
    )


@pytest.fixture
def reference_dictionary() -> TagDictionary:
    return make_reference_dictionary()


@pytest.fixture
def listing_text() -> str:
    return (FIXTURES / "listing1.aoci").read_text(encoding="utf-8")


@pytest.fixture
def listing_index(listing_text) -> Index:
    return parse_index(listing_text)


def listing_only_index(dictionary: TagDictionary) -> Index:
    """Just the three reference entries plus the users table (dangling refs)."""
    entries = tuple(parse_code_entry_line(line, dictionary) for line in LISTING_LINES)
    domain, ttype, scale, feats = decode_table_tag("U-M-M-GUID", dictionary)
    table = TableEntry(
        "users", domain, ttype, scale, feats, USERS_TABLE_LINE.split(": ", 1)[1]
    )
    header = Header(version=1, project="aoci-platform", dictionary=dictionary)
    return Index(header, entries, (table,))


# ---------------------------------------------------------------------------
# Random generators. Codes come from disjoint single-letter alphabets per
# dimension, so every generated tag has a unique decomposition and the codec
# round-trip is exact by construction.
# ---------------------------------------------------------------------------

LAYER_ALPHABET = "ABCDE"
MODULE_ALPHABET = "FGHIJ"
FEATURE_ALPHABET = "KLMNO"
SCALE_ALPHABET = "PQRS"

_WORDS = (
    "cache",
    "queue",
    "retry",
    "hash",
    "login",
    "stream",
    "quota",
    "merge",
    "token",
    "shard",
    "audit",
    "batch",
)


def make_dictionary(rng: random.Random, with_tables: bool = False) -> TagDictionary:
    def pick(alphabet: str, low: int, high: int) -> dict[str, str]:
        count = rng.randint(low, high)
        return {code: f"{code} label" for code in rng.sample(alphabet, count)}

    kwargs = {}
    if with_tables:
        kwargs = dict(
            table_domain=pick("abcd", 2, 4),
            table_type=pick("efgh", 2, 4),
            table_scale=pick("ijk", 2, 3),
            table_feat=pick("lmnop", 2, 5),
        )
    return TagDictionary(
        dim_a=pick(LAYER_ALPHABET, 2, 5),
        dim_b=pick(MODULE_ALPHABET, 2, 5),
        dim_d=pick(FEATURE_ALPHABET, 2, 5),
        dim_e=pick(SCALE_ALPHABET, 2, 4),
        **kwargs,
    )


def make_text(rng: random.Random, low: int = 2, high: int = 10) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def make_decoded(
    rng: random.Random, dictionary: TagDictionary, with_scale: bool
) -> DecodedTag:
    return DecodedTag(
        layer=rng.choice(sorted(dictionary.dim_a)),
        module=rng.choice(sorted(dictionary.dim_b)),
        importance=rng.choice(sorted(dictionary.dim_c)),
        features=tuple(
            rng.choice(sorted(dictionary.dim_d)) for _ in range(rng.randint(0, 3))
        ),
        scale=rng.choice(sorted(dictionary.dim_e)) if with_scale else None,
    )


def make_index(
    rng: random.Random,
    n_entries: int,
    scale_absent: int = 0,
    clean_refs: bool = False,
    tables: int = 0,
) -> Index:
    """A random structurally valid index.

    ``scale_absent`` entries get tags with no scale code. With
    ``clean_refs``, every R reference is the exact path of another entry, so
    each reference has exactly one resolver and the index validates clean.
    """
    from aoci.grammar import encode_tag

    dictionary = make_dictionary(rng, with_tables=tables > 0)
    paths = [f"pkg{i // 10}/mod{i}.go" for i in range(n_entries)]
    absent_slots = set(rng.sample(range(n_entries), scale_absent))
    entries = []
    for i, path in enumerate(paths):
        decoded = make_decoded(rng, dictionary, with_scale=i not in absent_slots)
        refs: tuple[str, ...] = ()
        if clean_refs and n_entries > 1 and rng.random() < 0.8:
            others = [p for p in paths if p != path]
            refs = tuple(rng.sample(others, min(len(others), rng.randint(1, 3))))
        entries.append(
            CodeEntry(
                path=path,
                tag=encode_tag(decoded),
                decoded=decoded,
                f=make_text(rng, 1, 4),
                r=refs,
                a=make_text(rng, 0, 2),
                s=make_text(rng, 3, 12),
            )
        )
    table_entries = []
    for i in range(tables):
        table_entries.append(
            TableEntry(
                name=f"table_{i}",
                domain=rng.choice(sorted(dictionary.table_domain)),
                ttype=rng.choice(sorted(dictionary.table_type)),
                scale=rng.choice(sorted(dictionary.table_scale)),
                features=tuple(
                    rng.sample(
                        sorted(dictionary.table_feat), rng.randint(0, len(dictionary.table_feat))
                    )
                ),
                fields_text=make_text(rng, 2, 8),
            )
        )
    header = Header(
        version=rng.randint(1, 3),
        project=f"proj{rng.randint(0, 99)}",
        overview=tuple(make_text(rng, 2, 6) for _ in range(rng.randint(0, 2))),
        stack=make_text(rng, 0, 3),
        dictionary=dictionary,
    )
    return Index(header, tuple(entries), tuple(table_entries))


def reference_decode(tag: str, dictionary: TagDictionary) -> DecodedTag:
    """Decode ``tag`` the slow way: list every split, then apply the order
    ``grammar.decode_tag`` documents. Raises what it raises, naming the same
    text in an ``UnknownCode``."""
    digits = [i for i, ch in enumerate(tag) if ch in "0123456789"]
    if len(digits) != 1:
        raise MalformedTag(tag)
    head, tail = tag[: digits[0]], tag[digits[0] + 1 :]
    importance = int(tag[digits[0]])
    if importance not in dictionary.dim_c:
        raise InvalidImportance(tag)

    layers = sorted((a for a in dictionary.dim_a if head.startswith(a)), key=len, reverse=True)
    heads = [a for a in layers if head[len(a) :] in dictionary.dim_b]
    if not layers:
        raise UnknownCode("A", head)
    if not heads:
        raise UnknownCode("B", head[len(layers[0]) :])

    def splits(text: str) -> list[tuple[str, ...]]:
        """Every way to write ``text`` as a sequence of D codes."""
        if not text:
            return [()]
        return [
            (code,) + rest
            for code in dictionary.dim_d
            if text.startswith(code)
            for rest in splits(text[len(code) :])
        ]

    scales = sorted((e for e in dictionary.dim_e if tail.endswith(e)), key=len, reverse=True)
    for scale in scales + [None]:
        features = splits(tail[: len(tail) - len(scale or "")])
        if len(features) > 1:
            raise AmbiguousTag(tag)
        if features:
            return DecodedTag(heads[0], head[len(heads[0]) :], importance, features[0], scale)
    reached = max(i for i in range(len(tail) + 1) if splits(tail[:i]))
    raise UnknownCode("D", tail[reached:])


def index_lines(index: Index) -> IndexLines:
    """The rows ``update`` works on, for an ``Index`` built in a test."""
    return scan_index(serialize_index(index))


# ---------------------------------------------------------------------------
# The object-level applier the line-level one must agree with
# ---------------------------------------------------------------------------


def reference_apply_update(index: Index, plan, drafts=None) -> Index:
    """Apply an update plan entry by entry: every entry is an object, and the
    result is checked by building an ``Index``. The differential tests hold
    ``incremental.apply_lines`` to this, output and errors alike."""
    import dataclasses

    from aoci.errors import PlanMismatch

    drafts = dict(drafts or {})
    regen_set = set(plan.regenerate)
    stray = set(drafts) - regen_set
    if stray:
        raise PlanMismatch(f"drafts supplied for unplanned paths: {sorted(stray)}")

    rewrites_by_host: dict[str, dict[str, str]] = {}
    for host, old_ref, new_ref in plan.ref_rewrites:
        rewrites_by_host.setdefault(host, {})[old_ref] = new_ref

    entries: list[CodeEntry] = []
    remove_set = set(plan.remove)
    for entry in index.code_entries:
        if entry.path in remove_set:
            continue
        mapping = rewrites_by_host.get(entry.path)
        if mapping:
            entry = dataclasses.replace(
                entry, r=tuple(mapping.get(ref, ref) for ref in entry.r)
            )
        new_path = plan.rename_map.get(entry.path)
        if new_path is not None:
            entry = dataclasses.replace(entry, path=new_path)
        entries.append(entry)

    by_path = {entry.path: i for i, entry in enumerate(entries)}
    for path in plan.regenerate:
        entry = drafts.get(path)
        if entry is None:
            continue
        if entry.path != path:
            raise PlanMismatch(f"draft for {path} carries entry path {entry.path}")
        slot = by_path.get(path)
        if slot is None:
            by_path[path] = len(entries)
            entries.append(entry)
        else:
            entries[slot] = entry

    return Index(index.header, tuple(entries), index.table_entries)


def splice_noise(rng: random.Random, data: bytes) -> bytes:
    """``data`` with the span between two random cuts replaced by 0 to 12
    random bytes: a valid document, broken somewhere deep. ``data`` must not
    be empty."""
    cut_a = rng.randrange(len(data))
    cut_b = rng.randrange(len(data))
    noise = bytes(rng.randrange(256) for _ in range(rng.randint(0, 12)))
    return data[: min(cut_a, cut_b)] + noise + data[max(cut_a, cut_b) :]


# ---------------------------------------------------------------------------
# Tree walks: one awkward tree and a brute-force reading of the walk rule
# ---------------------------------------------------------------------------

#: Globs the walk differential tests run under: everything, an exclude, and
#: an include.
WALK_GLOB_SETS = (
    (("*",), ()),
    (("*",), ("a/*",)),
    (("*.py", "src/*"), ()),
)

#: The one unreadable file ``make_walk_tree`` leaves: a dangling symlink.
UNREADABLE = "src/gone.go"


def make_walk_tree(root: Path) -> None:
    """Nested and hidden directories, dotfiles, ``a.b/f`` beside ``a/f``, CR,
    CRLF and unterminated last lines, an empty file and a dangling symlink."""
    files = {
        "a/f": b"one\ntwo\n",
        "a.b/f": b"1\r2\r3",
        "a-b/f": b"\r\n\r\n",
        "a/b/c/deep.py": b"x = 1\r\ny = 2",
        "src/main.go": b"package main\n\nfunc main() {}",
        "src/util.py": b"",
        "src/.hidden.go": b"hidden\n",
        "src/.cache/c.py": b"cached\n",
        ".git/config": b"[core]\n",
        ".env": b"K=V\n",
        "README": b"text\n",
        "n/m/k.PY": b"a\nb\n",
    }
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    os.symlink(root / "nowhere.go", root / UNREADABLE)


def make_folded_walk_tree(root: Path) -> None:
    """``make_walk_tree`` plus files whose canonical paths fold a backslash:
    ``y\\z.go`` beside a real ``y/z.go``, ``r.go`` in a ``q\\``
    directory (canonical path ``q/r.go``), and ``w\\.go`` and ``v\\.d/f.go``,
    whose canonical paths ``w/.go`` and ``v/.d/f.go`` are hidden. POSIX only."""
    make_walk_tree(root)
    (root / "y").mkdir()
    (root / "y" / "z.go").write_bytes(b"real\n")
    (root / "y\\z.go").write_bytes(b"folded\n")
    (root / "q\\").mkdir()
    (root / "q\\" / "r.go").write_bytes(b"folded dir\n")
    (root / "w\\.go").write_bytes(b"folded hidden\n")
    (root / "v\\.d").mkdir()
    (root / "v\\.d" / "f.go").write_bytes(b"folded hidden dir\n")


def all_files(root: Path) -> list[str]:
    """The canonical path of every file under ``root``, hidden ones included."""
    return [
        canonical_path(os.path.relpath(os.path.join(dirpath, filename), root))
        for dirpath, _, filenames in os.walk(root)
        for filename in filenames
    ]


def reference_walk(root: Path, include, exclude) -> list[tuple[str, bytes, str]]:
    """``(path, bytes, file name)`` of every readable visible file that the
    globs admit, in path order, found the slow way: a ``relpath`` per file,
    canonicalized, so ``y\\z.go`` comes out as ``y/z.go``. A file is visible
    when no segment of that canonical path starts with a dot, so ``w\\.go``
    (``w/.go``) is hidden."""
    out = []
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            full = os.path.join(dirpath, filename)
            rel = canonical_path(os.path.relpath(full, root))
            if any(segment.startswith(".") for segment in rel.split("/")):
                continue
            if not any(fnmatchcase(rel, glob) for glob in include):
                continue
            if any(fnmatchcase(rel, glob) for glob in exclude):
                continue
            try:
                with open(full, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            out.append((rel, data, filename))
    return sorted(out)
