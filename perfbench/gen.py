"""Seeded input generators for the benchmark.

Every generator takes its seed (or a ``random.Random`` built from it) as an
argument, and the same seed gives byte-identical output. Index text is
written here, line by line in the format's canonical form, and never through
``aoci.grammar.serialize_index``: the expected outputs the benchmark checks
against must not come from the code under test.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Dictionary and vocabulary
# ---------------------------------------------------------------------------

DIM_A = (("H", "Handler"), ("S", "Service"), ("P", "Repository"), ("M", "Model"),
         ("W", "Middleware"), ("R", "Router"), ("C", "Config"), ("U", "Utility"))
DIM_B = (("A", "Auth"), ("U", "User"), ("O", "Org"), ("B", "Billing"),
         ("N", "Notification"), ("S", "Search"), ("R", "Report"), ("P", "Payment"),
         ("I", "Inventory"), ("G", "Gateway"), ("C", "Core"), ("L", "Logging"))
# D and E share no code, so every generated tag decodes one way only.
DIM_D = (("J", "JWT"), ("X", "Transaction"), ("K", "Cache"), ("Q", "Queue"),
         ("E", "Encryption"), ("V", "Validation"), ("Y", "Async"), ("Z", "RateLimit"))
DIM_E = (("T", "Tiny"), ("S", "Small"), ("M", "Medium"), ("L", "Large"))
IMPORTANCE = (9, 8, 7, 5, 3, 1)
IMPORTANCE_WEIGHTS = (5, 10, 15, 25, 25, 20)
# The validator's default budgets, restated so the planted W1 count does not
# depend on the code under test.
BUDGETS = {9: (80, 150), 8: (70, 130), 7: (60, 110), 5: (40, 80), 3: (20, 40), 1: (20, 40)}

TDIM = (("DOMAIN", (("U", "User"), ("P", "Points"), ("I", "Indexing"), ("A", "Auditing"))),
        ("TYPE", (("M", "Main"), ("A", "Association"), ("L", "Log"), ("C", "Configuration"))),
        ("SCALE", (("S", "Small"), ("M", "Medium"), ("L", "Large"))),
        ("FEAT", (("GUID", "GUID identifier"), ("SD", "soft delete"), ("JB", "JSONB fields"),
                  ("UQ", "unique constraints"), ("FK", "foreign keys"))))

MODULE_DIRS = ("auth", "user", "org", "billing", "notify", "search",
               "report", "payment", "inventory", "gateway", "core", "logging")
LAYER_DIRS = ("handler", "service", "repo", "model", "middleware", "router", "config", "util")
TOPS = ("internal", "pkg", "services", "lib", "cmd")
EXTS = (("go", 5), ("py", 3), ("ts", 2))

WORDS = ("token", "session", "cache", "retry", "backoff", "ledger", "tenant", "quota",
         "cursor", "batch", "schema", "migration", "audit", "webhook", "signature",
         "idempotent", "rollback", "snapshot", "shard", "replica", "throttle", "refresh",
         "encrypt", "decrypt", "checksum", "pagination", "filter", "index", "closure",
         "subtree", "fallback", "timeout", "deadline", "lease", "lock", "queue", "consumer",
         "producer", "outbox", "dedupe", "sanitize", "validate", "normalize", "serialize")
ROLES = ("request handler", "data access layer", "domain model", "background worker",
         "HTTP middleware", "route table", "configuration loader", "utility helpers",
         "event publisher", "query builder", "permission checker", "rate limiter")
APIS = ("Create", "Get", "List", "Update", "Delete", "Sync", "Verify", "Publish", "Resolve")


def header_lines(project: str) -> list[str]:
    """Canonical header: directive order and code order as the format fixes."""
    def dim(directive: str, name: str, codes) -> str:
        return f"{directive} {name} " + ",".join(f"{c}={label}" for c, label in codes)

    lines = [
        "#AOCI 1",
        f"#PROJECT {project}",
        "#OVERVIEW Synthetic service repository for benchmarking index tooling.",
        "#STACK Go + Python + TypeScript",
        dim("#DIM", "A", DIM_A),
        dim("#DIM", "B", DIM_B),
        "#DIM C 9,8,7,5,3,1",
        dim("#DIM", "D", DIM_D),
        dim("#DIM", "E", DIM_E),
    ]
    lines.extend(dim("#TDIM", name, codes) for name, codes in TDIM)
    return lines


@dataclass
class Entry:
    """One code entry as the generator models it."""

    path: str
    tag: str | None
    importance: int | None
    f: str
    r: list[str]
    a: str
    s: str

    def semantic(self) -> str:
        return " | ".join((
            f"F:{self.f or '-'}",
            f"R:{','.join(self.r) if self.r else '-'}",
            f"A:{self.a or '-'}",
            f"S:{self.s or '-'}",
        ))

    def line(self) -> str:
        head = self.path if self.tag is None else f"{self.path}[{self.tag}]"
        return f"{head}: {self.semantic()}"


def tokens(text: str) -> int:
    """The chars/4 token estimate the format's budgets are written against."""
    return math.ceil(len(text) / 4)


def sans_ext(path: str) -> str:
    base = path.rsplit("/", 1)[-1]
    return path[: path.rindex(".")] if "." in base else path


def random_tag(rng: random.Random, importance: int) -> str:
    layer = rng.choice(DIM_A)[0]
    module = rng.choice(DIM_B)[0]
    nfeat = rng.choices((0, 1, 2), weights=(60, 30, 10))[0]
    feats = "".join(sorted(rng.sample([c for c, _ in DIM_D], nfeat)))
    scale = rng.choice(DIM_E)[0] if rng.random() < 0.9 else ""
    return f"{layer}{module}{importance}{feats}{scale}"


def _phrase(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(n))


def _fill_synopsis(rng: random.Random, entry: Entry, target: int) -> None:
    """Grow S phrase by phrase until the semantic text reaches ``target`` tokens."""
    entry.s = ""
    fixed = len(entry.semantic()) - 1       # an empty S renders as "-"
    parts = [_phrase(rng, 2)]
    length = fixed + len(parts[0])
    while math.ceil(length / 4) < target:
        parts.append(_phrase(rng, rng.randint(1, 2)))
        length += 2 + len(parts[-1])
    entry.s = ", ".join(parts)


# ---------------------------------------------------------------------------
# The read-path index (check-20k)
# ---------------------------------------------------------------------------


@dataclass
class ReadIndex:
    text: str
    tables: list[str]
    dangling: int           # planted E2 issues
    over_budget: int        # planted W1 issues
    decoded: int            # entries with a decodable tag
    file_list: str          # the --files input
    unindexed: list[str]
    orphans: list[str]
    ablated_text: str       # expected `ablate --variant wo-ABCDE` output


def read_index(seed: int, n_entries: int, n_dangling: int = 24, n_over: int = 40,
               n_unindexed: int = 10, n_orphans: int = 15) -> ReadIndex:
    rng = random.Random(f"read-index/{seed}")
    paths: list[str] = []
    for i in range(n_entries):
        top = rng.choice(TOPS)
        ext = rng.choices([e for e, _ in EXTS], weights=[w for _, w in EXTS])[0]
        name = f"{rng.choice(WORDS)}_{i}"
        paths.append(f"{top}/{rng.choice(MODULE_DIRS)}/{rng.choice(LAYER_DIRS)}/{name}.{ext}")

    dangling_hosts = set(rng.sample(range(n_entries), n_dangling))
    entries: list[Entry] = []
    over_hosts: set[int] = set()
    candidates_over = rng.sample(range(n_entries), n_over * 3)
    for i, path in enumerate(paths):
        untagged = rng.random() < 0.01
        importance = rng.choices(IMPORTANCE, weights=IMPORTANCE_WEIGHTS)[0]
        tag = None if untagged else random_tag(rng, importance)
        max_refs = {9: 5, 8: 5, 7: 4, 5: 2, 3: 1, 1: 1}[importance]
        refs: list[str] = []
        for _ in range(rng.randint(0, max_refs)):
            target = paths[rng.randrange(n_entries)]
            kind = rng.random()
            ref = target if kind < 0.5 else sans_ext(target) if kind < 0.8 else target.rsplit("/", 1)[0]
            if ref not in refs:
                refs.append(ref)
        planted = [f"legacy/removed/gone_{i}.go"] if i in dangling_hosts else []
        entry = Entry(path, tag, None if untagged else importance,
                      f=rng.choice(ROLES), r=refs + planted,
                      a=",".join(rng.sample(APIS, rng.randint(1, 3))) if rng.random() < 0.6 else "",
                      s="")
        lo, hi = BUDGETS[importance]
        # Drop ordinary references until R fits the budget, so that only the
        # planted entries overflow it.
        while refs and tokens(entry.semantic()) > hi - 8:
            refs.pop()
            entry.r = refs + planted
        _fill_synopsis(rng, entry, rng.randint(lo + 2, hi - 6))
        entries.append(entry)

    for i in candidates_over:
        entry = entries[i]
        if len(over_hosts) == n_over:
            break
        if entry.tag is None:
            continue
        _fill_synopsis(rng, entry, BUDGETS[entry.importance][1] + rng.randint(5, 40))
        over_hosts.add(i)

    over = sum(1 for e in entries if e.tag is not None and not
               BUDGETS[e.importance][0] <= tokens(e.semantic()) <= BUDGETS[e.importance][1])
    if over != n_over:
        raise AssertionError(f"generator planted {over} over-budget entries, wanted {n_over}")

    tables = []
    for t in range(12):
        domain = rng.choice(TDIM[0][1])[0]
        ttype = rng.choice(TDIM[1][1])[0]
        scale = rng.choice(TDIM[2][1])[0]
        feats = "+".join(c for c, _ in rng.sample(TDIM[3][1], rng.randint(1, 3)))
        fields = ", ".join(f"{rng.choice(WORDS)}_{k} {rng.choice(('uuid', 'text', 'int', 'jsonb'))}"
                           for k in range(rng.randint(3, 8)))
        tables.append(f"{rng.choice(WORDS)}_t{t}[{domain}-{ttype}-{scale}-{feats}]: {fields}")

    head = header_lines(f"bench-read-{seed}")
    body = [e.line() for e in entries]
    text = "\n".join(head + ["@CODE"] + body + ["@TABLES"] + tables) + "\n"
    ablated = "\n".join(
        head + ["@CODE"] + [f"{e.path}: {e.semantic()}" for e in entries] + ["@TABLES"] + tables
    ) + "\n"

    orphans = sorted(rng.sample(paths, n_orphans))
    orphan_set = set(orphans)
    unindexed = sorted(f"docs/extra/notes_{k}.md" for k in range(n_unindexed))
    listed = [p for p in paths if p not in orphan_set] + unindexed
    rng.shuffle(listed)
    return ReadIndex(
        text=text, tables=tables, dangling=n_dangling, over_budget=n_over,
        decoded=sum(1 for e in entries if e.tag is not None),
        file_list="\n".join(listed) + "\n", unindexed=unindexed, orphans=orphans,
        ablated_text=ablated,
    )


# ---------------------------------------------------------------------------
# Source trees with an import graph (scaffold-2k, maintain-10k)
# ---------------------------------------------------------------------------

GO_EXTERNAL = ("fmt", "net/http", "encoding/json", "github.com/gin-gonic/gin", "context")
PY_EXTERNAL = ("os", "json", "typing", "dataclasses", "logging")

SCAFFOLD_RULES = """\
# layer and module rules for the generated trees
[layer]
svc/*/handler/* = H
svc/*/service/* = S
svc/*/repo/* = P
svc/*/model/* = M
py/*/api/* = H
py/*/service/* = S
py/*/store/* = P
py/*/schema/* = M
[module]
*/auth/* = A
*/user/* = U
*/org/* = O
*/billing/* = B
*/search/* = S
* = C
"""

GO_LAYERS = ("handler", "service", "repo", "model")
PY_LAYERS = ("api", "service", "store", "schema")
TREE_MODULES = ("auth", "user", "org", "billing", "search", "report", "payment", "inventory")


@dataclass
class SourceFile:
    path: str
    imports: list[str]          # in-repo targets: a directory (Go) or a file (Python)
    external: list[str]
    loc: int
    revision: int = 0

    @property
    def lang(self) -> str:
        return "go" if self.path.endswith(".go") else "py"

    def expected_refs(self) -> list[str]:
        """The R references the scaffolder should draw from this file's imports."""
        out: list[str] = []
        for target in self.imports:
            ref = target if self.lang == "go" else sans_ext(target)
            if ref not in out:
                out.append(ref)
        return out

    def render(self) -> str:
        if self.lang == "go":
            pkg = self.path.split("/")[-2]
            lines = [f"package {pkg}", "", "import ("]
            lines += [f'\t"{mod}"' for mod in self.external[:1]]
            lines += [f'\t"example.com/shop/{target}"' for target in self.imports]
            lines += [f'\t"{mod}"' for mod in self.external[1:]]
            lines.append(")")
            body = [f"// {self.path} revision {self.revision}"]
            while len(lines) + len(body) < self.loc:
                k = len(body)
                body.append(f"func f{k}(x int) int {{ return x + {k} }}")
        else:
            lines = [f"import {mod}" for mod in self.external]
            lines += [f"from {sans_ext(target).replace('/', '.')} import thing"
                      for target in self.imports]
            body = [f"# {self.path} revision {self.revision}"]
            while len(lines) + len(body) < self.loc:
                k = len(body)
                body.append(f"def f{k}(x):\n    return x + {k}")
        return "\n".join(lines + [""] + body) + "\n"


@dataclass
class Tree:
    files: dict[str, SourceFile] = field(default_factory=dict)
    counter: int = 0

    def go_dirs(self) -> list[str]:
        return sorted({p.rsplit("/", 1)[0] for p in self.files if p.endswith(".go")})


def _new_path(rng: random.Random, tree: Tree, lang: str, unclassified: bool = False) -> str:
    tree.counter += 1
    stem = f"{rng.choice(WORDS)}_{tree.counter}"
    if unclassified:
        return f"tools/{stem}.{lang}"
    module = rng.choice(TREE_MODULES)
    if lang == "go":
        return f"svc/{module}/{rng.choice(GO_LAYERS)}/{stem}.go"
    return f"py/{module}/{rng.choice(PY_LAYERS)}/{stem}.py"


def _pick_imports(rng: random.Random, path: str, pool_go: list[str],
                  pool_py: list[str]) -> list[str]:
    """1 to 5 in-repo imports: Go files import package directories, Python
    files import modules; never the importer's own package or file."""
    own_dir = path.rsplit("/", 1)[0]
    out: list[str] = []
    pool = pool_go if path.endswith(".go") else pool_py
    want = rng.randint(1, 5)
    for _ in range(want * 4):
        if len(out) == want or not pool:
            break
        target = rng.choice(pool)
        if target == path or target in out:
            continue
        if path.endswith(".go") and target == own_dir:
            continue
        out.append(target)
    return out


def make_tree(seed: int, n_files: int, mean_loc: int, n_unclassified: int = 0) -> Tree:
    rng = random.Random(f"tree/{seed}")
    tree = Tree()
    paths = []
    for i in range(n_files):
        lang = "go" if i % 2 == 0 else "py"
        paths.append(_new_path(rng, tree, lang, unclassified=i < n_unclassified))
    go_dirs = sorted({p.rsplit("/", 1)[0] for p in paths
                      if p.endswith(".go") and not p.startswith("tools/")})
    py_files = sorted(p for p in paths if p.endswith(".py") and not p.startswith("tools/"))
    for path in paths:
        lang = "go" if path.endswith(".go") else "py"
        external = rng.sample(GO_EXTERNAL if lang == "go" else PY_EXTERNAL, rng.randint(0, 2))
        tree.files[path] = SourceFile(
            path=path,
            imports=_pick_imports(rng, path, go_dirs, py_files),
            external=external,
            loc=max(8, int(rng.expovariate(1 / mean_loc))),
        )
    return tree


def write_tree(tree: Tree, root: str) -> None:
    made: set[str] = set()
    for path, item in tree.files.items():
        full = os.path.join(root, path)
        parent = os.path.dirname(full)
        if parent not in made:
            os.makedirs(parent, exist_ok=True)
            made.add(parent)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(item.render())


# ---------------------------------------------------------------------------
# The maintained index and its change rounds (maintain-10k)
# ---------------------------------------------------------------------------


def entry_for(rng: random.Random, item: SourceFile) -> Entry:
    """An authored entry for a tree file. R names what the file imports: Go
    packages as directories, Python modules as paths without extension or,
    for a third of them, as exact paths."""
    refs: list[str] = []
    for target in item.imports:
        if item.lang == "go":
            ref = target
        else:
            ref = target if rng.random() < 0.33 else sans_ext(target)
        if ref not in refs:
            refs.append(ref)
    importance = rng.choices(IMPORTANCE, weights=IMPORTANCE_WEIGHTS)[0]
    return Entry(item.path, random_tag(rng, importance), importance,
                 f=rng.choice(ROLES), r=refs,
                 a=rng.choice(APIS) if rng.random() < 0.5 else "",
                 s=", ".join(_phrase(rng, 2) for _ in range(rng.randint(2, 5))))


def index_text(project: str, entries: list[Entry]) -> str:
    return "\n".join(header_lines(project) + ["@CODE"] + [e.line() for e in entries]) + "\n"


def draft_name(path: str) -> str:
    return path.replace("/", "__") + ".entry.txt"


@dataclass
class Round:
    """One generated round: the edits made to the tree and what the index
    must look like after the update."""

    number: int
    detect: bool
    modified: list[str]
    added: list[str]
    deleted: list[str]
    renamed: list[tuple[str, str]]
    drafts: dict[str, str]          # path -> draft entry line
    listing: str                    # change listing (even rounds)
    expected_index: str

    def changed_paths(self) -> set[str]:
        return set(self.modified) | set(self.added) | set(self.deleted)


class Maintainer:
    """Holds the tree and the expected index, and makes seeded change rounds.

    The expected index is updated here by the update semantics the format
    documents (drafts replace regenerated entries in place, added entries
    append, renames move the entry and rewrite exact and extension-less
    references), independently of ``aoci.incremental``.
    """

    def __init__(self, seed: int, n_files: int, mean_loc: int, root: str):
        self.seed = seed
        self.root = root
        self.tree = make_tree(seed, n_files, mean_loc)
        rng = random.Random(f"maintain-index/{seed}")
        self.entries: list[Entry] = [entry_for(rng, self.tree.files[p])
                                     for p in sorted(self.tree.files)]
        self.project = f"bench-maintain-{seed}"

    def index_text(self) -> str:
        return index_text(self.project, self.entries)

    def _write_file(self, item: SourceFile) -> None:
        full = os.path.join(self.root, item.path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as handle:
            handle.write(item.render())

    MODIFIES, ADDS, RENAMES = 20, 5, 10     # per round; deletes equal adds

    def make_round(self, number: int) -> Round:
        """Odd rounds are detected from the tree, so they carry no renames."""
        rng = random.Random(f"round/{self.seed}/{number}")
        detect = number % 2 == 1
        by_path = {e.path: e for e in self.entries}
        live = sorted(self.tree.files)
        referenced = {ref for e in self.entries for ref in e.r}
        # As many deletes as adds, so the tree keeps its size.
        touched = rng.sample(live, self.MODIFIES + self.ADDS)
        modified, deleted = touched[:self.MODIFIES], touched[self.MODIFIES:]
        renamed: list[tuple[str, str]] = []
        if not detect:
            busy = set(touched)
            candidates = [p for p in live if p not in busy and
                          (p in referenced or sans_ext(p) in referenced)]
            for old in rng.sample(candidates, min(self.RENAMES, len(candidates))):
                self.tree.counter += 1
                head, ext = old.rsplit(".", 1)
                renamed.append((old, f"{head}_r{self.tree.counter}.{ext}"))

        # Edits to the tree.
        for path in modified:
            item = self.tree.files[path]
            item.revision += 1
            item.loc += 1
            self._write_file(item)
        for path in deleted:
            del self.tree.files[path]
            os.remove(os.path.join(self.root, path))
        for old, new in renamed:
            item = self.tree.files.pop(old)
            item.path = new
            self.tree.files[new] = item
            os.rename(os.path.join(self.root, old), os.path.join(self.root, new))
        go_dirs = self.tree.go_dirs()
        py_files = sorted(p for p in self.tree.files if p.endswith(".py"))
        added = []
        for k in range(self.ADDS):
            lang = "go" if k % 2 == 0 else "py"
            path = _new_path(rng, self.tree, lang)
            item = SourceFile(path, _pick_imports(rng, path, go_dirs, py_files),
                              rng.sample(GO_EXTERNAL if lang == "go" else PY_EXTERNAL, 1),
                              loc=rng.randint(10, 80))
            self.tree.files[path] = item
            self._write_file(item)
            added.append(path)

        # The expected index: renames first (they rewrite the other entries,
        # drafts included), then drafts in place, removals, and appends.
        rename_map = dict(renamed)
        rename_sans = {sans_ext(old): sans_ext(new) for old, new in renamed}
        removed = set(deleted)
        for e in self.entries:
            if e.path not in removed:
                e.r = [rename_map.get(ref) or rename_sans.get(ref) or ref for ref in e.r]
        drafts: dict[str, str] = {}
        for path in modified:
            e = by_path[path]
            e.s = f"{e.s}, revision {self.tree.files[path].revision}"
            drafts[path] = e.line()
        new_entries = [entry_for(rng, self.tree.files[p]) for p in added]
        for e in new_entries:
            drafts[e.path] = e.line()
        kept = []
        for e in self.entries:
            if e.path in removed:
                continue
            if e.path in rename_map:
                e.path = rename_map[e.path]
            kept.append(e)
        if detect:
            new_entries.sort(key=lambda e: e.path)
        self.entries = kept + new_entries

        listing = "".join(
            [f"M\t{p}\n" for p in modified] + [f"A\t{p}\n" for p in added]
            + [f"D\t{p}\n" for p in deleted] + [f"R100\t{o}\t{n}\n" for o, n in renamed]
        )
        return Round(number, detect, modified, added, deleted, renamed, drafts, listing,
                     self.index_text())
