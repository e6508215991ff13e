"""The three workloads: their set-up, their closed-loop op sequence, and the
correctness check for every op.

Each op is one ``aoci`` command line. The loop asks a workload for its next
op, runs it (as a subprocess, or in-process for the traced run) and hands
the result back to the op's check. Edits a workload makes to its inputs
between ops happen in ``next_op`` and are never timed.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass
class Result:
    exit_code: int
    stdout: str          # path of the captured standard output
    stderr: str          # path of the captured standard error


@dataclass
class Op:
    kind: str
    argv: list[str]
    cwd: str
    check: Callable[[Result], str | None]   # None when the output is correct


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class Workload:
    name = ""
    why = ""
    cycle: tuple[str, ...] = ()     # op kinds of one closed-loop cycle, in order
    seed_op: Op | None = None       # a set-up op that must succeed before timing

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# check-20k: the read path
# ---------------------------------------------------------------------------

_STATS_ROW = re.compile(r"^(\S.*?)\s{2,}(.*)$")


class Check20k(Workload):
    name = "check-20k"
    why = ("read path: grammar, model and validator do almost all the work; "
           "scaffold and incremental do none")
    cycle = ("check", "fmt", "stats", "ablate")
    entries = 20_000

    def setup(self) -> None:
        self.data = gen.read_index(self.seed, self.entries)
        self.index = os.path.join(self.work, "idx.aoci")
        self.files = os.path.join(self.work, "files.txt")
        _write(self.index, self.data.text)
        _write(self.files, self.data.file_list)
        self.ablated_sha = _sha(self.data.ablated_text.encode("utf-8"))
        self.turn = 0

    def next_op(self) -> Op:
        kind = self.cycle[self.turn % len(self.cycle)]
        self.turn += 1
        argv = {
            "check": ["check", self.index, "--files", self.files],
            "fmt": ["fmt", self.index, "--verify"],
            "stats": ["stats", self.index],
            "ablate": ["ablate", self.index, "--variant", "wo-ABCDE"],
        }[kind]
        return Op(kind, argv, self.work, getattr(self, f"_check_{kind}"))

    def _check_check(self, res: Result) -> str | None:
        if res.exit_code != 1:
            return f"exit {res.exit_code}, want 1 (planted E2 errors)"
        if os.path.getsize(res.stderr):
            return "unexpected parse errors on stderr"
        lines = _read(res.stdout).splitlines()
        e2 = sum(line.startswith("error E2 ") for line in lines)
        w1 = sum(line.startswith("warning W1 ") for line in lines)
        if e2 != self.data.dangling:
            return f"{e2} E2 errors, want {self.data.dangling}"
        if w1 != self.data.over_budget:
            return f"{w1} W1 warnings, want {self.data.over_budget}"
        other = [line for line in lines if line.startswith(("error ", "warning "))
                 and not line.startswith(("error E2 ", "warning W1 "))]
        if other:
            return f"unexpected issue {other[0]!r}"
        eligible = self.entries - len(self.data.orphans) + len(self.data.unindexed)
        indexed = eligible - len(self.data.unindexed)
        if f"coverage: {indexed}/{eligible} eligible files indexed" not in lines:
            return "coverage line missing or wrong"
        unindexed = sorted(line[len("unindexed: "):] for line in lines
                           if line.startswith("unindexed: "))
        orphans = sorted(line[len("orphan entry: "):] for line in lines
                         if line.startswith("orphan entry: "))
        if unindexed != self.data.unindexed or orphans != self.data.orphans:
            return "coverage lists differ from the generated file list"
        return None

    def _check_fmt(self, res: Result) -> str | None:
        if res.exit_code != 0:
            return f"exit {res.exit_code}: generated index is canonical, want 0"
        return None

    def _check_stats(self, res: Result) -> str | None:
        if res.exit_code != 0:
            return f"exit {res.exit_code}, want 0"
        rows = {}
        for line in _read(res.stdout).splitlines():
            match = _STATS_ROW.match(line.strip())
            if match:
                rows[match.group(1)] = match.group(2)
        want = {
            "code entries": str(self.entries),
            "decoded tags": str(self.data.decoded),
            "table entries": str(len(self.data.tables)),
            "budget compliance": f"under:0 within:{self.data.decoded - self.data.over_budget} "
                                 f"over:{self.data.over_budget}",
        }
        for key, value in want.items():
            if rows.get(key) != value:
                return f"stats row {key!r} is {rows.get(key)!r}, want {value!r}"
        return None

    def _check_ablate(self, res: Result) -> str | None:
        if res.exit_code != 0:
            return f"exit {res.exit_code}, want 0"
        with open(res.stdout, "rb") as handle:
            if _sha(handle.read()) != self.ablated_sha:
                return "wo-ABCDE output differs from the generator's tag-stripped index"
        return None


# ---------------------------------------------------------------------------
# scaffold-2k: the drafting path
# ---------------------------------------------------------------------------

_DRAFT_LINE = re.compile(r"^([^\[\]:]+?)(?:\[([^\[\]]*)\])?: F:TODO \| R:(.*) \| A:- \| S:TODO$")


class Scaffold2k(Workload):
    name = "scaffold-2k"
    why = ("drafting path: scan, import extraction, reference resolution, fan-in and "
           "prompt packs do the work; no index is parsed")
    cycle = ("scaffold",)
    files = 2_000
    unclassified = 12

    def setup(self) -> None:
        self.tree = gen.make_tree(self.seed, self.files, mean_loc=60,
                                  n_unclassified=self.unclassified)
        self.root = os.path.join(self.work, "repo")
        gen.write_tree(self.tree, self.root)
        self.rules = os.path.join(self.work, "rules.txt")
        _write(self.rules, gen.SCAFFOLD_RULES)
        self.out = os.path.join(self.work, "draft.aoci")
        self.first_digest: str | None = None
        self.op_no = 0

    def next_op(self) -> Op:
        # A fresh prompt directory per op, so each op is checked on its own
        # output; none is deleted before the run ends, for the reason given
        # in run.py's set-up loop.
        self.prompts = os.path.join(self.work, f"prompts-{self.op_no}")
        self.op_no += 1
        argv = ["scaffold", self.root, "--rules", self.rules, "--out", self.out,
                "--prompts", self.prompts]
        return Op("scaffold", argv, self.work, self._check)

    def _check(self, res: Result) -> str | None:
        if res.exit_code != 0:
            return f"exit {res.exit_code}, want 0"
        warnings = [line for line in _read(res.stderr).splitlines()
                    if line.startswith("warning: unclassified file ")]
        if len(warnings) != self.unclassified:
            return f"{len(warnings)} unclassified warnings, want {self.unclassified}"
        with open(self.out, "rb") as handle:
            data = handle.read()
        lines = data.decode("utf-8").split("\n")
        body = lines[lines.index("@CODE") + 1:-1]
        seen = {}
        for line in body:
            match = _DRAFT_LINE.match(line)
            if not match:
                return f"unexpected draft line {line[:60]!r}"
            refs = [] if match.group(3) == "-" else match.group(3).split(",")
            seen[match.group(1)] = (match.group(2), refs)
        if sorted(seen) != sorted(self.tree.files):
            return f"{len(seen)} entries, want one per file ({len(self.tree.files)})"
        for path, item in self.tree.files.items():
            tag, refs = seen[path]
            if refs != item.expected_refs():
                return f"{path}: R {refs} differs from the imports written {item.expected_refs()}"
            if (tag is None) != path.startswith("tools/"):
                return f"{path}: tag {tag!r} disagrees with the layer rules"
        digest = hashlib.sha256(data)
        packs = sorted(os.listdir(self.prompts))
        if len(packs) != len(self.tree.files):
            return f"{len(packs)} prompt packs, want {len(self.tree.files)}"
        for name in packs:
            with open(os.path.join(self.prompts, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
        elif digest.hexdigest() != self.first_digest:
            return "output bytes differ from the first scaffold of the same tree"
        return None


# ---------------------------------------------------------------------------
# maintain-10k: the write path
# ---------------------------------------------------------------------------


class Maintain10k(Workload):
    name = "maintain-10k"
    why = ("write path: planning, rename rewriting, applying, store commits, tree "
           "digesting and index rewrites; uses grammar and RefResolver differently")
    cycle = ("update", "detect")
    files = 10_000

    def setup(self) -> None:
        # Index and store sit in the tree root, where users keep them; the
        # change listings and drafts live outside it.
        self.root = os.path.join(self.work, "repo")
        self.maint = gen.Maintainer(self.seed, self.files, mean_loc=25, root=self.root)
        gen.write_tree(self.maint.tree, self.root)
        self.index = os.path.join(self.root, "idx.aoci")
        self.store = os.path.join(self.root, "store.tsv")
        self.expected = self.maint.index_text()
        _write(self.index, self.expected)
        drafts = os.path.join(self.work, "drafts-seed")
        os.makedirs(drafts)
        for entry in self.maint.entries:
            with open(os.path.join(drafts, gen.draft_name(entry.path)), "w",
                      encoding="utf-8") as handle:
                handle.write(entry.line() + "\n")
        self.seed_op = Op("seed", ["update", self.index, "--detect", "--store", self.store,
                                   "--drafts", drafts], self.root, self._check_index)
        self.round_no = 0
        self.current: gen.Round | None = None

    def next_op(self) -> Op:
        rnd = self.maint.make_round(self.round_no)
        self.round_no += 1
        self.current = rnd
        self.expected = rnd.expected_index
        drafts = os.path.join(self.work, f"drafts-{rnd.number}")
        for path, line in rnd.drafts.items():
            _write(os.path.join(drafts, gen.draft_name(path)), line + "\n")
        if rnd.detect:
            argv = ["update", self.index, "--detect", "--store", self.store, "--drafts", drafts]
            return Op("detect", argv, self.root, self._check_index)
        listing = os.path.join(self.work, f"changes-{rnd.number}.txt")
        _write(listing, rnd.listing)
        argv = ["update", self.index, "--changes", listing, "--drafts", drafts,
                "--store", self.store]
        return Op("update", argv, self.root, self._check_index)

    def _check_index(self, res: Result) -> str | None:
        if res.exit_code != 0:
            return f"exit {res.exit_code}, want 0"
        with open(self.index, "rb") as handle:
            got = handle.read().decode("utf-8")
        if got == self.expected:
            return None
        got_lines, want_lines = got.split("\n"), self.expected.split("\n")
        for k, (a, b) in enumerate(zip(got_lines, want_lines)):
            if a != b:
                col = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                lo = max(0, col - 30)
                return (f"index line {k + 1} differs at column {col + 1}: "
                        f"{a[lo:col + 40]!r}, want {b[lo:col + 40]!r}")
        return f"index has {len(got_lines)} lines, want {len(want_lines)}"


WORKLOADS = {cls.name: cls for cls in (Check20k, Scaffold2k, Maintain10k)}
