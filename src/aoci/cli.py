"""Command-line interface: every module surface as one subcommand.

Subcommands::

    aoci check <index> [--files <list>] [--strict] [--report <file>]
    aoci fmt <index> [--verify]
    aoci scaffold <root> --rules <file> [--out <index>] [--prompts <dir>]
    aoci update <index> --changes <file|-> [--drafts <dir>] [--store <file>]
    aoci update <index> --detect --store <file> [--drafts <dir>]
    aoci ablate <index> --variant <name> [--tables]
    aoci stats <index> [--loc <n>] [--records <file>]
    aoci score where|what --pred <file> --truth <file>
    aoci decode-tag <tag> --index <file>

``-`` means the standard streams wherever a file is read or written. Output
is quiet on success so the tool sits well in CI. The ``AOCI_ESTIMATOR``
environment variable selects the default token estimator (``chars4`` or
``words13``).

Exit codes: 0 success, 1 validation errors present, 2 usage or configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import stat
import sys
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Iterator

from .ablation import AblationVariant, apply_ablation
from .errors import AociError, ConfigError, TagError
from .grammar import (
    IndexLines,
    ParseError,
    decode_tag,
    parse_code_entry_line,
    parse_header,
    parse_index,
    parse_index_report,
    scan_index,
    serialize_index,
)
from .metrics import TokenEstimator, index_stats, score_what, score_where, stats_records, stats_table
from .model import CodeEntry, Index, canonical_path
from .validator import Diagnostic, check_coverage, has_errors, validate_index

ESTIMATOR_ENV = "AOCI_ESTIMATOR"

#: Pseudo-variant: prose rewriting needs a model, so this emits a prompt
#: pack asking an external one to do it instead of a reduced index.
NL_REWRITE_VARIANT = "NL-rewrite"

NL_REWRITE_INSTRUCTIONS = """\
Rewrite the index above into coherent natural-language paragraphs.
- Preserve every identifier verbatim: file paths, table names, field names,
  API names, and technical terms.
- Cover every entry; do not drop or merge files.
- Replace the tag and element structure with flowing prose; keep the
  per-project dictionary information as an introductory paragraph.
Return only the rewritten text."""


class ExitCode(IntEnum):
    OK = 0
    VALIDATION = 1
    USAGE = 2
    IO = 3


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else ExitCode.USAGE
        return int(code)
    try:
        return int(args.handler(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.IO
    except AociError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitCode.VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aoci", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate an index")
    p.add_argument("index")
    p.add_argument("--files", help="newline-delimited file list for coverage ('-' for stdin)")
    p.add_argument("--strict", action="store_true", help="report only the first parse error")
    p.add_argument("--report", help="write machine-readable issue records (JSON) here")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("fmt", help="canonical reserialization")
    p.add_argument("index")
    p.add_argument("--verify", action="store_true", help="compare bytes instead of printing")
    p.set_defaults(handler=_cmd_fmt)

    p = sub.add_parser("scaffold", help="draft an index from a repository")
    p.add_argument("root")
    p.add_argument("--rules", required=True)
    p.add_argument("--out", help="write the draft index here (default stdout)")
    p.add_argument("--prompts", help="write one prompt pack per entry into this directory")
    p.set_defaults(handler=_cmd_scaffold)

    p = sub.add_parser("update", help="apply a change set to an index")
    p.add_argument("index")
    p.add_argument("--changes", help="change listing file ('-' for stdin)")
    p.add_argument("--drafts", help="directory of *.entry.txt replacement lines")
    p.add_argument("--detect", action="store_true", help="synthesize changes from the store")
    p.add_argument("--store", help="staleness store file (required with --detect)")
    p.set_defaults(handler=_cmd_update)

    p = sub.add_parser("ablate", help="emit a reduced index variant")
    p.add_argument("index")
    p.add_argument(
        "--variant",
        required=True,
        choices=[variant.value for variant in AblationVariant] + [NL_REWRITE_VARIANT],
    )
    p.add_argument("--tables", action="store_true", help="also strip table tags (wo-ABCDE)")
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("stats", help="index statistics")
    p.add_argument("index")
    p.add_argument("--loc", type=int, help="repository LOC for the compression ratio")
    p.add_argument("--records", help="write machine-readable stats (JSON) here")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("score", help="deterministic answer scoring")
    p.add_argument("kind", choices=["where", "what"])
    p.add_argument("--pred", required=True, help="predictions file ('-' for stdin)")
    p.add_argument("--truth", required=True)
    p.set_defaults(handler=_cmd_score)

    p = sub.add_parser("decode-tag", help="decode a tag under an index's dictionary")
    p.add_argument("tag")
    p.add_argument("--index", required=True)
    p.set_defaults(handler=_cmd_decode_tag)

    return parser


def _estimator() -> TokenEstimator:
    name = os.environ.get(ESTIMATOR_ENV)
    if not name:
        return TokenEstimator.CHARS4
    try:
        return TokenEstimator(name.lower())
    except ValueError:
        raise ConfigError(
            f"{ESTIMATOR_ENV} must be one of "
            + ", ".join(est.value for est in TokenEstimator)
            + f"; got {name!r}"
        ) from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        _replace_file(path, [text])


def _replace_file(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` atomically: a reader or a crash sees the
    old file or the new one, never a mix.

    The text goes to a hidden temporary file in the target's directory,
    which is fsynced and then renamed over the target. The new file keeps
    the old one's permission bits, and a symlinked target is written through
    the link. A target that exists and is not a regular file, such as a
    pipe or ``/dev/stdout``, is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
        return
    target = os.path.realpath(path)
    temp = _temp_beside(target)
    handle = open(temp, "x", encoding="utf-8")
    try:
        with handle:
            handle.writelines(chunks)
            handle.flush()
            if mode is not None:
                os.chmod(handle.fileno(), stat.S_IMODE(mode))
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def _temp_beside(path: str) -> str:
    """A fresh hidden file name in the directory of ``path``'s real target."""
    directory, name = os.path.split(os.path.realpath(path))
    return os.path.join(directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")


def _clock_ns(beside: str) -> int:
    """The file-system clock's time now: the mtime of a scratch file made
    and removed in the directory of ``beside``."""
    temp = _temp_beside(beside)
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        return os.fstat(fd).st_mtime_ns
    finally:
        os.close(fd)
        os.unlink(temp)


def _load_index(path: str) -> Index:
    return parse_index(_read_bytes(path))


@contextlib.contextmanager
def _index_lock(path: str) -> Iterator[None]:
    """Advisory lock against concurrent updates of the same index file.

    ``update`` takes it before it reads the index and the store, and holds
    it until both are written. The lock is on a sidecar file,
    ``<index>.lock``, which stays in place, because the index itself is
    replaced by every write. An index on ``-`` takes no lock.
    """
    if path == "-":
        yield
        return
    import fcntl

    with open(_lock_path(path), "a+b") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise OSError(f"index {path} is locked by another process") from exc
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def _lock_path(index: str) -> str:
    return index + ".lock"


def _cmd_check(args: argparse.Namespace) -> ExitCode:
    report = parse_index_report(_read_bytes(args.index))
    if args.strict and report.errors:
        raise report.errors[0]  # what parse_index raises; exit 1, no report
    index = report.index
    diagnostics = [Diagnostic.from_parse_error(error, args.index) for error in report.errors]
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    findings = validate_index(index, _estimator()) if index is not None else []
    for diagnostic in findings:
        print(diagnostic.render())
    diagnostics += findings
    if args.report:
        records = [diagnostic.record() for diagnostic in diagnostics]
        _write_text(args.report, json.dumps(records, indent=2) + "\n")
    if args.files and index is not None:
        file_list = [line for line in _read_text(args.files).splitlines() if line.strip()]
        coverage = check_coverage(index, file_list)
        print(
            f"coverage: {coverage.indexed_files}/{coverage.eligible_files} eligible files indexed"
        )
        for path in coverage.unindexed:
            print(f"unindexed: {path}")
        for path in coverage.orphan_entries:
            print(f"orphan entry: {path}")
    if has_errors(diagnostics):
        return ExitCode.VALIDATION
    return ExitCode.OK


def _cmd_fmt(args: argparse.Namespace) -> ExitCode:
    data = _read_bytes(args.index)
    canonical = serialize_index(parse_index(data))
    if args.verify:
        if canonical.encode("utf-8") != data:
            print(f"{args.index}: not in canonical form", file=sys.stderr)
            return ExitCode.VALIDATION
        return ExitCode.OK
    sys.stdout.write(canonical)
    return ExitCode.OK


def _cmd_scaffold(args: argparse.Namespace) -> ExitCode:
    from . import scaffold

    rules = scaffold.parse_rules_file(_read_text(args.rules))
    result = scaffold.scaffold_repo(args.root, rules)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _write_text(args.out or "-", serialize_index(result.index))
    if args.prompts:
        out_dir = Path(args.prompts)
        out_dir.mkdir(parents=True, exist_ok=True)
        holders: dict[str, str] = {}  # pack file name -> the path whose pack it holds

        def write(pack: scaffold.PromptPack) -> None:
            first = holders.setdefault(pack.filename, pack.path)
            if first != pack.path:
                print(
                    f"warning: skipped prompt pack for {pack.path}: "
                    f"{pack.filename} already holds the pack for {first}",
                    file=sys.stderr,
                )
                return
            (out_dir / pack.filename).write_text(pack.text, encoding="utf-8")

        skipped = scaffold.emit_prompt_pack(
            result.index, result.drafts, scaffold.file_source_loader(result.fs_paths), write
        )
        for path in skipped:
            print(f"warning: skipped prompt pack for missing source {path}", file=sys.stderr)
    return ExitCode.OK


def _own_files(args: argparse.Namespace, root: str) -> list[str]:
    """Exclude globs for the index, its lock file and the store, where they
    lie under ``root``."""
    own = [args.store]
    if args.index != "-":
        own += [args.index, _lock_path(args.index)]
    globs = []
    for path in own:
        rel = os.path.relpath(os.path.abspath(path), root)
        if rel != os.pardir and not rel.startswith(os.pardir + os.sep):
            globs.append(glob.escape(canonical_path(rel)))
    return globs


def _update_input(path: str, known_digest: str) -> IndexLines:
    """The index to update, cut into lines.

    Bytes with the digest the store recorded are the canonical text of a
    valid index, as the last update wrote it, so they are only scanned.
    Any other bytes are parsed and validated in full, then scanned in
    canonical form.
    """
    from . import incremental

    data = _read_bytes(path)
    if known_digest and known_digest == incremental.content_digest(data):
        return scan_index(data.decode("utf-8"))
    return scan_index(serialize_index(parse_index(data)))


def _cmd_update(args: argparse.Namespace) -> ExitCode:
    from . import incremental

    if args.detect and not args.store:
        raise ConfigError("--detect requires --store")
    if args.detect and args.changes:
        raise ConfigError("pick one change source: --changes or --detect")
    if not args.detect and not args.changes:
        raise ConfigError("update needs --changes, or --detect with --store")

    with _index_lock(args.index):
        # Without --store the store starts empty and is never written, so the
        # index is parsed in full and --changes digests nothing.
        store = incremental.StalenessStore()
        if args.store:
            # Taken before any file is stat'ed; no stat at or after it is
            # recorded, since that file may change again within the tick.
            started_ns = _clock_ns(args.store)
            try:
                store_mtime_ns = os.stat(args.store).st_mtime_ns
            except FileNotFoundError:
                pass
            else:
                store = incremental.StalenessStore.load(
                    Path(args.store).read_text(encoding="utf-8"), store_mtime_ns
                )
            store.started_ns = started_ns
        file_digests: dict[str, str] = {}
        index = _update_input(args.index, store.index_digest)
        if args.detect:
            root = os.getcwd()
            digests = incremental.collect_file_digests(
                root, exclude_globs=_own_files(args, root), store=store
            )
            file_digests = dict(digests)
            changes = incremental.detect_stale(store, digests, index)
        else:
            changes = incremental.parse_changeset(_read_text(args.changes))
            if args.store:
                # Digest the touched files so the store records their current
                # content; files that are gone simply stay undigested. No
                # exclude globs: a listed file is digested even if it is the
                # index or the store.
                touched = [
                    glob.escape(path)
                    for record in changes.records
                    for path in (record.path, record.new_path)
                    if path
                ]
                file_digests = dict(
                    incremental.collect_file_digests(os.getcwd(), touched, store=store)
                )

        drafts: dict[str, CodeEntry] = {}
        if args.drafts:
            for entry_file in sorted(Path(args.drafts).glob("*.entry.txt")):
                line = entry_file.read_text(encoding="utf-8").strip()
                if not line:
                    continue
                try:
                    entry = parse_code_entry_line(line, index.header.dictionary)
                except ParseError as exc:
                    raise AociError(f"{entry_file}: {exc}") from None
                drafts[entry.path] = entry

        plan = incremental.plan_update(index, changes)
        for warning in plan.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        updated = incremental.apply_lines(index, plan, drafts)
        out = updated.text()
        _write_text(args.index, out)
        pending = [path for path in plan.regenerate if path not in drafts]
        for path in pending:
            print(f"pending regeneration (no draft supplied): {path}", file=sys.stderr)
        for host, ref in plan.dangling_after:
            print(f"warning: dangling reference after update: {host} -> {ref}", file=sys.stderr)
        if args.store:
            incremental.commit_plan(store, plan, updated, file_digests, drafts.keys())
            store.index_digest = incremental.content_digest(out.encode("utf-8"))
            _replace_file(args.store, store.lines())
    return ExitCode.OK


def _cmd_ablate(args: argparse.Namespace) -> ExitCode:
    index = _load_index(args.index)
    if args.variant == NL_REWRITE_VARIANT:
        sys.stdout.write(
            "INDEX\n"
            + serialize_index(index)
            + "\nINSTRUCTIONS\n"
            + NL_REWRITE_INSTRUCTIONS
            + "\n"
        )
        return ExitCode.OK
    variant = AblationVariant(args.variant)
    sys.stdout.write(serialize_index(apply_ablation(index, variant, args.tables)))
    return ExitCode.OK


def _cmd_stats(args: argparse.Namespace) -> ExitCode:
    stats = index_stats(_load_index(args.index), args.loc, _estimator())
    print(stats_table(stats))
    if args.records:
        _write_text(args.records, json.dumps(stats_records(stats), indent=2) + "\n")
    return ExitCode.OK


def _cmd_score(args: argparse.Namespace) -> ExitCode:
    pred_lines = [line.strip() for line in _read_text(args.pred).splitlines() if line.strip()]
    truth_lines = [line.strip() for line in _read_text(args.truth).splitlines() if line.strip()]
    if args.kind == "where":
        if len(pred_lines) != len(truth_lines):
            raise ConfigError(
                f"where scoring pairs lines up: {len(pred_lines)} predictions "
                f"vs {len(truth_lines)} truths"
            )
        if not truth_lines:
            raise ConfigError("where scoring needs at least one path pair")
        scores = [score_where(p, t) for p, t in zip(pred_lines, truth_lines)]
        print(f"{sum(scores) / len(scores):.4f}")
    else:
        print(f"{score_what(pred_lines, truth_lines):.4f}")
    return ExitCode.OK


def _cmd_decode_tag(args: argparse.Namespace) -> ExitCode:
    dictionary = parse_header(_read_bytes(args.index)).dictionary
    try:
        decoded = decode_tag(args.tag, dictionary)
    except TagError as exc:
        print(f"error: tag {args.tag!r}: {exc}", file=sys.stderr)
        return ExitCode.VALIDATION
    lines = [
        f"layer: {decoded.layer}={dictionary.dim_a[decoded.layer]}",
        f"module: {decoded.module}={dictionary.dim_b[decoded.module]}",
        f"importance: {decoded.importance}",
    ]
    if decoded.features:
        feats = ",".join(f"{code}={dictionary.dim_d[code]}" for code in decoded.features)
        lines.append(f"features: {feats}")
    else:
        lines.append("features: -")
    if decoded.scale is not None:
        lines.append(f"scale: {decoded.scale}={dictionary.dim_e[decoded.scale]}")
    else:
        lines.append("scale: -")
    print("\n".join(lines))
    return ExitCode.OK
