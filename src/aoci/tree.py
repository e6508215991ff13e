"""Finding and opening repository files: the one tree-walk rule.

Drafting (``scaffold``), coverage checking and digesting for ``update``
(``--detect`` and ``--changes``) must see the same files in the same way,
or the index drifts from the code it describes. So the rule lives here
alone, in one predicate (``eligible``), one walker (``walk_files``) and one
reader (``read_file``, which ``stat_read`` loops over):

- a canonical path is eligible when none of its segments starts with a
  dot, and some include glob but no exclude glob matches it, with ``*``
  crossing ``/``; ``check --files`` counts its list by the same predicate;
- files come out in lexicographic canonical-path order;
- every repository file is opened here: ``scaffold`` reads each file once
  before drafting, and once more for its prompt pack.

A walked file has two paths. The canonical path is the index's name for it
(``/``-separated, ``\\`` folded to ``/``); the filesystem path is where the
walk found it. They differ for a file named ``y\\z.go``, whose canonical
path ``y/z.go`` names no file on disk, so readers always open the
filesystem path the walk returned and never rebuild one from the root and
the canonical path.
"""

from __future__ import annotations

import os
import re
from fnmatch import translate
from typing import Callable, Iterable, Iterator

from .model import canonical_path


# A glob that matches one string only: plain characters and the one-character
# classes ``glob.escape`` writes for ``*``, ``?`` and ``[``.
_LITERAL_GLOB = re.compile(r"(?:[^*?[]|\[[*?[]\])*")
_ESCAPED = re.compile(r"\[([*?[])\]")


def any_glob(globs: Iterable[str]) -> Callable[[str], object]:
    """One matcher for "the path matches any of ``globs``".

    Equivalent to ``any(fnmatchcase(path, glob) for glob in globs)``, which
    is false for no globs. A glob that can match only one string, such as a
    ``glob.escape``d path, is looked up in a set; the rest are joined into
    one regular expression (``fnmatch.translate`` output is made to be
    joined with ``|``).
    """
    literals: set[str] = set()
    patterns: list[str] = []
    for glob in globs:
        if _LITERAL_GLOB.fullmatch(glob):
            literals.add(_ESCAPED.sub(r"\1", glob))
        else:
            patterns.append(translate(glob))
    match = re.compile("|".join(patterns) or "(?!)").match
    if not literals:
        return match
    return lambda path: path in literals or match(path)


def eligible(include_globs: Iterable[str], exclude_globs: Iterable[str]) -> Callable[[str], bool]:
    """The rule for the files an index describes, as a predicate on a
    canonical path: no segment starts with ``.``, some include glob matches
    the path and no exclude glob does. A file named ``x\\.go`` has the
    canonical path ``x/.go``, so it is hidden too.
    """
    included = any_glob(include_globs)
    excluded = any_glob(exclude_globs)
    return lambda path: not (
        path.startswith(".") or "/." in path or not included(path) or excluded(path)
    )


def _walk(root: str, enter: Callable[[str], bool]) -> Iterator[tuple[str, str]]:
    """Yield ``(canonical path, filesystem path)`` for every file.

    Directories are visited top-down, subdirectories and files each in name
    order. A subdirectory is entered only when its name does not start with
    a dot and ``enter`` accepts its canonical path, ending in ``/``.
    """
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        prefix = "" if rel_dir == os.curdir else rel_dir + os.sep
        dirnames[:] = sorted(
            d
            for d in dirnames
            if not d.startswith(".") and enter(canonical_path(prefix + d + os.sep))
        )
        fs_prefix = os.path.join(dirpath, "")
        for filename in sorted(filenames):
            yield canonical_path(prefix + filename), fs_prefix + filename


def walk_files(
    root: str | os.PathLike[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> list[tuple[str, str]]:
    """List the ``eligible`` files as ``(canonical path, filesystem path)``
    pairs.

    Pairs come out in lexicographic canonical-path order, ties in walk
    order. Nothing is opened. A hidden directory is not entered, and a
    directory is entered only when some include glob can match a path under
    it: every match of a glob starts with the glob's literal head, the text
    before its first ``*``, ``?`` or ``[``, so the directory's canonical
    path plus ``/`` and some head must be prefix-compatible (one starts with
    the other). The default ``("*",)`` has the empty head and enters every
    directory. A root that is not a directory raises OSError.
    """
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise OSError(f"not a readable directory: {root}")
    include_globs = tuple(include_globs)
    heads = {re.split(r"[*?[]", glob, maxsplit=1)[0] for glob in include_globs}
    admits = eligible(include_globs, exclude_globs)
    out = [
        (rel, fs_path)
        for rel, fs_path in _walk(
            root, lambda dir_: any(h.startswith(dir_) or dir_.startswith(h) for h in heads)
        )
        if admits(rel)
    ]
    out.sort(key=lambda item: item[0])
    return out


def _skip_unreadable(rel: str, exc: OSError) -> None:
    # Imported here: validator, and so every check, imports this module.
    import logging

    logging.getLogger(__name__).warning("skipping unreadable file %s: %s", rel, exc)


def read_file(fs_path: str) -> bytes:
    """The bytes of the file at ``fs_path``, a path ``walk_files`` returned."""
    with open(fs_path, "rb") as handle:
        return handle.read()


def stat_read(
    pairs: Iterable[tuple[str, str]],
    unchanged: Callable[[str, os.stat_result], bool] | None = None,
) -> Iterator[tuple[str, str, os.stat_result, bytes | None]]:
    """Yield ``(canonical path, filesystem path, stat, bytes or None)`` per
    file of ``pairs``: the loop that reads a tree for drafting and digesting.

    ``pairs`` are ``(canonical path, filesystem path)`` pairs as
    ``walk_files`` lists them. Each file is stat'ed by path before it is
    opened, so its bytes are never older than its stat. With ``unchanged``,
    a file for which ``unchanged(canonical path, stat)`` is true is not
    opened, and its bytes are None. An unreadable file is skipped with a
    logged warning.
    """
    for rel, fs_path in pairs:
        try:
            st = os.stat(fs_path)
            data = None if unchanged is not None and unchanged(rel, st) else read_file(fs_path)
        except OSError as exc:
            _skip_unreadable(rel, exc)
            continue
        yield rel, fs_path, st, data
