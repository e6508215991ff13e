"""Finding and opening repository files: the one tree-walk rule.

Drafting (``scaffold``), coverage checking and staleness detection
(``update --detect``) must see the same files in the same way, or the index
drifts from the code it describes. So the rule lives here alone:

- hidden directories and files (leading dot) are skipped;
- include and exclude globs match whole canonical paths, with ``*``
  crossing ``/``;
- files come out in lexicographic canonical-path order.

A walked file has two paths. The canonical path is the index's name for it
(``/``-separated, ``\\`` folded to ``/``); the filesystem path is where the
walk found it. They differ for a file named ``y\\z.go``, whose canonical
path ``y/z.go`` names no file on disk, so readers always open the
filesystem path the walk returned and never rebuild one from the root and
the canonical path.
"""

from __future__ import annotations

import logging
import os
import re
from fnmatch import translate
from typing import Callable, Iterable, Iterator

from .model import canonical_path

logger = logging.getLogger(__name__)


def any_glob(globs: Iterable[str]) -> Callable[[str], object]:
    """One compiled matcher for "the path matches any of ``globs``".

    Equivalent to ``any(fnmatchcase(path, glob) for glob in globs)``, which
    is false for no globs; ``fnmatch.translate`` output is made to be joined
    with ``|``.
    """
    return re.compile("|".join(translate(glob) for glob in globs) or "(?!)").match


def walk_files(
    root: str | os.PathLike[str],
    include_globs: Iterable[str] = ("*",),
    exclude_globs: Iterable[str] = (),
) -> list[tuple[str, str]]:
    """List eligible files as ``(canonical path, filesystem path)`` pairs.

    Pairs come out in lexicographic canonical-path order, ties in walk
    order. Nothing is opened. A root that is not a directory raises OSError.
    """
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise OSError(f"not a readable directory: {root}")
    included = any_glob(include_globs)
    excluded = any_glob(exclude_globs)
    out: list[tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        rel_dir = os.path.relpath(dirpath, root)
        prefix = "" if rel_dir == os.curdir else rel_dir + os.sep
        fs_prefix = os.path.join(dirpath, "")
        for filename in sorted(filenames):
            if filename.startswith("."):
                continue
            rel = canonical_path(prefix + filename)
            if included(rel) and not excluded(rel):
                out.append((rel, fs_prefix + filename))
    out.sort(key=lambda item: item[0])
    return out


def read_files(
    root: str | os.PathLike[str],
    include_globs: Iterable[str],
    exclude_globs: Iterable[str],
) -> Iterator[tuple[str, str, bytes]]:
    """Yield ``(canonical path, filesystem path, bytes)`` per walked file.

    Each file is read once, in walk order, from its filesystem path. An
    unreadable file is skipped with a logged warning. A root that is not a
    directory raises OSError when iteration starts.
    """
    for rel, fs_path in walk_files(root, include_globs, exclude_globs):
        try:
            with open(fs_path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", rel, exc)
            continue
        yield rel, fs_path, data
