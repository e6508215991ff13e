"""Peak memory of the read path, traced in-process with tracemalloc.

A parse holds its input's lines while it builds the index, and drops each
line once read; it does not hold the decoded text as well. ``fmt --verify``,
``ablate`` and ``stats`` then hold the index and one block of the canonical
text at a time, never the whole text. Each bound is a multiple of the input's
size, over the size of the index the parse returns.
"""

from __future__ import annotations

import contextlib
import os
import random
import tracemalloc

import pytest

from conftest import make_index
from aoci import grammar
from aoci.cli import run
from aoci.grammar import parse_index, serialize_index

# Measured on Python 3.11 with the input below, in multiples of its 0.22 MB:
# the parse peaks 1.09 over the index it returns (3.53 when the decoded text
# and all the lines were held to the end); fmt --verify peaks 2.28 over the
# index, ablate 1.83 and stats 1.27 (4.7 to 4.9 when each built the whole
# text). On Python 3.10 a caller's argument stays alive until the call
# returns, so ablate and stats hold the input's bytes through the parse; with
# the bytes held that way on 3.11, both read 2.27. Each bound is 1.5 times
# or more the highest figure it bounds (2.0 over 1.09, 3.5 over 2.28), and
# below the figure of the code that held the whole text.
PARSE_BOUND = 2.0
COMMAND_BOUND = 3.5


def _traced(fn):
    """``fn()``, the bytes it left allocated, and its peak allocation."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


@pytest.fixture(scope="module")
def document() -> bytes:
    return serialize_index(make_index(random.Random(0), 2000, tables=4)).encode("utf-8")


def test_a_parse_holds_little_beside_the_index_it_builds(document):
    index, size, peak = _traced(lambda: parse_index(document))
    assert len(index.code_entries) == 2000
    over = (peak - size) / len(document)
    assert over < PARSE_BOUND, over


@pytest.mark.parametrize(
    "argv",
    [["fmt", "--verify"], ["ablate", "--variant", "wo-ABCDE"], ["stats"]],
    ids=lambda argv: argv[0],
)
def test_streamed_commands_hold_the_index_and_one_block(argv, document, tmp_path, monkeypatch):
    # About twenty blocks, as a 20k-entry index has at the default size.
    monkeypatch.setattr(grammar, "_BLOCK_LINES", 100)
    path = tmp_path / "index.aoci"
    path.write_bytes(document)
    size = _traced(lambda: parse_index(document))[1]
    argv = [argv[0], str(path), *argv[1:]]
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        assert run(argv) == 0  # loads every module and fills the caches first
        code, _, peak = _traced(lambda: run(argv))
    assert code == 0
    over = (peak - size) / len(document)
    assert over < COMMAND_BOUND, over
