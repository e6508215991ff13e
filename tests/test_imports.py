"""What each command imports, and the package's lazy exports."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES

import aoci

GOLDEN = FIXTURES / "listing1.aoci"

# Runs one command, then prints the aoci modules the process loaded.
_LOADED_AFTER = (
    "import sys\n"
    "from aoci.cli import run\n"
    "run(sys.argv[1:])\n"
    "print(' '.join(sorted(name for name in sys.modules if name.startswith('aoci'))))\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(GOLDEN)],
        ["fmt", str(GOLDEN), "--verify"],
        ["stats", str(GOLDEN)],
        ["ablate", str(GOLDEN), "--variant", "wo-ABCDE"],
        ["decode-tag", "WA9JM", "--index", str(GOLDEN)],
    ],
    ids=lambda argv: argv[0],
)
def test_read_commands_import_neither_scaffold_nor_incremental(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aoci.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = done.stdout.splitlines()[-1].split()
    assert "aoci.grammar" in loaded
    assert "aoci.scaffold" not in loaded
    assert "aoci.incremental" not in loaded


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(aoci)
    for name in aoci.__all__:
        assert getattr(aoci, name) is not None, name
        assert name in listed, name
    assert aoci.parse_index is aoci.grammar.parse_index
    assert aoci.scan_repo is aoci.scaffold.scan_repo
    with pytest.raises(AttributeError):
        aoci.no_such_name  # noqa: B018
