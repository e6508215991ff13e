"""The traced benchmark run wraps ``aoci`` attributes by name: they must exist.

``perfbench/spans.py`` installs wrappers over module and class attributes of
the package for a traced cycle and restores them afterwards. Deleting or
renaming any of those attributes breaks ``perfbench/run.py --trace 1``; this
test installs and removes every wrapper in-process to catch that early.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_wraps_existing_attributes_and_restores_them():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, per_call_counts=True)
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert inspect.getattr_static(owner, attr) is not original, (owner, attr)
    finally:
        tracer.unpatch()
    for owner, attr, original in saved:
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)
