"""In-memory span and count recorder for the traced run.

Spans are recorded from the benchmark's side: wrappers are installed over
module attributes of ``aoci`` (the names the CLI handlers look up at call
time) for the duration of a traced cycle, and removed afterwards, so an
untraced cycle runs the unmodified code. Each span holds its name, start,
end, parent span and op id. Hot functions get counting wrappers only.
Everything stays in memory until ``dump`` writes it out.
"""

from __future__ import annotations

import inspect
import json
import os
import pathlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []        # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter[tuple[int, str]] = Counter()    # (op, name) -> n
        self.values: defaultdict[tuple[int, str], float] = defaultdict(float)
        self.reported: dict[int, list[str]] = {}    # op -> paths detect_stale reported
        self.op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, value: float) -> None:
        self.values[(self.op, name)] += value

    def spanned(self, name: str, fn: Callable, on_result: Callable | None = None,
                count: bool = False) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[(tracer.op, name)] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[(tracer.op, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers ----------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until ``unpatch``."""
        static = inspect.getattr_static(owner, attr)
        self._saved.append((owner, attr, static))
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(make(static.__func__)))
        else:
            setattr(owner, attr, make(static))

    def unpatch(self) -> None:
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self.self_times()
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({
                    "span": i, "op": op, "name": name, "parent": parent,
                    "start_ms": round((start - t0) * 1e3, 4),
                    "end_ms": round((end - t0) * 1e3, 4),
                    "self_ms": round(selfs[i] * 1e3, 4),
                }) + "\n")
            for (op, name), n in sorted(self.counts.items()):
                out.write(json.dumps({"op": op, "count": name, "n": n}) + "\n")
            for (op, name), value in sorted(self.values.items()):
                out.write(json.dumps({"op": op, "value": name, "v": value}) + "\n")


def install(tracer: Tracer, per_call_counts: bool) -> None:
    """Wrap the public functions each layer exposes to the CLI handlers.

    ``per_call_counts`` also wraps the hot functions that are called up to
    millions of times per op (tag decoding, reference resolution). Their
    counting wrappers cost more than the work they count, so cycles whose
    span times are reported run without them.
    """
    from aoci import cli, grammar, incremental, model, scaffold, validator

    def span(name, **kw):
        return lambda fn: tracer.spanned(name, fn, **kw)

    def count(name):
        return lambda fn: tracer.counted(name, fn)

    def entries(t, args, result):
        index = getattr(result, "index", result)
        if index is not None:
            t.add("grammar.parse_index.entries", len(index.code_entries))

    # The CLI imported these by name, so its own module attributes are the
    # ones its handlers call.
    tracer.patch(cli, "parse_index", span("grammar.parse_index", on_result=entries))
    tracer.patch(cli, "parse_index_report", span("grammar.parse_index", on_result=entries))
    tracer.patch(cli, "serialize_index", span("grammar.serialize_index"))
    tracer.patch(cli, "parse_code_entry_line", span("grammar.parse_code_entry_line"))
    tracer.patch(cli, "validate_index", span("validator.validate_index"))
    tracer.patch(cli, "check_coverage", span("validator.check_coverage"))
    tracer.patch(cli, "index_stats", span("metrics.index_stats"))
    tracer.patch(cli, "apply_ablation", span("ablation.apply_ablation"))

    tracer.patch(model.Index, "__post_init__", span("model.Index", count=True))
    tracer.patch(validator.RefResolver, "__init__", span("validator.RefResolver", count=True))
    if per_call_counts:
        tracer.patch(grammar, "decode_tag", count("grammar.decode_tag"))
        tracer.patch(validator.RefResolver, "resolves", count("validator.RefResolver"))
        tracer.patch(validator.RefResolver, "targets", count("validator.RefResolver"))
        # scaffold imported resolves_to by name; both bindings are live.
        tracer.patch(validator, "resolves_to", count("validator.resolves_to"))
        tracer.patch(scaffold, "resolves_to", count("validator.resolves_to"))

    def files(t, args, result):
        t.add("scaffold.scan_repo.files", len(result))

    tracer.patch(scaffold, "scan_repo", span("scaffold.scan_repo", on_result=files))
    tracer.patch(scaffold, "extract_relations", span("scaffold.extract_relations", count=True))
    tracer.patch(scaffold, "draft_entry", span("scaffold.draft_entry"))
    tracer.patch(scaffold, "emit_prompt_pack", span("scaffold.emit_prompt_pack"))
    tracer.patch(scaffold, "scaffold_repo", span("scaffold.scaffold_repo"))

    def rewrites(t, args, plan):
        t.add("incremental.plan_update.rewrites", len(plan.ref_rewrites))

    def digested(t, args, result):
        root = os.fspath(args[0])
        t.add("incremental.collect_file_digests.bytes",
              sum(os.path.getsize(os.path.join(root, path)) for path, _ in result))

    def reported(t, args, changes):
        t.reported[t.op] = [record.path for record in changes.records]

    tracer.patch(incremental, "parse_changeset", span("incremental.parse_changeset"))
    tracer.patch(incremental, "plan_update", span("incremental.plan_update", on_result=rewrites))
    tracer.patch(incremental, "apply_update", span("incremental.apply_update"))
    tracer.patch(incremental, "commit_plan", span("incremental.commit_plan"))
    tracer.patch(incremental, "collect_file_digests",
                 span("incremental.collect_file_digests", on_result=digested))
    tracer.patch(incremental, "detect_stale", span("incremental.detect_stale", on_result=reported))
    tracer.patch(incremental.StalenessStore, "load", span("incremental.store_io"))
    tracer.patch(incremental.StalenessStore, "dump", span("incremental.store_io"))

    tracer.patch(pathlib.Path, "read_text", span("io.read"))
    tracer.patch(pathlib.Path, "read_bytes", span("io.read"))
    tracer.patch(pathlib.Path, "write_text", span("io.write"))


class TracedStream:
    """Standard output for an in-process op: writes are ``io.write`` spans."""

    def __init__(self, handle, tracer: Tracer | None):
        self.handle = handle
        self.write = handle.write if tracer is None else tracer.spanned("io.write", handle.write)

    def flush(self) -> None:
        self.handle.flush()
