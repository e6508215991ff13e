"""Benchmark for the aoci command-line toolkit.

Run from the root of a source checkout of the repository::

    python3 perfbench/run.py --workload check-20k --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole ``aoci`` processes in a closed loop with one client
(the next command starts when the previous one has finished) and reports the
end-to-end metrics. ``--trace 1`` replays the same ops in-process, alternating
traced and untraced cycles, and reports per-layer metrics. Both print a
readable table, then one JSON object as the last line of standard output.
Inputs are generated from ``--seed`` under ``.bench_work/`` and removed at
the end; the traced run leaves its spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads
from spans import TracedStream, Tracer, install

ROOT = os.getcwd()      # the checkout under test; the benchmark runs from its root

SETUP_REPEATS = 3
OP_TIMEOUT_S = 120
STARTUP_SAMPLES = 7
# What the ``aoci`` script would run, plus a report of the process's own peak
# RSS (VmHWM) on the file descriptor in argv[1]. The child's ru_maxrss cannot
# be used: a child started by vfork inherits the parent's high-water mark at
# exec, so it would report the benchmark's memory instead of aoci's.
CLI_MAIN = """\
import os, sys
from aoci.cli import run
code = run(sys.argv[2:])
with open("/proc/self/status") as status:
    peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
os.write(int(sys.argv[1]), peak_kib.encode())
sys.exit(code)
"""

# Metric name -> unit. BENCHMARK.json lists the same names.
END_TO_END = {
    "cycle_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.startup_ms": "ms",
    "grammar.parse_index.ms": "ms",
    "grammar.parse_index.entries_per_s": "1/s",
    "grammar.decode_tag.calls": "count",
    "grammar.serialize_index.ms": "ms",
    "grammar.parse_code_entry_line.ms": "ms",
    "model.Index.ms": "ms",
    "model.Index.calls": "count",
    "validator.validate_index.ms": "ms",
    "validator.check_coverage.ms": "ms",
    "validator.RefResolver.ms": "ms",
    "validator.RefResolver.calls": "count",
    "validator.resolves_to.calls": "count",
    "metrics.index_stats.ms": "ms",
    "ablation.apply_ablation.ms": "ms",
    "scaffold.scan_repo.ms": "ms",
    "scaffold.scan_repo.files": "count",
    "scaffold.extract_relations.ms": "ms",
    "scaffold.extract_relations.calls": "count",
    "scaffold.draft_entry.ms": "ms",
    "scaffold.emit_prompt_pack.ms": "ms",
    "scaffold.scaffold_repo.self_ms": "ms",
    "incremental.parse_changeset.ms": "ms",
    "incremental.plan_update.ms": "ms",
    "incremental.plan_update.rewrites": "count",
    "incremental.apply_update.ms": "ms",
    "incremental.commit_plan.ms": "ms",
    "incremental.store_io.ms": "ms",
    "incremental.collect_file_digests.ms": "ms",
    "incremental.collect_file_digests.bytes": "bytes",
    "incremental.detect_stale.ms": "ms",
    "incremental.detect.useful_ratio": "ratio",
    "io.read.ms": "ms",
    "io.write.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit(root: str) -> str:
    """HEAD of the checkout, read without running git; "unknown" outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
    }


# ---------------------------------------------------------------------------
# Running one op
# ---------------------------------------------------------------------------


class SubprocessRunner:
    """Runs each op as its own ``aoci`` process and records its wall time and
    maximum resident set size."""

    def __init__(self, root: str, work: str):
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.work = work

    def __call__(self, op: workloads.Op, op_id: int) -> tuple[workloads.Result, float, float]:
        out = os.path.join(self.work, "op.out")
        err = os.path.join(self.work, "op.err")
        peak_r, peak_w = os.pipe()
        with open(out, "wb") as stdout, open(err, "wb") as stderr, \
                os.fdopen(peak_r, "rb") as peak:
            start = time.perf_counter()
            try:
                proc = subprocess.Popen(
                    [sys.executable, "-c", CLI_MAIN, str(peak_w), *op.argv], cwd=op.cwd,
                    env=self.env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
                    pass_fds=(peak_w,))
            finally:
                os.close(peak_w)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            peak_kib = peak.read()
        # A process that died before reporting has failed its check already.
        rss_mb = int(peak_kib) / 1024 if peak_kib else 0.0
        return workloads.Result(proc.returncode, out, err), elapsed * 1e3, rss_mb


class InProcessRunner:
    """Runs each op through ``aoci.cli.run`` in this process; with a tracer,
    the op is one root span and its id tags every span inside it."""

    def __init__(self, work: str):
        from aoci import cli

        self.cli = cli
        self.work = work
        self.tracer: Tracer | None = None

    def __call__(self, op: workloads.Op, op_id: int) -> tuple[workloads.Result, float, float]:
        out = os.path.join(self.work, "op.out")
        err = os.path.join(self.work, "op.err")
        tracer = self.tracer
        here = os.getcwd()
        with open(out, "w", encoding="utf-8") as stdout, open(err, "w", encoding="utf-8") as stderr:
            os.chdir(op.cwd)
            try:
                with contextlib.redirect_stdout(TracedStream(stdout, tracer)), \
                        contextlib.redirect_stderr(stderr):
                    if tracer is not None:
                        tracer.op = op_id
                        root_span = tracer.open("cli.run")
                    start = time.perf_counter()
                    try:
                        code = self.cli.run(op.argv)
                    finally:
                        elapsed = time.perf_counter() - start
                        if tracer is not None:
                            tracer.close(root_span)
            finally:
                os.chdir(here)
        return workloads.Result(code, out, err), elapsed * 1e3, 0.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples); None with ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# Set-up and the closed loop
# ---------------------------------------------------------------------------


def set_up(cls, seed: int, work: str) -> tuple[workloads.Workload, float]:
    """Generate the inputs and warm up; returns the workload and the seconds
    this took. A failed warm-up aborts the run."""
    start = time.perf_counter()
    load = cls(seed, work)
    load.setup()
    runner = SubprocessRunner(ROOT, work)
    warm = load.seed_op
    if warm is not None:
        # maintain-10k seeds its store through the CLI; that run is its warm-up.
        res, _, _ = runner(warm, -1)
        problem = warm.check(res)
        if problem:
            raise RuntimeError(f"set-up op {warm.argv[0]} failed: {problem}")
    else:
        subprocess.run([sys.executable, "-c", "import aoci.cli"], check=True,
                       env=runner.env, cwd=work)
    return load, time.perf_counter() - start


def closed_loop(load: workloads.Workload, runner, seconds: float, min_cycles: int,
                on_cycle=None) -> list[dict]:
    """One client: each op starts after the previous one ends. Stops starting
    ops once ``seconds`` have passed and ``min_cycles`` cycles are complete."""
    ops: list[dict] = []
    deadline = time.perf_counter() + seconds
    per_cycle = len(load.cycle)
    while True:
        cycle = len(ops) // per_cycle
        if len(ops) % per_cycle == 0:
            if time.perf_counter() >= deadline and cycle >= min_cycles:
                break
            if on_cycle is not None:
                on_cycle(cycle)
        op = load.next_op()
        res, ms, rss = runner(op, len(ops))
        try:
            problem = op.check(res)
        except Exception as exc:  # a broken output must not end the run uncounted
            problem = f"output check raised {exc!r}"
        ops.append({"id": len(ops), "cycle": cycle, "kind": op.kind, "ms": ms, "rss_mb": rss,
                    "problem": problem})
    return ops


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def kind_samples(ops: list[dict], kinds) -> dict[str, list[float]]:
    return {kind: [op["ms"] for op in ops if op["kind"] == kind] for kind in kinds}


def end_to_end(load, ops: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    samples = kind_samples(ops, load.cycle)
    lines = []
    for kind, values in samples.items():
        lines.append(f"{kind}_ms samples: " + " ".join(f"{v:.1f}" for v in values))
        lines.append(f"{kind}_ms.p50 {statistics.median(values):.3f} ms (n={len(values)})")
        t = tail(values)
        if t is None:
            lines.append(f"{kind}_ms.tail n/a ms (n={len(values)}: needs 11 samples for a "
                         f"percentile with 10 beyond it; max {max(values):.3f})")
        else:
            lines.append(f"{kind}_ms.tail {t[0]:.3f} ms (p{t[1]:.1f}, n={t[2]})")
    metrics = {
        "cycle_ms": sum(statistics.median(values) for values in samples.values()),
        "peak_rss_mb": max(statistics.median(op["rss_mb"] for op in ops if op["kind"] == kind)
                           for kind in load.cycle),
        "setup_s": statistics.median(setups),
    }
    # Printed, not gated: with one client it is the mean-based twin of
    # cycle_ms, and over a handful of ops one slow op moves it.
    ops_per_s = len(ops) / (sum(op["ms"] for op in ops) / 1e3)
    lines.append(f"ops_per_s {ops_per_s:.6g} 1/s (mean over {len(ops)} ops)")
    lines.append("rss_mb max over ops: " + f"{max(op['rss_mb'] for op in ops):.3f}")
    failed = sum(op["problem"] is not None for op in ops)
    lines.append(f"failed_ops_ratio {failed / len(ops):.6f} ({failed} of {len(ops)} ops)")
    lines.append("setup_s runs: " + ", ".join(f"{s:.3f}" for s in setups))
    return metrics, lines


def cycle_mode(cycle: int) -> str:
    """Traced-run schedule: cycle 0 counts calls, later cycles alternate
    untraced ("off") and span-timed ("spans") so each traced cycle has an
    untraced neighbour to compare against."""
    if cycle == 0:
        return "count"
    return "spans" if cycle % 2 == 0 else "off"


def per_layer(load, tracer: Tracer, ops: list[dict], startup: list[float],
              changed: dict[int, set[str]]) -> tuple[dict, list[str]]:
    cycle_of = {op["id"]: op["cycle"] for op in ops}
    timed = sorted({c for c in cycle_of.values() if cycle_mode(c) == "spans"})
    sums: dict[str, dict[int, float]] = {}      # span name -> cycle -> ms
    selfs = tracer.self_times()
    for i, (name, start, end, _, op_id) in enumerate(tracer.spans):
        cycle = cycle_of[op_id]
        for key, ms in ((name, (end - start) * 1e3), (name + ".self", selfs[i] * 1e3)):
            bucket = sums.setdefault(key, {})
            bucket[cycle] = bucket.get(cycle, 0.0) + ms

    def median_ms(name: str) -> float:
        per = sums.get(name, {})
        return statistics.median(per.get(c, 0.0) for c in timed)

    def in_count_cycle(table, name: str) -> float:
        return sum(v for (op_id, key), v in table.items() if key == name and cycle_of[op_id] == 0)

    metrics: dict[str, float] = {"cli.startup_ms": statistics.median(startup)}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            metrics[name] = median_ms(name[: -len("_ms")])
        elif name.endswith(".ms"):
            metrics[name] = median_ms(name[: -len(".ms")])
        elif name.endswith(".calls"):
            metrics[name] = in_count_cycle(tracer.counts, name[: -len(".calls")])
        elif name in ("scaffold.scan_repo.files", "incremental.plan_update.rewrites",
                      "incremental.collect_file_digests.bytes"):
            metrics[name] = in_count_cycle(tracer.values, name)

    parse_s = sum(sums.get("grammar.parse_index", {}).get(c, 0.0) for c in timed) / 1e3
    parsed = sum(v for (op_id, key), v in tracer.values.items()
                 if key == "grammar.parse_index.entries" and cycle_of[op_id] in timed)
    metrics["grammar.parse_index.entries_per_s"] = parsed / parse_s if parse_s else 0.0

    reported = sum(len(paths) for paths in tracer.reported.values())
    useful = sum(len(set(paths) & changed[op_id]) for op_id, paths in tracer.reported.items())
    metrics["incremental.detect.useful_ratio"] = useful / reported if reported else 0.0

    def cycle_time(mode: str) -> float:
        chosen = [op for op in ops if cycle_mode(op["cycle"]) == mode]
        return sum(statistics.median(v) for v in kind_samples(chosen, load.cycle).values())

    metrics["trace.overhead_ratio"] = cycle_time("spans") / cycle_time("off")
    off = len({c for c in cycle_of.values() if cycle_mode(c) == "off"})
    lines = [
        f"cycles: 1 counting, {len(timed)} span-timed, {off} untraced; .ms values are "
        f"medians per span-timed cycle of {len(load.cycle)} op(s); counts are per cycle, "
        f"from the counting cycle",
        f"incremental.detect.useful_ratio base: {useful} generator changes of "
        f"{reported} paths reported by detect_stale",
    ]
    return metrics, lines


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "aoci", "cli.py")):
        print("error: run from the root of an aoci checkout (src/aoci/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    cls = workloads.WORKLOADS[args.workload]
    base = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    env = environment(ROOT)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {cls.why}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace == 0:
            metrics, lines, ops = run_end_to_end(cls, args, base)
            units = END_TO_END
        else:
            metrics, lines, ops = run_traced(cls, args, base)
            units = PER_LAYER
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(base))

    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    failed = [op for op in ops if op["problem"] is not None]
    for op in failed:
        print(f"FAILED op {op['id']} ({op['kind']}, cycle {op['cycle']}): {op['problem']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_end_to_end(cls, args, base):
    # Earlier set-ups are kept until the run ends: deleting thousands of files
    # just before a timed phase slows it on filesystems mounted with discard.
    setups = []
    for k in range(SETUP_REPEATS):
        work = os.path.join(base, f"setup{k}")
        os.makedirs(work)
        load, seconds = set_up(cls, args.seed, work)
        setups.append(seconds)
    runner = SubprocessRunner(ROOT, load.work)
    ops = closed_loop(load, runner, args.seconds, min_cycles=1)
    metrics, lines = end_to_end(load, ops, setups)
    return metrics, lines, ops


def run_traced(cls, args, base):
    work = os.path.join(base, "setup0")
    os.makedirs(work)
    load, _ = set_up(cls, args.seed, work)
    env = SubprocessRunner(ROOT, work).env
    startup = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aoci.cli"], check=True, env=env, cwd=work)
        startup.append((time.perf_counter() - start) * 1e3)

    tracer = Tracer()
    runner = InProcessRunner(work)
    changed: dict[int, set[str]] = {}

    def on_cycle(cycle: int) -> None:
        tracer.unpatch()
        runner.tracer = None
        mode = cycle_mode(cycle)
        if mode != "off":
            install(tracer, per_call_counts=mode == "count")
            runner.tracer = tracer

    def traced_runner(op, op_id):
        result = runner(op, op_id)
        if op_id in tracer.reported:
            changed[op_id] = load.current.changed_paths()
        return result

    try:
        ops = closed_loop(load, traced_runner, args.seconds, min_cycles=3, on_cycle=on_cycle)
    finally:
        tracer.unpatch()
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.dump(os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.jsonl"))
    metrics, lines = per_layer(load, tracer, ops, startup, changed)
    return metrics, lines, ops


if __name__ == "__main__":
    sys.exit(main())
