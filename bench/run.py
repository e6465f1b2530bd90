"""Run one detfuse benchmark workload and print its metrics.

    python3 bench/run.py --workload ensemble-sparse --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from the seed under ``.bench_work/`` (set-up
is repeated and its median reported), then runs the real CLI commands
in-process through ``detfuse.cli.main(argv)`` until ``--seconds`` is
spent, with stdout sent to a sink. Interpreter start-up is therefore not
measured. ``DETFUSE_THREADS`` is cleared so every commit runs the default
serial path. Every output is digested and checked; on the pinned seed the
digests and scores must equal those in ``pinned.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced pipelines and reports the per-layer metrics from the
spans of the traced ones (see spans.py). A record of the run (environment,
input sizes, every metric, digests and spans) goes to ``.bench_out/``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = (3, 30)  # at least, at most
SETUP_MIN_S = 2.0  # set up again until this much set-up time is measured
MIN_ITERATIONS = 3
PINNED_SEED = 0


def load_program() -> None:
    """Import detfuse from this checkout's ``src`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import detfuse
    except ImportError as e:
        sys.exit(f"bench: cannot import detfuse from {src}: {e}")
    if Path(detfuse.__file__).resolve().parent != src / "detfuse":
        sys.exit(f"bench: detfuse imported from {detfuse.__file__}, not from {src}")


class _Sink(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


def run_command(argv: list[str]) -> tuple[float, str | None]:
    """Run one CLI command in-process; returns (seconds, failure or None)."""
    import detfuse.cli

    err = io.StringIO()
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(_Sink()), contextlib.redirect_stderr(err):
            code = detfuse.cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:
        code, failure = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()}"
    return elapsed, failure


def run_pipeline(workload, work: Path, seed: int, tracer=None) -> dict:
    """One pass of the workload's command sequence, then its output digests."""
    from workloads import combine

    workload.clean(work)
    gc.collect()
    os.sync()
    times: dict[str, float] = {}
    failures: dict[str, str] = {}
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        start = time.perf_counter()
        for name, argv in workload.commands(work, seed):
            span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
            with span:
                times[name], failure = run_command(argv)
            if failure:
                failures[name] = failure
        pipeline = time.perf_counter() - start
    digests = {name: combine(workload.digests(work, name)) for name in workload.commands_run}
    return {"pipeline_s": pipeline, "times": times, "failures": failures, "digests": digests}


def timed_setup(workload, work: Path, seed: int, tracer=None) -> float:
    """Build the inputs into ``work``; returns the seconds it took."""
    gc.collect()
    os.sync()
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    with installed:
        start = time.perf_counter()
        workload.setup(work, seed)
        return time.perf_counter() - start


def measure(workload, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run pipelines until ``seconds`` would be exceeded.

    Untraced: at least MIN_ITERATIONS pipelines. Traced: at least one
    (untraced, traced) pair; the first pair member is untraced.
    """
    from spans import Tracer

    # An untimed first set-up creates the input files and the timed ones
    # rewrite them in place: on a virtual disk, creating thousands of small
    # files takes 0.1 s or 2 s depending on which inode tables the kernel
    # has cached, which would drown the generation and writing work.
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    timed_setup(workload, work, seed)
    setup_spans = []
    if trace:
        tracer = Tracer("setup")
        setup_times = [timed_setup(workload, work, seed, tracer)]
        setup_spans = tracer.spans
    else:
        # a cheap set-up is repeated more often, so its median is steady too
        setup_times = []
        while len(setup_times) < SETUP_REPEATS[1] and (
                len(setup_times) < SETUP_REPEATS[0] or sum(setup_times) < SETUP_MIN_S):
            setup_times.append(timed_setup(workload, work, seed))

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pipeline(workload, work, seed))
        if trace:
            tracer = Tracer(f"{workload.name}/{seed}/{len(traced)}")
            traced.append(run_pipeline(workload, work, seed, tracer))
            traced[-1]["spans"] = tracer.spans
        last = time.perf_counter() - t0
        enough = bool(traced) if trace else len(plain) >= MIN_ITERATIONS
        if enough and time.perf_counter() - start + last > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"setup_times": setup_times, "setup_spans": setup_spans, "plain": plain,
            "traced": traced, "peak_rss_mb": peak_rss_mb}


def judge(workload, work: Path, runs: list[dict], pinned: dict | None) -> dict:
    """Failures per (pipeline, command): errors, digest mismatches, bad outputs."""
    reference = pinned["digests"] if pinned else runs[0]["digests"]
    failed: dict[tuple[int, str], str] = {}
    for i, run in enumerate(runs):
        for name in workload.commands_run:
            if name in run["failures"]:
                failed[i, name] = run["failures"][name]
            elif run["digests"][name] != reference[name]:
                failed[i, name] = f"digest {run['digests'][name]} != {reference[name]}"
    try:
        errors, sizes, quality = workload.check(work)
    except Exception:
        # outputs too broken to read: every command of the workload fails
        crash = traceback.format_exc(limit=3)
        errors, sizes, quality = {c: [crash] for c in workload.commands_run}, {}, {}
    if pinned:
        for key in ("fused_map", "detection_rate"):
            if key in pinned and quality.get(key) != pinned[key]:
                errors["eval"].append(f"{key} {quality.get(key)!r} != pinned {pinned[key]!r}")
    for name, problems in errors.items():
        for i in range(len(runs)):
            if problems:
                failed.setdefault((i, name), "; ".join(problems[:3]))
    return {"failed": failed, "sizes": sizes, "quality": quality,
            "attempted": len(runs) * len(workload.commands_run)}


def check_span_sums(traced: list[dict]) -> list[str]:
    """Self times under each command span must add up to the command's wall time."""
    from spans import self_times

    problems = []
    for run in traced:
        spans = run["spans"]
        own = self_times(spans)
        for root, span in enumerate(spans):
            if span.parent is not None:
                continue
            subtree, total = {root}, own[root]
            for i in range(root + 1, len(spans)):
                if spans[i].parent in subtree:
                    subtree.add(i)
                    total += own[i]
            wall = run["times"][span.name.split(".", 1)[1]]
            if abs(total - span.duration) > 1e-6 or abs(total - wall) > 1e-3:
                problems.append(f"{span.run_id} {span.name}: self times sum to {total}, "
                                f"span {span.duration}, command {wall}")
    return problems


def median_of(runs: list[dict], key) -> float:
    return statistics.median(key(r) for r in runs)


def end_to_end_metrics(m: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(m["setup_times"]),
        "pipeline_s": median_of(m["plain"], lambda r: r["pipeline_s"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer_metrics(workload, m: dict) -> dict[str, float]:
    from spans import COMMANDS, layer_metrics

    per_run = [layer_metrics(r["spans"]) for r in m["traced"]]
    out = {key: statistics.median(p[key] for p in per_run) for key in per_run[0]}
    out["synth.random_ground_truth.s"] = (
        layer_metrics(m["setup_spans"])["synth.random_ground_truth.s"])
    for cmd in COMMANDS:
        out[f"{cmd}_s"] = (median_of(m["plain"], lambda r: r["times"][cmd])
                           if cmd in workload.commands_run else 0.0)
    out["trace.overhead_s"] = (median_of(m["traced"], lambda r: r["pipeline_s"])
                               - median_of(m["plain"], lambda r: r["pipeline_s"]))
    return out


def with_units(values: dict[str, float], kind: str) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares under ``kind``, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if set(values) != {m["name"] for m in spec}:
        raise ValueError(f"computed metrics differ from the declared {kind} metrics: "
                         f"{sorted(set(values) ^ {m['name'] for m in spec})}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def environment(seed: int, threads_was: str | None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
        "DETFUSE_THREADS": f"cleared (was {threads_was!r})",
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed: int, seconds: float, trace: bool, work_root: Path,
                 pinned: dict | None = None) -> dict:
    """Measure one workload and judge its outputs; returns the run record."""
    work = work_root / workload.name
    try:
        m = measure(workload, work, seed, seconds, trace)
        runs = m["plain"] + m["traced"]
        verdict = judge(workload, work, runs, pinned)
        problems = check_span_sums(m["traced"]) if trace else []
        metrics = (with_units(per_layer_metrics(workload, m), "per_layer") if trace
                   else with_units(end_to_end_metrics(m), "end_to_end"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    plain_times = {cmd: median_of(m["plain"], lambda r: r["times"][cmd])
                   for cmd in workload.commands_run}
    return {
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(trace),
        "pipelines": {"untraced": len(m["plain"]), "traced": len(m["traced"]),
                      "setups": len(m["setup_times"])},
        "attempted": verdict["attempted"],
        "failed": len(verdict["failed"]),
        "failures": {f"{i}/{name}": why for (i, name), why in verdict["failed"].items()},
        "problems": problems,
        "sizes": verdict["sizes"],
        "quality": verdict["quality"],
        "command_s": plain_times,
        "samples": {
            "setup_s": m["setup_times"],
            "pipeline_s": [r["pipeline_s"] for r in m["plain"]],
            "traced_pipeline_s": [r["pipeline_s"] for r in m["traced"]],
        },
        "digests": m["plain"][0]["digests"],
        "metrics": metrics,
        "spans": [
            [s.name, s.start, s.end, s.parent, s.run_id, s.counts]
            for r in m["traced"] for s in r["spans"]
        ],
    }


def report(record: dict) -> None:
    """Human-readable lines: environment, every metric with its unit, sizes."""
    env = record["env"]
    print(f"workload {record['workload']}  seed {env['seed']}  trace {record['trace']}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"commit {env['commit'][:12]}  DETFUSE_THREADS {env['DETFUSE_THREADS']}")
    p = record["pipelines"]
    print(f"pipelines: {p['untraced']} untraced, {p['traced']} traced; "
          f"set-ups: {p['setups']}")
    for cmd, t in record["command_s"].items():
        print(f"  {cmd + '_s':<12} {t:10.4f} s   input {record['sizes'].get(cmd)}")
    for key, value in record["quality"].items():
        print(f"  {key:<12} {value!r}")
    print(f"  failed_ratio {record['failed'] / record['attempted']!r} "
          f"({record['failed']} of {record['attempted']} commands)")
    for key, m in record["metrics"].items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    for line in list(record["failures"].items())[:10] + record["problems"][:10]:
        print(f"  FAILED {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    threads_was = os.environ.pop("DETFUSE_THREADS", None)
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    pinned = None
    if args.seed == PINNED_SEED:
        pinned = json.loads((BENCH / "pinned.json").read_text())[args.workload]

    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), ROOT / ".bench_work", pinned)
    record["env"] = environment(args.seed, threads_was)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
